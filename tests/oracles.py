"""Package-free oracles for the acceptance suite.

Nothing here imports ``ncpverify``: partitions are frozensets of
frozensets over {1..n}, built from set partitions by restricted growth
strings, and every definition is read from the README and
docs/formats.md rather than from the package's bitmask code.

* ``parse_chain`` -- the chain grammar: members separated by ``<``,
  parts by ``,``, singletons omitted.
* ``smallest_blocks`` -- ``F_i`` is the smallest part of size >= 2
  containing ``i`` across the chain's members, the full set when ``i``
  is a singleton in every member.
* ``literal_iii`` -- condition III read literally: some open window of
  the chain (below the first member, between consecutive members, above
  the last) holds two partitions of proper rank, some size->=2 parts of
  which cross.
* ``prime_signature`` -- the F' family (``F_i`` cut to the cyclic
  neighbors of ``i``) up to symmetry: the least of its 2n dihedral
  images, element i and its set moving to g(i) and g(F_i').
* ``kreweras_dual_via_regions`` -- the Kreweras complement read off the
  interleaved circle, independent of the package's successor walk.
* ``walk_maximal_chains`` -- every maximal chain by merging two parts at
  a time, on bitmask part tuples (bit e-1 for element e), each leaf with
  its family C_1..C_n, optionally pruned by an F' family: the reference
  for the package's maximal-chain index and pruned grower, which grow
  over the catalogue's order rows instead.
* ``_elements`` and ``_masks_alternate`` -- a mask's elements by a bit
  loop, and the crossing of two disjoint masks by counting side
  switches: the references for the per-mask element and digit tables
  and the run-counting crossing test of ``ncpverify.core``.
* ``code_fields`` -- a family code read back as masks: n fields of n
  bits, field i-1 (bits (i-1)*n ..) for element i.
* ``from_masks`` -- a bitmask part tuple as a frozenset partition, so
  the set-level crossing tests read the package's partitions.
* ``dihedral_perms`` -- the 2n symmetries of the circle as image lists
  (``perm[e-1]`` is the image of e), in the order of the catalogue's
  ``symmetries``: rotations r_0..r_{n-1}, e -> (e-1+k) mod n + 1, then
  reflections s_0..s_{n-1}, e -> (c-(e-1)) mod n + 1.
* ``apply_symmetry`` -- a dihedral symmetry, given as its image list
  ``perm``, applied to a bitmask part tuple; the result is sorted by
  least element, as ``Partition.parts``.
* ``cycle_type`` -- the cycle type of P^-1 Q for bitmask part tuples P
  and Q, each block read as the permutation that cycles it in
  increasing order.
* ``edelman_count`` -- the number of chains of NC(n) with a given rank
  set, by Edelman's product formula ("Chain enumeration and
  non-crossing partitions", Discrete Math. 31, 1980).
* ``chain_members``, ``chain_orbit`` and ``burnside_counts`` -- a chain
  (or its dual) as the set of its members' bitmask part tuples, its orbit
  under the dihedral group D_n and the Kreweras complement K, and the
  number of orbits of a set of chains by Burnside's lemma, acting through
  ``apply_symmetry`` and ``kreweras_dual_via_regions``.
* ``clause_keys`` -- per 8-bit relation key, the pattern clauses it
  satisfies, each key testing every clause relation by relation: the
  reference for the hit tables that ``ncpverify.condition4`` builds
  clause by clause.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

Part = frozenset[int]
Partition = frozenset[Part]


def parse_partition(n: int, text: str) -> Partition:
    parts = [frozenset(int(c) for c in block) for block in text.split(",") if block]
    covered = set().union(*parts)
    parts += [frozenset({e}) for e in range(1, n + 1) if e not in covered]
    return frozenset(parts)


def parse_chain(n: int, text: str) -> list[Partition]:
    return [parse_partition(n, member) for member in text.split("<")]


def smallest_blocks(n: int, text: str) -> dict[int, Part]:
    members = parse_chain(n, text)
    full = frozenset(range(1, n + 1))
    return {
        i: min(
            (part for p in members for part in p if i in part and len(part) >= 2),
            key=len,
            default=full,
        )
        for i in range(1, n + 1)
    }


def prime_signature(n: int, text: str) -> tuple[tuple[int, ...], ...]:
    blocks = smallest_blocks(n, text)
    primes = {i: blocks[i] & {(i - 2) % n + 1, i % n + 1} for i in blocks}
    images = []
    for k in range(n):
        for sign in (1, -1):  # rotation by k, reflection then rotation by k
            g = {e: (sign * (e - 1) + k) % n + 1 for e in range(1, n + 1)}
            image = [()] * n
            for i, prime in primes.items():
                image[g[i] - 1] = tuple(sorted(g[e] for e in prime))
            images.append(tuple(image))
    return min(images)


def parts_cross(s: Part, t: Part) -> bool:
    """Disjoint parts of size >= 2 with a < b < c < d, a, c in one, b, d in the other."""
    if s & t or len(s) < 2 or len(t) < 2:
        return False
    return any(
        a < b < c < d or b < a < d < c
        for a, c in itertools.combinations(sorted(s), 2)
        for b, d in itertools.combinations(sorted(t), 2)
    )


def partitions_cross(p: Partition, q: Partition) -> bool:
    return any(parts_cross(s, t) for s in p for t in q)


def refines(p: Partition, q: Partition) -> bool:
    return all(any(part <= big for big in q) for part in p)


def from_masks(parts) -> Partition:
    return frozenset(frozenset(_elements(mask)) for mask in parts)


def dihedral_perms(n: int) -> tuple[tuple[int, ...], ...]:
    rotations = [tuple((e - 1 + k) % n + 1 for e in range(1, n + 1)) for k in range(n)]
    reflections = [tuple((c - (e - 1)) % n + 1 for e in range(1, n + 1)) for c in range(n)]
    return tuple(rotations + reflections)


def apply_symmetry(perm: tuple[int, ...], parts) -> tuple[int, ...]:
    images = [sum(1 << (perm[e - 1] - 1) for e in _elements(mask)) for mask in parts]
    return tuple(sorted(images, key=lambda m: m & -m))


def _cycling(parts) -> dict[int, int]:
    """The permutation that sends each element to the next larger one of
    its part, and the largest back to the smallest."""
    step = {}
    for mask in parts:
        elements = _elements(mask)
        step.update(zip(elements, elements[1:] + elements[:1]))
    return step


def cycle_type(lower, upper) -> tuple[int, ...]:
    """Cycle lengths of P^-1 Q (P = ``lower``, Q = ``upper``), longest first."""
    p, q = _cycling(lower), _cycling(upper)
    p_inverse = {image: e for e, image in p.items()}
    lengths = []
    unseen = set(p)
    while unseen:
        e = min(unseen)
        length = 0
        while e in unseen:
            unseen.discard(e)
            length += 1
            e = p_inverse[q[e]]
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def edelman_count(n: int, ranks) -> int:
    """Chains of NC(n) whose members have exactly the ranks ``ranks``.

    With 0 = r_0 < r_1 < ... < r_k < r_{k+1} = n - 1 the count is
    (1/n) * prod_j binom(n, r_{j+1} - r_j).
    """
    steps = (0, *sorted(ranks), n - 1)
    product = 1
    for low, high in itertools.pairwise(steps):
        product *= math.comb(n, high - low)
    count, remainder = divmod(product, n)
    if remainder:
        raise ValueError(f"the product {product} is not a multiple of n = {n}")
    return count


def _masks(partition: Partition) -> tuple[int, ...]:
    """A partition as a bitmask part tuple sorted by least element, the
    form ``apply_symmetry`` returns."""
    masks = (sum(1 << e - 1 for e in part) for part in partition)
    return tuple(sorted(masks, key=lambda m: m & -m))


@lru_cache(maxsize=None)
def _member(n: int, text: str, dual: bool) -> tuple[int, ...]:
    partition = kreweras_dual_via_regions(n, text) if dual else parse_partition(n, text)
    return _masks(partition)


@lru_cache(maxsize=None)
def _image(perm: tuple[int, ...], member: tuple[int, ...]) -> tuple[int, ...]:
    return apply_symmetry(perm, member)


def chain_members(n: int, text: str, dual: bool = False) -> frozenset[tuple[int, ...]]:
    """The chain, or its Kreweras dual, as the set of its members.  K
    reverses the order, so the duals of the members are the dual chain."""
    return frozenset(_member(n, member, dual) for member in text.split("<"))


def _dihedral_images(n: int, chain) -> list[frozenset[tuple[int, ...]]]:
    return [frozenset(_image(perm, m) for m in chain) for perm in dihedral_perms(n)]


def chain_orbit(n: int, text: str) -> frozenset[frozenset[tuple[int, ...]]]:
    """The chain's orbit under D_n and K D_n, each chain as its member set."""
    images = _dihedral_images(n, chain_members(n, text))
    return frozenset(images + _dihedral_images(n, chain_members(n, text, True)))


def burnside_counts(n: int, texts) -> tuple[Fraction, Fraction]:
    """The mean number of the chains ``texts`` fixed by an element of D_n,
    and by an element of D_n together with K D_n.

    When ``texts`` is a union of orbits, each mean is the number of orbits
    (the Cauchy-Frobenius lemma, also called Burnside's).  K K is the
    rotation r_{-1}, so K commutes with every rotation, and K s_c =
    s_{c-1} K; so D_n and K D_n = D_n K make a group of order 4n.  Its
    coset is the 2n maps g K, and g K fixes C exactly when g(K C) = C, so
    each chain is dualised once.
    """
    fixed = dual_fixed = 0
    for text in texts:
        chain = chain_members(n, text)
        fixed += _dihedral_images(n, chain).count(chain)
        dual_fixed += _dihedral_images(n, chain_members(n, text, True)).count(chain)
    return Fraction(fixed, 2 * n), Fraction(fixed + dual_fixed, 4 * n)


def clause_keys(clauses, strict: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per key, the (k, m) of every clause of ``clauses`` that it satisfies.

    ``clauses[k][m-1]`` is clause m's tuple of relation symbols.  A key
    holds four 2-bit relation codes, the first relation lowest: 0 equal,
    1 proper superset, 2 proper subset, 3 incomparable.  "=" accepts
    equal; ">=" accepts proper superset, and equal too unless ``strict``;
    "<=" likewise with proper subset.
    """
    accepts = {
        "=": {0},
        ">=": {1} if strict else {0, 1},
        "<=": {2} if strict else {0, 2},
    }
    return tuple(
        tuple(
            (k, m)
            for k, variants in clauses.items()
            for m, rels in enumerate(variants, 1)
            if all(key >> 2 * t & 3 in accepts[rel] for t, rel in enumerate(rels))
        )
        for key in range(256)
    )


def _set_partitions(n: int):
    def grow(prefix: list[int], top: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from grow(prefix + [v], max(top, v))

    for rgs in grow([], -1):
        parts: dict[int, set[int]] = {}
        for element, label in enumerate(rgs, 1):
            parts.setdefault(label, set()).add(element)
        yield frozenset(frozenset(part) for part in parts.values())


@lru_cache(maxsize=None)
def proper_noncrossing(n: int) -> tuple[Partition, ...]:
    """NC(n) without the all-singleton bottom and the one-block top."""
    return tuple(
        p
        for p in _set_partitions(n)
        if 1 < len(p) < n and not partitions_cross(p, p)
    )


def literal_iii(n: int, text: str) -> bool:
    members = parse_chain(n, text)
    bounds = [None, *members, None]
    for low, high in itertools.pairwise(bounds):
        window = [
            p
            for p in proper_noncrossing(n)
            if (low is None or (p != low and refines(low, p)))
            and (high is None or (p != high and refines(p, high)))
        ]
        if any(partitions_cross(p, q) for p, q in itertools.combinations(window, 2)):
            return True
    return False


def kreweras_dual_via_regions(n: int, text: str) -> Partition:
    """The Kreweras complement of a non-crossing partition.

    Place a copy i' of each element i between i and i+1 on the circle.
    The chord from i' to j' (i < j) splits the elements into {i+1..j}
    and the rest; copies i' and j' lie in the same dual part exactly when
    no part of the partition has elements on both sides of that chord.
    Copy i' stands for element i of the dual.
    """
    parts = parse_partition(n, text)

    def together(i: int, j: int) -> bool:
        inside = set(range(min(i, j) + 1, max(i, j) + 1))
        return not any(part & inside and part - inside for part in parts)

    elements = range(1, n + 1)
    return frozenset(
        frozenset(j for j in elements if together(i, j)) for i in elements
    )


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(e + 1 for e in range(mask.bit_length()) if mask >> e & 1)


def _masks_alternate(s: int, t: int) -> bool:
    """Disjoint masks whose elements, read in order, switch sides at least three times."""
    sides = [1 if s >> e & 1 else 2 for e in range((s | t).bit_length()) if (s | t) >> e & 1]
    return sum(a != b for a, b in itertools.pairwise(sides)) >= 3


def _merge_children(parts: tuple[int, ...]):
    """All one-merge coarsenings that stay non-crossing, in canonical order."""
    children = []
    for (ia, a), (ib, b) in itertools.combinations(enumerate(parts), 2):
        merged = a | b
        rest = [p for k, p in enumerate(parts) if k != ia and k != ib]
        if any(_masks_alternate(merged, q) for q in rest):
            continue
        child = tuple(sorted(rest + [merged], key=lambda m: m & -m))
        children.append((child, a, b, merged))
    children.sort(key=lambda item: tuple(_elements(p) for p in item[0]))
    return children


def code_fields(n: int, code: int) -> tuple[int, ...]:
    """The masks held in the n fields of n bits of ``code``, field 0 first."""
    return tuple(code >> e * n & (1 << n) - 1 for e in range(n))


def walk_maximal_chains(n: int, primes: tuple[int, ...]):
    """Every maximal chain whose C' family can avoid the F' family ``primes``.

    Per chain, in depth-first merge order: the member part-tuples (ranks
    1..n-2) and (C_1..C_n), where C_e is the first non-singleton block of
    e, or the full set.  Each cover of the lattice merges exactly two
    parts, so the merge tree hits every maximal chain exactly once.  A
    merge that gives e its first block B fixes C_e for every completion,
    so the branch is cut when B meets F_e'.  An element still singleton
    at the last member has C_e the full set, which the caller checks
    against F_e'.  An all-zero family cuts nothing.
    """
    full = (1 << n) - 1
    first_block = [0] * n
    members: list[tuple[int, ...]] = []
    children: dict[tuple[int, ...], list] = {}

    def grow(parts: tuple[int, ...]):
        if len(members) == n - 2:
            yield tuple(members), tuple(block or full for block in first_block)
            return
        merges = children.get(parts)
        if merges is None:
            merges = children[parts] = _merge_children(parts)
        for child, a, b, merged in merges:
            newly = [p.bit_length() - 1 for p in (a, b) if not p & (p - 1)]
            if any(merged & primes[e] for e in newly):
                continue
            for e in newly:
                first_block[e] = merged
            members.append(child)
            yield from grow(child)
            members.pop()
            for e in newly:
                first_block[e] = 0

    yield from grow(tuple(1 << e for e in range(n)))

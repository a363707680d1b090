"""Exhaustive generators over NC(n): chains and maximal chains.

Everything here is deterministic and restartable.  NC(n) itself comes
from ``lattice.noncrossing_partitions``.  Chains are produced rank-set
by rank-set, in depth-first order, as catalogue-index tuples grown over
the order bitsets (``enumerate_chains`` wraps them as objects).  That
stream order is the one chain order, and ``stream_order`` its sort key,
by which orbit classes and survey lists are sorted.  Each chain comes
with its condition II/III code: the growth ORs in one step code per
edge, so the windows of a prefix are read once for all the chains that
extend it, and the scan reads conditions II and III on both duality
sides from that one small int.

Questions about how many chains there are, or which one sits at a
given place of that order, need no stream.  Per rank-set suffix, a
completion table counts the ways to finish a chain from each member of
its first rank; ``count_chains`` sums the tables, and ``chains_at``
unranks a position by choosing its rank set from the cumulative counts,
then one successor per rank.  ``sample_chains`` draws its positions and
unranks them.

The maximal chains are the chains with rank set 1..n-2.  For n <= 7
they are cached as an index, grown over the catalogue rows like any
other rank set: for each of the n^(n-2) chains, the catalogue indices of
its members and the enclosing-block family C_i, carried through the
growth as one int, one step code per edge, the way the II/III code is.
That family code has n fields of n bits, field i-1 holding C_i; an F'
family packs into the same layout (``SmallestBlockFamily.packed_primes``),
and the C' family is the code ANDed with the neighbor bits of every
field.  The chains share few families (5 103 at n = 7) and fewer C'
families (826), so the index groups the chains by C' and keeps each
group's distinct family codes once.  With one bitset of groups per bit,
the groups compatible with an F' demand are all groups but the OR of
the demand bits' bitsets: deciding condition IV is at most 2n ORs and a
lowest set bit, and lemma 3 tests each compatible family with one AND.

Beyond the index (n = 8, 9), ``pruned_maximal_chains`` answers
condition IV with the same grower and step codes, given the chain's F'
family to avoid: an edge whose step code meets it is skipped with
everything above it.  The growth is depth first, so the search can stop
at the first witness, and the leaves that remain come in index order,
which fixes "the first witness" at every n.  One grower,
``_grow_chains``, serves the scan, the survey stream, the index and
this search.  The merge walk over part tuples that it replaced is kept
in ``tests/oracles.py`` as its independent reference.

``orbit_classes`` reduces the theorem5 candidates to dihedral orbits in
one sweep over their index tuples: each orbit is built once from the
catalogue's index permutations and every image is recorded with its
class, so a later candidate in a known orbit costs one lookup, and a
dual representative is the class of the representative's dual.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array
from functools import lru_cache
from typing import NamedTuple

from ncpverify.chains import (
    Chain,
    chain_from_indices,
    dual_indices,
    neighbor_mask,
)
from ncpverify.lattice import Catalogue, catalogue, iter_bits


def rank_sets(n: int):
    """All nonempty subsets of 1..n-2, by (size, lexicographic) order."""
    for size in range(1, n - 1):
        yield from itertools.combinations(range(1, n - 1), size)


def chain_index_tuples(cat: Catalogue, ranks):
    """(indices, code) for every chain with the given rank set.

    Chains come in the order of a depth-first sweep.  The code is the
    chain's condition II/III code (bit layout in ``lattice``): the OR of
    the step codes of its edges, so each prefix's readings are shared by
    every chain that extends it.
    """
    return _grow_chains(cat, ranks, cat.member_code, cat.edge_code)


def _grow_chains(cat: Catalogue, ranks, member_code, edge_code, avoid: int = 0):
    """(indices, code) for every chain with the given, strictly increasing ranks.

    A chain's code is the OR of ``member_code(j)`` per member and
    ``edge_code(lower, upper)`` per edge, the last member's edge to top
    included.  A rank is one contiguous slice of indices, so a member's
    successors are the bits of its ``above`` row shifted down to the next
    rank's slice, found once per member in index order: the leaves come
    in index-tuple order.  An edge whose code meets ``avoid`` is skipped
    with every chain through it; the edge to top is not tested.
    """
    top, above, leaf = cat.top, cat.above, len(ranks) - 1
    levels = []
    for t, r in enumerate(ranks):
        members = cat.rank_indices[r]
        own = [member_code(j) | (edge_code(j, top) if t == leaf else 0) for j in members]
        levels.append((members[0], (1 << len(members)) - 1, own))
    successors: dict[int, list[tuple[int, int]]] = {}

    def following(last: int, t: int) -> list[tuple[int, int]]:
        found = successors.get(last)
        if found is None:
            first, span, own = levels[t]
            found = successors[last] = []
            for k in iter_bits(above[last] >> first & span):
                edge = edge_code(last, first + k)
                if not edge & avoid:
                    found.append((first + k, own[k] | edge))
        return found

    if not leaf:
        for j, step in following(cat.bottom, 0):
            yield (j,), step
        return
    # Each entry holds a prefix, its code and the successors of its last
    # member still to visit; the members of the last rank are not pushed.
    stack = [((), 0, iter(following(cat.bottom, 0)))]
    while stack:
        prefix, code, pending = stack[-1]
        t = len(prefix) + 1
        if t == leaf:
            stack.pop()
            for j, step in pending:
                chain, reached = prefix + (j,), code | step
                for k, last_step in following(j, t):
                    yield chain + (k,), reached | last_step
            continue
        for j, step in pending:
            stack.append((prefix + (j,), code | step, iter(following(j, t))))
            break
        else:
            stack.pop()


def enumerate_chains(n: int, rank_filter=None):
    """Every chain of the proper part of NC(n) in stream order, optionally
    one rank set only."""
    if not 3 <= n <= 7:
        raise ValueError("full chain enumeration needs 3 <= n <= 7")
    cat = catalogue(n)
    sets = [tuple(sorted(rank_filter))] if rank_filter is not None else rank_sets(n)
    for ranks in sets:
        if not ranks or not all(1 <= r <= n - 2 for r in ranks):
            raise ValueError(f"ranks {ranks} outside 1..{n - 2}")
        if len(set(ranks)) < len(ranks):
            raise ValueError(f"ranks {ranks} repeat a rank")
        for indices, _ in chain_index_tuples(cat, ranks):
            yield chain_from_indices(cat, indices)


def all_chain_index_tuples(cat: Catalogue):
    """(indices, code) for every chain, in stream order (``stream_order``)."""
    for ranks in rank_sets(cat.n):
        yield from chain_index_tuples(cat, ranks)


def stream_order(cat: Catalogue):
    """The sort key of the order ``all_chain_index_tuples`` streams in:
    rank sets as ``rank_sets`` gives them, each in index-tuple order."""
    rank = [p.rank for p in cat.partitions]
    return lambda indices: (len(indices), tuple(rank[j] for j in indices), indices)


@lru_cache(maxsize=None)
def _completions(n: int) -> dict[tuple[int, ...], list[int]]:
    """Per rank-set suffix, the number of ways to finish a chain.

    ``completions[suffix][k]`` counts the chains with rank set ``suffix``
    whose least member is the k-th index of rank ``suffix[0]``: one if
    the suffix is that rank alone, else the sum over its successors in
    the next rank, read as the bits of its ``above`` row inside that
    rank's slice (as ``_grow_chains`` reads them).  Every rank set is a suffix
    of itself, and its chain count is the sum of its table.  ``rank_sets``
    yields the shorter suffixes first, so each table reads a finished one.
    """
    cat = catalogue(n)
    completions: dict[tuple[int, ...], list[int]] = {}
    for suffix in rank_sets(n):
        members = cat.rank_indices[suffix[0]]
        if len(suffix) == 1:
            completions[suffix] = [1] * len(members)
            continue
        after = completions[suffix[1:]]
        following = cat.rank_indices[suffix[1]]
        first = following[0]
        span = (1 << len(following)) - 1
        completions[suffix] = [
            sum(after[k] for k in iter_bits(cat.above[j] >> first & span))
            for j in members
        ]
    return completions


def count_chains(n: int) -> int:
    """The number of chains of the proper part of NC(n), without a walk."""
    return sum(map(sum, _completions(n).values()))


def chains_at(n: int, positions) -> list[tuple[int, ...]]:
    """The index tuples at the given places of the stream order.

    Each position is unranked, not walked to: its rank set comes from the
    cumulative chain counts, then each member is the successor of the
    last (bottom first) whose completions cover what is left of the
    position, successors taken in index order as the depth-first sweep
    takes them.
    """
    cat = catalogue(n)
    completions = _completions(n)
    sets = list(rank_sets(n))
    starts = list(itertools.accumulate((sum(completions[r]) for r in sets), initial=0))
    chains = []
    for position in positions:
        if not 0 <= position < starts[-1]:
            raise IndexError(f"chain position {position} outside 0..{starts[-1] - 1}")
        place = bisect.bisect_right(starts, position) - 1
        ranks = sets[place]
        position -= starts[place]
        last = cat.bottom
        members = []
        for t, r in enumerate(ranks):
            counts = completions[ranks[t:]]
            first = cat.rank_indices[r][0]
            span = (1 << len(counts)) - 1
            for k in iter_bits(cat.above[last] >> first & span):
                if position < counts[k]:
                    break
                position -= counts[k]
            last = first + k
            members.append(last)
        chains.append(tuple(members))
    return chains


def sample_chains(n: int, k: int, seed: int) -> list[Chain]:
    """``random.Random(seed).sample(list(enumerate_chains(n)), k)``, unranked.

    ``sample`` draws positions from the population's length alone, so
    drawing from ``range(count)`` and unranking those positions gives the
    same chains without building the others.
    """
    count = count_chains(n)
    positions = random.Random(seed).sample(range(count), min(k, count))
    cat = catalogue(n)
    return [chain_from_indices(cat, indices) for indices in chains_at(n, positions)]


# -- maximal chains -------------------------------------------------------


@lru_cache(maxsize=None)
def _enclosing_step(cat: Catalogue):
    """The edge code that carries a maximal chain's family (C_1..C_n).

    The code has n fields of n bits; field e holds C_e, the first
    non-singleton block of e.  An edge (lower, upper) sets the field of
    each element that is a singleton in ``lower`` but not in ``upper``
    to its part in ``upper``; the last member's edge to top sets every
    remaining singleton's field to the full set.  Each field is set by
    exactly one edge, so the OR of a chain's step codes is its family.
    """
    n = cat.n
    parts = cat.part_by_element
    # the one-element parts of a partition are distinct bits, so their sum is their OR
    singletons = [
        sum(part for part in p.parts if not part & part - 1) for p in cat.partitions
    ]

    def step(lower: int, upper: int) -> int:
        code = 0
        row = parts[upper]
        for e in iter_bits(singletons[lower] & ~singletons[upper]):
            code |= row[e] << e * n
        return code

    return step


def pruned_maximal_chains(cat: Catalogue, demand: int):
    """(indices, family code) of every maximal chain that ``demand`` does not cut.

    ``demand`` is a chain's F' family as ``packed_primes()`` gives it, in
    the layout of ``_enclosing_step``.  Leaves come in index order.  A
    leaf's family code includes its untested edge to top: the caller
    counts the leaf, then tests the code.
    """
    return _grow_chains(cat, range(1, cat.n - 1), lambda j: 0, _enclosing_step(cat), demand)


class MaximalChainIndex:
    """All maximal chains of the proper part of NC(n), n <= 7, as tables.

    The maximal chains are the chains with rank set 1..n-2, so the index
    grows them over the catalogue rows like every other rank set.  Within
    a rank, index order is ``sort_key`` order, so chain k here is leaf k
    of ``pruned_maximal_chains`` with an empty demand.  Per chain k:

    * ``chain_at(k)``: its members, read from ``member_indices``, the
      catalogue indices of all chains in one flat ``array('H')`` (n - 2
      per chain);
    * ``enclosing[k]``: its family code (C_1..C_n), carried through the
      growth as one int (``_enclosing_step``), in one ``array('Q')``.

    A chain's C' family is its code ANDed with the neighbor bits of
    every field, in the layout of ``SmallestBlockFamily.packed_primes``.
    ``groups`` maps each distinct C', in order of first occurrence, to
    the ascending positions (an ``array('H')``) of its chains; the first
    compatible group in that order therefore holds the least compatible
    position.  Per bit, a bitset of the groups whose C' has that bit makes
    the compatible groups all but the OR of a demand's bitsets.  Each
    group keeps its distinct family codes in order of first occurrence.
    """

    __slots__ = (
        "n",
        "cat",
        "member_indices",
        "enclosing",
        "groups",
        "_positions",
        "_families",
        "_with_bit",
        "_all_groups",
    )

    def __init__(self, n: int):
        self.n = n
        self.cat = cat = catalogue(n)
        self.member_indices = members_flat = array("H")
        self.enclosing = codes = array("Q")
        self.groups: dict[int, array] = {}
        families: dict[int, dict[int, None]] = {}

        neighbors = sum(neighbor_mask(n, i) << (i - 1) * n for i in range(1, n + 1))
        chains = _grow_chains(cat, range(1, n - 1), lambda j: 0, _enclosing_step(cat))
        for position, (members, code) in enumerate(chains):
            members_flat.extend(members)
            codes.append(code)
            key = code & neighbors
            positions = self.groups.get(key)
            if positions is None:
                positions = self.groups[key] = array("H")
                families[key] = {}
            positions.append(position)
            families[key][code] = None

        self._positions = list(self.groups.values())
        self._families = [tuple(found) for found in families.values()]
        self._with_bit = [0] * (n * n)
        for g, key in enumerate(self.groups):
            for b in iter_bits(key):
                self._with_bit[b] |= 1 << g
        self._all_groups = (1 << len(self.groups)) - 1

    def __len__(self) -> int:
        return len(self.enclosing)

    def chain_at(self, k: int) -> Chain:
        width = self.n - 2
        return chain_from_indices(self.cat, self.member_indices[k * width : (k + 1) * width])

    def compatible(self, demand: int) -> int:
        """The groups whose C' avoids the packed F' ``demand``, as a bitset
        over ``groups`` in first-occurrence order."""
        excluded = 0
        for b in iter_bits(demand):
            excluded |= self._with_bit[b]
        return self._all_groups & ~excluded

    def first_compatible(self, demand: int) -> int | None:
        """The least position whose C' avoids the packed F' ``demand``, if any."""
        compatible = self.compatible(demand)
        if not compatible:
            return None
        return self._positions[(compatible & -compatible).bit_length() - 1][0]

    def survivors(self, packed_family: int) -> list[int]:
        """Positions of maximal chains whose C' avoids the given packed F', ascending."""
        return sorted(
            itertools.chain.from_iterable(
                self._positions[g] for g in iter_bits(self.compatible(packed_family))
            )
        )

    def families(self, packed_family: int = 0):
        """The distinct family codes whose C' avoids the given packed F'
        (all of them by default), group by group."""
        for g in iter_bits(self.compatible(packed_family)):
            yield from self._families[g]


@lru_cache(maxsize=None)
def maximal_chain_index(n: int) -> MaximalChainIndex:
    if not 3 <= n <= 7:
        raise ValueError("the maximal-chain index is built for 3 <= n <= 7")
    return MaximalChainIndex(n)


# -- orbit bookkeeping -----------------------------------------------------


class OrbitClass(NamedTuple):
    """One dihedral orbit of chains, with the data the pipeline reports.

    ``rep_indices`` and ``dual_rep_indices`` are the index tuples of the
    two representatives; ``members`` are the input tuples that lie in
    the orbit, in input order (the same tuple objects, not copies).
    """

    representative: Chain
    orbit_size: int
    dual_representative: Chain
    rep_indices: tuple[int, ...]
    dual_rep_indices: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def orbit_classes(candidates, n: int) -> list[OrbitClass]:
    """Group chain index tuples into dihedral orbit classes.

    One sweep in input order: a tuple not yet seen has its orbit built
    once from ``cat.symmetries`` (at most 2n images), every image is
    recorded with its class, the least image is the representative and
    the number of distinct images the orbit size.  The input must be
    closed under duality, as the theorem5 candidates are: a class's dual
    representative is the representative of the class recorded for the
    dual of its representative.  Classes come in the stream order of
    their representatives (``stream_order``), and objects are built only
    for the representatives and their duals.
    """
    cat = catalogue(n)
    symmetries = cat.symmetries
    class_of: dict[tuple[int, ...], int] = {}
    found: list[tuple[tuple[int, ...], int, list[tuple[int, ...]]]] = []
    for indices in candidates:
        place = class_of.get(indices)
        if place is None:
            images = {tuple(perm[j] for j in indices) for perm in symmetries}
            place = len(found)
            for image in images:
                class_of[image] = place
            found.append((min(images), len(images), []))
        found[place][2].append(indices)

    order = stream_order(cat)
    classes: list[OrbitClass] = []
    for rep, size, members in sorted(found, key=lambda entry: order(entry[0])):
        dual_rep = found[class_of[dual_indices(cat, rep)]][0]
        classes.append(
            OrbitClass(
                representative=chain_from_indices(cat, rep),
                orbit_size=size,
                dual_representative=chain_from_indices(cat, dual_rep),
                rep_indices=rep,
                dual_rep_indices=dual_rep,
                members=tuple(members),
            )
        )
    return classes

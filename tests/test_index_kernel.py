"""Differential and law tests for the index-space kernel.

The theorem5 scan runs on tuples of catalogue indices.  Each table and
index-tuple function is compared here against an object-level reference
built from ``Partition`` methods, ``core`` functions and the package-free
helpers in ``tests/oracles.py``, and the condition II/III code each chain
carries out of enumeration is checked bit by bit against the single-chain
functions on every chain.  The catalogue's block-built tables are compared
against the pairwise loop over ``leq`` and the oracles' ``partitions_cross``
and ``apply_symmetry``, and checked against the lattice laws they must obey
up to n = 8; the symmetry tables, built from mask rotations and one
bit-reversal table, are compared with ``oracles.dihedral_perms`` at every n
from 1 to 9 (a stride of rows at n = 8 and 9).  The table-driven
condition-IV kernels (pattern detection by relation keys, the index scan by
signature group) are compared against a clause-by-clause detector and a
plain scan over every maximal chain.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from ncpverify.chains import (
    Chain,
    canonical_chain,
    canonical_indices,
    chain_from_indices,
    chain_indices,
    cond_iii_bruteforce,
    dual_chain,
    dual_indices,
    index_text,
    neighbor_mask,
    smallest_blocks,
    window_code_of_indices,
)
from ncpverify.core import (
    Partition,
    _masks_alternate,
    kreweras_dual,
    leq,
)
from ncpverify.condition4 import CLAUSES, PatternHit, cond_iv, detect_patterns
from ncpverify.enumeration import (
    all_chain_index_tuples,
    enumerate_chains,
    maximal_chain_index,
    orbit_classes,
)
from ncpverify.lattice import (
    CRITERION,
    DUAL_CRITERION,
    DUAL_LITERAL,
    DUAL_NOT_UNIVERSAL,
    LITERAL,
    NOT_UNIVERSAL,
    catalogue,
    iter_bits,
    noncrossing_partitions,
)
from ncpverify.pipeline import run_theorem5

import oracles


# -- object-level references ------------------------------------------------


def _four_members_cross(n: int, members: list[int]) -> bool:
    for a, b, c, d in itertools.combinations(members, 4):
        if (
            _masks_alternate(a | b, c | d, n)
            or _masks_alternate(a | c, b | d, n)
            or _masks_alternate(a | d, b | c, n)
        ):
            return True
    return False


def reference_criterion(chain: Chain) -> bool:
    """The four-member condition-III criterion, read off the members."""
    n = chain.n
    top = chain.members[-1]
    if _four_members_cross(n, list(top.parts)):
        return True
    for lower, upper in itertools.pairwise(chain.members):
        groups: dict[int, list[int]] = {}
        for part in lower.parts:
            low = part & -part
            container = upper.part_containing(low.bit_length())
            groups.setdefault(container, []).append(part)
        for members in groups.values():
            if len(members) >= 4 and _four_members_cross(n, members):
                return True
    return any(p.bit_count() >= 4 for p in chain.members[0].parts)


def reference_literal(cat, indices) -> bool:
    """Literal condition III: a crossing pair strictly below the first
    member, between consecutive members, or above the last member."""
    below = _below(cat)
    regions = [below[indices[0]], cat.above[indices[-1]]]
    regions += [cat.above[i] & below[j] for i, j in itertools.pairwise(indices)]
    return any(_has_crossing_pair(cat, region & cat.proper_mask) for region in regions)


@lru_cache(maxsize=None)
def _has_crossing_pair(cat, region: int) -> bool:
    """Pairwise search of the index set ``region`` for two crossing partitions."""
    members = [j for j, digit in enumerate(reversed(bin(region))) if digit == "1"]
    return any(cat.crossing[i] >> j & 1 for i, j in itertools.combinations(members, 2))


@lru_cache(maxsize=None)
def _image(p, perm):
    return Partition(p.n, oracles.apply_symmetry(perm, p.parts))


def _images(chain: Chain):
    return [
        tuple(_image(p, perm) for p in chain.members)
        for perm in oracles.dihedral_perms(chain.n)
    ]


def _key(members) -> tuple:
    return tuple(p.sort_key() for p in members)


def reference_canonical(chain: Chain) -> Chain:
    return Chain._trusted(chain.n, min(_images(chain), key=_key))


def reference_orbit_size(chain: Chain) -> int:
    return len({_key(members) for members in _images(chain)})


# -- index-tuple helpers that only these tests need ---------------------------


def cond_ii_of_indices(cat, indices) -> bool:
    universal = cat.universal
    return not all(universal[j] for j in indices)


def _relation_holds(rel: str, a: int, b: int, strict: bool) -> bool:
    if rel == "=":
        return a == b
    if rel == ">=":
        return a | b == a and not (strict and a == b)
    return a | b == b and not (strict and a == b)


def reference_patterns(chain: Chain, strict: bool) -> tuple[PatternHit, ...]:
    """Every clause checked at every base index and direction, in hit order."""
    n = chain.n
    blocks = smallest_blocks(chain).blocks
    hits = []
    for i in range(1, n + 1):
        for sign, step in (("+", 1), ("-", n - 1)):
            for k, variants in CLAUSES.items():
                for m, rels in enumerate(variants, 1):
                    if all(
                        _relation_holds(
                            rel,
                            blocks[(i - 1 + step * t) % n],
                            blocks[(i - 1 + step * (t + 1)) % n],
                            strict,
                        )
                        for t, rel in enumerate(rels)
                    ):
                        hits.append(PatternHit(k, sign, i, m))
    hits.sort(key=lambda hit: (hit.i, hit.sign, hit.k, hit.variant))
    return tuple(hits)


@lru_cache(maxsize=None)
def c_prime_positions(n: int) -> dict[tuple[int, ...], list[int]]:
    """Per C' family (C'_1..C'_n), the ascending positions of the maximal
    chains that have it, decoded from their family codes field by field."""
    neighbors = [neighbor_mask(n, i) for i in range(1, n + 1)]
    positions: dict[tuple[int, ...], list[int]] = {}
    for k, code in enumerate(maximal_chain_index(n).enclosing):
        c_primes = tuple(c & m for c, m in zip(oracles.code_fields(n, code), neighbors))
        positions.setdefault(c_primes, []).append(k)
    return positions


def reference_cond_iv(index, demand: int):
    """(satisfied, witness text, checked, survivors): every maximal chain
    whose C' avoids the decoded F' ``demand``, compared field by field."""
    primes = oracles.code_fields(index.n, demand)
    compatible = sorted(
        k
        for c_primes, positions in c_prime_positions(index.n).items()
        if not any(c & f for c, f in zip(c_primes, primes))
        for k in positions
    )
    if not compatible:
        return False, None, len(index), compatible
    return True, index.chain_at(compatible[0]).text(), compatible[0] + 1, compatible


def reference_tables(n: int) -> dict:
    """The catalogue's tables as the pairwise loop builds them: one ``leq``
    per pair of ranks, one oracle ``partitions_cross`` per unordered pair,
    and one oracle image per partition and symmetry."""
    partitions = tuple(noncrossing_partitions(n))
    sets = [oracles.from_masks(p.parts) for p in partitions]
    index_of = {p.parts: i for i, p in enumerate(partitions)}
    size = len(partitions)
    above = [0] * size
    below = [0] * size
    crossing = [0] * size
    for i, j in itertools.combinations(range(size), 2):
        p, q = partitions[i], partitions[j]
        if p.rank < q.rank and leq(p, q):
            above[i] |= 1 << j
            below[j] |= 1 << i
        if oracles.partitions_cross(sets[i], sets[j]):
            crossing[i] |= 1 << j
            crossing[j] |= 1 << i
    return {
        "partitions": partitions,
        "above": tuple(above),
        "below": tuple(below),
        "crossing": tuple(crossing),
        "symmetries": tuple(
            tuple(index_of[oracles.apply_symmetry(perm, p.parts)] for p in partitions)
            for perm in oracles.dihedral_perms(n)
        ),
        "dual_index": tuple(index_of[kreweras_dual(p).parts] for p in partitions),
        "universal": tuple(p.is_universal() for p in partitions),
        "part_by_element": tuple(
            tuple(p.part_containing(e) for e in range(1, n + 1)) for p in partitions
        ),
    }


def _pairs(table) -> list[tuple[int, int]]:
    """The relation a bitset table stores, as (row, column) pairs."""
    return [(i, j) for i, row in enumerate(table) for j in iter_bits(row)]


def _transpose(table) -> tuple[int, ...]:
    out = [0] * len(table)
    for i, j in _pairs(table):
        out[j] |= 1 << i
    return tuple(out)


@lru_cache(maxsize=None)
def _below(cat) -> tuple[int, ...]:
    """``below[j]``: the indices strictly less than j, the catalogue's
    ``above`` read the other way."""
    return _transpose(cat.above)


# -- catalogue tables -------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 8))
def test_catalogue_matches_pairwise_reference(n):
    cat = catalogue(n)
    for name, table in reference_tables(n).items():
        built = _below(cat) if name == "below" else getattr(cat, name)
        assert built == table, name


def test_catalogue_n8_rows_match_pairwise_reference():
    # The full pairwise loop at n = 8 takes seconds; every 13th row against
    # all 1 430 columns covers each rank and every column.
    cat = catalogue(8)
    parts = cat.partitions
    assert parts == tuple(noncrossing_partitions(8))
    group = oracles.dihedral_perms(8)
    sets = [oracles.from_masks(p.parts) for p in parts]
    for i in range(0, len(parts), 13):
        p = parts[i]
        above = below = crossing = 0
        for j, q in enumerate(parts):
            if j != i and leq(p, q):
                above |= 1 << j
            if j != i and leq(q, p):
                below |= 1 << j
            if oracles.partitions_cross(sets[i], sets[j]):
                crossing |= 1 << j
        assert (cat.above[i], _below(cat)[i], cat.crossing[i]) == (above, below, crossing)
        assert cat.dual_index[i] == cat.index_of[kreweras_dual(p).parts]
        assert [table[i] for table in cat.symmetries] == [
            cat.index_of[oracles.apply_symmetry(perm, p.parts)] for perm in group
        ]
        assert cat.universal[i] == p.is_universal()
        assert cat.part_by_element[i] == tuple(p.part_containing(e) for e in range(1, 9))


@pytest.mark.parametrize("n", range(3, 9))
def test_order_tables_are_a_strict_order_and_its_transpose(n):
    # The catalogue's ``above`` and the transpose ``_below`` that these
    # tests build from it: each a strict order, running up and down the
    # index order, with a full bottom and top row respectively.
    cat = catalogue(n)
    for i, j in _pairs(cat.above):
        assert i < j  # index order extends the rank order
        assert cat.above[j] & ~cat.above[i] == 0  # transitive
    below = _below(cat)
    for j, i in _pairs(below):
        assert i < j
        assert below[i] & ~below[j] == 0
    assert len(_pairs(below)) == len(_pairs(cat.above))
    everything = (1 << len(cat.partitions)) - 1
    assert cat.above[cat.bottom] == everything ^ 1 << cat.bottom
    assert below[cat.top] == everything ^ 1 << cat.top


@pytest.mark.parametrize("n", range(3, 9))
def test_crossing_is_symmetric_irreflexive_and_incomparable(n):
    cat = catalogue(n)
    assert cat.crossing == _transpose(cat.crossing)
    for i, row in enumerate(cat.crossing):
        assert not row >> i & 1
        assert row & (cat.above[i] | _below(cat)[i]) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetries_are_automorphisms(n):
    # A permutation that maps a finite relation into itself maps it onto
    # itself; crossing is symmetric, so its pairs i < j suffice.
    cat = catalogue(n)
    above = _pairs(cat.above)
    crossing = [(i, j) for i, j in _pairs(cat.crossing) if i < j]
    for table in cat.symmetries:
        assert sorted(table) == list(range(len(cat.partitions)))
        assert all(cat.above[table[i]] >> table[j] & 1 for i, j in above)
        assert all(cat.crossing[table[i]] >> table[j] & 1 for i, j in crossing)


@pytest.mark.parametrize("n", range(3, 9))
def test_dual_index_laws(n):
    cat = catalogue(n)
    dual = cat.dual_index
    size = len(dual)
    assert sorted(dual) == list(range(size))
    # order-reversing: i < j implies K(j) < K(i)
    assert all(cat.above[dual[j]] >> dual[i] & 1 for i, j in _pairs(cat.above))
    # K twice is the rotation i -> i - 1
    perms = oracles.dihedral_perms(n)
    assert perms[n - 1] == (n, *range(1, n))
    assert [dual[dual[i]] for i in range(size)] == list(cat.symmetries[n - 1])
    # K(s_c(P)) = s_(c-1)(K(P)) for every reflection s_c, which is
    # "reverse, then rotate by c + 1"
    for c in range(n):
        assert perms[n + c] == perms[(c + 1) % n][::-1]
        reflect, shifted = cat.symmetries[n + c], cat.symmetries[n + (c - 1) % n]
        assert [dual[reflect[i]] for i in range(size)] == [
            shifted[dual[i]] for i in range(size)
        ]


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetry_tables_match_apply_symmetry(n):
    cat = catalogue(n)
    group = oracles.dihedral_perms(n)
    assert len(cat.symmetries) == len(group) == 2 * n
    for table, perm in zip(cat.symmetries, group):
        assert [cat.partitions[j].parts for j in table] == [
            oracles.apply_symmetry(perm, p.parts) for p in cat.partitions
        ]


def test_catalogue_n9_symmetry_rows_match_the_oracle():
    # Every 13th of the 4 862 rows, as at n = 8 (the catalogue takes about
    # half a second to build at n = 9).
    cat = catalogue(9)
    group = oracles.dihedral_perms(9)
    assert len(cat.symmetries) == len(group) == 18
    for i in range(0, len(cat.partitions), 13):
        p = cat.partitions[i]
        assert [table[i] for table in cat.symmetries] == [
            cat.index_of[oracles.apply_symmetry(perm, p.parts)] for perm in group
        ]


# -- every chain -------------------------------------------------------------


CHAIN_COUNTS = {3: 3, 4: 28, 5: 315, 6: 4621, 7: 85099}


def _assert_duals_readings_and_codes(n: int) -> None:
    """Per chain: the dual against ``kreweras_dual``, both condition-III
    readings against the object-level references, and every bit of the
    code carried out of enumeration against the single-chain functions
    on the chain and on its dual."""
    cat = catalogue(n)
    dual_of = {p: kreweras_dual(p) for p in cat.partitions}
    count = 0
    for indices, code in all_chain_index_tuples(cat):
        count += 1
        chain = chain_from_indices(cat, indices)
        dual = dual_indices(cat, indices)
        expected = tuple(dual_of[p] for p in reversed(chain.members))
        assert chain_from_indices(cat, dual).members == expected
        windows = window_code_of_indices(cat, indices)
        criterion, literal = bool(windows & CRITERION), bool(windows & LITERAL)
        assert criterion == reference_criterion(chain)
        assert literal == reference_literal(cat, indices)
        assert index_text(cat, indices) == chain.text()
        assert _bits(code) == (
            criterion,
            literal,
            bool(window_code_of_indices(cat, dual) & CRITERION),
            bool(window_code_of_indices(cat, dual) & LITERAL),
            cond_ii_of_indices(cat, indices),
            cond_ii_of_indices(cat, dual),
        ), chain.text()
    assert count == CHAIN_COUNTS[n]


def _bits(code: int) -> tuple[bool, ...]:
    return tuple(
        bool(code & bit)
        for bit in (
            CRITERION,
            LITERAL,
            DUAL_CRITERION,
            DUAL_LITERAL,
            NOT_UNIVERSAL,
            DUAL_NOT_UNIVERSAL,
        )
    )


@pytest.mark.parametrize("n", range(3, 7))
def test_dual_and_both_iii_readings_on_every_chain(n):
    _assert_duals_readings_and_codes(n)


def test_dual_and_both_iii_readings_on_every_chain_n7():
    _assert_duals_readings_and_codes(7)


_WINDOW_STRIDES = {8: 7, 9: 41}


def _windows(n: int, strides=_WINDOW_STRIDES):
    """Every open interval (lower, upper), or at an n that ``strides``
    names, those of every k-th lower partition: by default every window
    up to n = 7, every 7th lower at n = 8 and every 41st at n = 9."""
    cat = catalogue(n)
    stride = strides.get(n, 1)
    for lower in range(0, len(cat.partitions), stride):
        for upper in iter_bits(cat.above[lower]):
            yield cat, lower, upper


@pytest.mark.parametrize("n", range(3, 10))
def test_window_codes_match_the_region_search_and_the_cycle_law(n):
    # The rows read the literal bit off the upper covers of lower.  Check
    # it against a pairwise search of the open interval's proper members
    # and against the interval law, on every window up to n = 8.
    for cat, lower, upper in _windows(n, {9: _WINDOW_STRIDES[9]}):
        region = cat.above[lower] & _below(cat)[upper] & cat.proper_mask
        literal = bool(cat.window_code(lower, upper) & LITERAL)
        assert literal == _has_crossing_pair(cat, region), (cat.texts[lower], cat.texts[upper])
        lengths = oracles.cycle_type(cat.partitions[lower].parts, cat.partitions[upper].parts)
        assert literal == (lengths[0] >= 4), (cat.texts[lower], cat.texts[upper], lengths)


def test_window_rows_hold_at_most_one_entry_per_partition():
    # Every window read, so one row per partition below top and no more.
    for n in range(3, 8):
        cat = catalogue(n)
        for _, lower, upper in _windows(n):
            cat.window_code(lower, upper)
        assert sorted(cat.window_rows) == list(range(cat.top))


@pytest.mark.parametrize("n", range(3, 10))
def test_leader_count_criterion_matches_reference_on_windows(n):
    # The window's criterion bit against grouping the parts of lower by
    # the part of upper that holds them.
    for cat, lower, upper in _windows(n):
        groups: dict[int, list[int]] = {}
        for part in cat.partitions[lower].parts:
            container = cat.partitions[upper].part_containing((part & -part).bit_length())
            groups.setdefault(container, []).append(part)
        expected = any(
            len(members) >= 4 and _four_members_cross(n, members)
            for members in groups.values()
        )
        assert bool(cat.window_code(lower, upper) & CRITERION) == expected, (lower, upper)


@pytest.mark.parametrize("n", range(3, 10))
def test_literal_window_is_a_cycle_of_length_four(n):
    # With P, Q read as the permutations that cycle each part in
    # increasing order, [P, Q] is the product of the lattices NC(k) over
    # the cycle lengths k of P^-1 Q, and NC(k) holds a crossing pair
    # exactly when k >= 4.
    for cat, lower, upper in _windows(n):
        lengths = oracles.cycle_type(cat.partitions[lower].parts, cat.partitions[upper].parts)
        literal = bool(cat.window_code(lower, upper) & LITERAL)
        assert literal == (lengths[0] >= 4), (cat.texts[lower], cat.texts[upper], lengths)


@pytest.mark.parametrize("n", range(3, 10))
def test_literal_window_implies_criterion(n):
    # Each cycle of P^-1 Q lies in one part B of Q, and the parts of P
    # inside B number one more than the sum of (k - 1) over B's cycles.
    # So a cycle of length k >= 4 puts k or more parts of P in B, and the
    # leader count fires: the literal reading implies the criterion.
    for cat, lower, upper in _windows(n):
        parts = cat.partitions[lower].parts
        for block in cat.partitions[upper].parts:
            inside = [part for part in parts if part & block]
            lengths = oracles.cycle_type(inside, (block,))
            assert len(inside) - 1 == sum(k - 1 for k in lengths)
        code = cat.window_code(lower, upper)
        assert not code & LITERAL or code & CRITERION, (cat.texts[lower], cat.texts[upper])


@pytest.mark.parametrize("n", range(3, 8))
def test_member_code_is_condition_ii_on_both_sides(n):
    # Every index, bottom and top included: K swaps those two, and they
    # are the only partitions whose universality K changes.
    cat = catalogue(n)
    for j in range(len(cat.partitions)):
        assert _bits(cat.member_code(j))[4:] == (
            cond_ii_of_indices(cat, (j,)),
            cond_ii_of_indices(cat, dual_indices(cat, (j,))),
        )


# -- canonical form and orbit size -----------------------------------------


def _orbit_sizes(cat, tuples) -> dict[tuple[int, ...], int]:
    """Each tuple's orbit size as ``orbit_classes`` reports it (the tuples
    must be closed under duality)."""
    return {
        member: cls.orbit_size
        for cls in orbit_classes(tuples, cat.n)
        for member in cls.members
    }


def _assert_canonical_and_orbit(cat, chains):
    chains = list(chains)
    tuples = [chain_indices(cat, chain) for chain in chains]
    sizes = _orbit_sizes(cat, tuples)
    for chain, indices in zip(chains, tuples):
        canon = canonical_indices(cat, indices)
        assert chain_from_indices(cat, canon) == reference_canonical(chain)
        assert sizes[indices] == reference_orbit_size(chain)


@pytest.mark.parametrize("n", range(3, 7))
def test_canonical_and_orbit_size_every_chain(n):
    _assert_canonical_and_orbit(catalogue(n), enumerate_chains(n))


def test_canonical_and_orbit_size_n7_candidates():
    candidates = run_theorem5(7).candidates
    assert len(candidates) == 2667
    _assert_canonical_and_orbit(
        catalogue(7), (Chain.from_text(7, text) for text in candidates)
    )


# -- laws -------------------------------------------------------------------


def test_dual_twice_is_a_rotation_never_the_identity():
    n = 6
    cat = catalogue(n)
    back = oracles.dihedral_perms(n)[n - 1]
    count = 0
    for chain in enumerate_chains(n):
        count += 1
        twice = dual_chain(dual_chain(chain))
        assert twice != chain
        assert [p.parts for p in twice.members] == [
            oracles.apply_symmetry(back, p.parts) for p in chain.members
        ]
        indices = chain_indices(cat, chain)
        assert canonical_indices(
            cat, dual_indices(cat, dual_indices(cat, indices))
        ) == canonical_indices(cat, indices)
    assert count == 4621


# -- condition IV kernels ---------------------------------------------------


# Both kernels read a chain only through its F-family (patterns) or its
# packed F' signature (condition IV), so one chain per distinct value
# covers every chain of a sweep: at n = 6 the 4 621 chains have 1 837
# families and 511 signatures.


def _assert_patterns(chains):
    families = {smallest_blocks(chain).blocks: chain for chain in chains}
    for chain in families.values():
        for strict in (False, True):
            assert detect_patterns(chain, strict) == reference_patterns(chain, strict), (
                chain.text(),
                strict,
            )


def _assert_cond_iv(chains):
    demands = {smallest_blocks(chain).packed_primes(): chain for chain in chains}
    for demand, chain in demands.items():
        index = maximal_chain_index(chain.n)
        outcome = cond_iv(chain)
        witness = outcome.witness.text() if outcome.witness else None
        found = (outcome.satisfied, witness, outcome.checked, index.survivors(demand))
        assert found == reference_cond_iv(index, demand), chain.text()
        _assert_signature_filter(index, demand)


def _assert_signature_filter(index, demand: int):
    """The bit filter's answers against a plain scan over ``groups``."""
    groups = list(index.groups.items())
    compatible = [g for g, (sig, _) in enumerate(groups) if sig & demand == 0]
    assert list(iter_bits(index.compatible(demand))) == compatible
    first = groups[compatible[0]][1][0] if compatible else None
    assert index.first_compatible(demand) == first
    # the sorted merge of the compatible groups' positions
    merged = sorted(k for sig, positions in groups if sig & demand == 0 for k in positions)
    assert index.survivors(demand) == merged
    families = [index.enclosing[k] for g in compatible for k in groups[g][1]]
    assert list(index.families(demand)) == list(dict.fromkeys(families))


@pytest.mark.parametrize("n", range(3, 7))
def test_patterns_and_signature_scan_every_chain(n):
    chains = list(enumerate_chains(n))
    _assert_patterns(chains)
    _assert_cond_iv(chains)


def test_patterns_and_signature_scan_n7_stride():
    cat = catalogue(7)
    stride = itertools.islice(all_chain_index_tuples(cat), 0, None, 211)
    chains = [chain_from_indices(cat, indices) for indices, _ in stride]
    _assert_patterns(chains)
    _assert_cond_iv(chains)


BEYOND_N7 = [
    (8, "13"),
    (8, "12,46"),
    (8, "24<246"),
    (8, "18<178<12678"),
    (9, "1357<13579"),
    (9, "19<189<12789<1234789"),
    (9, "23,45<2345<12345<12345678"),
]


@pytest.mark.parametrize("n, text", BEYOND_N7)
def test_patterns_beyond_the_catalogue(n, text):
    # n = 8, 9 build their own hit tables and wrap the windows at their own length
    _assert_patterns([Chain.from_text(n, text)])


# -- the index paths at n = 8, 9 ----------------------------------------------


@lru_cache(maxsize=None)
def _chains_beyond_n7() -> tuple[Chain, ...]:
    """Every 18 911th of the 1 892 052 chains at n = 8, then ``BEYOND_N7``."""
    cat = catalogue(8)
    stride = itertools.islice(all_chain_index_tuples(cat), 0, None, 18_911)
    listed = (Chain.from_text(n, text) for n, text in BEYOND_N7)
    return (*(chain_from_indices(cat, indices) for indices, _ in stride), *listed)


def test_dual_canonical_and_orbit_beyond_n7():
    for chain in _chains_beyond_n7():
        expected = tuple(kreweras_dual(p) for p in reversed(chain.members))
        assert dual_chain(chain).members == expected, chain.text()
        assert canonical_chain(chain) == reference_canonical(chain), chain.text()
        cat = catalogue(chain.n)
        indices = chain_indices(cat, chain)
        sizes = _orbit_sizes(cat, [indices, dual_indices(cat, indices)])
        assert sizes[indices] == reference_orbit_size(chain), chain.text()


def test_literal_iii_beyond_n7():
    for chain in _chains_beyond_n7():
        literal = oracles.literal_iii(chain.n, chain.text())
        assert cond_iii_bruteforce(chain) == literal, chain.text()


def test_index_shares_families_and_groups_signatures():
    index = maximal_chain_index(7)
    assert len(index) == 16807
    assert len(index.groups) == 826
    assert len(set(index.enclosing)) == 5103
    assert len(index.member_indices) == 16807 * 5
    positions = [k for group in index.groups.values() for k in group]
    assert sorted(positions) == list(range(16807))
    firsts = [group[0] for group in index.groups.values()]
    assert firsts == sorted(firsts)
    for sig, group in index.groups.items():
        assert list(group) == sorted(group)
        assert c_prime_positions(7)[oracles.code_fields(7, sig)] == list(group)

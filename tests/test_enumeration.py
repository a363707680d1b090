"""Unit tests for partition/chain/maximal-chain enumeration and orbits."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from ncpverify.chains import Chain, neighbor_mask, smallest_blocks
from ncpverify.core import Partition, elements_of, is_noncrossing
from ncpverify.enumeration import (
    _completions,
    all_chain_index_tuples,
    chain_from_indices,
    chain_index_tuples,
    count_chains,
    enumerate_chains,
    maximal_chain_index,
    orbit_classes,
    pruned_maximal_chains,
    rank_sets,
    stream_order,
)
from ncpverify.lattice import catalogue, noncrossing_partitions
from ncpverify.pipeline import reduced_classes

import oracles


def _catalan(n: int) -> int:
    # independent recurrence: C_0 = 1, C_{m+1} = sum C_i * C_{m-i}
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def test_ncp_sizes_match_catalan():
    sizes = [sum(1 for _ in noncrossing_partitions(n)) for n in range(1, 10)]
    assert sizes == [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert sizes == [_catalan(n) for n in range(1, 10)]


@pytest.mark.parametrize("n", range(1, 9))
def test_noncrossing_partitions_match_set_partition_oracle(n):
    # The reference: every set partition, kept when no two parts cross.
    expected = {p for p in oracles._set_partitions(n) if not oracles.partitions_cross(p, p)}
    found = [
        frozenset(frozenset(elements_of(part)) for part in p.parts)
        for p in noncrossing_partitions(n)
    ]
    assert len(found) == len(expected)
    assert set(found) == expected


def test_enumerated_partitions_are_noncrossing_and_distinct():
    seen = set()
    for p in noncrossing_partitions(6):
        assert is_noncrossing(p)
        assert p not in seen
        seen.add(p)
    assert len(seen) == 132


def test_maximal_chain_counts():
    for n in range(3, 8):
        assert len(maximal_chain_index(n)) == n ** (n - 2)
    assert len(maximal_chain_index(7)) == 16807


def test_maximal_chain_structure():
    index = maximal_chain_index(5)
    seen = set()
    for k in range(len(index)):
        chain = index.chain_at(k)
        assert chain.ranks() == (1, 2, 3)  # one member of each proper rank
        seen.add(chain.text())
    assert len(seen) == 125


@pytest.mark.parametrize("n", range(3, 6))
def test_chain_at_rejects_positions_outside_the_index(n):
    # a slice past either end is empty; it must not become a memberless chain
    index = maximal_chain_index(n)
    size = len(index)
    assert index.chain_at(size - 1).ranks() == tuple(range(1, n - 1))
    for k in (-1, -size, size, size + 3, 128):
        with pytest.raises(IndexError):
            index.chain_at(k)


@pytest.mark.parametrize("n", range(3, 8))
def test_maximal_chain_index_matches_walk(n):
    # The reference: the merge walk's leaves, in walk order, tabled the
    # way the index tables its grown chains.
    cat = catalogue(n)
    neighbors = [neighbor_mask(n, i) for i in range(1, n + 1)]
    members, texts, enclosing, groups = [], [], [], {}
    walk = oracles.walk_maximal_chains(n, (0,) * n)
    for position, (chain_parts, family) in enumerate(walk):
        members.append(tuple(cat.index_of[p] for p in chain_parts))
        texts.append("<".join(Partition(n, parts).text() for parts in chain_parts))
        enclosing.append(family)
        primes = tuple(c & m for c, m in zip(family, neighbors))
        groups.setdefault(primes, []).append(position)

    index = maximal_chain_index(n)
    width = n - 2
    flat = index.member_indices
    assert [tuple(flat[k * width : (k + 1) * width]) for k in range(len(index))] == members
    assert [index.chain_at(k).text() for k in range(len(index))] == texts
    assert [oracles.code_fields(n, code) for code in index.enclosing] == enclosing
    assert [
        (oracles.code_fields(n, key), list(positions)) for key, positions in index.groups.items()
    ] == list(groups.items())


def _assert_grower_matches_walk(cat, primes):
    # leaf by leaf: the grower's index tuples and family codes, read back
    # as part tuples and (C_1..C_n), are the walk's leaves in walk order
    n = cat.n
    demand = sum(prime << e * n for e, prime in enumerate(primes))
    grown = [
        (tuple(cat.partitions[j].parts for j in indices), oracles.code_fields(n, family))
        for indices, family in pruned_maximal_chains(cat, demand)
    ]
    assert grown == list(oracles.walk_maximal_chains(n, primes)), primes


def test_pruned_grower_matches_walk_leaf_by_leaf():
    # every demand of an n <= 5 chain, the empty one included
    for n in range(3, 6):
        cat = catalogue(n)
        demands = {smallest_blocks(chain).primes for chain in enumerate_chains(n)}
        for primes in sorted(demands | {(0,) * n}):
            _assert_grower_matches_walk(cat, primes)


def _random_chain(cat, rng):
    # a seeded climb: a random rank set, then a random member above the last
    ranks = sorted(rng.sample(range(1, cat.n - 1), rng.randint(1, cat.n - 2)))
    last, members = cat.bottom, []
    for r in ranks:
        above = [j for j in cat.rank_indices[r] if cat.above[last] >> j & 1]
        last = rng.choice(above)
        members.append(last)
    return chain_from_indices(cat, members)


@pytest.mark.parametrize("n", (6, 7))
def test_empty_demand_grower_leaves_are_the_index(n):
    # chain k of the index is leaf k of the pruned grower with an empty
    # demand, family code included; the walk checks n <= 5 leaf by leaf
    index = maximal_chain_index(n)
    width = n - 2
    leaves = list(pruned_maximal_chains(catalogue(n), 0))
    assert [indices for indices, _ in leaves] == [
        tuple(index.member_indices[k * width : (k + 1) * width]) for k in range(len(index))
    ]
    assert [family for _, family in leaves] == list(index.enclosing)


def test_pruned_grower_matches_walk_on_sampled_n8_chains():
    cat = catalogue(8)
    rng = random.Random(8)
    for _ in range(5):
        _assert_grower_matches_walk(cat, smallest_blocks(_random_chain(cat, rng)).primes)


def test_oracles_import_nothing_from_the_package():
    # the references in oracles.py stay independent of the code they check
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "the scan found no import at all"
    assert not [name for name in imported if name.split(".")[0] == "ncpverify"]


def test_maximal_chain_enclosing_smallest_blocks():
    for n, stride in ((4, 1), (7, 53)):
        index = maximal_chain_index(n)
        signature = {k: sig for sig, group in index.groups.items() for k in group}
        for k in range(0, len(index), stride):
            chain = index.chain_at(k)
            fam = smallest_blocks(chain)
            assert oracles.code_fields(n, index.enclosing[k]) == fam.blocks
            assert signature[k] == fam.packed_primes()


@pytest.mark.parametrize("n", range(3, 8))
def test_family_signatures_match_pack_primes(n):
    # a group's key is its families' C' in the packed_primes layout:
    # field i-1 of the key is C_i & neighbor_mask(n, i), decoded field by
    # field; every family lies in exactly one group
    index = maximal_chain_index(n)
    neighbors = [neighbor_mask(n, i) for i in range(1, n + 1)]
    seen = set()
    for key, positions in index.groups.items():
        families = {index.enclosing[k] for k in positions}
        for code in families:
            primes = tuple(c & m for c, m in zip(oracles.code_fields(n, code), neighbors))
            assert primes == oracles.code_fields(n, key)
        assert not families & seen
        seen |= families
    in_groups = (index.enclosing[k] for group in index.groups.values() for k in group)
    assert list(index.families()) == list(dict.fromkeys(in_groups))


def test_chain_counts():
    assert count_chains(7) == 85099
    # the closed count against a streamed count of every chain
    for n in range(3, 8):
        assert count_chains(n) == sum(1 for _ in all_chain_index_tuples(catalogue(n)))
    assert [count_chains(n) for n in range(3, 8)] == [3, 28, 315, 4621, 85099]
    assert sum(1 for _ in enumerate_chains(7)) == 85099
    # small universes, hand-checkable: proper parts of NC(4) are the 12
    # partitions of ranks 1-2, and chains are single members plus
    # comparable rank-1 < rank-2 pairs
    chains4 = list(enumerate_chains(4))
    singles = [c for c in chains4 if len(c.members) == 1]
    pairs = [c for c in chains4 if len(c.members) == 2]
    assert len(singles) == 12
    assert all(len(c.members) in (1, 2) for c in chains4)
    for c in pairs:
        lo, hi = c.members
        assert lo.rank == 1 and hi.rank == 2


@pytest.mark.parametrize("n", range(3, 8))
def test_edelman_counts_every_streamed_rank_set(n):
    cat = catalogue(n)
    for ranks in rank_sets(n):
        assert sum(1 for _ in chain_index_tuples(cat, ranks)) == oracles.edelman_count(n, ranks)


@pytest.mark.parametrize("n, total", [(8, 1_892_052), (9, 49_340_691)])
def test_edelman_counts_the_completion_tables(n, total):
    completions = _completions(n)
    assert len(completions) == 2 ** (n - 2) - 1
    for ranks in rank_sets(n):
        assert sum(completions[ranks]) == oracles.edelman_count(n, ranks), ranks
    assert sum(oracles.edelman_count(n, ranks) for ranks in rank_sets(n)) == total


def test_edelman_counts_the_condition_i_scan():
    reduced = reduced_classes(7)
    assert len(reduced.cond_i_sets) == 18
    expected = sum(oracles.edelman_count(7, ranks) for ranks in reduced.cond_i_sets)
    assert reduced.chains_scanned == expected == 12432


def test_rank_filtered_counts():
    allch = list(enumerate_chains(7))
    assert sum(1 for c in allch if frozenset(c.ranks()) == frozenset({1})) == 21
    assert sum(1 for c in allch if frozenset(c.ranks()) == frozenset({1, 2})) == 245
    # an empty rank set names no chain and is refused like a rank outside 1..n-2
    for ranks in ((), set(), {0}, {6}):
        with pytest.raises(ValueError, match="outside"):
            list(enumerate_chains(7, rank_filter=ranks))


def test_rank_filter_refuses_a_repeated_rank():
    # a rank named twice is refused, not read as a rank set with no chain
    for ranks in ((1, 1), (2, 1, 2), [3, 3, 3]):
        with pytest.raises(ValueError, match="repeat"):
            list(enumerate_chains(5, rank_filter=ranks))


def test_rank_sets():
    sets7 = list(rank_sets(7))
    assert len(sets7) == 31  # nonempty subsets of {1..5}
    assert all(s and all(1 <= r <= 5 for r in s) for s in (set(x) for x in sets7))


@pytest.mark.parametrize("n", range(3, 8))
def test_stream_order_sorts_chains_into_the_stream(n):
    cat = catalogue(n)
    stream = [indices for indices, _ in all_chain_index_tuples(cat)]
    shuffled = random.Random(n).sample(stream, len(stream))
    assert sorted(shuffled, key=stream_order(cat)) == stream


def test_chain_index_tuples_roundtrip():
    cat = catalogue(5)
    tuples = list(chain_index_tuples(cat, (1, 2)))
    assert tuples
    for t, _ in tuples:
        chain = chain_from_indices(cat, t)
        assert frozenset(chain.ranks()) == frozenset({1, 2})


def test_orbit_classes_rank_one():
    # The sweep needs an input closed under duality: the duals of the
    # rank-one chains are the rank-five ones.
    cat = catalogue(7)
    tuples = [indices for ranks in ((1,), (5,)) for indices, _ in chain_index_tuples(cat, ranks)]
    classes = [c for c in orbit_classes(tuples, 7) if c.representative.ranks() == (1,)]
    reps = [(c.representative.text(), c.orbit_size, c.dual_representative.text()) for c in classes]
    assert reps == [
        ("67", 7, "234567"),
        ("57", 7, "12,34567"),
        ("47", 7, "123,4567"),
    ]
    assert sum(c.orbit_size for c in classes) == 21


def test_survivors_contains_witness():
    # the witness to a satisfied condition IV must itself survive the
    # exclusion sets computed from the chain's packed prime family
    from ncpverify.condition4 import cond_iv

    chain = Chain.from_text(7, "24<246")
    outcome = cond_iv(chain)
    assert outcome.satisfied
    index = maximal_chain_index(7)
    surviving = index.survivors(smallest_blocks(chain).packed_primes())
    texts = {index.chain_at(k).text() for k in surviving}
    assert outcome.witness.text() in texts

"""Differential and law tests for the index-space kernel.

The theorem5 scan runs on tuples of catalogue indices.  Each table and
index-tuple function is compared here against an object-level reference
built from ``Partition`` methods and ``core`` functions only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from ncpverify.chains import (
    Chain,
    canonical_indices,
    chain_from_indices,
    chain_indices,
    cond_iii_criterion_of_indices,
    cond_iii_literal_of_indices,
    dual_chain,
    dual_indices,
    orbit_size_of_indices,
)
from ncpverify.core import (
    Symmetry,
    _masks_alternate,
    apply_symmetry,
    dihedral_group,
    kreweras_dual,
    popcount,
)
from ncpverify.enumeration import all_chain_index_tuples, enumerate_chains
from ncpverify.lattice import catalogue
from ncpverify.pipeline import run_theorem5


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
    return any(popcount(p) >= 4 for p in chain.members[0].parts)


def reference_literal(cat, indices) -> bool:
    """Literal condition III: a crossing pair strictly below the first
    member, between consecutive members, or above the last member."""
    regions = [cat.below[indices[0]], cat.above[indices[-1]]]
    regions += [cat.above[i] & cat.below[j] for i, j in itertools.pairwise(indices)]
    return any(_has_crossing_pair(cat, region & cat.proper_mask) for region in regions)


@lru_cache(maxsize=None)
def _has_crossing_pair(cat, region: int) -> bool:
    members = [j for j in range(len(cat.partitions)) if region >> j & 1]
    return any(cat.crossing[i] >> j & 1 for i, j in itertools.combinations(members, 2))


@lru_cache(maxsize=None)
def _image(p, g):
    return apply_symmetry(p, g)


def _images(chain: Chain):
    return [tuple(_image(p, g) for p in chain.members) for g in dihedral_group(chain.n)]


def _key(members) -> tuple:
    return tuple(p.sort_key() for p in members)


def reference_canonical(chain: Chain) -> Chain:
    return Chain._trusted(chain.n, min(_images(chain), key=_key))


def reference_orbit_size(chain: Chain) -> int:
    return len({_key(members) for members in _images(chain)})


# -- catalogue tables -------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 8))
def test_symmetry_tables_match_apply_symmetry(n):
    cat = catalogue(n)
    group = dihedral_group(n)
    assert len(cat.symmetries) == len(group) == 2 * n
    for table, g in zip(cat.symmetries, group):
        assert [cat.partitions[j] for j in table] == [
            apply_symmetry(p, g) for p in cat.partitions
        ]


@pytest.mark.parametrize("n", range(3, 8))
def test_key_position_orders_like_sort_key(n):
    cat = catalogue(n)
    indices = range(len(cat.partitions))
    assert sorted(indices, key=lambda j: cat.key_position[j]) == sorted(
        indices, key=lambda j: cat.partitions[j].sort_key()
    )


# -- every chain at n = 7 ---------------------------------------------------


def test_dual_and_both_iii_readings_on_every_chain_n7():
    cat = catalogue(7)
    dual_of = {p: kreweras_dual(p) for p in cat.partitions}
    count = 0
    for indices in all_chain_index_tuples(cat):
        count += 1
        chain = chain_from_indices(cat, indices)
        expected = tuple(dual_of[p] for p in reversed(chain.members))
        assert chain_from_indices(cat, dual_indices(cat, indices)).members == expected
        assert cond_iii_criterion_of_indices(cat, indices) == reference_criterion(chain)
        assert cond_iii_literal_of_indices(cat, indices) == reference_literal(cat, indices)
    assert count == 85099


# -- canonical form and orbit size -----------------------------------------


def _assert_canonical_and_orbit(cat, chains):
    for chain in chains:
        indices = chain_indices(cat, chain)
        canon = canonical_indices(cat, indices)
        assert chain_from_indices(cat, canon) == reference_canonical(chain)
        assert orbit_size_of_indices(cat, indices) == reference_orbit_size(chain)


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
    back = Symmetry.rotation(n, -1)
    count = 0
    for chain in enumerate_chains(n):
        count += 1
        twice = dual_chain(dual_chain(chain))
        assert twice != chain
        assert twice.members == tuple(apply_symmetry(p, back) for p in chain.members)
        indices = chain_indices(cat, chain)
        assert canonical_indices(
            cat, dual_indices(cat, dual_indices(cat, indices))
        ) == canonical_indices(cat, indices)
    assert count == 4621

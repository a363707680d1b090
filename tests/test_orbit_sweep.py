"""Differential tests for the orbit sweep.

``orbit_classes`` groups index tuples by one sweep over their orbits and
reads each dual representative from the class of the dual; the reference
here groups by ``canonical_indices`` and canonicalises every dual on its
own.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

from ncpverify.chains import (
    Chain,
    canonical_indices,
    chain_from_indices,
    chain_indices,
    dual_indices,
)
from ncpverify.enumeration import all_chain_index_tuples, orbit_classes
from ncpverify.lattice import catalogue
from ncpverify.pipeline import run_theorem5

import oracles

CANDIDATE_COUNTS = {7: 2667}
CLASS_COUNTS = {7: 232}
# Orbit classes before and after duality where there are any (n = 6, 7).
BURNSIDE_COUNTS = {6: (14, 7), 7: (232, 119)}


@lru_cache(maxsize=None)
def candidate_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """The theorem5 candidates of one n as index tuples, in stream order."""
    cat = catalogue(n)
    return tuple(
        chain_indices(cat, Chain.from_text(n, text)) for text in run_theorem5(n).candidates
    )


@lru_cache(maxsize=None)
def every_chain(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(indices for indices, _ in all_chain_index_tuples(catalogue(n)))


def reference_classes(cat, tuples):
    """(representative, orbit size, dual representative) per class.

    Grouped by ``canonical_indices``; the orbit size counts the inputs in
    the class, which is the orbit's size when the input holds whole
    orbits.  Ordered by length, ranks and the members' ``sort_key``s.
    """
    sizes = Counter(canonical_indices(cat, t) for t in tuples)

    def order(rep):
        chain = chain_from_indices(cat, rep)
        return len(rep), chain.ranks(), tuple(p.sort_key() for p in chain.members)

    return [
        (rep, sizes[rep], canonical_indices(cat, dual_indices(cat, rep)))
        for rep in sorted(sizes, key=order)
    ]


def _assert_sweep_matches_reference(n, tuples):
    cat = catalogue(n)
    classes = orbit_classes(tuples, n)
    assert [
        (cls.rep_indices, cls.orbit_size, cls.dual_rep_indices) for cls in classes
    ] == reference_classes(cat, tuples)
    for cls in classes:
        assert cls.representative == chain_from_indices(cat, cls.rep_indices)
        assert cls.dual_representative == chain_from_indices(cat, cls.dual_rep_indices)
        assert len(cls.members) == cls.orbit_size
        for member in cls.members:
            assert canonical_indices(cat, member) == cls.rep_indices
    members = [member for cls in classes for member in cls.members]
    assert len(members) == len(tuples)
    assert set(members) == set(tuples)
    # The members are the input tuples themselves, not rebuilt images.
    assert {id(member) for member in members} == {id(t) for t in tuples}
    return classes


@pytest.mark.parametrize("n", range(3, 8))
def test_sweep_matches_reference_on_candidates(n):
    tuples = candidate_tuples(n)
    classes = _assert_sweep_matches_reference(n, tuples)
    if n in CANDIDATE_COUNTS:
        assert len(tuples) == CANDIDATE_COUNTS[n]
        assert len(classes) == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(3, 7))
def test_sweep_matches_reference_on_every_chain(n):
    _assert_sweep_matches_reference(n, every_chain(n))


def test_sweep_of_nothing_is_empty():
    assert orbit_classes([], 7) == []


@pytest.mark.parametrize("n", range(3, 8))
def test_burnside_counts_the_orbit_classes(n):
    # Burnside's lemma, taken by the package-free oracle: the mean number of
    # candidates fixed by an element of D_n is the number of orbit classes
    # before duality, and over D_n and K D_n the number of classes kept.
    report = run_theorem5(n)
    over_dihedral, over_both = oracles.burnside_counts(n, report.candidates)
    assert (over_dihedral, over_both) == BURNSIDE_COUNTS.get(n, (0, 0))
    assert over_dihedral == len(orbit_classes(candidate_tuples(n), n))
    assert over_both == len(report.classes)
    # The kept classes' orbits under both lie in the candidates, are
    # pairwise disjoint and cover them.
    candidates = {oracles.chain_members(n, text) for text in report.candidates}
    assert len(candidates) == len(report.candidates)
    orbits = [oracles.chain_orbit(n, cls.representative) for cls in report.classes]
    covered = set().union(*orbits)
    assert covered == candidates
    assert sum(map(len, orbits)) == len(covered)

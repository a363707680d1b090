"""Unit tests for partitions, crossing detection, order, duality, symmetry."""

from __future__ import annotations

import pytest

from ncpverify.chains import Chain
from ncpverify.core import (
    CrossingPartitionError,
    NotationError,
    Partition,
    UniverseMismatch,
    dihedral_group,
    elements_of,
    is_noncrossing,
    require_noncrossing,
    kreweras_dual,
    leq,
    mask_of,
)
from ncpverify.lattice import catalogue

import oracles


def test_mask_roundtrip():
    assert mask_of([2, 3, 5]) == 0b10110
    assert elements_of(0b10110) == (2, 3, 5)
    assert elements_of(0) == ()


def test_partition_text_roundtrip():
    p = Partition.from_text(7, "12,46")
    assert p.text() == "12,46"
    assert p.n == 7
    # parts are sorted by least element and include singletons
    assert [sorted(elements_of(m)) for m in p.parts] == [
        [1, 2],
        [3],
        [4, 6],
        [5],
        [7],
    ]
    # blocks are the parts of size >= 2 only
    assert [elements_of(m) for m in p.parts if m & (m - 1)] == [(1, 2), (4, 6)]
    # empty text is the all-singleton partition
    bottom = Partition.from_text(7, "")
    assert bottom.text() == ""
    assert bottom.parts == tuple(1 << e for e in range(7))
    top = Partition.from_text(7, "1234567")
    assert top.text() == "1234567"
    assert top.parts == ((1 << 7) - 1,)
    cat = catalogue(7)
    assert (bottom, top) == (cat.partitions[cat.bottom], cat.partitions[cat.top])


def test_partition_text_errors():
    with pytest.raises(NotationError):
        Partition.from_text(7, "12,,3")
    with pytest.raises(NotationError):
        Partition.from_text(7, "128")  # 8 exceeds the universe
    with pytest.raises(NotationError):
        Partition.from_text(7, "121")  # repeated digit inside a block
    with pytest.raises(NotationError):
        Partition.from_text(7, "12,23")  # element in two parts
    # only ASCII digits name elements: other scripts' digits and
    # superscripts are unexpected characters, not elements
    for text in ("\u0661\u0662", "\u00b2"):
        with pytest.raises(NotationError, match="unexpected character") as caught:
            Chain.from_text(7, text)
        assert caught.value.position == 0
    # from_text tolerates crossing set partitions (Partition is any set
    # partition); require_noncrossing is the explicit gate
    crossing = Partition.from_text(7, "13,24")
    assert not is_noncrossing(crossing)
    with pytest.raises(CrossingPartitionError):
        require_noncrossing(crossing)
    assert require_noncrossing(Partition.from_text(7, "14,23")) is not None


def test_blocks_cross_alternation():
    # A partition with two blocks is crossing exactly when they alternate.
    # Two blocks sharing an element are no partition; the spanning-tree
    # check covers that case (a path's edges share endpoints).
    def cross(text):
        p = Partition.from_text(7, text)
        crossing = not is_noncrossing(p)
        s, t = (frozenset(elements_of(m)) for m in p.parts if m & (m - 1))
        assert oracles.parts_cross(s, t) == crossing
        return crossing

    assert cross("13,24")  # alternating quadruple
    assert not cross("12,34")  # disjoint arcs
    assert not cross("14,23")  # nested
    # cyclic alternation with no linear one: {2,7} vs {1,3} alternates 7,1,2,3
    assert cross("13,27")


def test_is_noncrossing_and_partitions_cross():
    def sets(text):
        return oracles.from_masks(Partition.from_text(7, text).parts)

    good = Partition.from_text(7, "123,46")
    assert is_noncrossing(good)
    assert not oracles.partitions_cross(sets("123,46"), sets("123,46"))
    # {{1,2,3,5},{4,6}} crosses itself is impossible; build a crossing pair
    assert oracles.partitions_cross(sets("1235"), sets("46"))
    assert not oracles.partitions_cross(sets("1235"), sets("12"))


def test_leq_and_rank():
    small = Partition.from_text(7, "12")
    large = Partition.from_text(7, "12346")
    assert leq(small, large)
    assert not leq(large, small)
    assert small.rank == 1
    assert large.rank == 4
    assert Partition.from_text(7, "").rank == 0
    assert Partition.from_text(7, "1234567").rank == 6
    # incomparable
    assert not leq(Partition.from_text(7, "13"), Partition.from_text(7, "24"))
    with pytest.raises(UniverseMismatch):
        leq(Partition.from_text(6, "12"), small)


def test_kreweras_examples():
    # quoted example: dual of {{1,3}} is {{1,2},{3,4,5,6,7}}
    assert kreweras_dual(Partition.from_text(7, "13")).text() == "12,34567"
    # dual of bottom is top and vice versa
    bottom, top = Partition.from_text(7, ""), Partition.from_text(7, "1234567")
    assert kreweras_dual(bottom) == top
    assert kreweras_dual(top) == bottom


def test_kreweras_properties_exhaustive():
    cat = catalogue(7)
    parts = cat.partitions
    for p in parts:
        d = kreweras_dual(p)
        assert is_noncrossing(d)
        assert d.rank == 6 - p.rank
        assert oracles.kreweras_dual_via_regions(7, p.text()) == oracles.parse_partition(
            7, d.text()
        )
    # order reversal on all comparable pairs
    for p in parts:
        dp = kreweras_dual(p)
        for q in parts:
            if leq(p, q):
                assert leq(kreweras_dual(q), dp)
    # double dual is rotation by one step (i -> i-1 cyclically)
    rot = next(g for g in dihedral_group(7) if g.perm == (7, 1, 2, 3, 4, 5, 6))
    for p in parts:
        twice = kreweras_dual(kreweras_dual(p))
        assert twice.parts == oracles.apply_symmetry(rot.perm, p.parts)


def _join(cat, i, j):
    # Partitions are sorted by rank: the lowest common upper bound is the join.
    common = (cat.above[i] | 1 << i) & (cat.above[j] | 1 << j)
    return (common & -common).bit_length() - 1


def _meet(cat, i, j):
    common = (cat.below[i] | 1 << i) & (cat.below[j] | 1 << j)
    return common.bit_length() - 1


def test_join_meet():
    cat = catalogue(7)

    def text(k):
        return cat.partitions[k].text()

    a, b, c = (cat.index_of[Partition.from_text(7, t).parts] for t in ("12", "23", "123"))
    assert text(_join(cat, a, b)) == "123"
    assert _meet(cat, c, a) == a
    # the join of a crossing pair merges both blocks
    x, y = (cat.index_of[Partition.from_text(7, t).parts] for t in ("13", "24"))
    assert text(_join(cat, x, y)) == "1234"
    assert _meet(cat, x, y) == cat.bottom
    # lattice laws on all of NC(5), against the package-free order
    cat = catalogue(5)
    size = len(cat.partitions)
    sets = [oracles.from_masks(p.parts) for p in cat.partitions]
    order = [[oracles.refines(p, q) for q in sets] for p in sets]
    for i in range(size):
        for j in range(size):
            upper = [k for k in range(size) if order[i][k] and order[j][k]]
            lower = [k for k in range(size) if order[k][i] and order[k][j]]
            join, meet = _join(cat, i, j), _meet(cat, i, j)
            assert join in upper and all(order[join][k] for k in upper)
            assert meet in lower and all(order[k][meet] for k in lower)


def test_dihedral_group_structure():
    group = dihedral_group(7)
    assert len(group) == 14
    names = {g.name for g in group}
    assert "r0" in names and "r1" in names
    assert sum(1 for g in group if g.name.startswith("s")) == 7
    identity = next(g for g in group if g.name == "r0")
    p = Partition.from_text(7, "123,46")
    assert oracles.apply_symmetry(identity.perm, p.parts) == p.parts
    for g in group:
        q = Partition(7, oracles.apply_symmetry(g.perm, p.parts))
        assert is_noncrossing(q)
        assert q.rank == p.rank


def test_catalogue_counts():
    for n, size in enumerate([1, 2, 5, 14, 42, 132, 429, 1430, 4862], 1):
        assert len(catalogue(n).partitions) == size
    cat = catalogue(7)
    assert sum(1 for u in cat.universal if u) == 36
    assert cat.partitions[cat.bottom] == Partition.from_text(7, "")
    assert cat.partitions[cat.top] == Partition.from_text(7, "1234567")

"""Unit tests for partitions, crossing detection, order, duality, symmetry."""

from __future__ import annotations

import pytest

from ncpverify.chains import Chain
from ncpverify.core import (
    Block,
    CrossingPartitionError,
    NotationError,
    Partition,
    UniverseMismatch,
    apply_symmetry,
    blocks_cross,
    canonical_form,
    dihedral_group,
    elements_of,
    is_noncrossing,
    require_noncrossing,
    kreweras_dual,
    leq,
    mask_of,
    nc_join,
    orbit,
    partitions_cross,
    pi_join,
    pi_meet,
    popcount,
    rank,
)
from ncpverify.lattice import catalogue

import oracles


def test_mask_roundtrip():
    assert mask_of([2, 3, 5]) == 0b10110
    assert elements_of(0b10110) == (2, 3, 5)
    assert elements_of(0) == ()
    assert popcount(0b10110) == 3
    assert popcount(0) == 0


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
    assert [sorted(elements_of(b.mask)) for b in p.blocks()] == [[1, 2], [4, 6]]
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
    # from_text tolerates crossing set partitions (join/meet intermediates);
    # require_noncrossing is the explicit gate
    crossing = Partition.from_text(7, "13,24")
    assert not is_noncrossing(crossing)
    with pytest.raises(CrossingPartitionError):
        require_noncrossing(crossing)
    assert require_noncrossing(Partition.from_text(7, "14,23")) is not None


def test_blocks_cross_alternation():
    def cross(a, b):
        return blocks_cross(Block(7, mask_of(a)), Block(7, mask_of(b)))

    assert cross([1, 3], [2, 4]) is not None  # alternating quadruple
    assert cross([1, 2], [3, 4]) is None  # disjoint arcs
    assert cross([1, 4], [2, 3]) is None  # nested
    assert cross([1, 2], [2, 3]) is None  # sharing an element never "crosses"
    witness = cross([1, 3], [2, 4])
    assert (witness.a, witness.b, witness.c, witness.d) == (1, 2, 3, 4)
    # cyclic alternation with no linear one: {2,7} vs {1,3} alternates 7,1,2,3
    assert cross([2, 7], [1, 3]) is not None
    with pytest.raises(UniverseMismatch):
        blocks_cross(Block(6, 0b11), Block(7, 0b1100))


def test_is_noncrossing_and_partitions_cross():
    good = Partition.from_text(7, "123,46")
    assert is_noncrossing(good)
    assert not partitions_cross(good, good)
    # {{1,2,3,5},{4,6}} crosses itself is impossible; build a crossing pair
    a = Partition.from_text(7, "1235")
    b = Partition.from_text(7, "46")
    assert partitions_cross(a, b)
    c = Partition.from_text(7, "12")
    assert not partitions_cross(a, c)


def test_leq_and_rank():
    small = Partition.from_text(7, "12")
    large = Partition.from_text(7, "12346")
    assert leq(small, large)
    assert not leq(large, small)
    assert rank(small) == 1
    assert rank(large) == 4
    assert rank(Partition.from_text(7, "")) == 0
    assert rank(Partition.from_text(7, "1234567")) == 6
    # incomparable
    assert not leq(Partition.from_text(7, "13"), Partition.from_text(7, "24"))


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
        assert rank(d) == 6 - rank(p)
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
        assert kreweras_dual(kreweras_dual(p)) == apply_symmetry(p, rot)


def test_join_meet():
    a = Partition.from_text(7, "12")
    b = Partition.from_text(7, "23")
    j = pi_join(a, b)
    assert j.text() == "123"
    assert pi_meet(j, a) == a
    # nc_join can be coarser than pi_join when the union would cross
    x = Partition.from_text(7, "13")
    y = Partition.from_text(7, "24")
    assert pi_join(x, y).text() == "13,24"  # crossing as a plain set partition
    assert nc_join(x, y).text() == "1234"
    # lattice laws on a sample
    cat = catalogue(5)
    sample = cat.partitions
    for p in sample:
        for q in sample:
            j = nc_join(p, q)
            m = pi_meet(p, q)
            assert leq(p, j) and leq(q, j)
            assert leq(m, p) and leq(m, q)
            assert is_noncrossing(j) and is_noncrossing(m)


def test_dihedral_group_structure():
    group = dihedral_group(7)
    assert len(group) == 14
    names = {g.name for g in group}
    assert "r0" in names and "r1" in names
    assert sum(1 for g in group if g.name.startswith("s")) == 7
    identity = next(g for g in group if g.name == "r0")
    p = Partition.from_text(7, "123,46")
    assert apply_symmetry(p, identity) == p
    for g in group:
        q = apply_symmetry(p, g)
        assert is_noncrossing(q)
        assert rank(q) == rank(p)


def test_orbit_and_canonical_form():
    p = Partition.from_text(7, "12")
    orb = orbit(p)
    assert len(orb) == 7  # the seven edges {i,i+1} cyclically
    assert len(set(orb)) == 7
    canon = canonical_form(p)
    for q in orb:
        assert canonical_form(q) == canon
    assert canon in orb
    # canonical form is idempotent
    assert canonical_form(canon) == canon


def test_catalogue_counts():
    for n, size in enumerate([1, 2, 5, 14, 42, 132, 429, 1430, 4862], 1):
        assert len(catalogue(n).partitions) == size
    cat = catalogue(7)
    assert sum(1 for u in cat.universal if u) == 36
    assert cat.partitions[cat.bottom] == Partition.from_text(7, "")
    assert cat.partitions[cat.top] == Partition.from_text(7, "1234567")

"""Unit tests for chains, smallest-block families, conditions I-III, duality."""

from __future__ import annotations

import pytest

from ncpverify.chains import (
    Chain,
    InvalidChainError,
    canonical_chain,
    canonical_prime_signature,
    cond_i,
    cond_i_of_ranks,
    cond_ii,
    cond_iii_bruteforce,
    cond_iii_criterion,
    dual_chain,
    neighbor_mask,
    smallest_blocks,
)
from ncpverify.core import (
    CrossingPartitionError,
    Partition,
    Symmetry,
    dihedral_group,
    mask_of,
)

import oracles


def apply_symmetry_chain(chain: Chain, g: Symmetry) -> Chain:
    return Chain(
        chain.n,
        tuple(Partition(p.n, oracles.apply_symmetry(g.perm, p.parts)) for p in chain.members),
    )


def test_chain_parse_and_text():
    c = Chain.from_text(7, "12<12,34<123456")
    assert c.text() == "12<12,34<123456"
    assert c.n == 7
    assert len(c.members) == 3
    assert c.ranks() == (1, 2, 5)
    assert frozenset(c.ranks()) == frozenset({1, 2, 5})


def test_chain_parse_errors():
    with pytest.raises(InvalidChainError):
        Chain.from_text(7, "13<24")  # incomparable members
    with pytest.raises(InvalidChainError):
        Chain.from_text(7, "12<12")  # not strictly increasing
    with pytest.raises(CrossingPartitionError):
        Chain.from_text(7, "13,24")  # crossing member
    with pytest.raises(InvalidChainError):
        Chain.from_text(7, "")  # empty chain
    # the all-singleton and one-block partitions are outside the proper poset
    with pytest.raises(InvalidChainError):
        Chain.from_text(7, "1234567")


def test_neighbor_mask():
    # cyclic neighbors of 1 are {7, 2}; of 7 are {6, 1}
    assert neighbor_mask(7, 1) == mask_of([7, 2])
    assert neighbor_mask(7, 7) == mask_of([6, 1])
    assert neighbor_mask(7, 4) == mask_of([3, 5])


def test_smallest_blocks_single_member():
    fam = smallest_blocks(Chain.from_text(7, "12,46"))
    # F_i = smallest part containing i over the chain; full set if i is
    # always a singleton
    assert fam.block(1) == mask_of([1, 2])
    assert fam.block(2) == mask_of([1, 2])
    assert fam.block(3) == mask_of(range(1, 8))
    assert fam.block(4) == mask_of([4, 6])
    assert fam.block(5) == mask_of(range(1, 8))
    assert fam.block(6) == mask_of([4, 6])
    assert fam.block(7) == mask_of(range(1, 8))
    # F_i' = F_i intersected with the cyclic neighbors of i
    assert fam.prime(1) == mask_of([2])
    assert fam.prime(3) == mask_of([2, 4])
    assert fam.prime(4) == 0
    assert fam.prime(5) == mask_of([4, 6])
    assert fam.prime(7) == mask_of([1, 6])


def test_smallest_blocks_multi_member():
    fam = smallest_blocks(Chain.from_text(7, "24<246"))
    assert fam.block(2) == mask_of([2, 4])
    assert fam.block(4) == mask_of([2, 4])
    assert fam.block(6) == mask_of([2, 4, 6])
    assert fam.block(1) == mask_of(range(1, 8))
    assert fam.prime(6) == 0
    assert fam.prime(1) == mask_of([2, 7])


def test_packed_primes_layout():
    # bit (i-1)*n + e-1 is set iff e lies in F'_i: in F_i and next to i
    # on the circle, F_i read off the text by the package-free oracle
    for n, text in ((3, "13"), (7, "12<12,34<123456"), (7, "24<246"), (9, "1357<13579")):
        fam = smallest_blocks(Chain.from_text(n, text))
        blocks = oracles.smallest_blocks(n, text)
        assert tuple(mask_of(blocks[i]) for i in range(1, n + 1)) == fam.blocks
        expected = {
            (i - 1) * n + e - 1
            for i in range(1, n + 1)
            for e in blocks[i]
            if (e - i) % n in (1, n - 1)
        }
        packed = fam.packed_primes()
        assert {b for b in range(packed.bit_length()) if packed >> b & 1} == expected, text


def test_cond_i_explicit_table():
    # coranks = {1..5} \ ranks; condition I wants k, k+1 both present
    cases = {
        frozenset({1}): True,  # coranks 2345
        frozenset({3}): True,  # coranks 1245
        frozenset({1, 3, 5}): False,  # coranks 24
        frozenset({2, 4}): False,  # coranks 135
        frozenset({1, 2}): True,  # coranks 345
        frozenset({1, 2, 4, 5}): False,  # coranks 3
        frozenset({1, 2, 3, 4, 5}): False,  # coranks empty
    }
    for ranks, expected in cases.items():
        assert cond_i_of_ranks(7, ranks) is expected, ranks


def test_cond_i_duality_invariance():
    # cond_I(F) iff cond_I(dual(F)): corank sets mirror under r -> 6-r
    for text in ["12,46", "24<246", "12<12,34<123456", "67"]:
        c = Chain.from_text(7, text)
        assert cond_i(c) == cond_i(dual_chain(c))


def test_cond_ii_universal_chains():
    # chains all of whose members are universal (single cyclic-interval
    # block) are excluded by condition II
    assert cond_ii(Chain.from_text(7, "12")) is False
    assert cond_ii(Chain.from_text(7, "12<123")) is False
    assert cond_ii(Chain.from_text(7, "71<712")) is False  # wraparound interval
    assert cond_ii(Chain.from_text(7, "12,34")) is True
    assert cond_ii(Chain.from_text(7, "13")) is True  # {1,3} is not an interval
    assert cond_ii(Chain.from_text(7, "12<12,34<123456")) is True


def test_cond_iii_known_values():
    # both forms agree here
    both = Chain.from_text(7, "12,46")
    assert cond_iii_criterion(both) is True
    assert cond_iii_bruteforce(both) is True
    # the four-member criterion over-fires on this one: merging the four
    # members produces a crossing partition, so no interleaving pair exists
    gap = Chain.from_text(7, "123,46")
    assert cond_iii_criterion(gap) is True
    assert cond_iii_bruteforce(gap) is False
    # low-rank chains pass trivially: the windows around them are wide
    trivial = Chain.from_text(7, "12,34")
    assert cond_iii_criterion(trivial) is True
    assert cond_iii_bruteforce(trivial) is True
    # a chain failing both
    neither = Chain.from_text(7, "234,567")
    assert cond_iii_criterion(neither) is False
    assert cond_iii_bruteforce(neither) is False


def test_dual_chain_examples():
    c = Chain.from_text(7, "12,46")
    d = dual_chain(c)
    assert d.text() == "2367,45"
    # rank reversal: rk P* = 6 - rk P, and member order flips
    assert d.ranks() == tuple(6 - r for r in reversed(c.ranks()))
    # double dual is a rotation of the original (same orbit, same rank set)
    dd = dual_chain(d)
    assert frozenset(dd.ranks()) == frozenset(c.ranks())
    assert canonical_chain(dd) == canonical_chain(c)


def test_dihedral_invariance_of_conditions():
    group = dihedral_group(7)
    for text in ["12,46", "123,46", "24<246", "12<12,34<123456"]:
        c = Chain.from_text(7, text)
        for g in group:
            image = apply_symmetry_chain(c, g)
            assert cond_ii(image) == cond_ii(c)
            assert cond_iii_criterion(image) == cond_iii_criterion(c)
            assert frozenset(image.ranks()) == frozenset(c.ranks())


def test_canonical_chain_and_orbit():
    c = Chain.from_text(7, "67")
    group = dihedral_group(7)
    assert len({apply_symmetry_chain(c, g).text() for g in group}) == 7
    canon = canonical_chain(c)
    for g in group:
        assert canonical_chain(apply_symmetry_chain(c, g)) == canon


def test_canonical_prime_signature_invariance():
    c = Chain.from_text(7, "12,46")
    sig = canonical_prime_signature(c)
    assert isinstance(sig, tuple) and len(sig) > 0
    for g in dihedral_group(7):
        assert canonical_prime_signature(apply_symmetry_chain(c, g)) == sig


def test_membership_remark():
    # F_j is contained in F_i exactly when j lies in F_i
    for text in ["12,46", "24<246", "12<12,34<123456", "123,46"]:
        fam = smallest_blocks(Chain.from_text(7, text))
        for i in range(1, 8):
            fi = fam.block(i)
            for j in range(1, 8):
                inside = bool(fi & (1 << (j - 1)))
                assert ((fam.block(j) | fi) == fi) == inside

"""Unit tests for chains, smallest-block families, conditions I-III, duality."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from ncpverify.chains import (
    Chain,
    InvalidChainError,
    canonical_chain,
    canonical_prime_signature,
    chain_indices,
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
    mask_of,
)
from ncpverify.condition4 import _entries_of_blocks, detect_patterns, pattern_refute
from ncpverify.enumeration import enumerate_chains
from ncpverify.lattice import catalogue

import oracles

GOLDENS = Path(__file__).parent / "goldens"


def apply_symmetry_chain(chain: Chain, perm: tuple[int, ...]) -> Chain:
    return Chain(
        chain.n,
        tuple(Partition(p.n, oracles.apply_symmetry(perm, p.parts)) for p in chain.members),
    )


def test_chain_parse_and_text():
    c = Chain.from_text(7, "12<12,34<123456")
    assert c.text() == "12<12,34<123456"
    assert c.n == 7
    assert len(c.members) == 3
    assert c.ranks() == (1, 2, 5)
    assert frozenset(c.ranks()) == frozenset({1, 2, 5})
    # members given as a list are stored as a tuple, so the chain hashes
    listed = Chain(7, list(c.members))
    assert listed == c and hash(listed) == hash(c)
    assert smallest_blocks(listed) == smallest_blocks(c)


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
    # positions outside 1..n raise instead of reading from the far end
    fam = smallest_blocks(Chain.from_text(7, "12<123"))
    for i in (0, -1, -7, 8):
        with pytest.raises(ValueError):
            fam.block(i)
        with pytest.raises(ValueError):
            fam.prime(i)


def assert_family_matches_oracle(chain: Chain) -> None:
    # bit (i-1)*n + e-1 is set iff e lies in F'_i: in F_i and next to i
    # on the circle, F_i read off the text by the package-free oracle
    n, text = chain.n, chain.text()
    fam = smallest_blocks(chain)
    blocks = oracles.smallest_blocks(n, text)
    assert fam.blocks == tuple(mask_of(blocks[i]) for i in range(1, n + 1)), text
    neighbors = [{e for e in blocks[i] if (e - i) % n in (1, n - 1)} for i in range(1, n + 1)]
    assert fam.primes == tuple(map(mask_of, neighbors)), text
    expected = {(i - 1) * n + e - 1 for i in range(1, n + 1) for e in neighbors[i - 1]}
    packed = fam.packed_primes()
    assert {b for b in range(packed.bit_length()) if packed >> b & 1} == expected, text


def test_packed_primes_layout():
    for n, text in ((3, "13"), (7, "12<12,34<123456"), (7, "24<246"), (9, "1357<13579")):
        assert_family_matches_oracle(Chain.from_text(n, text))


def _clear_chain_memos() -> None:
    for memo in (smallest_blocks, chain_indices, _entries_of_blocks):
        memo.cache_clear()


def assert_memos_match_the_definitions(chain: Chain) -> None:
    # The memoised values equal a fresh derivation, and a pattern scan
    # reads the same hits whichever reading or refutation ran before it.
    text = chain.text()
    cat = catalogue(chain.n)
    assert smallest_blocks(chain) == smallest_blocks.__wrapped__(chain), text
    assert chain_indices(cat, chain) == tuple(cat.index_of[p.parts] for p in chain.members), text
    fresh = {}
    for strict in (True, False):
        _clear_chain_memos()
        fresh[strict] = detect_patterns(chain, strict=strict)
    _clear_chain_memos()
    refuted = pattern_refute(chain)
    for first, second in ((True, False), (False, True)):
        _clear_chain_memos()
        assert detect_patterns(chain, strict=first) == fresh[first], text
        assert pattern_refute(chain) == refuted, text
        assert detect_patterns(chain, strict=second) == fresh[second], text


def test_smallest_blocks_match_the_oracle():
    # every chain for n = 3..6, a fixed stride through the n = 7 chains,
    # and the chains (and duals) of the n = 8, 9 check goldens
    chains = itertools.chain(
        itertools.chain.from_iterable(enumerate_chains(n) for n in range(3, 7)),
        itertools.islice(enumerate_chains(7), 0, None, 13),
        check_golden_chains(),
    )
    for chain in chains:
        assert_family_matches_oracle(chain)
        assert_memos_match_the_definitions(chain)


def check_golden_chains() -> list[Chain]:
    """The chains (and duals) that the n = 8, 9 ``check`` goldens query."""
    chains = [
        Chain.from_text(n, line.split()[1])
        for n in (8, 9)
        for line in (GOLDENS / f"check-n{n}.txt").read_text(encoding="ascii").splitlines()
        if line.startswith("chain: ")
    ]
    assert len(chains) == 20
    return chains


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
    group = oracles.dihedral_perms(7)
    for text in ["12,46", "123,46", "24<246", "12<12,34<123456"]:
        c = Chain.from_text(7, text)
        for g in group:
            image = apply_symmetry_chain(c, g)
            assert cond_ii(image) == cond_ii(c)
            assert cond_iii_criterion(image) == cond_iii_criterion(c)
            assert frozenset(image.ranks()) == frozenset(c.ranks())


def test_canonical_chain_and_orbit():
    c = Chain.from_text(7, "67")
    group = oracles.dihedral_perms(7)
    assert len({apply_symmetry_chain(c, g).text() for g in group}) == 7
    canon = canonical_chain(c)
    for g in group:
        assert canonical_chain(apply_symmetry_chain(c, g)) == canon


def signature_groups(chains) -> int:
    """The number of groups, once both signatures are shown to agree on them."""
    new = [canonical_prime_signature(c) for c in chains]
    old = [oracles.prime_signature(c.n, c.text()) for c in chains]
    groups = len(set(new))
    assert len(set(old)) == len(set(zip(new, old))) == groups
    return groups


def test_canonical_prime_signature_groups_chains_as_the_oracle_does():
    # the necklace word groups chains exactly as the least dihedral image
    # of the F' sets does
    for n, chains, groups in ((3, 3, 1), (4, 28, 5), (5, 315, 15), (6, 4621, 57)):
        every = list(enumerate_chains(n))
        assert (len(every), signature_groups(every)) == (chains, groups)
    stride = list(itertools.islice(enumerate_chains(7), 0, None, 7))
    assert len(stride) == 12157
    assert signature_groups(stride) == 194
    signature_groups(check_golden_chains())


def test_canonical_prime_signature_invariance():
    c = Chain.from_text(7, "12,46")
    sig = canonical_prime_signature(c)
    assert isinstance(sig, tuple) and len(sig) > 0
    for g in oracles.dihedral_perms(7):
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

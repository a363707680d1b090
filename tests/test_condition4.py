"""Unit tests for pattern detection, exclusion sets, condition IV, certificates."""

from __future__ import annotations

import pytest

from ncpverify.chains import Chain, smallest_blocks
from ncpverify.condition4 import (
    CLAUSES,
    CONCLUSION,
    MAX_PATTERN_LENGTH,
    PatternHit,
    cond_iv,
    detect_patterns,
    exclusion_elements,
    exclusion_mask,
    pattern_refute,
    verify_witness,
)
from ncpverify.core import Partition, dihedral_group, mask_of
from ncpverify.enumeration import (
    chain_from_indices,
    enumerate_chains,
    maximal_chain_index,
    pruned_maximal_chains,
)
from ncpverify.lattice import catalogue

import oracles


def test_pattern_hit_text_roundtrip():
    for text in ["(1,+,3)(1)", "(4,-,3)(6)", "(3,+,6)(1)", "(2,-,7)(2)"]:
        hit = PatternHit.from_text(text)
        assert hit.text() == text
    hit = PatternHit.from_text("(4,-,3)(6)")
    assert (hit.k, hit.sign, hit.i, hit.variant) == (4, "-", 3, 6)
    # only ASCII digits: a fullwidth 4 is not a pattern length
    with pytest.raises(ValueError, match="not a pattern designator"):
        PatternHit.from_text("(\uff14,-,3)(6)")


def test_clause_table_shape():
    # one shape for length 1, two for length 2, four for length 3, eight for 4
    assert {k: len(v) for k, v in CLAUSES.items()} == {1: 1, 2: 2, 3: 4, 4: 8}
    assert MAX_PATTERN_LENGTH == 4
    assert CONCLUSION == "condition IV fails"


def test_detect_patterns_quoted_cases():
    # reference case built on the single chain "13": both quoted hits appear
    hits13 = {h.text() for h in detect_patterns(Chain.from_text(7, "13"))}
    assert "(3,+,6)(1)" in hits13
    assert "(3,-,6)(1)" in hits13
    # reference case built on "23<23,45<123456"
    hits39 = {h.text() for h in detect_patterns(Chain.from_text(7, "23<23,45<123456"))}
    assert "(4,+,7)(7)" in hits39
    assert "(4,-,7)(7)" in hits39


def test_strict_hits_subset_of_nonstrict():
    for text in ["12,46", "13", "23<23,45<123456", "24<246"]:
        chain = Chain.from_text(7, text)
        nonstrict = {h.text() for h in detect_patterns(chain)}
        strict = {h.text() for h in detect_patterns(chain, strict=True)}
        assert strict <= nonstrict


def test_exclusion_elements():
    # (k,+,i) forbids the k successors of i; (k,-,i) the k predecessors,
    # both cyclically; the variant does not change the excluded set
    assert exclusion_elements(7, PatternHit.from_text("(1,+,3)(1)")) == (4,)
    assert exclusion_elements(7, PatternHit.from_text("(4,-,3)(6)")) == (6, 7, 1, 2)
    assert exclusion_elements(7, PatternHit.from_text("(3,+,6)(1)")) == (7, 1, 2)
    assert exclusion_mask(7, PatternHit.from_text("(1,+,3)(1)")) == mask_of([4])
    assert exclusion_mask(7, PatternHit.from_text("(4,-,3)(6)")) == mask_of([6, 7, 1, 2])
    for variant in range(1, 9):
        hit = PatternHit(4, "-", 3, variant)
        assert exclusion_elements(7, hit) == (6, 7, 1, 2)


def excluded_by_index(chain: Chain) -> list[int]:
    """Per index i, the union of the companions its hits forbid from C_i."""
    excluded = [0] * chain.n
    for hit in detect_patterns(chain):
        excluded[hit.i - 1] |= exclusion_mask(chain.n, hit)
    return excluded


def test_exclusion_table_examples():
    full = (1 << 7) - 1
    excluded = excluded_by_index(Chain.from_text(7, "12,46"))
    allowed3 = full & ~excluded[2] & ~mask_of([3])
    assert allowed3 == mask_of([5])
    chain13 = Chain.from_text(7, "13")
    excluded13 = excluded_by_index(chain13)
    # quoted example: at i=6 everything is excluded
    assert excluded13[5] == mask_of([1, 2, 3, 4, 5, 7])
    allowed6 = full & ~excluded13[5] & ~mask_of([6])
    assert allowed6 == 0
    # the hits at each index justify, element by element, its exclusions
    for i in range(1, 8):
        justified = {
            e
            for hit in detect_patterns(chain13)
            if hit.i == i
            for e in exclusion_elements(7, hit)
        }
        assert mask_of(justified) == excluded13[i - 1]


def empty_companion_index(chain: Chain) -> int | None:
    """Least index whose allowed-companion set is empty, if any.

    Such an index refutes condition IV outright: C_i must properly
    contain i (a maximal chain merges every part or leaves i a
    singleton throughout, and the latter collides with F_i' being
    nonempty whenever any pattern fires at i), yet every candidate
    companion is excluded.
    """
    full = (1 << chain.n) - 1
    for i, excluded in enumerate(excluded_by_index(chain), 1):
        if excluded and full & ~excluded & ~(1 << (i - 1)) == 0:
            return i
    return None


def test_empty_companion_index():
    assert empty_companion_index(Chain.from_text(7, "13")) == 5
    assert empty_companion_index(Chain.from_text(7, "12<12346")) == 3
    assert empty_companion_index(Chain.from_text(7, "24<246")) is None


def test_cond_iv_refuted():
    outcome = cond_iv(Chain.from_text(7, "12,46"))
    assert outcome.satisfied is False
    assert outcome.witness is None
    assert outcome.checked == 16807


def test_cond_iv_satisfied_with_witness():
    chain = Chain.from_text(7, "24<246")
    outcome = cond_iv(chain)
    assert outcome.satisfied is True
    assert outcome.witness.text() == "57<567<4567<13,4567<123,4567"
    assert outcome.checked == 2604
    assert verify_witness(chain, outcome.witness)
    # an independently quoted witness also verifies
    quoted = Chain.from_text(7, "13<13,57<13,567<13,4567<134567")
    assert verify_witness(chain, quoted)


def _verdict(outcome):
    return outcome.satisfied, outcome.witness.text() if outcome.witness else None


def _grower_verdict(chain):
    # the first leaf of the pruned grower whose family avoids the demand
    n = chain.n
    cat = catalogue(n)
    demand = sum(prime << e * n for e, prime in enumerate(smallest_blocks(chain).primes))
    for indices, family in pruned_maximal_chains(cat, demand):
        if not family & demand:
            return True, chain_from_indices(cat, indices).text()
    return False, None


def test_index_scan_and_pruned_walk_agree(pipeline_report):
    # the index and the pruned grower take maximal chains in one order, so
    # they stop at the same first compatible one: every chain for n <= 5
    # and the 119 n = 7 classes
    chains = [c for n in range(3, 6) for c in enumerate_chains(n)]
    chains += [Chain.from_text(7, cls.representative) for cls in pipeline_report.classes]
    assert len(chains) == 3 + 28 + 315 + 119
    for chain in chains:
        outcome = cond_iv(chain)
        assert outcome.method == "index"
        assert _verdict(outcome) == _grower_verdict(chain), chain.text()


def test_pruned_grower_goldens_n8_n9():
    # beyond the index: (satisfied, witness, chains reached) per n
    goldens = {
        8: {
            "13": (False, None, 216),
            "24<246": (True, "57<567<48,567<45678<13,45678<123,45678", 29),
            "12,46": (False, None, 540),
            "13<123<1234": (False, None, 338),
            "1357": (True, "68<678<5678<24,5678<234,5678<2345678", 1),
        },
        9: {
            "13": (False, None, 958),
            "24<246": (False, None, 6174),
            "12,46": (False, None, 2394),
            "13<123<1234": (False, None, 1532),
            "1357": (True, "68<678<5678<49,5678<456789<2456789<23456789", 436),
        },
    }
    for n, cases in goldens.items():
        for text, expected in cases.items():
            chain = Chain.from_text(n, text)
            outcome = cond_iv(chain)
            assert outcome.method == "dfs"
            assert _verdict(outcome) + (outcome.checked,) == expected, (n, text)
            if outcome.witness:
                assert verify_witness(chain, outcome.witness)


def test_verify_witness_rejects_non_witness():
    chain = Chain.from_text(7, "24<246")
    index = maximal_chain_index(7)
    non_witness = index.chain_at(0)
    assert not verify_witness(chain, non_witness)
    # a non-maximal chain is never a witness
    assert not verify_witness(chain, Chain.from_text(7, "12<123"))


def test_cond_iv_no_witness_for_quoted_refuted_chain():
    # quoted example: the single-member chain {{1,4}} has no witness
    outcome = cond_iv(Chain.from_text(7, "14"))
    assert outcome.satisfied is False


def test_pattern_refute_exact_steps():
    cert = pattern_refute(Chain.from_text(7, "12,46"))
    assert cert is not None
    assert cert.chain_text == "12,46"
    assert cert.n == 7
    assert cert.strict is False
    assert cert.conclusion == CONCLUSION
    assert list(cert.steps) == [
        {"kind": "exclusion", "index": 3, "excluded": [4], "pattern": "(1,+,3)(1)"},
        {"kind": "exclusion", "index": 3, "excluded": [6, 7, 1, 2], "pattern": "(4,-,3)(6)"},
        {"kind": "forced-block", "index": 3, "block": [3, 5]},
        {"kind": "propagate", "source": 3, "target": 5, "block": [3, 5]},
        {"kind": "exclusion", "index": 7, "excluded": [1, 2, 3, 4], "pattern": "(4,+,7)(6)"},
        {"kind": "exclusion", "index": 7, "excluded": [6], "pattern": "(1,-,7)(1)"},
        {"kind": "forced-block", "index": 7, "block": [5, 7]},
        {
            "kind": "conflict",
            "conflict": "forced-mismatch",
            "index": 5,
            "existing": [3, 5],
            "incoming": [5, 7],
            "source": 7,
        },
    ]


def test_pattern_refute_emptiness_style():
    cert = pattern_refute(Chain.from_text(7, "13"))
    assert cert is not None
    last = cert.steps[-1]
    assert last["kind"] == "conflict"
    assert last["conflict"] == "emptiness"
    assert last["index"] == 5


def test_pattern_refute_forced_crossing_styles():
    # forced-crossing conflict: two forced two-element blocks cross
    cert16 = pattern_refute(Chain.from_text(7, "23<12346"))
    last16 = cert16.steps[-1]
    assert last16["conflict"] == "forced-crossing"
    assert last16["indices"] == [1, 5]
    assert last16["blocks"] == [[1, 6], [5, 7]]
    cert38 = pattern_refute(Chain.from_text(7, "16<16,34<123456"))
    last38 = cert38.steps[-1]
    assert last38["conflict"] == "forced-crossing"
    assert last38["indices"] == [2, 3]
    assert last38["blocks"] == [[2, 7], [1, 3]]


def test_pattern_refute_none_when_iv_satisfied():
    # soundness: no certificate for a chain whose condition IV holds
    assert pattern_refute(Chain.from_text(7, "24<246")) is None


def test_detect_patterns_equivariance():
    # hit counts are preserved by every dihedral symmetry
    group = dihedral_group(7)
    for text in ["12,46", "13", "24<246"]:
        chain = Chain.from_text(7, text)
        base = len(detect_patterns(chain))
        for g in group:
            members = (Partition(7, oracles.apply_symmetry(g.perm, p.parts)) for p in chain.members)
            image = Chain(7, tuple(members))
            assert len(detect_patterns(image)) == base


def test_certificate_json_roundtrip():
    cert = pattern_refute(Chain.from_text(7, "12,46"))
    again = type(cert).from_json(cert.to_json())
    assert again == cert

"""Tests for the end-to-end pipeline, alignment, survey, and reports.

Every number asserted here was measured by running the relevant
computation in isolation and double-checking it against an independent
implementation where one exists (condition-III census, class counts,
reference alignment). They are frozen so regressions surface loudly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from functools import lru_cache

import pytest

from ncpverify import pipeline
from ncpverify.chains import (
    Chain,
    canonical_prime_signature,
    chain_indices,
    cond_i,
    cond_ii,
    cond_iii_bruteforce,
    cond_iii_criterion,
    dual_indices,
    neighbor_mask,
    smallest_blocks,
)
from ncpverify.enumeration import enumerate_chains, maximal_chain_index, sample_chains
from ncpverify.lattice import catalogue
from ncpverify.pipeline import (
    LEMMA3_SAMPLE_SIZE,
    LEMMA3_SEED,
    VERDICT_VERIFIED,
    cond_i_rank_sets,
    condition_iii_survey,
    duality_reduced_rank_sets,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_theorem5,
    validate_lemma3,
)

import oracles

TEN_REDUCED_SETS = [
    frozenset({1}),
    frozenset({2}),
    frozenset({3}),
    frozenset({1, 2}),
    frozenset({1, 3}),
    frozenset({1, 4}),
    frozenset({1, 5}),
    frozenset({2, 3}),
    frozenset({1, 2, 3}),
    frozenset({1, 2, 5}),
]


def test_cond_i_rank_sets():
    sets = cond_i_rank_sets(7)
    assert len(sets) == 18
    reduced = duality_reduced_rank_sets(7)
    assert [set(s) for s in reduced] == [set(s) for s in TEN_REDUCED_SETS]


def test_pipeline_headline_numbers(pipeline_report):
    r = pipeline_report
    assert r.n == 7
    assert r.chains_scanned == 12432
    assert len(r.candidates) == 2667
    assert len(r.classes) == 119
    assert r.verdict == VERDICT_VERIFIED
    assert r.survivors == ()
    assert len(r.iii_disagreements) == 4144


def test_pipeline_class_invariants(pipeline_report):
    r = pipeline_report
    with_certificate = sum(1 for c in r.classes if c.certificate is not None)
    iv_satisfied = sum(1 for c in r.classes if c.iv_satisfied)
    iv_refuted = sum(1 for c in r.classes if not c.iv_satisfied)
    assert with_certificate == 112
    assert iv_refuted == 112
    assert iv_satisfied == 7
    # a certificate and a satisfied condition IV are mutually exclusive
    for c in r.classes:
        assert not (c.certificate is not None and c.iv_satisfied)
        if c.iv_satisfied:
            assert c.iv_witness is not None
    matched = sum(1 for c in r.classes if c.matched_case is not None)
    duplicates = sum(1 for c in r.classes if c.signature_duplicate_of is not None)
    assert matched == 51
    assert duplicates == 92
    # duplicate_of always points at an earlier class
    order = {c.representative: k for k, c in enumerate(r.classes)}
    for c in r.classes:
        if c.signature_duplicate_of is not None:
            assert order[c.signature_duplicate_of] < order[c.representative]


def class_signatures(classes) -> list[set]:
    """Each class's F' signatures, on both duality sides."""
    return [
        {
            canonical_prime_signature(Chain.from_text(7, text))
            for text in (c.representative, c.dual_representative)
        }
        for c in classes
    ]


def test_signature_duplicate_is_the_earliest_class_sharing_a_signature(pipeline_report):
    # the reference scans every earlier class, on both duality sides
    classes = pipeline_report.classes
    signatures = class_signatures(classes)
    expected = [
        next(
            (classes[e].representative for e in range(p) if signatures[p] & signatures[e]),
            None,
        )
        for p in range(len(classes))
    ]
    assert [c.signature_duplicate_of for c in classes] == expected


def test_pipeline_filter_semantics(pipeline_report):
    # The report writes I and II as true on both sides without storing
    # them: only condition-I rank sets are scanned, and candidates passed
    # II on both sides.  Each class's two chains bear that out.
    for written in json.loads(report_to_json(pipeline_report))["classes"]:
        keys = ("condI", "condII", "dualCondI", "dualCondII")
        assert [written[key] for key in keys] == [True] * 4
        for text in (written["representative"], written["dualRepresentative"]):
            chain = Chain.from_text(7, text)
            assert cond_i(chain) and cond_ii(chain), text
    # every kept class passes the union filter on both sides, and survival
    # additionally demands the literal condition III on both sides
    for c in pipeline_report.classes:
        assert c.cond_iii_criterion or c.cond_iii_literal
        assert c.dual_cond_iii_criterion or c.dual_cond_iii_literal
        expected_survives = (
            c.iv_satisfied and c.cond_iii_literal and c.dual_cond_iii_literal
        )
        assert c.survives == expected_survives
        assert not c.survives  # the theorem: nobody survives


def test_pipeline_unresolved_classes(pipeline_report):
    unresolved = pipeline_report.unresolved
    assert unresolved == (
        "37,456",
        "23,457",
        "23,467",
        "23,47,56",
        "247,56",
        "27,36,45",
        "57<12,34567",
        "57<14567,23",
    )
    # each unresolved class was admitted by the criterion only: the
    # literal condition III fails on at least one side, so the reference
    # tables are complete with respect to the literal condition
    by_rep = {c.representative: c for c in pipeline_report.classes}
    for text in unresolved:
        c = by_rep[text]
        assert not (c.cond_iii_literal and c.dual_cond_iii_literal)


def test_criterion_only_classes_fail_literal_iii_on_both_sides(pipeline_report):
    # README Finding 2: the nine classes the union filter keeps only through
    # the criterion fail the literal condition III on both sides, never on one
    one_side = [
        c.representative
        for c in pipeline_report.classes
        if not (c.cond_iii_literal and c.dual_cond_iii_literal)
    ]
    both_sides = [
        c.representative
        for c in pipeline_report.classes
        if not (c.cond_iii_literal or c.dual_cond_iii_literal)
    ]
    assert one_side == both_sides == [
        "347,56",
        "37,456",
        "23,457",
        "23,467",
        "23,47,56",
        "247,56",
        "27,36,45",
        "57<12,34567",
        "57<14567,23",
    ]


def test_unresolved_classes_need_one_step_from_a_matched_class(pipeline_report):
    # Group the classes by shared signatures, transitively: within every
    # group any two classes share one, so nothing is two steps away.
    classes = pipeline_report.classes
    signatures = class_signatures(classes)
    groups: list[set[int]] = []
    for i in range(len(classes)):
        joined = [g for g in groups if any(signatures[i] & signatures[j] for j in g)]
        for g in joined:
            groups.remove(g)
        groups.append({i}.union(*joined))
    assert len(groups) == 27
    for g in groups:
        for i, j in itertools.combinations(g, 2):
            assert signatures[i] & signatures[j]
    # so stage 5's one-step rule gives the fixpoint: resolve through any
    # resolved class until nothing changes
    resolved = [c.matched_case is not None for c in classes]
    changed = True
    while changed:
        changed = False
        for i, j in itertools.permutations(range(len(classes)), 2):
            if resolved[j] and not resolved[i] and signatures[i] & signatures[j]:
                resolved[i] = changed = True
    fixpoint = tuple(c.representative for c, done in zip(classes, resolved) if not done)
    assert len(fixpoint) == 8
    assert pipeline_report.unresolved == fixpoint


def test_pipeline_disagreements_match_direct_measurement(pipeline_report):
    # spot-check a handful of recorded disagreements directly
    sample = pipeline_report.iii_disagreements[:5]
    for text in sample:
        chain = Chain.from_text(7, text)
        assert cond_iii_criterion(chain) != cond_iii_bruteforce(chain)


def test_condition_iii_survey(survey):
    assert survey.n == 7
    assert survey.chains_checked == 85099
    assert survey.agreements == 80955
    assert survey.criterion_only == 4144
    assert survey.literal_only == 0
    assert survey.criterion_covers_literal
    assert survey.agreements + survey.criterion_only + survey.literal_only == 85099
    assert set(survey.disagreeing_fixture_chains) == {"123,46", "367,45"}
    for text in survey.criterion_only_examples:
        chain = Chain.from_text(7, text)
        assert cond_iii_criterion(chain) and not cond_iii_bruteforce(chain)
    assert survey.literal_only_examples == ()


def test_fixture_alignment(alignment_table, fixture_set):
    rows = alignment_table.rows
    assert len(rows) == 58
    aligned = [r for r in rows if r.aligned]
    misaligned = [r for r in rows if not r.aligned]
    assert len(aligned) == 53
    assert sorted((r.case_id, r.chain) for r in misaligned) == [
        (9, "123,46"),
        (32, "124<1234"),
        (32, "13<123<1234"),
        (32, "14<124<1234"),
        (32, "24<124<1234"),
    ]
    # the misalignment is always a hit-reproduction failure, never a
    # missing class or an unrefuted chain
    for r in misaligned:
        assert r.found_in_class
        assert r.iv_refuted
        assert not r.hits_reproduced
    assert not alignment_table.all_aligned


def test_fixture_conventions(alignment_table):
    convs = alignment_table.conventions
    assert len(convs) == 39
    assert sum(1 for c in convs if c.nonstrict_reproduces) == 37
    assert sum(1 for c in convs if c.strict_reproduces) == 31
    failing = sorted(c.case_id for c in convs if not c.nonstrict_reproduces)
    assert failing == [9, 32]


def test_fixture_certificate_styles(alignment_table):
    mismatches = [r for r in alignment_table.rows if not r.style_matches]
    assert len(mismatches) == 4


@lru_cache(maxsize=None)
def _kept_class_of_member(n: int) -> dict[tuple[int, ...], str]:
    return {
        member: cls.representative.text()
        for cls in pipeline.reduced_classes(n).classes
        for member in cls.members
    }


def _kept_classes_holding(cat, text: str) -> set[str]:
    """The kept classes whose orbit-sweep members hold the chain or its dual.

    The reference is the sweep's own ``OrbitClass.members``, not the
    canonical orbit texts that stage 5 and ``compare_fixture`` look up.
    """
    holder = _kept_class_of_member(cat.n)
    indices = chain_indices(cat, Chain.from_text(cat.n, text))
    return {holder[v] for v in (indices, dual_indices(cat, indices)) if v in holder}


def test_fixture_rows_find_the_class_holding_the_chain(alignment_table):
    cat = catalogue(7)
    for row in alignment_table.rows:
        holding = _kept_classes_holding(cat, row.chain)
        assert len(holding) <= 1, row.chain
        assert row.found_in_class == (holding.pop() if holding else None), row.chain


def test_matched_case_is_the_least_case_with_a_chain_in_the_class(
    pipeline_report, fixture_set
):
    cat = catalogue(7)
    least: dict[str, int] = {}
    for case in fixture_set.cases:
        for text in case.chains:
            for rep in _kept_classes_holding(cat, text):
                least[rep] = min(least.get(rep, case.case_id), case.case_id)
    assert len(least) == 51
    assert [c.matched_case for c in pipeline_report.classes] == [
        least.get(c.representative) for c in pipeline_report.classes
    ]


def test_validate_lemma3_report():
    report = validate_lemma3(7)
    assert report.n == 7
    assert report.maximal_chains == 16807
    assert report.chains_checked == 484
    assert report.chains_with_survivors == 165
    assert report.total_survivors == 48096
    assert report.hits_checked == 14651
    assert report.pairs_checked == 460435
    assert report.violations == ()
    assert report.ci_always_proper is True


def _assert_every_violated_pair_reported(monkeypatch, fault):
    # An injected fault: ``fault(n, hit, mask)`` replaces each hit's
    # exclusions, and forbids some companion that some surviving C_i hold
    # and some do not.  The report must list the violated (survivor, hit)
    # pairs exactly as a loop over every pair finds them, message for
    # message and in the same order.  The corpus is recorded through
    # smallest_blocks, which validate_lemma3 calls once per corpus chain.
    n = 7
    exclusion_mask = pipeline.exclusion_mask
    detect_patterns = pipeline.detect_patterns
    family_of = pipeline.smallest_blocks
    corpus = []

    def widened(n, hit):
        return fault(n, hit, exclusion_mask(n, hit))

    def recording(chain):
        corpus.append(chain)
        return family_of(chain)

    monkeypatch.setattr(pipeline, "exclusion_mask", widened)
    monkeypatch.setattr(pipeline, "smallest_blocks", recording)
    validate_lemma3.cache_clear()
    try:
        report = validate_lemma3(n)
    finally:
        validate_lemma3.cache_clear()

    index = maximal_chain_index(n)
    neighbors = [neighbor_mask(n, i) for i in range(1, n + 1)]
    families = [oracles.code_fields(n, code) for code in index.enclosing]
    # the positions of each C' family, decoded field by field
    by_primes: dict[tuple[int, ...], list[int]] = {}
    for k, family in enumerate(families):
        by_primes.setdefault(tuple(c & m for c, m in zip(family, neighbors)), []).append(k)
    expected = []
    for chain in corpus:
        primes = smallest_blocks(chain).primes
        text = chain.text()
        masks = [(hit, widened(n, hit)) for hit in detect_patterns(chain)]
        surviving = sorted(
            k
            for c_primes, positions in by_primes.items()
            if not any(c & f for c, f in zip(c_primes, primes))
            for k in positions
        )
        for k in surviving:
            for hit, mask in masks:
                if families[k][hit.i - 1] & mask:
                    expected.append(f"chain {text} hit {hit.text()} violated by maximal chain #{k}")
    assert len(corpus) == report.chains_checked == 484
    assert (report.total_survivors, report.pairs_checked) == (48096, 460435)
    assert 0 < len(expected) < report.pairs_checked
    assert report.violations == tuple(expected)


def test_validate_lemma3_reports_every_violated_pair(monkeypatch):
    # every backward hit also forbids i+1
    _assert_every_violated_pair_reported(
        monkeypatch, lambda n, hit, mask: mask | 1 << hit.i % n if hit.sign == "-" else mask
    )


def test_validate_lemma3_reports_violations_in_the_last_field(monkeypatch):
    # The backward hits at i = n forbid element 1 and every other
    # exclusion is dropped, so every violation sits in the last field of
    # a family code: a field shift that misplaces it hides them all.
    _assert_every_violated_pair_reported(
        monkeypatch, lambda n, hit, mask: 1 if hit.sign == "-" and hit.i == n else 0
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_reduced_classes_are_the_report_classes(n):
    # validate_lemma3 reads its corpus from stages 1-3; it must be the
    # report's representatives and dual representatives, in report order.
    reduced = pipeline.reduced_classes(n)
    report = run_theorem5(n)
    assert [(c.representative, c.dual_representative) for c in reduced.classes] == [
        (Chain.from_text(n, c.representative), Chain.from_text(n, c.dual_representative))
        for c in report.classes
    ]


def test_validate_lemma3_runs_no_condition_iv_work(monkeypatch):
    # With every cache cleared, lemma 3 recomputes its corpus from scratch,
    # and none of the condition-IV, certificate or signature code of
    # stages 4 and 5 may run.
    def forbidden(*args, **kwargs):
        raise AssertionError("validate_lemma3 ran a stage-4/5 function")

    for name in ("cond_iv", "pattern_refute", "canonical_prime_signature"):
        monkeypatch.setattr(pipeline, name, forbidden)
    caches = (validate_lemma3, pipeline.reduced_classes, run_theorem5)
    for cached in caches:
        cached.cache_clear()
    try:
        report = validate_lemma3(7)
    finally:
        for cached in caches:
            cached.cache_clear()
    assert report.chains_checked == 484
    assert report.chains_with_survivors == 165
    assert report.total_survivors == 48096
    assert report.hits_checked == 14651
    assert report.pairs_checked == 460435
    assert report.violations == ()


def test_lemma3_sample_equals_materialised_sample():
    # validate_lemma3 streams its random corpus; CPython's sample depends
    # only on the population's length, so it must pick the same chains as
    # sampling the materialised list of all chains.
    population = list(enumerate_chains(7))
    assert sample_chains(7, LEMMA3_SAMPLE_SIZE, LEMMA3_SEED) == random.Random(
        LEMMA3_SEED
    ).sample(population, LEMMA3_SAMPLE_SIZE)


@pytest.mark.parametrize("n", range(3, 8))
def test_run_theorem5_holds_the_alignment_and_the_survey(n):
    # A fresh run: a test that cleared the survey's cache cannot split the
    # survey a memoized report holds from the memoized survey.
    report = run_theorem5.__wrapped__(n)
    assert report == run_theorem5(n)
    assert report.survey is condition_iii_survey(n)
    if n == 7:
        assert report.alignment == pipeline.compare_fixture(report)
    else:
        assert report.alignment is None


def test_compare_fixture_refuses_a_report_of_another_n():
    # the reference tables are read in the catalogue of the report's n
    with pytest.raises(ValueError, match="report is for n=6, fixtures for n=7"):
        pipeline.compare_fixture(run_theorem5(6))


def test_report_to_json(pipeline_report):
    payload = json.loads(report_to_json(pipeline_report))
    assert payload["n"] == 7
    assert payload["verdict"] == VERDICT_VERIFIED
    assert payload["chainsScanned"] == 12432
    assert payload["candidateCount"] == 2667
    assert payload["classCount"] == 119
    assert len(payload["classes"]) == 119
    assert payload["survivors"] == []
    first = payload["classes"][0]
    for key in (
        "representative",
        "ranks",
        "orbitSize",
        "dualRepresentative",
        "condIIICriterion",
        "condIIILiteral",
        "dualCondIIICriterion",
        "dualCondIIILiteral",
        "condIVSatisfied",
        "refutedByPatterns",
        "survives",
    ):
        assert key in first
    assert payload["condIIISurvey"]["criterionOnly"] == 4144
    assert payload["alignment"]["allAligned"] is False
    aligned_rows = sum(1 for row in payload["alignment"]["rows"] if row["aligned"])
    assert aligned_rows == 53


def test_report_to_csv(pipeline_report):
    text = report_to_csv(pipeline_report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 119
    assert "condIIICriterion" in rows[0]
    assert "condIIILiteral" in rows[0]
    assert "dualCondIIILiteral" in rows[0]
    assert all(row["survives"] == "False" for row in rows)


def test_convention_report_counts_the_cases_aligned(pipeline_report, alignment_table):
    table = alignment_table._replace(conventions=alignment_table.conventions[:3])
    text = report_to_text(pipeline_report._replace(alignment=table))
    assert "convention report: non-strict reproduces 3/3 cases, strict reproduces 2/3\n" in text


def test_report_to_text(pipeline_report):
    text = report_to_text(pipeline_report)
    assert "THEOREM 5 VERIFIED" in text
    assert "12432" in text and "2667" in text and "119" in text
    assert "53/58" in text
    assert "85099" in text and "4144" in text
    assert "criterion alone cannot replace the literal condition" in text

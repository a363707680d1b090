"""Differential tests for the counted paths: the survey DP and unranking.

``condition_iii_survey`` counts chains per condition-III reading by a DP
over the order rows, and ``sample_chains`` unranks its positions from
per-rank-set completion tables.  Both are compared here against the
streams they replace: the survey against the loop over every chain it
used to run (``reference_survey``), the unranked chains against the
chain stream in order, and the sample against picking its positions
from that stream.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from ncpverify import pipeline
from ncpverify.chains import Chain, chain_from_indices, chain_indices, dual_indices, index_text
from ncpverify.enumeration import all_chain_index_tuples, chains_at, count_chains, sample_chains
from ncpverify.fixtures import load_fixtures
from ncpverify.lattice import CRITERION, LITERAL, READINGS, catalogue
from ncpverify.pipeline import (
    SURVEY_EXAMPLE_LIMIT,
    ConditionIIISurvey,
    _chain_readings,
    condition_iii_survey,
)


def reference_survey(n: int) -> ConditionIIISurvey:
    """The survey by one pass over every chain, in stream order."""
    cat = catalogue(n)
    fixture_chains: set[tuple[int, ...]] = set()
    if n == 7:
        for text in load_fixtures().all_chain_texts():
            indices = chain_indices(cat, Chain.from_text(n, text))
            fixture_chains.add(indices)
            fixture_chains.add(dual_indices(cat, indices))

    checked = criterion_only = literal_only = 0
    criterion_examples: list[str] = []
    literal_examples: list[str] = []
    fixture_disagreements: list[str] = []
    for indices, code in all_chain_index_tuples(cat):
        checked += 1
        reading = code & READINGS
        if reading == CRITERION:
            criterion_only += 1
            if len(criterion_examples) < SURVEY_EXAMPLE_LIMIT:
                criterion_examples.append(index_text(cat, indices))
        elif reading == LITERAL:
            literal_only += 1
            if len(literal_examples) < SURVEY_EXAMPLE_LIMIT:
                literal_examples.append(index_text(cat, indices))
        else:
            continue
        if indices in fixture_chains:
            fixture_disagreements.append(index_text(cat, indices))
    return ConditionIIISurvey(
        n=n,
        chains_checked=checked,
        agreements=checked - criterion_only - literal_only,
        criterion_only=criterion_only,
        literal_only=literal_only,
        criterion_only_examples=tuple(criterion_examples),
        literal_only_examples=tuple(literal_examples),
        disagreeing_fixture_chains=tuple(fixture_disagreements),
    )


@lru_cache(maxsize=None)
def _stream(n: int) -> list[tuple[int, ...]]:
    return [indices for indices, _ in all_chain_index_tuples(catalogue(n))]


@pytest.mark.parametrize("n", range(3, 8))
def test_survey_equals_streamed_reference(n):
    assert condition_iii_survey(n) == reference_survey(n)


@pytest.mark.parametrize("n", range(3, 8))
def test_survey_dp_total_equals_chain_count(n):
    readings = _chain_readings(catalogue(n))
    streamed = sum(1 for _ in all_chain_index_tuples(catalogue(n)))
    assert sum(readings) == count_chains(n) == streamed


@pytest.mark.parametrize("n", range(3, 8))
def test_survey_examples_stop_at_the_last_one(n, monkeypatch):
    """The example search reads the stream up to its last example only."""
    cat = catalogue(n)
    wanted = {CRITERION: SURVEY_EXAMPLE_LIMIT, LITERAL: SURVEY_EXAMPLE_LIMIT}
    needed = 0
    for position, (_, code) in enumerate(all_chain_index_tuples(cat)):
        if wanted.get(code & READINGS):
            wanted[code & READINGS] -= 1
            needed = position + 1
    pulled = 0

    def counted(cat):
        nonlocal pulled
        for item in all_chain_index_tuples(cat):
            pulled += 1
            yield item

    monkeypatch.setattr(pipeline, "all_chain_index_tuples", counted)
    survey = condition_iii_survey.__wrapped__(n)
    assert survey == reference_survey(n)
    assert pulled == needed
    if n == 7:
        assert pulled == 56


def test_survey_finds_literal_only_examples(monkeypatch):
    """The literal-only example search, on a stream that has such chains.

    Literal III implies the criterion for every n <= 7 (README Finding 1),
    so no real chain is literal-only; the search stays as the report's
    evidence should that law ever fail.  Here the n = 5 stream is
    relabelled to hold 4 criterion-only and 13 literal-only chains.
    """
    n = 5
    cat = catalogue(n)
    stream = [indices for indices, _ in all_chain_index_tuples(cat)]
    criterion_at = (4, 9, 21, 22)
    literal_at = tuple(range(2, 40, 3))

    def code(position):
        if position in criterion_at:
            return CRITERION
        if position in literal_at:
            return LITERAL
        return READINGS if position % 2 else 0

    codes = [code(position) for position in range(len(stream))]
    readings = [codes.count(reading) for reading in range(READINGS + 1)]
    pulled = 0

    def relabelled(cat):
        nonlocal pulled
        for item in zip(stream, codes):
            pulled += 1
            yield item

    monkeypatch.setattr(pipeline, "_chain_readings", lambda cat: readings)
    monkeypatch.setattr(pipeline, "all_chain_index_tuples", relabelled)
    condition_iii_survey.cache_clear()
    try:
        survey = condition_iii_survey(n)
    finally:
        condition_iii_survey.cache_clear()
    assert (survey.criterion_only, survey.literal_only) == (4, 13)
    assert survey.chains_checked == len(stream)
    assert survey.criterion_only_examples == tuple(
        index_text(cat, stream[position]) for position in criterion_at
    )
    wanted = literal_at[:SURVEY_EXAMPLE_LIMIT]
    assert survey.literal_only_examples == tuple(
        index_text(cat, stream[position]) for position in wanted
    )
    # the last example needed is the tenth literal-only chain
    assert pulled == wanted[-1] + 1 == 30


@pytest.mark.parametrize("n", range(3, 7))
def test_unranking_gives_the_stream_in_order(n):
    stream = _stream(n)
    assert chains_at(n, range(len(stream))) == stream


def test_unranking_n7_stride():
    stride = list(itertools.islice(all_chain_index_tuples(catalogue(7)), 0, None, 211))
    assert chains_at(7, range(0, 85099, 211)) == [indices for indices, _ in stride]


def test_unranking_rejects_positions_outside_the_stream():
    for position in (-1, count_chains(3)):
        with pytest.raises(IndexError):
            chains_at(3, [position])


def _picked_from_stream(n: int, k: int, seed: int) -> list:
    cat = catalogue(n)
    stream = _stream(n)
    positions = random.Random(seed).sample(range(len(stream)), min(k, len(stream)))
    return [chain_from_indices(cat, stream[position]) for position in positions]


@pytest.mark.parametrize("seed", [20260816, 0, 1])
def test_sample_equals_pick_from_stream(seed):
    for n in range(3, 7):
        for k in (1, 200, count_chains(n)):
            assert sample_chains(n, k, seed) == _picked_from_stream(n, k, seed)
    for k in (1, 200):
        assert sample_chains(7, k, seed) == _picked_from_stream(7, k, seed)
    # a k beyond the population takes all of it, in sampled order
    assert sample_chains(3, 10, seed) == _picked_from_stream(3, 10, seed)
    assert len(sample_chains(3, 10, seed)) == 3

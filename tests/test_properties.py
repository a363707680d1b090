"""Property tests over the chain grammar and the command line.

Any text read at any n either parses or raises one of the package's
input errors, and ``check`` and ``render`` answer any text and any n
with a result or exit code 3, never an exception.  Any four disjoint
nonempty blocks cross in union, the fact that makes the condition-III
criterion a count.  The certificate checker answers any one-field edit
of a real certificate with a result, never an exception.  Skipped when
``hypothesis`` is not installed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from ncpverify.chains import Chain
from ncpverify.cli import main
from ncpverify.condition4 import RefutationCertificate, pattern_refute
from ncpverify.core import NotationError
from ncpverify.enumeration import enumerate_chains
from ncpverify.lattice import catalogue, iter_bits
from ncpverify.replay import ReplayResult, replay_certificate
from test_index_kernel import _four_members_cross

# Digits of other scripts and superscripts are not element names.
NON_ASCII_DIGITS = "\u00b2\u0661\u0662\u0967\uff11"
GRAMMAR = st.text(alphabet="0123456789,<-" + NON_ASCII_DIGITS, max_size=24)


@st.composite
def valid_chains(draw) -> tuple[str, int]:
    """(text, n) of a chain of NC(n), 3 <= n <= 7, grown member by member."""
    n = draw(st.integers(3, 7))
    cat = catalogue(n)
    members: list[str] = []
    candidates = cat.proper_mask
    while candidates and (not members or draw(st.booleans())):
        j = draw(st.sampled_from(list(iter_bits(candidates))))
        members.append(cat.texts[j])
        candidates = cat.above[j] & cat.proper_mask
    return "<".join(members), n


UNIVERSES = st.integers(-2, 12)
TEXTS = st.one_of(GRAMMAR, st.text(max_size=12))
# Any text at any n, and valid chains at their own n or at another.
CASES = st.one_of(
    st.tuples(TEXTS, UNIVERSES),
    valid_chains(),
    st.tuples(valid_chains().map(lambda chain: chain[0]), UNIVERSES),
)


@settings(max_examples=300, deadline=None)
@given(CASES)
def test_chain_text_parses_or_raises_an_input_error(case):
    text, n = case
    try:
        chain = Chain.from_text(n, text)
    except ValueError:  # every input error of the package is one
        return
    assert not set(text) & set(NON_ASCII_DIGITS)
    assert Chain.from_text(n, chain.text()) == chain


def _foreign_digit(digit: int) -> st.SearchStrategy[str]:
    """The same digit in another script, or as a superscript."""
    superscripts = "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"
    return st.sampled_from(
        [chr(zero + digit) for zero in (0x0660, 0x0966, 0xFF10)] + [superscripts[digit]]
    )


@settings(max_examples=200, deadline=None)
@given(valid_chains(), st.data())
def test_non_ascii_digits_are_unexpected_characters(chain, data):
    text, n = chain
    where = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch.isdigit()]))
    foreign = data.draw(_foreign_digit(int(text[where])))
    with pytest.raises(NotationError, match="unexpected character") as caught:
        Chain.from_text(n, text[:where] + foreign + text[where + 1 :])
    assert caught.value.position == where


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_result_or_exit_3(code: int, out: str, err: str) -> None:
    assert code in (0, 3)
    if code == 3:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_check_answers_any_text_and_n(case):
    text, n = case
    _assert_result_or_exit_3(*_run(["check", f"--n={n}", f"--chain={text}"]))


@settings(max_examples=100, deadline=None)
@given(CASES)
def test_render_answers_any_text_and_n(case):
    text, n = case
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out.svg"
        _assert_result_or_exit_3(
            *_run(["render", f"--n={n}", f"--input={text}", f"--out={out}"])
        )


@st.composite
def disjoint_blocks(draw) -> tuple[int, list[int]]:
    """(n, masks) of 4..n disjoint nonempty blocks of {1..n}, 4 <= n <= 9."""
    n = draw(st.integers(4, 9))
    k = draw(st.integers(4, n))
    order = draw(st.permutations(range(n)))
    blocks = [1 << e for e in order[:k]]
    for e in order[k:]:
        owner = draw(st.integers(-1, k - 1))  # -1: in no block
        if owner >= 0:
            blocks[owner] |= 1 << e
    return n, blocks


@settings(max_examples=300, deadline=None)
@given(disjoint_blocks())
def test_any_four_disjoint_blocks_cross_in_union(case):
    n, blocks = case
    assert _four_members_cross(n, blocks)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
# Every key that some step kind reads.
STEP_KEYS = (
    "kind",
    "index",
    "excluded",
    "pattern",
    "forcedIndex",
    "block",
    "source",
    "target",
    "conflict",
    "existing",
    "incoming",
    "indices",
    "blocks",
)


@functools.lru_cache(maxsize=None)
def _documents_n5() -> tuple[str, ...]:
    """The JSON text of every certificate the engine writes at n = 5."""
    return tuple(c.to_json() for c in map(pattern_refute, enumerate_chains(5)) if c is not None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_answers_any_one_field_edit_of_a_certificate(data):
    document = json.loads(data.draw(st.sampled_from(_documents_n5())))
    steps = document["steps"]
    edit = data.draw(st.sampled_from(["field", "step field", "step", "drop step"]))
    if edit == "field":
        field = data.draw(st.sampled_from(RefutationCertificate._fields))
        document[field] = data.draw(JSON_VALUES)
    else:
        at = data.draw(st.integers(0, len(steps) - 1))
        if edit == "step field":
            steps[at][data.draw(st.sampled_from(STEP_KEYS))] = data.draw(JSON_VALUES)
        elif edit == "step":
            steps[at] = data.draw(JSON_VALUES)
        else:
            del steps[at]
    for read in (document, json.dumps(document)):
        result = replay_certificate(read)
        assert isinstance(result, ReplayResult)
        assert isinstance(result.ok, bool) and isinstance(result.steps_checked, int)
        assert (result.failure is None) == result.ok

"""Tests for the independent certificate checker, including tamper detection.

``_replay`` gives each case to the checker twice, as a record and as its
JSON text, and requires the same result from both.
"""

from __future__ import annotations

import json

import pytest

from ncpverify.chains import Chain, chain_from_indices, chain_indices
from ncpverify.condition4 import RefutationCertificate, pattern_refute
from ncpverify.enumeration import enumerate_chains
from ncpverify.lattice import catalogue
from ncpverify.pipeline import run_theorem5
from ncpverify.replay import _family_sets, replay_certificate

import oracles


def _cert(text: str = "12,46"):
    cert = pattern_refute(Chain.from_text(7, text))
    assert cert is not None
    return cert


def _replay(cert):
    """Replay a record and its JSON text, which one read path takes alike."""
    result = replay_certificate(cert)
    assert replay_certificate(cert.to_json()) == result
    return result


def _record(payload: dict) -> RefutationCertificate:
    """The record of a certificate document: its keys are the fields."""
    return RefutationCertificate(**{**payload, "steps": tuple(payload["steps"])})


@pytest.mark.parametrize("n", range(3, 7))
def test_family_sets_match_the_oracle(n):
    for chain in enumerate_chains(n):
        assert _family_sets(chain) == oracles.smallest_blocks(n, chain.text()), chain.text()


def test_replay_accepts_genuine_certificate():
    result = _replay(_cert())
    assert result.ok is True
    assert result.failure is None
    assert result.steps_checked == 8


def test_replay_all_fixture_certificates(fixture_set):
    for text in fixture_set.all_chain_texts():
        cert = pattern_refute(Chain.from_text(7, text))
        assert cert is not None, text
        result = _replay(cert)
        assert result.ok, (text, result.failure)


@pytest.mark.parametrize("n", range(3, 8))
def test_record_and_text_replay_alike(n):
    certificates = [c.certificate for c in run_theorem5(n).classes if c.certificate]
    for cert in certificates:
        assert _replay(cert).ok, cert.chain
    if n == 7:
        assert len(certificates) == 112


def test_certificates_survive_every_dihedral_symmetry(pipeline_report):
    # Condition IV and its refutations are dihedrally invariant, so every
    # image of a certified class is certified too, and the image's
    # certificate replays.
    cat = catalogue(7)
    certified = [c for c in pipeline_report.classes if c.certificate is not None]
    assert len(certified) == 112
    for c in certified:
        indices = chain_indices(cat, Chain.from_text(7, c.representative))
        for table in cat.symmetries:
            image = chain_from_indices(cat, tuple(table[j] for j in indices))
            cert = pattern_refute(image)
            assert cert is not None, image.text()
            assert replay_certificate(cert).ok, image.text()


def test_replay_rejects_tampered_exclusion():
    cert = _cert()
    steps = [dict(s) for s in cert.steps]
    steps[0]["excluded"] = [5]
    result = _replay(cert._replace(steps=tuple(steps)))
    assert result.ok is False
    assert "excludes" in result.failure


def test_replay_rejects_retargeted_certificate():
    cert = _cert()
    # aiming the certificate at a chain without the claimed hits fails
    result = _replay(cert._replace(chain="13"))
    assert result.ok is False
    assert "does not hold" in result.failure
    # aiming it at a chain whose condition IV is satisfied also fails
    result2 = _replay(cert._replace(chain="24<246"))
    assert result2.ok is False


def test_replay_rejects_dropped_conflict():
    cert = _cert()
    result = _replay(cert._replace(steps=cert.steps[:-1]))
    assert result.ok is False
    assert "without a contradiction" in result.failure


def test_replay_rejects_bad_conclusion():
    cert = _cert()
    result = _replay(cert._replace(conclusion="nonsense"))
    assert result.ok is False
    assert "conclusion" in result.failure


def test_replay_rejects_tampered_forced_block():
    cert = _cert()
    steps = [dict(s) for s in cert.steps]
    steps[2]["block"] = [3, 6]
    result = _replay(cert._replace(steps=tuple(steps)))
    assert result.ok is False


def test_replay_rejects_tampered_propagation():
    cert = _cert()
    steps = [dict(s) for s in cert.steps]
    steps[3]["target"] = 6
    result = _replay(cert._replace(steps=tuple(steps)))
    assert result.ok is False
    assert "target" in result.failure


def _forge_forced_index(steps):
    eviction = next(s for s in steps if "forcedIndex" in s)
    eviction.update(forcedIndex=4, excluded=[4])  # 4 has no forced block yet


@pytest.mark.parametrize(
    "text, tamper, failure",
    [
        # the forced block moved before the exclusions that pin it
        ("12,46", lambda steps: steps.insert(0, steps.pop(2)), "not excluded"),
        ("12,46", lambda steps: steps[-1].update(existing=[5, 7]), "stated existing"),
        (
            "12,46",
            lambda steps: steps[-1].update(incoming=steps[-1]["existing"]),
            "stated incoming",
        ),
        (
            "12,46",
            lambda steps: steps.append(
                {"kind": "propagate", "source": 3, "target": 5, "block": [3, 5]}
            ),
            "continue after",
        ),
        ("23<12346", lambda steps: steps[-1].update(blocks=[[1, 6], [2, 7]]), "forced state"),
        ("23<12346", lambda steps: steps[-1]["blocks"].__setitem__(0, [5, 6]), "forced state"),
        ("16<12346", lambda steps: steps.pop(0), "no emptiness"),
        ("16<16,34<123456", _forge_forced_index, "no forced block"),
        # true == 1 in Python, but a flag is not an index
        ("23<12346", lambda steps: steps[4].update(index=True), "not an index"),
    ],
)
def test_replay_rejects_tampered_steps(text, tamper, failure):
    payload = json.loads(_cert(text).to_json())
    assert _replay(_record(payload)).ok
    tamper(payload["steps"])
    result = _replay(_record(payload))
    assert result.ok is False
    assert failure in result.failure


def test_replay_rejects_non_ascii_digits_in_a_designator():
    payload = json.loads(_cert().to_json())
    step = next(s for s in payload["steps"] if s.get("pattern") == "(4,-,3)(6)")
    step["pattern"] = "(\uff14,-,3)(6)"  # a fullwidth 4
    result = _replay(_record(payload))
    assert result.ok is False
    assert "malformed pattern designator" in result.failure


def test_replay_reads_the_strict_field(pipeline_report):
    # pattern_refute always writes strict: false, but a certificate is
    # outside input: one that claims the strict reading is checked under
    # it, and 457's first pattern needs a non-strict containment
    (cls,) = [c for c in pipeline_report.classes if c.representative == "457"]
    assert cls.certificate.strict is False
    assert _replay(cls.certificate).ok
    result = _replay(cls.certificate._replace(strict=True))
    assert result.ok is False
    assert result.failure == "pattern (4,+,2)(2) does not hold for this chain"


def test_replay_rejects_empty_payload():
    result = replay_certificate("{}")
    assert result.ok is False
    assert "lacks a universe size" in result.failure
    assert _replay(RefutationCertificate(None, None, None, None, None)) == result


@pytest.mark.parametrize(
    "payload",
    ["[]", "nope", {"chain": 5}, {"chain": None}, {"n": True}, {"strict": "yes"}],
    ids=["list", "not-json", "chain-int", "chain-null", "n-true", "strict-text"],
)
def test_replay_reports_malformed_payload(payload):
    if isinstance(payload, dict):
        result = _replay(_record({**json.loads(_cert().to_json()), **payload}))
    else:
        result = replay_certificate(payload)
    assert result.ok is False
    assert result.failure.startswith("malformed certificate: ")
    assert result.steps_checked == 0

"""Byte-identity gate: the CLI reports against recorded goldens.

Any refactor of the kernel must leave the ``theorem5`` report unchanged
byte for byte, so the files under ``tests/goldens/`` hold what
``ncpverify theorem5 --n N --json J --csv C`` wrote and printed for
N = 3..7 (the 270 KB n = 7 JSON as its SHA-256 only), and what
``ncpverify validate-lemma3 --n N`` printed for N = 3..7, and what
``ncpverify check --n N --chain C --dual`` printed for N = 8, 9 and the
five chains of ``CHECK_CHAINS``, one after another: past the maximal-chain
index, these pin the pruned search's witnesses and leaf counts.  The
runs here are in-process through ``cli.main``, with the exit codes
checked too.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from ncpverify.cli import main

GOLDENS = Path(__file__).parent / "goldens"

# theorem5 exits 2 at n = 7: five quoted reference hits do not hold
# (README, "Findings"), which is reference misalignment only.
THEOREM5_EXIT = {3: 0, 4: 0, 5: 0, 6: 0, 7: 2}

CHECK_CHAINS = ("13", "24<246", "12,46", "13<123<1234", "1357")


@pytest.mark.parametrize("n", sorted(THEOREM5_EXIT))
def test_theorem5_reports_match_goldens(n, tmp_path, capsys):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    code = main(["theorem5", "--n", str(n), "--json", str(json_path), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == THEOREM5_EXIT[n]
    assert out == (GOLDENS / f"theorem5-n{n}.txt").read_text(encoding="ascii")
    assert csv_path.read_bytes() == (GOLDENS / f"theorem5-n{n}.csv").read_bytes()
    if n == 7:
        digest = (GOLDENS / "theorem5-n7.json.sha256").read_text(encoding="ascii").strip()
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == digest
    else:
        assert json_path.read_bytes() == (GOLDENS / f"theorem5-n{n}.json").read_bytes()


@pytest.mark.parametrize("n", range(3, 8))
def test_validate_lemma3_matches_golden(n, capsys):
    code = main(["validate-lemma3", "--n", str(n)])
    assert code == 0
    assert capsys.readouterr().out == (GOLDENS / f"validate-lemma3-n{n}.txt").read_text(
        encoding="ascii"
    )


@pytest.mark.parametrize("n", (8, 9))
def test_check_beyond_the_index_matches_golden(n, capsys):
    out = []
    for chain in CHECK_CHAINS:
        assert main(["check", "--n", str(n), "--chain", chain, "--dual"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDENS / f"check-n{n}.txt").read_text(encoding="ascii")

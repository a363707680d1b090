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
checked too.  ``demo-0K.txt`` is what ``demos/0K_*.py`` prints for
K = 1..6 (demo 01 reads its join and meet from the catalogue's order
rows), and ``demo-06-svg.sha256`` digests the six SVG files demo 06
writes, in the order it prints them.
``pattern-refute.sha256`` digests ``pattern_refute``'s output, certificate
JSON or none, on every chain for N = 3..6 and the 2 667 theorem5
candidates at N = 7: 7 634 chains, 4 240 certificates.
"""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

from ncpverify.cli import main
from ncpverify.condition4 import pattern_refute
from ncpverify.enumeration import chain_from_indices, enumerate_chains
from ncpverify.lattice import catalogue
from ncpverify.pipeline import reduced_classes

GOLDENS = Path(__file__).parent / "goldens"
DEMOS = Path(__file__).parents[1] / "demos"

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


def test_lattice_tour_demo_matches_golden(capsys):
    runpy.run_path(str(DEMOS / "01_lattice_tour.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDENS / "demo-01.txt").read_text(encoding="ascii")


@pytest.mark.parametrize(
    "demo",
    [
        "02_chain_conditions",
        "03_condition_iv_certificates",
        "04_run_theorem5",
        "05_apartments",
    ],
)
def test_demo_matches_golden(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    golden = GOLDENS / f"demo-{demo[:2]}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="ascii")


def test_render_gallery_demo_matches_golden(capsys):
    # each SVG's path is printed relative to demos/, so the output is the
    # same in every checkout
    runpy.run_path(str(DEMOS / "06_render_gallery.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (GOLDENS / "demo-06.txt").read_text(encoding="ascii")
    digest = hashlib.sha256()
    for line in out.splitlines():
        digest.update((DEMOS / line.removeprefix("wrote ")).read_bytes())
    expected = (GOLDENS / "demo-06-svg.sha256").read_text(encoding="ascii").strip()
    assert digest.hexdigest() == expected


def test_certificate_stream_matches_golden():
    cat = catalogue(7)
    chains = [chain for n in range(3, 7) for chain in enumerate_chains(n)]
    chains += [chain_from_indices(cat, indices) for indices in reduced_classes(7).candidates]
    digest = hashlib.sha256()
    certified = 0
    for chain in chains:
        certificate = pattern_refute(chain)
        certified += certificate is not None
        digest.update(chain.text().encode("ascii") + b"\n")
        text = "none" if certificate is None else certificate.to_json()
        digest.update(text.encode("ascii") + b"\n")
    assert (len(chains), certified) == (7634, 4240)
    expected = (GOLDENS / "pattern-refute.sha256").read_text(encoding="ascii").strip()
    assert digest.hexdigest() == expected

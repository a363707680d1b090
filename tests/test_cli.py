"""Tests for the command-line interface (in-process, via main())."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ncpverify
from ncpverify.cli import main


def test_check_refuted_chain(capsys):
    code = main(["check", "--chain", "12,46"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain: 12,46" in out
    assert "condition I:   True" in out
    assert "condition II:  True" in out
    assert "condition III: criterion=True literal=True" in out
    assert "condition IV:  refuted (16807 maximal chains examined)" in out
    assert "pattern refutation certificate:" in out
    assert '"forced-mismatch"' in out


def test_check_satisfied_chain_with_dominant(capsys):
    code = main(["check", "--chain", "24<246", "--dominant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition IV:  satisfied, witness 57<567<4567<13,4567<123,4567" in out
    assert "dominant vertex: none (1428 trees scanned)" in out
    assert "condition IV': True" in out


def test_check_dual_section(capsys):
    code = main(["check", "--chain", "12,46", "--dual"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("chain: ") == 2
    assert "chain: 2367,45" in out


def test_check_incomparable_members(capsys):
    code = main(["check", "--chain", "13<24"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err
    assert "not strictly increasing" in captured.err


# The supported n of each command (docs/formats.md, "Supported n per
# command"): the arguments after the command, the lowest and highest n,
# and the exit code at each of those two.
N_CONTRACT = {
    "enumerate --what partitions": ([], 1, 9, 0, 0),
    "enumerate --what trees": ([], 3, 9, 0, 0),
    "enumerate --what chains": ([], 3, 7, 0, 0),
    "enumerate --what maxchains": ([], 3, 7, 0, 0),
    "check": (["--chain", "12", "--dual", "--dominant"], 3, 9, 0, 0),
    "theorem5": ([], 3, 7, 0, 2),
    "validate-lemma3": ([], 3, 7, 0, 0),
    "render": (["--input", "", "--out", "{out}"], 1, 9, 0, 0),
}


def test_every_command_keeps_its_n_contract(capsys, tmp_path):
    out = str(tmp_path / "p.svg")
    for command, (extra, low, high, at_low, at_high) in N_CONTRACT.items():
        args = command.split() + [a.format(out=out) for a in extra]
        outcomes = ((low - 1, 3), (low, at_low), (high, at_high), (high + 1, 3))
        for n, expected in outcomes:
            code = main([*args, "--n", str(n)])
            captured = capsys.readouterr()
            assert code == expected, (command, n)
            if expected == 3:
                assert captured.out == "", (command, n)
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), (command, n)


def test_n_contract_matches_the_documented_table():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text("utf-8")
    rows = re.findall(r"^\| `([^`]+)` \| (\d)–(\d) \|", text, re.M)
    documented = {command: (int(low), int(high)) for command, low, high in rows}
    assert documented == {
        command: (low, high) for command, (_, low, high, _, _) in N_CONTRACT.items()
    }


def test_check_beyond_the_maximal_chain_index(capsys):
    # n = 8 runs condition IV by the pruned grower; the witness and count
    # are the ones test_condition4 pins for it.
    code = main(["check", "--n", "8", "--chain", "24<246"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain: 24<246  (n=8, ranks {1,2})" in out
    assert "condition III: criterion=True literal=True" in out
    assert (
        "condition IV:  satisfied, witness 57<567<48,567<45678<13,45678<123,45678"
        " (29 maximal chains reached by the pruned search)" in out
    )


def test_check_refuted_beyond_the_maximal_chain_index(capsys):
    # The pruned grower cuts every branch for 12 at n = 8, so it reaches no
    # maximal chain at all; the line says so instead of "examined".
    code = main(["check", "--n", "8", "--chain", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert (
        "condition IV:  refuted (0 maximal chains reached by the pruned search)\n" in out
    )
    assert "examined" not in out


def test_check_rejects_non_ascii_digits(capsys):
    for text in ("\u00b2", "\u0661\u0662"):
        code = main(["check", "--chain", text])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unexpected character")


def test_check_parse_error_reports_position(capsys):
    code = main(["check", "--chain", "12,,3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "position" in captured.err


def test_check_crossing_member(capsys):
    code = main(["check", "--chain", "13,24"])
    captured = capsys.readouterr()
    assert code == 3
    assert "crossing" in captured.err


def test_usage_error_exit_code(capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["check"]) == 3  # missing required --chain
    capsys.readouterr()
    assert main(["enumerate", "--what", "nonsense"]) == 3
    capsys.readouterr()


def test_enumerate_counts(capsys):
    code = main(["enumerate", "--what", "partitions", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 14
    code = main(["enumerate", "--what", "maxchains", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 125
    code = main(["enumerate", "--what", "trees", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 12


def test_closed_stdout_exits_141_without_a_message():
    # A reader that stops early (``... | head``) is not an input error.
    env = dict(os.environ, PYTHONPATH=str(Path(ncpverify.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncpverify.cli", "enumerate", "--what", "maxchains", "--n", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first == b"67<567<4567<34567<234567\n"
    assert stderr == b""


def test_theorem5_exit_code_and_reports(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        ["theorem5", "--n", "7", "--json", str(json_path), "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    # theorem verified but reference misaligned -> exit 2
    assert code == 2
    assert "verdict: THEOREM 5 VERIFIED" in out
    payload = json.loads(json_path.read_text())
    assert payload["verdict"] == "THEOREM 5 VERIFIED"
    assert len(payload["classes"]) == 119
    assert csv_path.read_text().count("\n") == 120  # header + 119 rows


def test_theorem5_bad_output_path_prints_nothing(capsys, tmp_path):
    bad = str(tmp_path / "missing" / "report")
    for flag in ("--json", "--csv"):
        code = main(["theorem5", "--n", "5", flag, bad])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_theorem5_bad_output_path_keeps_the_other_file(capsys, tmp_path):
    bad = str(tmp_path / "missing" / "report")
    for good_flag, bad_flag in (("--json", "--csv"), ("--csv", "--json")):
        good = tmp_path / ("kept" + good_flag)
        good.write_bytes(b"earlier output\n")
        code = main(["theorem5", "--n", "5", good_flag, str(good), bad_flag, bad])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert good.read_bytes() == b"earlier output\n"


def test_theorem5_replaces_existing_output_files(capsys, tmp_path):
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    for path in (json_path, csv_path):
        path.write_text("x" * 100_000)
    assert main(["theorem5", "--n", "5", "--json", str(json_path), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert json.loads(json_path.read_text())["n"] == 5
    assert csv_path.read_text().startswith("representative,")
    assert "x" not in csv_path.read_text()


def test_theorem5_refuses_one_file_for_both_reports(capsys, tmp_path):
    target = tmp_path / "report"
    target.write_bytes(b"earlier output\n")
    os.link(target, tmp_path / "hard")
    (tmp_path / "soft").symlink_to(target)
    for other in (target, tmp_path / "hard", tmp_path / "soft"):
        code = main(["theorem5", "--n", "5", "--json", str(target), "--csv", str(other)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: --json and --csv name the same file\n"
        assert target.read_bytes() == b"earlier output\n"


def test_theorem5_empty_output_path_is_an_error(capsys):
    for flag in ("--json", "--csv"):
        code = main(["theorem5", "--n", "5", flag, ""])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_validate_lemma3_cli(capsys):
    code = main(["validate-lemma3", "--n", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exclusion violations: none" in out
    assert "survivor-hit pairs verified: 460435" in out


def test_render_cli(capsys, tmp_path):
    out_path = tmp_path / "p.svg"
    assert main(["render", "--input", "123,46", "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("<svg ")
    tree_path = tmp_path / "t.svg"
    assert (
        main(["render", "--input", "1-2,2-3,3-4,4-5,5-6,6-7", "--out", str(tree_path)])
        == 0
    )
    chain_path = tmp_path / "c.svg"
    assert main(["render", "--input", "12<12346", "--out", str(chain_path)]) == 0


def test_render_rejects_non_ascii_digits(capsys, tmp_path):
    out_path = tmp_path / "t.svg"
    for digit in ("\uff12", "\u00b2"):  # a fullwidth 2, a superscript 2
        tree = f"1-{digit},2-3,3-4,4-5,5-6,6-7"
        code = main(["render", "--input", tree, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: expected digits-digits, got '1-")
        assert not out_path.exists()


def test_fixtures_listing(capsys):
    code = main(["fixtures"])
    out = capsys.readouterr().out
    assert code == 0
    assert "39 cases, 58 chains" in out
    assert "case  1:" in out


def test_fixtures_compare_exit_code(capsys):
    code = main(["fixtures", "--compare"])
    out = capsys.readouterr().out
    assert code == 2  # misaligned reference rows exist
    assert "aligned: 53/58" in out
    assert "case 9: quoted hits NOT reproduced (non-strict)" in out
    assert "case 32: quoted hits NOT reproduced (non-strict)" in out

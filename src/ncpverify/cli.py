"""Command-line interface.

Subcommands cover the whole artifact: raw enumeration (``enumerate``),
single-chain analysis (``check``), the full verification pipeline with
reference alignment (``theorem5``), the empirical exclusion-soundness
scan (``validate-lemma3``), chord-diagram rendering (``render``), and
reference-data inspection (``fixtures``).

Exit codes: 0 success (for ``theorem5``: verified and aligned); 1 a
mathematical check failed (a surviving class, or an exclusion
violation); 2 reference misalignment only; 3 usage or input error; 141
the reader closed stdout (a broken pipe).

``apartments`` and ``svg`` are imported inside the commands that run
them (``check --dominant``, ``enumerate --what trees``, ``render``), so
no other command's fresh process loads them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

from ncpverify.chains import (
    Chain,
    cond_i,
    cond_ii,
    cond_iii_bruteforce,
    cond_iii_criterion,
    dual_chain,
    smallest_blocks,
)
from ncpverify.condition4 import cond_iv, detect_patterns, pattern_refute
from ncpverify.core import Partition, elements_of
from ncpverify.enumeration import enumerate_chains, maximal_chain_index
from ncpverify.fixtures import load_fixtures
from ncpverify.lattice import catalogue
from ncpverify.pipeline import (
    report_to_csv,
    report_to_json,
    report_to_text,
    run_theorem5,
    validate_lemma3,
)

__all__ = ["main"]


def _mask_text(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def _print_chain_analysis(chain: Chain, strict_patterns: bool, dominant: bool) -> None:
    ranks = ",".join(str(r) for r in chain.ranks())
    print(f"chain: {chain.text()}  (n={chain.n}, ranks {{{ranks}}})")
    print(f"dual:  {dual_chain(chain).text()}")
    fam = smallest_blocks(chain)
    print(" i  F_i              F_i'")
    for i in range(1, chain.n + 1):
        print(f" {i}  {_mask_text(fam.block(i)):16s} {_mask_text(fam.prime(i))}")
    print(f"condition I:   {cond_i(chain)}")
    print(f"condition II:  {cond_ii(chain)}")
    print(
        f"condition III: criterion={cond_iii_criterion(chain)}"
        f" literal={cond_iii_bruteforce(chain)}"
    )
    outcome = cond_iv(chain)
    # The index examines every maximal chain; the pruned grower (n > 7)
    # counts only the leaves its pruning lets it reach.
    if outcome.method == "index":
        counted = f"{outcome.checked} maximal chains examined"
    else:
        counted = f"{outcome.checked} maximal chains reached by the pruned search"
    if outcome.satisfied:
        print(f"condition IV:  satisfied, witness {outcome.witness.text()} ({counted})")
    else:
        print(f"condition IV:  refuted ({counted})")
    hits = detect_patterns(chain, strict=strict_patterns)
    convention = "strict" if strict_patterns else "non-strict"
    print(f"pattern hits ({convention}): " + (" ".join(h.text() for h in hits) or "none"))
    certificate = pattern_refute(chain)
    if certificate is not None:
        print("pattern refutation certificate:")
        for step in certificate.steps:
            print("  " + json.dumps(step, sort_keys=True))
    elif not outcome.satisfied:
        print("pattern refutation certificate: none (exhaustive scan only)")
    if dominant:
        from ncpverify.apartments import cond_iv_prime, dominant_vertex

        report = dominant_vertex(chain)
        if report.dominant is None:
            print(f"dominant vertex: none ({report.checked_trees} trees scanned)")
        else:
            print(
                f"dominant vertex: {report.dominant.text()}"
                f" ({report.checked_trees} trees scanned)"
            )
        print(f"condition IV': {cond_iv_prime(chain)}")


def _cmd_check(args) -> int:
    chain = Chain.from_text(args.n, args.chain)
    _print_chain_analysis(chain, args.strict_patterns, args.dominant)
    if args.dual:
        print()
        _print_chain_analysis(dual_chain(chain), args.strict_patterns, args.dominant)
    return 0


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.what == "partitions":
        for p in catalogue(n).partitions:
            print(p.text())
    elif args.what == "chains":
        for c in enumerate_chains(n):
            print(c.text())
    elif args.what == "maxchains":
        index = maximal_chain_index(n)
        for k in range(len(index)):
            print(index.chain_at(k).text())
    else:
        from ncpverify.apartments import spanning_trees

        for t in spanning_trees(n):
            print(t.text())
    return 0


def _cmd_theorem5(args) -> int:
    report = run_theorem5(args.n)
    with contextlib.ExitStack() as stack:
        # Opened before the text report, so a bad path prints nothing, and
        # opened to append, so no file is emptied until both paths open.
        outputs = [
            stack.enter_context(open(path, "a", encoding="ascii"))
            if path is not None
            else None
            for path in (args.json, args.csv)
        ]
        json_out, csv_out = outputs
        stats = [os.fstat(out.fileno()) if out else None for out in outputs]
        if json_out and csv_out and os.path.samestat(*stats):
            raise ValueError("--json and --csv name the same file")
        for flag, st in zip(("--json", "--csv"), stats):
            if st and os.path.samestat(st, os.fstat(1)):
                raise ValueError(f"{flag} names the file that stdout writes to")
        for out, st in zip(outputs, stats):
            # A pipe or a device cannot be truncated, and holds nothing to replace.
            if out and stat.S_ISREG(st.st_mode):
                out.truncate(0)
        sys.stdout.write(report_to_text(report))
        if json_out:
            json_out.write(report_to_json(report))
        if csv_out:
            csv_out.write(report_to_csv(report))
    if report.survivors:
        return 1
    if report.alignment is not None and not report.alignment.all_aligned:
        return 2
    return 0


def _cmd_validate_lemma3(args) -> int:
    report = validate_lemma3(args.n)
    print(f"universe size: {report.n}")
    print(f"maximal chains indexed: {report.maximal_chains}")
    print(f"corpus chains checked: {report.chains_checked}")
    print(
        f"chains with surviving maximal chains: {report.chains_with_survivors}"
        f" (total survivors {report.total_survivors})"
    )
    print(f"pattern hits checked: {report.hits_checked}")
    print(f"survivor-hit pairs verified: {report.pairs_checked}")
    print(f"C_i always a proper superset of {{i}}: {report.ci_always_proper}")
    if report.violations:
        print("EXCLUSION VIOLATIONS:")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print("exclusion violations: none")
    return 0 if report.ci_always_proper else 1


def _cmd_render(args) -> int:
    from ncpverify.apartments import NCSpanningTree
    from ncpverify.svg import render_to_file

    text = args.input
    if "-" in text:
        obj = NCSpanningTree.from_text(args.n, text)
    elif "<" in text:
        obj = Chain.from_text(args.n, text)
    else:
        obj = Partition.from_text(args.n, text)
    render_to_file(obj, args.out)
    return 0


def _cmd_fixtures(args) -> int:
    fixtures = load_fixtures()
    if not args.compare:
        print(
            f"{len(fixtures.cases)} cases, {len(fixtures.all_chain_texts())} chains,"
            f" {len(fixtures.rank_sets)} rank sets (n={fixtures.n})"
        )
        for case in fixtures.cases:
            hits = " ".join(h.text() for h in case.claimed_hits)
            forced = " forced" if case.expects_forced_argument else ""
            print(f"case {case.case_id:2d}: {', '.join(case.chains)}  [{hits}]{forced}")
        return 0
    table = run_theorem5(fixtures.n).alignment
    for row in table.rows:
        print(
            f"case {row.case_id:2d} chain {row.chain:24s}"
            f" found={'yes' if row.found_in_class else 'no '}"
            f" hits={'yes' if row.hits_reproduced else 'no '}"
            f" strict={'yes' if row.strict_also_reproduces else 'no '}"
            f" refuted={'yes' if row.iv_refuted else 'no '}"
            f" style={row.certificate_style}"
        )
    for conv in table.conventions:
        if not conv.nonstrict_reproduces:
            print(f"case {conv.case_id}: quoted hits NOT reproduced (non-strict)")
    aligned = sum(1 for r in table.rows if r.aligned)
    print(f"aligned: {aligned}/{len(table.rows)}")
    return 0 if table.all_aligned else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpverify",
        description="Exact verification of the chain-refutation theorem over"
        " the non-crossing partition poset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list partitions, chains, maximal chains, or trees")
    p.add_argument(
        "--what",
        required=True,
        choices=["partitions", "chains", "maxchains", "trees"],
    )
    p.add_argument("--n", type=int, default=7)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="analyze one chain")
    p.add_argument("--chain", required=True, help="chain text, e.g. 12<12346")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--dual", action="store_true", help="also analyze the dual chain")
    p.add_argument(
        "--dominant", action="store_true", help="also run the dominant-vertex scan"
    )
    p.add_argument(
        "--strict-patterns",
        action="store_true",
        help="list pattern hits under the strict-inclusion convention",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("theorem5", help="run the full verification pipeline")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--json", metavar="PATH", help="also write the JSON report")
    p.add_argument("--csv", metavar="PATH", help="also write the per-class CSV")
    p.set_defaults(func=_cmd_theorem5)

    p = sub.add_parser(
        "validate-lemma3", help="test pattern exclusions against real maximal chains"
    )
    p.add_argument("--n", type=int, default=7)
    p.set_defaults(func=_cmd_validate_lemma3)

    p = sub.add_parser("render", help="render a chord-diagram SVG")
    p.add_argument(
        "--input",
        required=True,
        help="partition (12,46), chain (12<12346), or tree (1-2,2-3,...)",
    )
    p.add_argument("--out", required=True, metavar="FILE.svg")
    p.add_argument("--n", type=int, default=7)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fixtures", help="inspect or align the reference data")
    p.add_argument(
        "--compare",
        action="store_true",
        help="align the pipeline's classes with the reference tables",
    )
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    if sys.stdout is None:
        # Started with fd 1 closed (``>&-``): checked before any command
        # runs, so no report file can open as fd 1 and be taken for stdout.
        if sys.stderr is not None:
            print("error: stdout is closed", file=sys.stderr)
        return 3
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 3 if code == 2 else code
    # Older argparse (3.10, 3.11) reads "--opt=--" as an empty list, not as
    # the value "--" that newer versions pass on to the parsers.
    for name, value in vars(args).items():
        if value == []:
            option = "--" + name.replace("_", "-")
            print(f"error: argument {option}: expected one value", file=sys.stderr)
            return 3
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``... | head``): not bad input.  Point
        # stdout at devnull so the flush at shutdown cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a reader-closed pipe
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

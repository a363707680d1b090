"""Which code each ``ncpverify`` command runs.

Runs ``ncpverify.cli.main`` in-process under ``sys.settrace`` on the fixed
argument lists in ``COMMANDS`` (every subcommand, with each of its options
that picks a different path, and three input errors), then prints, per
module of the package, how many of its executable lines ran and how many
of its functions were entered, and lists every function that no command
enters.  Functions are keyed by code object, so a nested function or a
method counts on its own; lambdas and comprehensions count as part of the
function around them.

Each function that no command runs must be named in ``UNRUN`` with the
reason it stays.  The script exits 1 if an unrun function is missing from
``UNRUN``, if an entry names a function that no longer exists or that some
command now runs, or if a command ends with an exit code other than the
one listed for it.  Standard library only; pytest does not collect it::

    python3 tests/command_coverage.py

It then prints the verdict map: the lines per module that stages 1-4 of
``theorem5`` at n = 7 run, the stages that decide the verdict, traced in
a fresh interpreter so the catalogue and index builds are in it.  It
exits 1 if any line of a module in ``VERDICT_FORBIDDEN`` runs there: the
verdict must not read the reference tables, the reports or the
rendering and apartment code.  Last comes the stage-5 map, the lines
that stage 5 runs on that decided report in the same interpreter; it
exits 1 if stage 5 enters a function in ``STAGE5_FORBIDDEN``, which would
recompute what the report already holds.

Executable lines are read from the compiled code objects (``co_lines``),
without a function's own first line, which the tracer never reports.  A
line counts as run once any command reports it; a code object whose lines
have all run is no longer line-traced, which keeps the run to seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "ncpverify"

# Each command with the exit code it must end with; ``{out}`` is a
# temporary directory.  theorem5 at n = 7 and ``fixtures --compare`` exit 2:
# the bundled reference tables hold the misalignments README lists.
COMMANDS = [
    ("theorem5 --n 3 --json {out}/3.json --csv {out}/3.csv", 0),
    ("theorem5 --n 4 --json {out}/4.json --csv {out}/4.csv", 0),
    ("theorem5 --n 5 --json {out}/5.json --csv {out}/5.csv", 0),
    ("theorem5 --n 6 --json {out}/6.json --csv {out}/6.csv", 0),
    ("theorem5 --n 7 --json {out}/7.json --csv {out}/7.csv", 2),
    ("check --n 7 --chain 12<12346 --dual --dominant", 0),
    ("check --n 7 --chain 24<246 --strict-patterns", 0),
    ("check --n 8 --chain 1357", 0),
    ("check --n 9 --chain 12<123456", 0),
    ("validate-lemma3 --n 7", 0),
    ("enumerate --n 5 --what partitions", 0),
    ("enumerate --n 5 --what chains", 0),
    ("enumerate --n 5 --what maxchains", 0),
    ("enumerate --n 5 --what trees", 0),
    ("render --input 12,46 --out {out}/partition.svg", 0),
    ("render --input 12<12346 --out {out}/chain.svg", 0),
    ("render --n 4 --input 1-2,2-3,3-4 --out {out}/tree.svg", 0),
    ("fixtures", 0),
    ("fixtures --compare", 2),
    ("check --n 7 --chain 12<1x", 3),  # a notation error
    ("theorem5 --n 10", 3),  # a universe beyond n = 9
    ("enumerate --what everything", 3),  # a usage error
]

# Every function that no command in COMMANDS enters, and why it stays:
# a reference path (an independent check that tests compare against), library
# surface (with the user named), validation, or a debugging aid.  An entry
# "module.*" covers every unrun function of the module.
UNRUN = {
    "apartments.apartment_contains": (
        "library surface",
        "demos/05_apartments.py prints apartment membership with it; "
        "tests/test_apartments.py checks tree_membership_bits against it",
    ),
    "chains.canonical_chain": (
        "library surface",
        "perfbench/tracing.py wraps it by name; tests/test_chains.py and "
        "tests/test_index_kernel.py test it",
    ),
    "condition4.verify_witness": (
        "library surface",
        "perfbench's check worker verifies each IV witness with it; demo 03 "
        "shows it",
    ),
    "condition4.RefutationCertificate.to_json": (
        "library surface",
        "docs/formats.md documents it as the certificate's JSON text; "
        "tests/test_replay.py replays it",
    ),
    "replay.*": (
        "reference path",
        "the independent certificate checker, replay_certificate and its "
        "helpers: perfbench's check worker and tests/test_replay.py replay "
        "every certificate with it; no command runs it yet",
    ),
    "core.Partition._make": (
        "validation",
        "makes _replace validate, as the constructor does",
    ),
    "core.Chain._make": (
        "validation",
        "makes _replace validate, as the constructor does",
    ),
    "condition4.PatternHit._make": (
        "validation",
        "makes _replace validate, as the constructor does",
    ),
    "apartments.NCSpanningTree._make": (
        "validation",
        "makes _replace validate, as the constructor does",
    ),
    "core.Partition.__repr__": ("debugging aid", "a readable repr"),
    "core.Chain.__repr__": ("debugging aid", "a readable repr"),
}

# The modules no line of which may run while stages 1-4 decide the verdict.
VERDICT_FORBIDDEN = ("fixtures", "reports", "svg", "apartments")

# The functions stage 5 must not enter: the scan, the orbit sweep, stage 4
# and the F' signatures, whose results the stage-4 report already holds.
STAGE5_FORBIDDEN = (
    "pipeline._scan",
    "pipeline._decide",
    "pipeline.reduced_classes",
    "enumeration._grow_chains",
    "enumeration.orbit_classes",
    "chains.canonical_prime_signature",
)

CO_OPTIMIZED = 0x1  # set on function code, not on module or class bodies


def _walk(code, name=""):
    """Yield (qualified name, code) for ``code`` and every code nested in it."""
    yield name, code
    if not name:  # the module
        prefix = ""
    elif code.co_flags & CO_OPTIMIZED:
        prefix = name + ".<locals>."
    else:  # a class body
        prefix = name + "."
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _walk(const, prefix + const.co_name)


def _lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at 0
    if code.co_flags & CO_OPTIMIZED:
        lines.discard(code.co_firstlineno)
    return lines


def _key(code) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


class Tracer:
    """Which of the package's code objects ran, and which of their lines."""

    def __init__(self):
        self.files = {str(path) for path in PACKAGE.glob("*.py")}
        # The lines not yet run of each code object entered, by ``_key``.
        self.pending: dict[tuple[str, int, str], set[int]] = {}

    def on_call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        key = _key(code)
        remaining = self.pending.get(key)
        if remaining is None:
            remaining = self.pending[key] = _lines(code)
        if not remaining:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                remaining.discard(frame.f_lineno)
                if not remaining:
                    frame.f_trace_lines = False
            return on_line

        return on_line


def run_commands(tracer: Tracer) -> list[str]:
    """Run every command under ``tracer``; return the exit-code mismatches."""
    problems = []
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as out:
        sys.settrace(tracer.on_call)
        try:
            from ncpverify import cli

            for line, expected in COMMANDS:
                argv = [arg.format(out=out) for arg in line.split()]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                if code != expected:
                    problems.append(f"exit {code}, expected {expected}: {line}")
        finally:
            sys.settrace(None)
    return problems


def census(tracer: Tracer):
    """Per module: (module, lines run, lines, functions entered, functions,
    the (qualified name, code) of each function not entered)."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        lines: set[int] = set()
        ran: set[int] = set()
        functions = entered = 0
        missed = []
        for name, obj in _walk(code):
            lines |= _lines(obj)
            remaining = tracer.pending.get(_key(obj))
            if remaining is not None:
                ran |= _lines(obj) - remaining
            if obj.co_flags & CO_OPTIMIZED and not obj.co_name.startswith("<"):
                functions += 1
                if remaining is not None:
                    entered += 1
                else:
                    missed.append((name, obj))
        yield module, len(ran), len(lines), entered, functions, missed


def _traced(call):
    """``call()`` under a fresh ``Tracer``; return the tracer and the result."""
    tracer = Tracer()
    sys.settrace(tracer.on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return tracer, result


def _code(name: str):
    """The code of the function ``name`` ("module.function") runs."""
    module, attribute = name.split(".")
    function = getattr(importlib.import_module(f"ncpverify.{module}"), attribute)
    return getattr(function, "__wrapped__", function).__code__


def trace_stages() -> None:
    """Print, as JSON, the lines per module that stages 1-4 of theorem5 at
    n = 7 run, the package imported first, then those that stage 5 runs on
    their report, and the ``STAGE5_FORBIDDEN`` functions stage 5 entered.
    Run it in a fresh interpreter."""
    sys.path.insert(0, str(SRC))
    from ncpverify import pipeline

    verdict, report = _traced(lambda: pipeline._decide(pipeline.reduced_classes(7)))
    stage5, _ = _traced(lambda: pipeline._align(report))
    maps = {
        title: {module: ran for module, ran, *_ in census(tracer) if ran}
        for title, tracer in (("verdict", verdict), ("stage 5", stage5))
    }
    entered = [name for name in STAGE5_FORBIDDEN if _key(_code(name)) in stage5.pending]
    print(json.dumps({"maps": maps, "stage 5 entered": entered}))


def stage_maps() -> list[str]:
    """Print the verdict and stage-5 maps; return the forbidden modules
    that ran on the verdict path and the forbidden functions stage 5 entered."""
    child = subprocess.run(
        [sys.executable, "-c", "import command_coverage; command_coverage.trace_stages()"],
        cwd=Path(__file__).parent,
        capture_output=True,
        text=True,
        check=True,
    )
    found = json.loads(child.stdout)
    verdict = found["maps"]["verdict"]
    titles = {
        "verdict": "verdict map (stages 1-4 of theorem5 at n = 7)",
        "stage 5": "stage-5 map (stage 5 on the decided n = 7 report)",
    }
    for title, ran in found["maps"].items():
        print(f"\n{titles[title]}: {sum(ran.values())} lines run")
        for module, count in ran.items():
            print(f"  {module:<12} {count:>6}")
    problems = [f"the verdict path ran {m}" for m in VERDICT_FORBIDDEN if m in verdict]
    return problems + [f"stage 5 entered {name}" for name in found["stage 5 entered"]]


def main() -> int:
    tracer = Tracer()
    problems = run_commands(tracer)
    rows = []
    unrun: dict[str, list[str]] = {}  # UNRUN entry (or the name itself) -> functions
    for module, *row, missed in census(tracer):
        rows.append((module, *row))
        for name, obj in missed:
            name = f"{module}.{name}"
            entry = next((e for e in (name, module + ".*") if e in UNRUN), name)
            unrun.setdefault(entry, []).append(f"{name} ({module}.py:{obj.co_firstlineno})")
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))

    print(f"{'module':<12} {'lines run':>13} {'functions run':>14}")
    for module, ran, lines, entered, functions in rows:
        print(f"{module:<12} {ran:>6} / {lines:<5} {entered:>6} / {functions:<5}")
    print("\nfunctions no command runs:")
    for entry, names in unrun.items():
        kind, reason = UNRUN.get(entry, ("NOT LISTED", "add it to UNRUN with its reason"))
        print(f"  {entry if entry.endswith('*') else names[0]} -- {kind}: {reason}")
        if entry.endswith("*"):
            print("    " + ", ".join(name.split(" ")[0] for name in names))
        if entry not in UNRUN:
            problems.append(f"unrun and not in UNRUN: {entry}")
    for entry in UNRUN.keys() - unrun.keys():
        problems.append(f"UNRUN names no function that exists and no command runs: {entry}")
    problems += stage_maps()
    for problem in problems:
        print("error:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

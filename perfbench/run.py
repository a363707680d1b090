"""The ncpverify benchmark.

    python3 perfbench/run.py --workload {theorem5,check,lemma3,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  Every workload is single-process and closed-loop:
one child process at a time, each started only after the last ended.

Timing.  On a shared host a core's speed can swing by up to 1.7x within
seconds as other tenants load it, and cores swing independently, so wall
times of the same code spread past any useful bound.  The
benchmark therefore pins itself and its children to one core, and while a
child runs it wakes every 50 ms to time a fixed pure-Python kernel (a
speed slice, benchlib.speed_slice) on that core.  Every timing below is
the child's CPU time scaled by the reference slice over the mean slice
taken meanwhile (benchlib.SpeedLog): milliseconds at a reference speed
at which a slice takes 1.8 ms (1.1-2.6 ms on a 2-vCPU Xeon cloud VM).  A
check query's CPU time is measured in the worker and scaled by the slices
taken within a second around it.  The raw median is printed as a note
beside each scaled one.

Workloads
  theorem5  ``ncpverify theorem5 --n 7 --json F --csv F`` in fresh
            processes, one after another for --seconds; an operation is
            one run.  Exit code 2, the verdict, and every JSON key and CSV
            column of the golden report are checked.
  check     a warm process answering a seeded stream of single-chain
            queries (chain plus dual, a quarter also with the dominant-
            vertex scan), half drawn from all 85 099 chains and half from
            the 2 667 condition I-III candidates; an operation is one
            query.  The pools are built by a separate process on every
            run, so the query process starts cold.  Every witness and
            certificate is verified; on the default seed the verdicts are
            compared with the golden ones.
  lemma3    ``ncpverify validate-lemma3 --n 7`` in fresh processes; an
            operation is one run.  Exit code 0 and the golden report
            lines are checked.

End-to-end metrics (--trace 0), named and given units in BENCHMARK.json,
the same names on every workload
  setup_s          median over fresh processes of importing ncpverify.cli
                   and building catalogue(7) and maximal_chain_index(7)
  latency_p50_ms   median operation latency
  latency_tail_ms  on check p99, the highest percentile with ten samples
                   beyond it, as check times at least 1000 queries; a
                   window holds too few theorem5 or lemma3 runs for any
                   tail, so there it is the median, at any speed
  ops_per_s        operations per second of operation time
  peak_rss_mb      peak resident memory of the workload's own process
                   (median over processes), from os.wait4; the check
                   process also holds the two chain pools
fail_rate (failed / attempted) is printed as a line; the result carries
it as ``failed`` and ``attempted``.

--trace 1 runs the workload once untraced and once under tracing.py in
fresh processes and prints the per-layer metrics of BENCHMARK.json, each
with the end-to-end metric it should move (benchlib.LAYER_TARGETS);
the check workload then runs a fixed number of queries, so its counts
repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import benchlib
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPS = 3
TRACE_QUERIES = 1000
CHILD_TIMEOUT_S = 170
POOL_SIZES = {"all": 85099, "candidates": 2667}
T5_VERDICT_LINE = "verdict: THEOREM 5 VERIFIED"


@dataclass
class Child:
    exit: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Run:
    """One workload run: its scratch directory, counters and failure log."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        work_root = HERE / ".work"
        work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=work_root))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.speed = benchlib.SpeedLog()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        self.failures.extend(f"{what}: {p}" for p in list(problems)[:5])

    def spawn(self, args: list[str]) -> Child:
        """Run a child to completion, taking speed slices while it runs; its
        wall time from spawn to exit and its own rusage."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() - start > CHILD_TIMEOUT_S:
                        proc.kill()
                    time.sleep(benchlib.SAMPLE_INTERVAL_S)
                    self.speed.sample()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode,
            start,
            end,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def python(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def worker(self, *args: str) -> list[str]:
        return self.python(str(HERE / "worker.py"), *args)

    def scaled_s(self, child: Child) -> float:
        """The child's CPU time at the reference speed."""
        return child.cpu_s * self.speed.scale(child.start, child.end)

    def setup_times(self) -> list[float]:
        """setup_s samples; also proves the package comes from this checkout."""
        times = []
        for _ in range(SETUP_REPS):
            self.attempted += 1
            child = self.spawn(self.worker("setup"))
            package = Path(child.stdout.strip() or ".").resolve()
            if child.exit != 0 or ROOT / "src" not in package.parents:
                self.fail("setup", [f"exit {child.exit}, package {package}", child.stderr[-300:]])
            times.append(self.scaled_s(child))
        return times


# -- theorem5 and lemma3: fresh CLI processes ----------------------------------


def theorem5_args(run: Run) -> list[str]:
    return ["theorem5", "--n", "7", "--json", str(run.work / "t5.json"), "--csv", str(run.work / "t5.csv")]


def check_theorem5(run: Run, child: Child) -> list[str]:
    problems = []
    if child.exit != 2:
        problems.append(f"exit {child.exit}, expected 2: {child.stderr[-300:]}")
    if T5_VERDICT_LINE not in child.stdout.splitlines():
        problems.append("verdict line missing")
    try:
        actual_json = json.loads((run.work / "t5.json").read_text(encoding="ascii"))
        actual_csv = (run.work / "t5.csv").read_text(encoding="ascii")
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"]
    golden_json = json.loads((GOLDENS / "theorem5.json").read_text(encoding="ascii"))
    problems += benchlib.json_mismatches(golden_json, actual_json)
    problems += benchlib.csv_mismatches((GOLDENS / "theorem5.csv").read_text(encoding="ascii"), actual_csv)
    for path in (run.work / "t5.json", run.work / "t5.csv"):
        path.unlink()
    return problems


def lemma3_args(run: Run) -> list[str]:
    return ["validate-lemma3", "--n", "7"]


def check_lemma3(run: Run, child: Child) -> list[str]:
    problems = [] if child.exit == 0 else [f"exit {child.exit}, expected 0: {child.stderr[-300:]}"]
    golden = (GOLDENS / "lemma3.txt").read_text(encoding="ascii").splitlines()
    missing = benchlib.missing_lines(golden, child.stdout.splitlines())
    return problems + [f"missing line {line!r}" for line in missing]


COLD_WORKLOADS = {"theorem5": (theorem5_args, check_theorem5), "lemma3": (lemma3_args, check_lemma3)}


def run_cold(run: Run, name: str) -> dict:
    make_args, check = COLD_WORKLOADS[name]
    setup = run.setup_times()
    times, walls, rss = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < run.seconds:
        run.attempted += 1
        child = run.spawn(run.python("-m", "ncpverify.cli", *make_args(run)))
        problems = check(run, child)
        if problems:
            run.fail(f"{name} run {len(times)}", problems)
        times.append(run.scaled_s(child))
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
    run.notes.append(
        f"{len(times)} runs of the {name} command; tail = p50; "
        f"raw wall p50 {statistics.median(walls) * 1000.0:.1f} ms"
    )
    median_ms = statistics.median(times) * 1000.0
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": median_ms,
        "latency_tail_ms": median_ms,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(rss),
    }


def trace_cold(run: Run, name: str) -> tuple[dict, dict]:
    make_args, check = COLD_WORKLOADS[name]
    times = []
    trace_path = run.work / "trace.json"
    for traced in (False, True):
        run.attempted += 1
        if traced:
            child = run.spawn(run.worker("cli", "--trace", str(trace_path), "--", *make_args(run)))
        else:
            child = run.spawn(run.python("-m", "ncpverify.cli", *make_args(run)))
        problems = check(run, child)
        if problems:
            run.fail(f"{name} ({'traced' if traced else 'untraced'})", problems)
        times.append(run.scaled_s(child))
    trace = json.loads(trace_path.read_text(encoding="ascii"))
    return trace, {"trace.overhead_s": times[1] - times[0]}


# -- check: a warm query loop --------------------------------------------------


def build_pools(run: Run) -> Path:
    """The check workload's two chain pools, built in a process of their own."""
    path = run.work / "pools.json"
    run.attempted += 1
    child = run.spawn(run.worker("pools", str(path)))
    if child.exit != 0:
        raise RuntimeError(f"pool builder exited {child.exit}: {child.stderr[-500:]}")
    pools = json.loads(path.read_text(encoding="ascii"))
    sizes = {k: len(v) for k, v in pools.items()}
    if sizes != POOL_SIZES:
        run.fail("pools", [f"sizes {sizes}, expected {POOL_SIZES}"])
    return path


def run_check_worker(run: Run, pools: Path, *limit: str) -> tuple[Child, dict]:
    out = run.work / "check.json"
    child = run.spawn(run.worker("check", str(pools), str(out), "--seed", str(run.seed), *limit))
    if child.exit != 0:
        raise RuntimeError(f"check worker exited {child.exit}: {child.stderr[-500:]}")
    result = json.loads(out.read_text(encoding="ascii"))
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.failures.extend(result["failures"])
    if ROOT / "src" not in Path(result["package"]).resolve().parents:
        run.fail("check", [f"package imported from {result['package']}"])
    if run.seed == DEFAULT_SEED:
        golden = (GOLDENS / f"check-seed{DEFAULT_SEED}.txt").read_text(encoding="ascii").splitlines()
        actual = result["golden_lines"]
        wrong = [k for k, (g, a) in enumerate(zip(golden, actual)) if g != a]
        if wrong or len(actual) < len(golden):
            run.fail("check verdicts", [f"{len(wrong)} of {len(golden)} differ from the golden, first at query {wrong[:1]}"])
    return child, result


def run_check(run: Run) -> dict:
    setup = run.setup_times()
    pools = build_pools(run)
    child, result = run_check_worker(run, pools, "--seconds", str(run.seconds))
    cpu_ms = result["latencies_ms"]
    latencies = [ms * run.speed.scale(t, t) for ms, t in zip(cpu_ms, result["starts"])]
    label, tail_ms = benchlib.tail(latencies)
    run.notes.append(
        f"{len(latencies)} timed queries after {worker.WARMUP_QUERIES} warm-up ones; tail = {label}; "
        f"raw CPU p50 {statistics.median(cpu_ms):.3f} ms"
    )
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "peak_rss_mb": child.rss_mb,
    }


def trace_check(run: Run) -> tuple[dict, dict]:
    pools = build_pools(run)
    trace_path = run.work / "trace.json"
    plain, _ = run_check_worker(run, pools, "--queries", str(TRACE_QUERIES))
    traced, result = run_check_worker(run, pools, "--queries", str(TRACE_QUERIES), "--trace", str(trace_path))
    trace = json.loads(trace_path.read_text(encoding="ascii"))
    extras = {
        "trace.overhead_s": run.scaled_s(traced) - run.scaled_s(plain),
        "check.refuted_share": result["refuted_share"],
        "check.distinct_signatures": result["distinct_signatures"],
    }
    return trace, extras


# -- entry point --------------------------------------------------------------


def measure(name: str, run: Run, trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if not trace:
        table = bench["end_to_end"]
        values = run_check(run) if name == "check" else run_cold(run, name)
    else:
        table = bench["per_layer"]
        raw, extras = trace_check(run) if name == "check" else trace_cold(run, name)
        values = {m["name"]: benchlib.layer_value(raw, m["name"]) for m in table}
        values.update(extras)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    before = benchlib.machine_snapshot()
    run = Run(seed, seconds)
    try:
        try:
            metrics = measure(name, run, trace)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            run.fail(name, [f"{type(exc).__name__}: {exc}"])
            metrics = {}
    finally:
        run.close()
    after = benchlib.machine_snapshot()
    print(f"[{name}] machine: {json.dumps(benchlib.machine_record(before, after))}")
    for note in run.notes:
        print(f"[{name}] {note}")
    for failure in run.failures[:20]:
        print(f"[{name}] FAILED {failure}")
    for metric, entry in metrics.items():
        target = benchlib.LAYER_TARGETS.get(metric)
        moves = f"  (moves {target})" if target else ""
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}{moves}")
    attempted = max(run.attempted, 1)
    print(f"[{name}] fail_rate = {run.failed / attempted:.6g} ({run.failed}/{attempted})")
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


WORKLOADS = ("theorem5", "check", "lemma3")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncpverify" / "cli.py").is_file():
        print(f"error: no ncpverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    benchlib.pin_to_one_core()
    # Unwind on SIGTERM too, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

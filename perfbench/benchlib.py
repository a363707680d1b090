"""Pure helpers of the benchmark: statistics, machine speed, golden comparison,
layer targets."""

from __future__ import annotations

import bisect
import csv
import io
import math
import os
import platform
import statistics
import time

from tracing import self_seconds_of, spans_of

# -- statistics --------------------------------------------------------------

# Capped at p99: check times at least 1000 queries, so its tail is p99 at
# any speed.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of n sorted samples lie above the nearest-rank percentile."""
    return n - math.ceil(pct * n / 100.0)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100.0) - 1)]


def tail(values) -> tuple[str, float]:
    """(label, value) of the tail: the highest percentile with ten samples beyond it."""
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} samples have no tail")
    return f"p{pct:g}", percentile(values, pct)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# -- golden comparison -------------------------------------------------------


def json_mismatches(golden, actual, path: str = "$") -> list[str]:
    """Differences from the golden; keys that only ``actual`` has are ignored."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in golden.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(json_mismatches(value, actual[key], f"{path}.{key}"))
        return out
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [f"{path}: expected a list of {len(golden)}"]
        out = []
        for k, (g, a) in enumerate(zip(golden, actual)):
            out.extend(json_mismatches(g, a, f"{path}[{k}]"))
        return out
    if type(golden) is not type(actual) or golden != actual:
        return [f"{path}: expected {golden!r}, got {actual!r}"]
    return []


def csv_mismatches(golden_text: str, actual_text: str) -> list[str]:
    """Differences in the golden's columns; columns only ``actual`` has are ignored."""
    golden = list(csv.DictReader(io.StringIO(golden_text)))
    reader = csv.DictReader(io.StringIO(actual_text))
    actual = list(reader)
    columns = list(golden[0]) if golden else []
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        return [f"missing columns {missing}"]
    if len(actual) != len(golden):
        return [f"expected {len(golden)} rows, got {len(actual)}"]
    return [
        f"row {k} column {c}: expected {g[c]!r}, got {a[c]!r}"
        for k, (g, a) in enumerate(zip(golden, actual))
        for c in columns
        if g[c] != a[c]
    ]


def missing_lines(golden_lines, actual_lines) -> list[str]:
    """Golden lines not found in order among the actual lines (extra lines allowed)."""
    remaining = iter(actual_lines)
    return [line for line in golden_lines if not any(line == a for a in remaining)]


# -- machine record ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- machine speed -------------------------------------------------------------

# On a shared host, how fast a core runs
# Python changes by up to 1.7x within seconds as other tenants load it;
# two cores change independently.  So the benchmark keeps itself and its
# children on one core, samples that core's speed while a child runs, and
# scales the child's CPU time to a reference speed at which one speed slice
# takes REFERENCE_SLICE_MS.

REFERENCE_SLICE_MS = 1.8
SAMPLE_INTERVAL_S = 0.05
# A timing shorter than this is scaled by the slices within this window
# around it.
SPEED_WINDOW_S = 1.0
def _matchings(start: int, end: int):
    """Noncrossing partitions of start..end into blocks of one or two elements."""
    if start > end:
        yield ()
        return
    for partner in range(start, end + 1):
        for inner in _matchings(start + 1, partner - 1):
            for outer in _matchings(partner + 1, end):
                yield (frozenset((start, partner)), *inner, *outer)


class _Partition:
    __slots__ = ("blocks", "owner")

    def __init__(self, blocks):
        self.blocks = blocks
        self.owner = {x: block for block in blocks for x in block}

    def finer(self, other: "_Partition") -> bool:
        return all(block <= other.owner[min(block)] for block in self.blocks)


def speed_slice() -> float:
    """CPU seconds of a fixed pure-Python kernel written the way ncpverify is:
    recursive generators of partitions, frozensets, small objects with
    methods, dict lookups.  Of the kernels tried, this one slowed down with
    the contention most nearly as ncpverify's own commands did."""
    start = time.thread_time()
    tally = {}
    for matching in _matchings(1, 7):
        key = tuple(sorted(min(block) for block in matching))
        tally[key] = tally.get(key, 0) + len(matching)
    partitions = [_Partition(blocks) for blocks in _matchings(1, 5)]
    for a in partitions:
        for b in partitions:
            a.finer(b)
    return time.thread_time() - start


class SpeedLog:
    """Speed slices taken on the benchmark's core, with the time each began."""

    def __init__(self):
        self.times: list[float] = []
        self.slices: list[float] = []
        self._sums = [0.0]

    def sample(self) -> None:
        self.record(time.perf_counter(), speed_slice())

    def record(self, when: float, seconds: float) -> None:
        self.times.append(when)
        self.slices.append(seconds)
        self._sums.append(self._sums[-1] + seconds)

    def scale(self, start: float, end: float) -> float:
        """Reference slice over the mean slice taken in [start, end] (perf_counter
        times), widened to SPEED_WINDOW_S around its middle if shorter."""
        if end - start < SPEED_WINDOW_S:
            middle = (start + end) / 2.0
            start, end = middle - SPEED_WINDOW_S / 2.0, middle + SPEED_WINDOW_S / 2.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            raise ValueError(f"no speed slice between {start:.3f} and {end:.3f}")
        mean = (self._sums[hi] - self._sums[lo]) / (hi - lo)
        return REFERENCE_SLICE_MS / 1000.0 / mean


def pin_to_one_core() -> int:
    """Keep this process and the children it starts on its lowest allowed core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


CALIBRATION_REPS = 50


def calibration_ms() -> float:
    """Median speed slice in ms: the core's speed right now."""
    return statistics.median(speed_slice() for _ in range(CALIBRATION_REPS)) * 1000.0


def machine_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "calibration_ms": calibration_ms()}


def machine_record(before: dict, after: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "before": before,
        "after": after,
    }


# -- layer targets ------------------------------------------------------------

# Which end-to-end metric each per-layer metric should move, and on which
# workload; names and units are in BENCHMARK.json.  No layer queues work or
# retries it, so there is no wait-time metric.
LAYER_TARGETS = {
    "cli.import.s": "setup_s on all",
    "cli.main.s": "latency_p50_ms on theorem5, lemma3",
    "core.kreweras_dual.s": "setup_s on all; latency_p50_ms on theorem5",
    "core.kreweras_dual.calls": "setup_s on all; latency_p50_ms on theorem5",
    "lattice.catalogue.s": "setup_s on all; latency_p50_ms on theorem5, lemma3",
    "enumeration.maximal_chain_index.s": "setup_s on all; latency_p50_ms on theorem5, lemma3",
    "enumeration.maxchains": "nothing: exact count 16807, all",
    "enumeration.enumerate_chains.s": "latency_p50_ms on theorem5, lemma3",
    "enumeration.enumerate_chains.items": "latency_p50_ms on theorem5, lemma3",
    "enumeration.orbit_classes.s": "latency_p50_ms on theorem5, lemma3",
    "enumeration.orbit_classes.in": "nothing: exact count 2667, theorem5 and lemma3",
    "enumeration.orbit_classes.out": "nothing: exact count 232, theorem5 and lemma3",
    "enumeration.survivors.s": "latency_p50_ms on lemma3",
    "enumeration.survivors.calls": "latency_p50_ms on lemma3",
    "enumeration.survivors.items": "nothing: exact count 48096, lemma3",
    "chains.cond_ii.s": "latency_p50_ms on theorem5",
    "chains.cond_ii.calls": "latency_p50_ms on theorem5",
    "chains.dual_chain.s": "latency_p50_ms on theorem5, check",
    "chains.dual_chain.calls": "latency_p50_ms on theorem5, check",
    "chains.cond_iii_criterion.s": "latency_p50_ms on theorem5",
    "chains.cond_iii_criterion.calls": "latency_p50_ms on theorem5",
    "chains.cond_iii_bruteforce.s": "latency_p50_ms on theorem5",
    "chains.cond_iii_bruteforce.calls": "latency_p50_ms on theorem5",
    "chains.canonical_chain.s": "latency_p50_ms on theorem5, lemma3",
    "chains.canonical_chain.calls": "latency_p50_ms on theorem5, lemma3",
    "chains.canonical_prime_signature.s": "latency_p50_ms on theorem5, lemma3",
    "chains.canonical_prime_signature.calls": "latency_p50_ms on theorem5, lemma3",
    "condition4.cond_iv.s": "latency_p50_ms, ops_per_s on check",
    "condition4.cond_iv.calls": "latency_p50_ms, ops_per_s on check",
    "condition4.cond_iv.examined": "latency_p50_ms, ops_per_s on check",
    "condition4.cond_iv.satisfied": "nothing: exact count for a seed, check",
    "condition4.detect_patterns.s": "latency_p50_ms, ops_per_s on check",
    "condition4.detect_patterns.calls": "latency_p50_ms, ops_per_s on check",
    "condition4.pattern_refute.s": "latency_p50_ms, ops_per_s on check",
    "condition4.pattern_refute.calls": "latency_p50_ms, ops_per_s on check",
    "condition4.pattern_refute.certified": "nothing: useful outcomes of .calls, check",
    "replay.replay_certificate.s": "latency_p50_ms on check",
    "replay.replay_certificate.calls": "latency_p50_ms on check",
    "replay.replay_certificate.accepted": "nothing: must equal .calls, check",
    "apartments.dominant_vertex.s": "latency_tail_ms on check",
    "apartments.dominant_vertex.calls": "latency_tail_ms on check",
    "apartments.spanning_trees.s": "latency_tail_ms on check",
    "fixtures.load_fixtures.s": "latency_p50_ms on theorem5, lemma3",
    "pipeline.run_theorem5.s": "latency_p50_ms on theorem5, lemma3",
    "pipeline.compare_fixture.s": "latency_p50_ms on theorem5",
    "pipeline.condition_iii_survey.s": "latency_p50_ms on theorem5",
    "pipeline.validate_lemma3.s": "latency_p50_ms on lemma3",
    "pipeline.report_to_json.s": "latency_p50_ms on theorem5",
    "pipeline.report_to_csv.s": "latency_p50_ms on theorem5",
    "pipeline.report_to_text.s": "latency_p50_ms on theorem5",
    "pipeline.chains_scanned": "nothing: exact count 12432, theorem5 and lemma3",
    "pipeline.candidates": "nothing: exact count 2667, theorem5 and lemma3",
    "pipeline.classes": "nothing: exact count 119, theorem5 and lemma3",
    "pipeline.certified": "nothing: exact count 112, theorem5 and lemma3",
    "pipeline.iv_satisfied": "nothing: exact count 7, theorem5 and lemma3",
    "check.refuted_share": "nothing: describes the input, check",
    "check.distinct_signatures": "nothing: describes the input, check",
    "trace.overhead_s": "nothing: traced minus untraced scaled CPU time, all",
}

# Generator targets count creations separately from the spans (one per next).
_COUNTED_CALLS = {"enumeration.enumerate_chains"}


def layer_value(trace: dict, name: str) -> float:
    """One per-layer metric from a dumped trace (extras are added by the caller)."""
    base, _, suffix = name.rpartition(".")
    if suffix == "s":
        return self_seconds_of(trace, base)
    if suffix == "calls" and base not in _COUNTED_CALLS:
        return spans_of(trace, base)
    return trace["counts"].get(name, 0)

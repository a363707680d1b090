"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload check --runs 10 [--first-seed 1]

Runs run.py once per seed, one run at a time, printing each run's elapsed
time and metrics, and then prints for every end-to-end metric its median
and its spread: the distance between the first and third quartile as a
share of the median, beside the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = json.loads(next(line for line in lines if " machine: " in line).split(" machine: ", 1)[1])
        calibration = [machine[k]["calibration_ms"] for k in ("before", "after")]
        print(f"seed {seed}: {time.perf_counter() - start:.0f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"calibration_ms={calibration[0]:.3f}/{calibration[1]:.3f} "
              + " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        print(f"{metric['name']:16s} median {statistics.median(series):.5g} {metric['unit']:5s}"
              f" spread {benchlib.spread(series):.3f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

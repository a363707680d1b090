"""Re-record the golden outputs that run.py checks against.

    python3 perfbench/record_goldens.py

The goldens were recorded on the package before any optimisation; record
them again only when a change to the reports is intended, and say so.
"""

from __future__ import annotations

import json
import sys

import run
import worker


def main() -> int:
    r = run.Run(run.DEFAULT_SEED, 0)
    try:
        run.GOLDENS.mkdir(exist_ok=True)
        t5 = r.spawn(r.python("-m", "ncpverify.cli", *run.theorem5_args(r)))
        if t5.exit != 2:
            raise SystemExit(f"theorem5 exited {t5.exit}")
        report = json.loads((r.work / "t5.json").read_text(encoding="ascii"))
        (run.GOLDENS / "theorem5.json").write_text(
            json.dumps(report, separators=(",", ":")) + "\n", encoding="ascii"
        )
        (run.GOLDENS / "theorem5.csv").write_text(
            (r.work / "t5.csv").read_text(encoding="ascii"), encoding="ascii"
        )

        l3 = r.spawn(r.python("-m", "ncpverify.cli", *run.lemma3_args(r)))
        if l3.exit != 0:
            raise SystemExit(f"validate-lemma3 exited {l3.exit}")
        (run.GOLDENS / "lemma3.txt").write_text(l3.stdout, encoding="ascii")

        pools = run.build_pools(r)
        out = r.work / "check.json"
        queries = max(1, worker.GOLDEN_QUERIES - worker.WARMUP_QUERIES)
        child = r.spawn(r.worker("check", str(pools), str(out), "--seed", str(run.DEFAULT_SEED), "--queries", str(queries)))
        result = json.loads(out.read_text(encoding="ascii"))
        if child.exit != 0 or result["failed"]:
            raise SystemExit(f"check worker exited {child.exit}: {result['failures'][:3]}")
        (run.GOLDENS / f"check-seed{run.DEFAULT_SEED}.txt").write_text(
            "\n".join(result["golden_lines"]) + "\n", encoding="ascii"
        )
    finally:
        r.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child-process entry points of the benchmark; each runs in a fresh interpreter.

    worker.py setup                     import ncpverify.cli, build catalogue(7)
                                        and maximal_chain_index(7), print the
                                        package path
    worker.py pools OUT                 write the two sorted chain pools of the
                                        check workload
    worker.py check POOLS OUT --seed S (--seconds T | --queries Q) [--trace F]
                                        the warm single-chain query loop
    worker.py cli --trace F -- ARGS...  ncpverify.cli.main(ARGS) under tracing

The package is found through PYTHONPATH, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import random
import sys
import time

N = 7
# Queries run before the timed window: long enough for the first-use
# caches behind the dominant-vertex scan to fill, so the window measures
# a warm process whatever its length.
WARMUP_QUERIES = 500
# The tail metric is p99, which needs ten samples beyond it.
MIN_TIMED_QUERIES = 1000
DOMINANT_SHARE = 0.25
CANDIDATE_SHARE = 0.5
GOLDEN_QUERIES = 1000
MAX_FAILURE_MESSAGES = 20


def cmd_setup() -> int:
    import ncpverify.cli  # noqa: F401  (the set-up every command pays)
    from ncpverify.enumeration import maximal_chain_index
    from ncpverify.lattice import catalogue

    catalogue(N)
    maximal_chain_index(N)
    print(sys.modules["ncpverify"].__file__)
    return 0


def cmd_pools(out_path: str) -> int:
    from ncpverify.enumeration import enumerate_chains
    from ncpverify.pipeline import run_theorem5

    pools = {
        "all": sorted(chain.text() for chain in enumerate_chains(N)),
        "candidates": sorted(run_theorem5(N).candidates),
    }
    with open(out_path, "w", encoding="ascii") as handle:
        json.dump(pools, handle)
    return 0


def query_stream(pools: dict, seed: int):
    """Seeded (chain text, also run the dominant-vertex scan?) pairs."""
    rng = random.Random(seed)
    every, candidates = pools["all"], pools["candidates"]
    while True:
        text = rng.choice(candidates if rng.random() < CANDIDATE_SHARE else every)
        yield text, rng.random() < DOMINANT_SHARE


class Checker:
    """The work of ``ncpverify check --chain X --dual [--dominant]``, through
    the public functions, with every answer verified as it is produced."""

    def __init__(self):
        # Bound after tracing is installed, so traced runs see the wrappers.
        from ncpverify import apartments, chains, condition4, enumeration, replay

        self.chains = chains
        self.condition4 = condition4
        self.replay = replay
        self.apartments = apartments
        self.maxchains = len(enumeration.maximal_chain_index(N))

    def query(self, text: str, dominant: bool):
        chain = self.chains.Chain.from_text(N, text)
        dual = self.chains.dual_chain(chain)
        return chain, self.analyse(chain, dominant), self.analyse(dual, dominant)

    def analyse(self, c, dominant: bool) -> dict:
        ch, c4 = self.chains, self.condition4
        ch.dual_chain(c)  # each section of the CLI output names the dual
        ch.smallest_blocks(c)  # the CLI prints the F-family table
        outcome = c4.cond_iv(c)
        certificate = c4.pattern_refute(c)
        verdict = {
            "i": ch.cond_i(c),
            "ii": ch.cond_ii(c),
            "iii_criterion": ch.cond_iii_criterion(c),
            "iii_literal": ch.cond_iii_bruteforce(c),
            "iv": outcome.satisfied,
            "checked": outcome.checked,
            "hits": len(c4.detect_patterns(c)),
            "certificate": certificate is not None,
            "witness_ok": c4.verify_witness(c, outcome.witness) if outcome.satisfied else None,
            "replay_ok": self.replay.replay_certificate(certificate).ok if certificate else None,
        }
        if dominant:
            report = self.apartments.dominant_vertex(c)
            verdict["dominant"] = report.dominant.text() if report.dominant else ""
            verdict["iv_prime"] = self.apartments.cond_iv_prime(c)
        return verdict

    def problems(self, verdict: dict) -> list[str]:
        found = []
        if verdict["iv"]:
            if not verdict["witness_ok"]:
                found.append("witness does not verify")
            if verdict["certificate"]:
                found.append("certificate issued for a chain that satisfies IV")
        else:
            if verdict["checked"] != self.maxchains:
                found.append(f"refuted after {verdict['checked']} of {self.maxchains} maximal chains")
            if verdict["certificate"] and not verdict["replay_ok"]:
                found.append("certificate does not replay")
        if verdict["iii_literal"] and not verdict["iii_criterion"]:
            found.append("literal III holds but the criterion does not")
        return found


def verdict_line(text: str, dominant: bool, sides) -> str:
    """One line of the recorded I-IV verdicts of a query (chain, then dual)."""
    parts = [text, str(int(dominant))]
    for v in sides:
        bits = "".join(
            str(int(v[k])) for k in ("i", "ii", "iii_criterion", "iii_literal", "iv", "certificate")
        )
        field = f"{bits}:{v['checked']}:{v['hits']}"
        if dominant:
            field += f":{v['dominant']}:{int(v['iv_prime'])}"
        parts.append(field)
    return "|".join(parts)


def cmd_check(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="worker.py check")
    parser.add_argument("pools")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--queries", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    with open(args.pools, encoding="ascii") as handle:
        pools = json.load(handle)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        with tracer.span("cli.import"):
            import ncpverify.cli  # noqa: F401
        install(tracer)
    else:
        import ncpverify.cli  # noqa: F401
    from ncpverify.chains import smallest_blocks
    from ncpverify.enumeration import maximal_chain_index
    from ncpverify.lattice import catalogue

    catalogue(N)
    maximal_chain_index(N)
    checker = Checker()

    # A query's latency is its CPU time: the benchmark's speed slices share
    # this core and may run in the middle of a query.
    latencies: list[float] = []
    starts: list[float] = []
    golden_lines: list[str] = []
    failures: list[str] = []
    failed = attempted = refuted = 0
    signatures: set[int] = set()
    clock, cpu_clock = time.perf_counter, time.thread_time
    window_start = None
    for text, dominant in query_stream(pools, args.seed):
        if attempted == WARMUP_QUERIES:
            window_start = clock()
        if window_start is not None:
            timed = len(latencies)
            if args.queries is not None:
                if timed >= args.queries:
                    break
            elif timed >= MIN_TIMED_QUERIES and clock() - window_start >= args.seconds:
                break
        attempted += 1
        start, cpu_start = clock(), cpu_clock()
        try:
            chain, *sides = checker.query(text, dominant)
        except Exception as exc:  # a crash is one failed query, not the end of the run
            failed += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"{text}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if window_start is not None:
                latencies.append((cpu_clock() - cpu_start) * 1000.0)
                starts.append(start)
        problems = [p for side in sides for p in checker.problems(side)]
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"{text}: {'; '.join(problems)}")
        refuted += not sides[0]["iv"]
        signatures.add(smallest_blocks(chain).packed_primes())
        if len(golden_lines) < GOLDEN_QUERIES:
            golden_lines.append(verdict_line(text, dominant, sides))

    if tracer is not None:
        tracer.dump(args.trace)
    result = {
        "package": sys.modules["ncpverify"].__file__,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_ms": latencies,
        "starts": starts,
        "refuted_share": refuted / attempted,
        "distinct_signatures": len(signatures) / attempted,
        "golden_lines": golden_lines,
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


def cmd_cli(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace" or argv[2] != "--":
        raise SystemExit("usage: worker.py cli --trace FILE -- ARGS...")
    from tracing import Tracer, install

    tracer = Tracer()
    with tracer.span("cli.import"):
        import ncpverify.cli
    install(tracer)
    try:
        return ncpverify.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[1])


def main(argv: list[str]) -> int:
    command, rest = (argv[0], argv[1:]) if argv else ("", [])
    if command == "setup" and not rest:
        return cmd_setup()
    if command == "pools" and len(rest) == 1:
        return cmd_pools(rest[0])
    if command == "check":
        return cmd_check(rest)
    if command == "cli":
        return cmd_cli(rest)
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

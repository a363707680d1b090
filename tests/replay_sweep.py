"""The certificate checker against the ground truth: retargeted certificates.

Replay may accept a refutation certificate for chain C only if condition
IV fails on C.  ``retarget_sweep`` aims every certificate the engine
writes at every chain of a stride (``cert._replace(chain=...)``), replays
it, and checks each acceptance on another chain than the certificate's
own against the full-scan ``cond_iv``.  The foreign acceptances it counts
show that the sweep does not pass by rejecting everything.

``tests/test_replay.py`` runs the sweep on strides that tier-1 affords.
Run as a script, it sweeps every n = 6 chain against every distinct step
list (about 26 s; n = 7 would pair 85 099 chains with thousands of step
lists)::

    python3 tests/replay_sweep.py

The script exits 1 unless the sweep reads exactly ``FULL_N6`` with no
acceptance on a chain that satisfies condition IV.  Standard library and
the package only; pytest does not collect it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

if __name__ == "__main__":  # read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ncpverify.condition4 import cond_iv, pattern_refute  # noqa: E402
from ncpverify.enumeration import enumerate_chains  # noqa: E402
from ncpverify.pipeline import run_theorem5  # noqa: E402
from ncpverify.replay import replay_certificate  # noqa: E402


class SweepCounts(NamedTuple):
    """What one sweep saw; ``misplaced`` lists each (certificate's chain,
    chain) pair that replay accepted although the chain satisfies IV."""

    chains: int
    satisfied: int
    certificates: int
    accepted: int
    misplaced: tuple[tuple[str, str], ...]


def retarget_sweep(n: int, stride: int = 1, classes_only: bool = False) -> SweepCounts:
    """Every certificate of every chain of n (or, with ``classes_only``,
    every theorem5 class certificate) aimed at every ``stride``-th chain."""
    chains = list(itertools.islice(enumerate_chains(n), 0, None, stride))
    satisfied = {chain.text() for chain in chains if cond_iv(chain).satisfied}
    if classes_only:
        certificates = [c.certificate for c in run_theorem5(n).classes if c.certificate]
    else:
        certificates = [c for c in map(pattern_refute, enumerate_chains(n)) if c is not None]
    # Beyond the chain, a replay reads only n, strict, the steps and the
    # conclusion, so one certificate per (strict, steps) stands for all.
    distinct = {}
    for cert in certificates:
        distinct.setdefault((cert.strict, json.dumps(cert.steps)), cert)
    accepted = 0
    misplaced = []
    for text in (chain.text() for chain in chains):
        for cert in distinct.values():
            if cert.chain != text and replay_certificate(cert._replace(chain=text)).ok:
                accepted += 1
                if text in satisfied:
                    misplaced.append((cert.chain, text))
    return SweepCounts(len(chains), len(satisfied), len(distinct), accepted, tuple(misplaced))


# The full n = 6 sweep: chains, of them IV-satisfied, distinct step lists,
# foreign acceptances.
FULL_N6 = (4621, 3136, 262, 6738)


def main() -> int:
    start = time.perf_counter()
    counts = retarget_sweep(6)
    print(
        f"n = 6: {counts.chains} chains ({counts.satisfied} satisfy IV) x "
        f"{counts.certificates} step lists: {counts.accepted} foreign acceptances, "
        f"{len(counts.misplaced)} on chains that satisfy IV, "
        f"{time.perf_counter() - start:.1f} s"
    )
    for source, text in counts.misplaced:
        print(f"error: the certificate of {source} is accepted on {text}", file=sys.stderr)
    if counts[:4] != FULL_N6:
        print(f"error: expected counts {FULL_N6}, got {tuple(counts[:4])}", file=sys.stderr)
    return 1 if counts.misplaced or counts[:4] != FULL_N6 else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around calls into ncpverify's public functions.

Nothing here edits the package: ``install`` rebinds each traced function
in every ``ncpverify`` module namespace that holds it (the defining
module and every consumer that bound it with ``from ... import``), and
``uninstall`` puts the originals back.  Generators are timed per
``next``, so a consumer's work between items is not charged to them.

Each span is recorded with its name, start, end and parent.  Hot calls
are aggregated per (name, parent); the first ``SPAN_LIMIT`` spans are
also kept verbatim.  A span's self time is its duration minus the part
covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

SPAN_LIMIT = 5000


class Tracer:
    """In-memory span recorder; write it out with ``dump`` when the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_total]
        self.aggregate: dict[tuple[str, str], list] = {}  # -> [spans, total, self]
        self.spans: list[tuple[str, float, float, str]] = []
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][2] += duration
        entry = self.aggregate.setdefault((name, parent), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def to_dict(self) -> dict:
        return {
            "aggregate": [
                {"name": n, "parent": p, "spans": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.aggregate.items())
            ],
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle)


def self_seconds_of(trace: dict, name: str) -> float:
    """Total self time of one span name in a dumped trace."""
    return sum(a["self_s"] for a in trace["aggregate"] if a["name"] == name)


def spans_of(trace: dict, name: str) -> int:
    return sum(a["spans"] for a in trace["aggregate"] if a["name"] == name)


# -- what gets traced ------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public function (or ``Class.method``) of an ncpverify module.

    ``generator`` targets are timed per ``next``; ``on_result`` adds
    exact counts from the arguments and the return value (per item for
    generators).
    """

    module: str
    attr: str
    generator: bool = False
    on_result: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.rsplit('.', 1)[-1]}"


def _funnel(counts, args, report):
    counts["pipeline.chains_scanned"] = report.chains_scanned
    counts["pipeline.candidates"] = len(report.candidates)
    counts["pipeline.classes"] = len(report.classes)
    counts["pipeline.certified"] = sum(c.certificate is not None for c in report.classes)
    counts["pipeline.iv_satisfied"] = sum(c.iv_satisfied for c in report.classes)


def _orbit_counts(counts, args, classes):
    counts["enumeration.orbit_classes.in"] += len(args[0])
    counts["enumeration.orbit_classes.out"] += len(classes)


def _cond_iv_counts(counts, args, outcome):
    counts["condition4.cond_iv.examined"] += outcome.checked
    counts["condition4.cond_iv.satisfied"] += outcome.satisfied


TARGETS: tuple[Target, ...] = (
    Target("core", "kreweras_dual"),
    Target("lattice", "catalogue"),
    Target(
        "enumeration",
        "maximal_chain_index",
        on_result=lambda c, a, index: c.__setitem__("enumeration.maxchains", len(index)),
    ),
    Target(
        "enumeration",
        "enumerate_chains",
        generator=True,
        on_result=lambda c, a, item: c.update(("enumeration.enumerate_chains.items",)),
    ),
    Target("enumeration", "orbit_classes", on_result=_orbit_counts),
    Target(
        "enumeration",
        "MaximalChainIndex.survivors",
        on_result=lambda c, a, found: c.update({"enumeration.survivors.items": len(found)}),
    ),
    Target("chains", "cond_ii"),
    Target("chains", "dual_chain"),
    Target("chains", "cond_iii_criterion"),
    Target("chains", "cond_iii_bruteforce"),
    Target("chains", "canonical_chain"),
    Target("chains", "canonical_prime_signature"),
    Target("condition4", "cond_iv", on_result=_cond_iv_counts),
    Target("condition4", "detect_patterns"),
    Target(
        "condition4",
        "pattern_refute",
        on_result=lambda c, a, cert: c.update({"condition4.pattern_refute.certified": cert is not None}),
    ),
    Target(
        "replay",
        "replay_certificate",
        on_result=lambda c, a, result: c.update({"replay.replay_certificate.accepted": result.ok}),
    ),
    Target("apartments", "spanning_trees"),
    Target("apartments", "dominant_vertex"),
    Target("fixtures", "load_fixtures"),
    Target("pipeline", "run_theorem5", on_result=_funnel),
    Target("pipeline", "compare_fixture"),
    Target("pipeline", "condition_iii_survey"),
    Target("pipeline", "validate_lemma3"),
    Target("pipeline", "report_to_json"),
    Target("pipeline", "report_to_csv"),
    Target("pipeline", "report_to_text"),
    Target("cli", "main"),
)


def _wrap_function(tracer: Tracer, name: str, fn, on_result):
    counts = tracer.counts

    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(counts, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, on_result):
    counts = tracer.counts

    def traced(*args, **kwargs):
        counts[name + ".calls"] += 1
        inner = fn(*args, **kwargs)
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                if on_result is not None:
                    on_result(counts, args, item)
                yield item
        finally:
            inner.close()

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, targets=TARGETS) -> Callable[[], None]:
    """Wrap every target everywhere it is bound; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        module = importlib.import_module("ncpverify." + target.module)
        wrap = _wrap_generator if target.generator else _wrap_function
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, wrap(tracer, target.name, original, target.on_result))
            undo.append((owner, method, original))
            continue
        original = getattr(module, target.attr)
        wrapper = wrap(tracer, target.name, original, target.on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ncpverify" or mod_name.startswith("ncpverify.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall

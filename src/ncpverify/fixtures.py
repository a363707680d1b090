"""Embedded reference data for the theorem-5 verification run.

The data file records, once and verbatim, the grouped reference chains
(ten rank sets, 58 chains), the 39 argument cases with their quoted
pattern designators, and which cases argue through forced companion
blocks.  The verifier never hard-codes any of these expectations in
logic; everything flows from this file so transcription drift is
auditable in one place.
"""

from __future__ import annotations

import json
import pkgutil
from functools import lru_cache
from typing import NamedTuple

from ncpverify.chains import Chain
from ncpverify.condition4 import PatternHit

__all__ = ["RankSetFixture", "CaseFixture", "FixtureSet", "load_fixtures"]


class RankSetFixture(NamedTuple):
    """One duality-reduced rank set with its grouped reference chains."""

    ranks: tuple[int, ...]
    chains: tuple[str, ...]


class CaseFixture(NamedTuple):
    """One refutation case: its chains, quoted hits, argument style."""

    case_id: int
    chains: tuple[str, ...]
    claimed_hits: tuple[PatternHit, ...]
    expects_forced_argument: bool


class FixtureSet(NamedTuple):
    n: int
    rank_sets: tuple[RankSetFixture, ...]
    cases: tuple[CaseFixture, ...]

    def all_chain_texts(self) -> tuple[str, ...]:
        """Every reference chain once, in rank-set order."""
        return tuple(text for rs in self.rank_sets for text in rs.chains)


class FixtureError(ValueError):
    """The embedded data file is malformed or internally inconsistent."""


def _parse_rank_set(n: int, entry: dict) -> RankSetFixture:
    ranks = tuple(entry["ranks"])
    chains = tuple(entry["chains"])
    for text in chains:
        chain = Chain.from_text(n, text)
        if chain.ranks() != ranks:
            raise FixtureError(
                f"chain {text!r} has ranks {chain.ranks()}, listed under {ranks}"
            )
    return RankSetFixture(ranks, chains)


def _parse_case(entry: dict) -> CaseFixture:
    case_id = entry["caseId"]
    # Not parsed here: load_fixtures checks the case chains are exactly
    # the rank-set chains, which _parse_rank_set parsed and rank-checked.
    chains = tuple(entry["chains"])
    hits = tuple(PatternHit.from_text(h) for h in entry["claimedHits"])
    return CaseFixture(case_id, chains, hits, bool(entry["expectsForcedArgument"]))


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    """Load and cross-validate the embedded data file."""
    # pkgutil reads through the package's loader, as importlib.resources
    # does, without its import cost: 35-60 ms where site has not already
    # loaded it, including inspect on Python 3.12+.
    raw = json.loads(pkgutil.get_data("ncpverify", "data/theorem5_cases.json").decode("utf-8"))
    n = raw["n"]
    rank_sets = tuple(_parse_rank_set(n, entry) for entry in raw["rankSets"])
    cases = tuple(_parse_case(entry) for entry in raw["cases"])

    listed = [text for rs in rank_sets for text in rs.chains]
    if len(listed) != len(set(listed)):
        raise FixtureError("a chain appears in two rank sets")
    case_ids = [case.case_id for case in cases]
    if case_ids != sorted(set(case_ids)):
        raise FixtureError("case ids must be distinct and ascending")
    cased = [text for case in cases for text in case.chains]
    if len(cased) != len(set(cased)):
        raise FixtureError("a chain appears in two cases")
    if set(cased) != set(listed):
        missing = set(listed) ^ set(cased)
        raise FixtureError(f"rank sets and cases disagree on chains: {sorted(missing)}")
    return FixtureSet(n, rank_sets, cases)

"""Condition IV: maximal-chain search, neighbor patterns, refutations.

A chain F satisfies condition IV when some maximal chain C (one member
per rank 1..n-2) has C_i' disjoint from F_i' at every index i.  Deciding
that is a finite search; this module adds the machinery that turns a
negative answer into a short, independently replayable argument:

* patterns  -- fixed shapes of containments among consecutive F_i
  (``(k,+,i)(m)``: clause m of the k-step family read forward from i;
  ``-`` reads backward).  Detection is exhaustive over k in 1..4, both
  directions, all base indices, under a non-strict reading of the
  containments (``strict=True`` upgrades them to proper ones).  A
  clause reads at most four relations between consecutive F_i (equal,
  proper superset, proper subset, incomparable), so the relations from
  a base index and a direction form an 8-bit key.  A table per reading,
  built once from ``CLAUSES``, maps base index, direction and key to
  the hits there.
* exclusions -- a pattern (k,+,i) forbids i+1..i+k from C_i, and
  (k,-,i) forbids i-k..i-1, for every C that condition IV could accept.
  Unioning over hits gives each index an allowed-companion set.
* certificates -- when the allowed sets alone (emptiness), or combined
  with forcing (a singleton allowed set pins C_i to a two-element
  block, which propagates to its partner), reach a contradiction, the
  deduction sequence is recorded step by step.  The replay module
  re-checks such certificates from scratch.

The search reads the chain's F' family as one demand, packed in the
layout of the maximal chains' family codes (n fields of n bits).  It is
either the index's bit filter over the distinct C' families of the
n^(n-2) maximal chains (n <= 7; 826 at n = 7, in order of first
occurrence, filtered by at most 2n ORs of per-bit bitsets) or, for
n = 8, 9, the depth-first grower that builds the index, given the
demand to avoid: it skips every edge whose step code meets it.  Both
find the first compatible chain in index order, so the reported witness
is deterministic and identical.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import NamedTuple

from ncpverify.chains import Chain, chain_from_indices, smallest_blocks
from ncpverify.core import _masks_alternate, elements_of
from ncpverify.enumeration import maximal_chain_index, pruned_maximal_chains
from ncpverify.lattice import catalogue

# Clause tables: CLAUSES[k][m-1] is the tuple of relations linking
# F_i to F_{i+1}, F_{i+1} to F_{i+2}, ... (forward; backward mirrors).
# ">=" means contains, "<=" means is contained in, "=" means equal.
CLAUSES: dict[int, tuple[tuple[str, ...], ...]] = {
    1: ((">=",),),
    2: (
        ("=",),
        (">=", ">="),
    ),
    3: (
        ("=", ">="),
        ("=", "<="),
        (">=", "="),
        (">=", ">=", ">="),
    ),
    4: (
        ("=", "="),
        ("=", ">=", ">="),
        ("=", "<=", ">="),
        ("=", "<=", "<="),
        (">=", "=", ">="),
        (">=", "=", "<="),
        (">=", ">=", "="),
        (">=", ">=", ">=", ">="),
    ),
}

MAX_PATTERN_LENGTH = max(CLAUSES)

# ASCII digits only: ``\d`` matches any script's digits.
_HIT_RE = re.compile(r"\(([0-9]+),([+-]),([0-9]+)\)\(([0-9]+)\)\Z")


class _PatternHitFields(NamedTuple):
    k: int
    sign: str
    i: int
    variant: int


class PatternHit(_PatternHitFields):
    """One satisfied clause: family (k, sign), base index i, clause m."""

    __slots__ = ()

    def __new__(cls, k: int, sign: str, i: int, variant: int):
        if k not in CLAUSES:
            raise ValueError(f"pattern length {k} outside 1..{MAX_PATTERN_LENGTH}")
        if sign not in ("+", "-"):
            raise ValueError(f"pattern sign must be + or -, got {sign!r}")
        if not 1 <= variant <= len(CLAUSES[k]):
            raise ValueError(f"clause {variant} outside 1..{len(CLAUSES[k])} for length {k}")
        return tuple.__new__(cls, (k, sign, i, variant))

    @classmethod
    def _make(cls, iterable) -> PatternHit:
        # Validates, so ``_replace`` cannot build an invalid hit.
        return cls(*iterable)

    def text(self) -> str:
        return f"({self.k},{self.sign},{self.i})({self.variant})"

    @classmethod
    def from_text(cls, text: str) -> PatternHit:
        m = _HIT_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a pattern designator: {text!r}")
        return cls(int(m[1]), m[2], int(m[3]), int(m[4]))


# Relation codes between a block and the next one read: equal, proper
# superset, proper subset, incomparable.  Reading backward swaps the
# middle two.  The codes a relation symbol accepts, per reading:
_EQUAL, _SUPERSET, _SUBSET, _INCOMPARABLE = range(4)
_REVERSED = (_EQUAL, _SUBSET, _SUPERSET, _INCOMPARABLE)
_ACCEPTS = {
    False: {"=": {_EQUAL}, ">=": {_EQUAL, _SUPERSET}, "<=": {_EQUAL, _SUBSET}},
    True: {"=": {_EQUAL}, ">=": {_SUPERSET}, "<=": {_SUBSET}},
}


def _relation(a: int, b: int) -> int:
    if a == b:
        return _EQUAL
    union = a | b
    if union == a:
        return _SUPERSET
    if union == b:
        return _SUBSET
    return _INCOMPARABLE


@lru_cache(maxsize=None)
def _hit_table(n: int, strict: bool):
    """``table[i-1][d][key]``: the hits at base i, direction d (0 is +),
    whose clauses hold when the relations read are the 2-bit codes of
    ``key``, the first relation lowest.  Hits appear in (k, clause) order.

    The 256 keys give only 29 distinct clause sets (16 strict), so a row
    holds one tuple per set, built from one hit per clause.
    """
    accepts = _ACCEPTS[strict]
    matches = [
        tuple(
            (k, m)
            for k, variants in CLAUSES.items()
            for m, rels in enumerate(variants, 1)
            if all(key >> 2 * t & 3 in accepts[rel] for t, rel in enumerate(rels))
        )
        for key in range(4**MAX_PATTERN_LENGTH)
    ]
    table = []
    for i in range(1, n + 1):
        rows = []
        for sign in "+-":
            hit = {
                (k, m): PatternHit(k, sign, i, m)
                for k, variants in CLAUSES.items()
                for m in range(1, len(variants) + 1)
            }
            shared = {found: tuple(map(hit.__getitem__, found)) for found in set(matches)}
            rows.append(tuple(map(shared.__getitem__, matches)))
        table.append(rows)
    return table


def detect_patterns(chain: Chain, strict: bool = False) -> tuple[PatternHit, ...]:
    """Every satisfied pattern clause of the chain's F-family.

    Hits come ordered by base index, then sign (+ first), length and
    clause.
    """
    return _patterns_of_blocks(chain.n, smallest_blocks(chain).blocks, strict)


def _patterns_of_blocks(n: int, blocks, strict: bool = False) -> tuple[PatternHit, ...]:
    """``detect_patterns`` of a chain whose F-family masks are ``blocks``."""
    # forward[j] relates F_(j+1) to the next block, backward[j] the next
    # block to F_(j+1).  Two laps let every window of four relations be
    # read without wrapping: forward by positive indices, backward by
    # indices down to b - 4 >= -4.
    forward = [_relation(blocks[j], blocks[(j + 1) % n]) for j in range(n)]
    backward = [_REVERSED[code] for code in forward]
    forward *= 2
    backward *= 2
    hits: list[PatternHit] = []
    for b, (ahead, behind) in enumerate(_hit_table(n, strict)):
        hits += ahead[
            forward[b] | forward[b + 1] << 2 | forward[b + 2] << 4 | forward[b + 3] << 6
        ]
        hits += behind[
            backward[b - 1] | backward[b - 2] << 2 | backward[b - 3] << 4 | backward[b - 4] << 6
        ]
    return tuple(hits)


def exclusion_elements(n: int, hit: PatternHit) -> tuple[int, ...]:
    """The companions a hit forbids from C_i, in cyclic order from the base."""
    if hit.sign == "+":
        offsets = range(1, hit.k + 1)
    else:
        offsets = range(-hit.k, 0)
    return tuple((hit.i - 1 + t) % n + 1 for t in offsets)


def exclusion_mask(n: int, hit: PatternHit) -> int:
    out = 0
    for e in exclusion_elements(n, hit):
        out |= 1 << (e - 1)
    return out


# -- the exhaustive decision ------------------------------------------------


class WitnessOrRefutation(NamedTuple):
    """Outcome of the maximal-chain search for one chain.

    ``witness`` is the first compatible maximal chain in canonical
    order, or None when the search exhausted all of them.  ``checked``
    counts the maximal chains up to and including the witness, all of
    them when there is none (index scan), or the chains reached (pruned
    depth-first search).
    """

    satisfied: bool
    witness: Chain | None
    checked: int
    method: str


def cond_iv(chain: Chain) -> WitnessOrRefutation:
    """The first maximal chain whose C' family avoids the chain's F' family.

    For n <= 7 the index's bit filter answers; beyond it the pruned
    depth-first grower does, counting every leaf it reaches.
    """
    n = chain.n
    demand = smallest_blocks(chain).packed_primes()
    if n <= 7:
        idx = maximal_chain_index(n)
        pos = idx.first_compatible(demand)
        if pos is None:
            return WitnessOrRefutation(False, None, len(idx), "index")
        return WitnessOrRefutation(True, idx.chain_at(pos), pos + 1, "index")
    cat = catalogue(n)
    checked = 0
    for indices, family in pruned_maximal_chains(cat, demand):
        checked += 1
        if not family & demand:
            return WitnessOrRefutation(True, chain_from_indices(cat, indices), checked, "dfs")
    return WitnessOrRefutation(False, None, checked, "dfs")


def verify_witness(chain: Chain, witness: Chain) -> bool:
    """Does the maximal chain actually certify condition IV for the chain?"""
    n = chain.n
    if witness.n != n or witness.ranks() != tuple(range(1, n - 1)):
        return False
    supply = smallest_blocks(witness).packed_primes()
    demand = smallest_blocks(chain).packed_primes()
    return supply & demand == 0


# -- refutation certificates -------------------------------------------------

CONCLUSION = "condition IV fails"


class RefutationCertificate(NamedTuple):
    """Ordered deduction record ending in a contradiction.

    Step records (JSON-ready dicts):

    * ``{"kind": "exclusion", "index": i, "excluded": [...],
      "pattern": "(4,-,3)(6)"}`` -- pattern exclusion of the listed
      companions from C_i;
    * ``{"kind": "exclusion", "index": i, "excluded": [x],
      "forcedIndex": x}`` -- x's forced block meets C_i's exclusions,
      so x itself cannot lie in C_i;
    * ``{"kind": "forced-block", "index": i, "block": [i, x]}`` -- all
      companions but x are excluded, pinning C_i;
    * ``{"kind": "propagate", "source": i, "target": x,
      "block": [i, x]}`` -- x inherits the same two-element block;
    * ``{"kind": "conflict", "conflict": "emptiness" | "forced-mismatch"
      | "forced-crossing", ...}`` -- the contradiction reached.
    """

    chain_text: str
    n: int
    strict: bool
    steps: tuple[dict, ...]
    conclusion: str = CONCLUSION

    def to_dict(self) -> dict:
        """The JSON payload as a dict (the steps are shared, not copied)."""
        return {
            "chain": self.chain_text,
            "n": self.n,
            "strict": self.strict,
            "steps": list(self.steps),
            "conclusion": self.conclusion,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> RefutationCertificate:
        data = json.loads(text)
        return cls(
            chain_text=data["chain"],
            n=data["n"],
            strict=data["strict"],
            steps=tuple(data["steps"]),
            conclusion=data["conclusion"],
        )


def pattern_refute(chain: Chain) -> RefutationCertificate | None:
    """Search for a contradiction among the exclusion sets, recording steps.

    Two phases.  First, if some index already has no allowed companion,
    that alone is a contradiction.  Second, indices with exactly one
    allowed companion force C_i to a two-element block; forced blocks
    propagate to their partners and shrink other allowed sets (a forced
    block overlapping C_j's exclusions evicts its owner from C_j),
    until a mismatch, a crossing, an emptied set, or a fixpoint.
    Returns None at a fixpoint: inconclusive, defer to the exhaustive
    search.  Never certifies a chain the exhaustive search satisfies.
    Patterns are read non-strictly, so the certificate's ``strict`` is
    always false.
    """
    n = chain.n
    hits = detect_patterns(chain)
    excluded = [0] * n
    for hit in hits:
        excluded[hit.i - 1] |= exclusion_mask(n, hit)
    steps: list[dict] = []
    emitted: set[int] = set()

    def emit_pattern_steps(i: int):
        if i in emitted:
            return
        emitted.add(i)
        for sign in ("+", "-"):
            cand = [h for h in hits if h.i == i and h.sign == sign]
            if cand:
                hit = min(cand, key=lambda h: (-h.k, h.variant))
                steps.append(
                    {
                        "kind": "exclusion",
                        "index": i,
                        "excluded": list(exclusion_elements(n, hit)),
                        "pattern": hit.text(),
                    }
                )

    def certificate() -> RefutationCertificate:
        return RefutationCertificate(chain.text(), n, False, tuple(steps))

    def emptiness(i: int) -> RefutationCertificate:
        emit_pattern_steps(i)
        steps.append({"kind": "conflict", "conflict": "emptiness", "index": i})
        return certificate()

    full = (1 << n) - 1
    allowed = [full & ~excluded[i - 1] & ~(1 << (i - 1)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        if excluded[i - 1] and allowed[i - 1] == 0:
            return emptiness(i)

    forced: dict[int, int] = {}
    while True:
        changed = False
        for i in range(1, n + 1):
            if i in forced or not excluded[i - 1]:
                continue
            a = allowed[i - 1]
            if a & (a - 1):
                # More than one companion left: evict those whose forced
                # block already collides with this index's exclusions.
                for x in elements_of(a):
                    if x in forced and forced[x] & excluded[i - 1]:
                        emit_pattern_steps(i)
                        steps.append(
                            {
                                "kind": "exclusion",
                                "index": i,
                                "excluded": [x],
                                "forcedIndex": x,
                            }
                        )
                        a &= ~(1 << (x - 1))
                        allowed[i - 1] = a
                        changed = True
                if a == 0:
                    return emptiness(i)
                if a & (a - 1):
                    continue
            x = a.bit_length()
            block = a | 1 << (i - 1)
            emit_pattern_steps(i)
            steps.append(
                {"kind": "forced-block", "index": i, "block": list(elements_of(block))}
            )
            for j in sorted(forced):
                other = forced[j]
                if block & other == 0 and _masks_alternate(block, other, n):
                    lo, hi = sorted(((i, block), (j, other)))
                    steps.append(
                        {
                            "kind": "conflict",
                            "conflict": "forced-crossing",
                            "indices": [lo[0], hi[0]],
                            "blocks": [
                                list(elements_of(lo[1])),
                                list(elements_of(hi[1])),
                            ],
                        }
                    )
                    return certificate()
            forced[i] = block
            changed = True
            if x in forced:
                if forced[x] != block:
                    steps.append(
                        {
                            "kind": "conflict",
                            "conflict": "forced-mismatch",
                            "index": x,
                            "existing": list(elements_of(forced[x])),
                            "incoming": list(elements_of(block)),
                            "source": i,
                        }
                    )
                    return certificate()
            else:
                steps.append(
                    {
                        "kind": "propagate",
                        "source": i,
                        "target": x,
                        "block": list(elements_of(block)),
                    }
                )
                forced[x] = block
        if not changed:
            return None

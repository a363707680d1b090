"""Independent replay of refutation certificates.

The engine that writes certificates and the checker that accepts them
must not share reasoning, or a bug in one silently excuses the other.
This module re-derives everything from the certificate's chain text
alone: the smallest enclosing block of each circle element (straight
from the parsed members' part masks), the pattern clause shapes (its
own transcription), the exclusion ranges, the neighbor sets, and the
chord-crossing test.  A certificate is accepted only if

* every step is justified by the state accumulated before it,
* the final step -- and only the final step -- is a contradiction, and
* the stated conclusion is the one the steps support.

Any tampering (an element added to an exclusion list, a reordered
deduction, a forced block that the exclusions do not pin down) makes
some step unjustified and the replay reports exactly which one.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from ncpverify.chains import Chain

# Clause shapes, one letter per containment linking consecutive family
# members read outward from the base index: E = equal, C = contains the
# next, I = is contained in the next.
_SHAPES: dict[tuple[int, int], str] = {
    (1, 1): "C",
    (2, 1): "E",
    (2, 2): "CC",
    (3, 1): "EC",
    (3, 2): "EI",
    (3, 3): "CE",
    (3, 4): "CCC",
    (4, 1): "EE",
    (4, 2): "ECC",
    (4, 3): "EIC",
    (4, 4): "EII",
    (4, 5): "CEC",
    (4, 6): "CEI",
    (4, 7): "CCE",
    (4, 8): "CCCC",
}

# ASCII digits only: ``\d`` matches any script's digits.
_DESIGNATOR = re.compile(r"\(([0-9]+),([+-]),([0-9]+)\)\(([0-9]+)\)\Z")

_EXPECTED_CONCLUSION = "condition IV fails"


class ReplayResult(NamedTuple):
    ok: bool
    failure: str | None
    steps_checked: int


class _Reject(Exception):
    pass


def _family_sets(chain: Chain) -> dict[int, frozenset[int]]:
    """Smallest enclosing block per element, from raw part masks.

    Members increase, so an element's smallest enclosing block is the
    first block, reading the members' parts in order, that holds it.
    """
    n = chain.n
    fam: dict[int, frozenset[int]] = {}
    covered = 0
    for p in chain.members:
        for mask in p.parts:
            if mask & (mask - 1) and mask & ~covered:
                covered |= mask
                block = frozenset(e for e in range(1, n + 1) if mask >> (e - 1) & 1)
                for e in block:
                    fam.setdefault(e, block)
    everything = frozenset(range(1, n + 1))
    return {i: fam.get(i, everything) for i in range(1, n + 1)}


def _alternates(a: frozenset[int], b: frozenset[int]) -> bool:
    """Do two disjoint element sets interleave around the circle?"""
    if a & b:
        return False
    labeled = sorted((e, e in b) for e in a | b)
    runs = 1
    for prev, cur in zip(labeled, labeled[1:]):
        if prev[1] != cur[1]:
            runs += 1
    return runs >= 4


class _Replayer:
    def __init__(self, n: int, chain: Chain, strict: bool):
        self.n = n
        self.strict = strict
        self.fam = _family_sets(chain)
        self.excluded: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
        self.forced: dict[int, frozenset[int]] = {}

    def _cyc(self, i: int) -> int:
        return (i - 1) % self.n + 1

    def _element(self, value, what: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= self.n:
            raise _Reject(f"{what} {value!r} is not an index in 1..{self.n}")
        return value

    def _index(self, step: dict, key: str) -> int:
        return self._element(step.get(key), key)

    def _neighbors(self, i: int) -> frozenset[int]:
        return frozenset({self._cyc(i - 1), self._cyc(i + 1)})

    def _companions(self, i: int) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - {i}

    def _must_merge(self, i: int):
        # If i never merged, its enclosing block would be the whole
        # circle and both neighbors would sit in its neighbor set,
        # colliding with the chain's own nonempty one at i.
        if not self.fam[i] & self._neighbors(i):
            raise _Reject(
                f"index {i} could stay unmerged (its family neighbor set is empty)"
            )

    def _relation(self, sym: str, a: frozenset[int], b: frozenset[int]) -> bool:
        if sym == "E":
            return a == b
        if sym == "C":
            return a > b if self.strict else a >= b
        return a < b if self.strict else a <= b

    def _check_pattern(self, designator: str, i: int) -> list[int]:
        m = _DESIGNATOR.match(designator)
        if m is None:
            raise _Reject(f"malformed pattern designator {designator!r}")
        k, sign, base, variant = int(m[1]), m[2], int(m[3]), int(m[4])
        if base != i:
            raise _Reject(f"pattern {designator} does not apply to index {i}")
        shape = _SHAPES.get((k, variant))
        if shape is None:
            raise _Reject(f"no clause ({k},{variant}) exists")
        direction = 1 if sign == "+" else -1
        for t, sym in enumerate(shape):
            a = self.fam[self._cyc(i + direction * t)]
            b = self.fam[self._cyc(i + direction * (t + 1))]
            if not self._relation(sym, a, b):
                raise _Reject(f"pattern {designator} does not hold for this chain")
        if sign == "+":
            return [self._cyc(i + t) for t in range(1, k + 1)]
        return [self._cyc(i - t) for t in range(k, 0, -1)]

    # -- step handlers ----------------------------------------------------

    def exclusion(self, step: dict):
        i = self._index(step, "index")
        listed = step.get("excluded")
        if not isinstance(listed, list) or not listed:
            raise _Reject("exclusion step carries no excluded elements")
        if "pattern" in step:
            expected = self._check_pattern(step["pattern"], i)
            if listed != expected:
                raise _Reject(
                    f"pattern {step['pattern']} excludes {expected}, step lists {listed}"
                )
        elif "forcedIndex" in step:
            x = self._index(step, "forcedIndex")
            if listed != [x]:
                raise _Reject("a forced-collision exclusion must list exactly its index")
            if x == i:
                raise _Reject("an index cannot be its own companion")
            if x not in self.forced:
                raise _Reject(f"index {x} has no forced block yet")
            if not self.forced[x] & self.excluded[i]:
                raise _Reject(
                    f"forced block of {x} avoids the exclusions at {i}; nothing follows"
                )
        else:
            raise _Reject("exclusion step has neither pattern nor forcedIndex")
        self.excluded[i].update(listed)

    def forced_block(self, step: dict):
        i = self._index(step, "index")
        block = step.get("block")
        if (
            not isinstance(block, list)
            or len(block) != 2
            or sorted(block) != block
            or i not in block
        ):
            raise _Reject(f"forced block at {i} must be a sorted pair containing {i}")
        x = self._element(block[0] if block[1] == i else block[1], "companion")
        if x == i:
            raise _Reject("an index cannot be its own companion")
        if x in self.excluded[i]:
            raise _Reject(f"companion {x} is itself excluded at {i}")
        uncovered = self._companions(i) - {x} - self.excluded[i]
        if uncovered:
            raise _Reject(
                f"companions {sorted(uncovered)} of {i} are not excluded; nothing is forced"
            )
        self._must_merge(i)
        if i in self.forced:
            raise _Reject(f"index {i} was already forced")
        self.forced[i] = frozenset(block)

    def propagate(self, step: dict):
        src = self._index(step, "source")
        tgt = self._index(step, "target")
        block = step.get("block")
        if not isinstance(block, list):
            raise _Reject("propagate step carries no block")
        value = frozenset(block)
        if self.forced.get(src) != value:
            raise _Reject(f"source {src} is not forced to {block}")
        if tgt == src or tgt not in value:
            raise _Reject(f"target {tgt} does not belong to the forced block")
        if tgt in self.forced:
            raise _Reject(f"target {tgt} already has a forced block")
        self.forced[tgt] = value

    def conflict(self, step: dict) -> str:
        kind = step.get("conflict")
        if kind == "emptiness":
            i = self._index(step, "index")
            missing = self._companions(i) - self.excluded[i]
            if missing:
                raise _Reject(
                    f"companions {sorted(missing)} of {i} remain; no emptiness"
                )
            self._must_merge(i)
        elif kind == "forced-mismatch":
            x = self._index(step, "index")
            src = self._index(step, "source")
            existing = frozenset(step.get("existing", ()))
            incoming = frozenset(step.get("incoming", ()))
            if self.forced.get(x) != existing:
                raise _Reject(f"index {x} is not forced to the stated existing block")
            if self.forced.get(src) != incoming:
                raise _Reject(f"source {src} is not forced to the stated incoming block")
            if x not in incoming:
                raise _Reject(f"{x} is not in the incoming block; nothing propagates")
            if existing == incoming:
                raise _Reject("the two blocks agree; no contradiction")
        elif kind == "forced-crossing":
            indices = step.get("indices")
            blocks = step.get("blocks")
            if (
                not isinstance(indices, list)
                or not isinstance(blocks, list)
                or len(indices) != 2
                or len(blocks) != 2
            ):
                raise _Reject("forced-crossing needs two indices and two blocks")
            first, second = (frozenset(b) for b in blocks)
            if self.forced.get(indices[0]) != first or self.forced.get(indices[1]) != second:
                raise _Reject("stated blocks do not match the forced state")
            if not _alternates(first, second):
                raise _Reject("the two blocks do not cross; no contradiction")
        else:
            raise _Reject(f"unknown conflict kind {kind!r}")
        return kind


def replay_certificate(certificate) -> ReplayResult:
    """Re-check a certificate from scratch: the record, its JSON text or
    the parsed object.

    All three are read as one document, ``_asdict()``, ``json.loads`` or
    the object itself, by the same keys and type checks; ``steps`` is a
    tuple or a list.  Any other input is malformed.
    """
    checked = 0
    try:
        if isinstance(certificate, str):
            data = json.loads(certificate)
        else:
            data = certificate._asdict() if hasattr(certificate, "_asdict") else certificate
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        chain_text = data.get("chain")
        n = data.get("n")
        strict = data.get("strict")
        steps = data.get("steps")
        conclusion = data.get("conclusion")
        if isinstance(n, bool):
            raise TypeError(f"universe size {n!r} is not an integer")
        if not isinstance(n, int) or not isinstance(steps, (list, tuple)) or not steps:
            raise _Reject("certificate lacks a universe size or any steps")
        if not isinstance(chain_text, str):
            raise TypeError(f"chain {chain_text!r} is not a chain text")
        if not isinstance(strict, bool):
            raise TypeError(f"strict {strict!r} is not true or false")
        chain = Chain.from_text(n, chain_text)
        replayer = _Replayer(n, chain, strict)
        for pos, step in enumerate(steps):
            if not isinstance(step, dict):
                raise _Reject(f"step {pos} is not a record")
            kind = step.get("kind")
            last = pos == len(steps) - 1
            if kind == "conflict":
                if not last:
                    raise _Reject("deductions continue after a contradiction")
                replayer.conflict(step)
            elif kind == "exclusion":
                replayer.exclusion(step)
            elif kind == "forced-block":
                replayer.forced_block(step)
            elif kind == "propagate":
                replayer.propagate(step)
            else:
                raise _Reject(f"unknown step kind {kind!r}")
            checked += 1
        if steps[-1].get("kind") != "conflict":
            raise _Reject("certificate ends without a contradiction")
        if conclusion != _EXPECTED_CONCLUSION:
            raise _Reject(f"conclusion {conclusion!r} is not supported by the steps")
    except _Reject as stop:
        return ReplayResult(False, str(stop), checked)
    except (ValueError, KeyError, TypeError) as err:
        return ReplayResult(False, f"malformed certificate: {err}", checked)
    return ReplayResult(True, None, checked)

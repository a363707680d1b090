"""Exact combinatorics of partitions of n points on a circle.

Everything in this package works over a small fixed universe: the points
1..n placed clockwise on a circle (n up to 9; the interesting range starts
at 3, but n = 1, 2 are allowed so counting cross-checks can start at the
bottom).  A partition stores every part, singletons included, as a bitmask
over the elements — bit e-1 stands for element e — so the two tests the
rest of the package leans on, "is this part inside that one" and "do these
two parts cross", are single machine-word operations.

Vocabulary used throughout: a *member* of a partition is any part, and a
*block* is a part with at least two elements.  Two disjoint sets cross
when, read around the circle, they alternate A B A B.  A partition is
non-crossing when no two of its blocks cross; `NC(n)` below means the set
of non-crossing partitions of {1..n}, ordered by refinement.

The text notation lists blocks as digit strings and omits singletons:
"12,46" is the partition with blocks {1,2} and {4,6}.  Digits cap the
universe at n = 9.

The value types here, as everywhere in the package, are immutable
``typing.NamedTuple`` records.  The validating type here, ``Partition``,
checks its fields in ``__new__``, and ``_make`` calls the constructor, so
``_replace`` validates too.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

MAX_N = 9


class UniverseMismatch(ValueError):
    """Raised when two objects over different universes are combined."""


class CrossingPartitionError(ValueError):
    """Raised when a crossing partition reaches a non-crossing-only context."""


class NotationError(ValueError):
    """Text notation could not be parsed; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _is_cyclic_arc(mask: int, n: int) -> bool:
    # An arc has exactly two cyclic boundaries (or zero, for the full set).
    full = (1 << n) - 1
    rotated = (mask >> 1 | mask << (n - 1)) & full
    return (mask ^ rotated).bit_count() <= 2


def _masks_alternate(s: int, t: int, n: int) -> bool:
    """True iff the disjoint nonempty masks s, t alternate around the circle."""
    # Reading elements of s|t in increasing order as a string over {S, T},
    # crossing means at least four runs.
    runs = 0
    last = 0  # 0 = none, 1 = s, 2 = t
    for e in range(n):
        bit = 1 << e
        if s & bit:
            cur = 1
        elif t & bit:
            cur = 2
        else:
            continue
        if cur != last:
            runs += 1
            last = cur
    return runs >= 4


def _sorted_parts(parts) -> tuple[int, ...]:
    # Sorting by mask value orders parts by least element (bit e-1 dominates
    # only when the smaller elements agree, but the least set bit decides
    # ordering between disjoint masks).
    return tuple(sorted(parts, key=lambda m: m & -m))


class _PartitionFields(NamedTuple):
    n: int
    parts: tuple[int, ...]


class Partition(_PartitionFields):
    """A partition of {1..n} into disjoint covering parts (bitmasks).

    Parts are stored sorted by least element and include singletons.
    Partition objects may be crossing — contexts that require non-crossing
    input validate explicitly and raise CrossingPartitionError.
    """

    __slots__ = ()

    def __new__(cls, n: int, parts):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"universe size must be in 1..{MAX_N}")
        full = (1 << n) - 1
        seen = 0
        for p in parts:
            if p == 0 or p >> n:
                raise ValueError("part is not a nonempty subset of the universe")
            if p & seen:
                raise ValueError("parts must be disjoint")
            seen |= p
        if seen != full:
            raise ValueError("parts must cover the universe")
        return tuple.__new__(cls, (n, _sorted_parts(parts)))

    @classmethod
    def _make(cls, iterable) -> Partition:
        # Validates, so ``_replace`` cannot build an invalid partition.
        return cls(*iterable)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_text(cls, n: int, text: str) -> Partition:
        return _parse_partition(n, text)

    # -- views ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.n - len(self.parts)

    def part_containing(self, e: int) -> int:
        if not 1 <= e <= self.n:
            raise ValueError(f"element {e} outside universe 1..{self.n}")
        bit = 1 << (e - 1)
        for p in self.parts:
            if p & bit:
                return p
        raise AssertionError("partition covers the universe")

    def is_universal(self) -> bool:
        """Exactly one block, and that block is a cyclic arc."""
        blocks = [p for p in self.parts if p & (p - 1)]
        return len(blocks) == 1 and _is_cyclic_arc(blocks[0], self.n)

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(p) for p in self.parts)

    def text(self) -> str:
        """Blocks as digit strings, singletons omitted; "" for all singletons."""
        return ",".join(
            "".join(str(e) for e in elements_of(p))
            for p in self.parts
            if p & (p - 1)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.n}, {self.text()!r})"


def is_noncrossing(p: Partition) -> bool:
    blocks = [q for q in p.parts if q & (q - 1)]
    return not any(
        _masks_alternate(s, t, p.n) for s, t in itertools.combinations(blocks, 2)
    )


def require_noncrossing(p: Partition) -> Partition:
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"partition {p.text()!r} is crossing")
    return p


def leq(p: Partition, q: Partition) -> bool:
    """Refinement order: every part of p lies inside a part of q."""
    if p.n != q.n:
        raise UniverseMismatch(f"partitions over different universes: {p.n} vs {q.n}")
    for part in p.parts:
        low = part & -part
        container = q.part_containing(low.bit_length())
        if part & ~container:
            return False
    return True


# -- Kreweras duality ---------------------------------------------------


def kreweras_dual(p: Partition) -> Partition:
    """The (clockwise) Kreweras complement of a non-crossing partition.

    The construction walks successors: starting from e, the next element
    of e's dual part is the predecessor, inside the part of `p` that
    contains e+1, of the element e+1 (parts are traversed in increasing
    cyclic order).  The cycles of that walk are the dual parts.
    """
    require_noncrossing(p)
    n = p.n
    pred_in_part = {}
    for part in p.parts:
        elems = elements_of(part)
        for i, e in enumerate(elems):
            pred_in_part[elems[(i + 1) % len(elems)]] = e
    remaining = set(range(1, n + 1))
    parts = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        e = pred_in_part[start % n + 1]
        while e != start:
            cycle.append(e)
            e = pred_in_part[e % n + 1]
        remaining.difference_update(cycle)
        parts.append(mask_of(cycle))
    return Partition(n, tuple(parts))


# -- dihedral symmetry --------------------------------------------------


class Symmetry(NamedTuple):
    """One of the 2n rotations/reflections of the labeled circle.

    `perm[e-1]` is the image of element e.
    """

    n: int
    perm: tuple[int, ...]
    name: str

    @classmethod
    def rotation(cls, n: int, k: int) -> Symmetry:
        return cls(n, tuple((e - 1 + k) % n + 1 for e in range(1, n + 1)), f"r{k % n}")

    @classmethod
    def reflection(cls, n: int, c: int) -> Symmetry:
        return cls(n, tuple((c - (e - 1)) % n + 1 for e in range(1, n + 1)), f"s{c % n}")

    def __call__(self, e: int) -> int:
        return self.perm[e - 1]

    def apply_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << (self.perm[low.bit_length() - 1] - 1)
            mask ^= low
        return out


@lru_cache(maxsize=None)
def dihedral_group(n: int) -> tuple[Symmetry, ...]:
    rot = [Symmetry.rotation(n, k) for k in range(n)]
    ref = [Symmetry.reflection(n, c) for c in range(n)]
    return tuple(rot + ref)


# -- text notation ------------------------------------------------------


def _parse_partition(n: int, text: str, offset: int = 0) -> Partition:
    """Parse block notation like "12,46"; singletons are implied."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"universe size must be in 1..{MAX_N}")
    seen = 0
    blocks: list[int] = []
    current = 0
    current_size = 0
    start = offset
    for i, ch in enumerate(text):
        pos = offset + i
        if ch == ",":
            if current_size < 2:
                raise NotationError("block needs at least two elements", start)
            blocks.append(current)
            current, current_size, start = 0, 0, pos + 1
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit() takes any script
            e = int(ch)
            if e == 0:
                raise NotationError("element 0 does not exist", pos)
            if e > n:
                raise NotationError(f"element {e} outside universe 1..{n}", pos)
            bit = 1 << (e - 1)
            if seen & bit:
                raise NotationError(f"element {e} appears twice", pos)
            seen |= bit
            current |= bit
            current_size += 1
        else:
            raise NotationError(f"unexpected character {ch!r}", pos)
    if current_size == 1 or (current_size == 0 and blocks):
        raise NotationError("block needs at least two elements", start)
    if current:
        blocks.append(current)
    rest = ((1 << n) - 1) & ~seen
    while rest:
        low = rest & -rest
        blocks.append(low)
        rest ^= low
    return Partition(n, blocks)

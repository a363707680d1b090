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
universe at n = 9.  A chain joins its members with "<": "12<12346" is
the chain whose members are {1,2} and {1,2,3,4,6}.

This module owns the whole notation, chains included: ``Chain`` lives
here, beside the parser it reads, and not in the ``chains`` module that
derives the chain conditions (which re-exports it).  ``Chain`` needs
nothing but this module, so the independent certificate checker
(``replay``) imports this module alone, and its trusted base is
``core`` plus ``replay``: nothing from the catalogue, the enumeration or
the condition-four engine that writes the certificates it checks.

A mask's elements and digits are table lookups: every mask below
2**MAX_N has its element tuple (``elements_of``) and digit string
(``Partition.text``) tabled at import.  A negative or too-wide mask
raises ``ValueError``; no lookup wraps to the end of the table.  The
parser builds its ``Partition`` without re-validating the parts it has
just checked.

Two answers are memoised for the life of the process, each bounded by
the Bell(n) set partitions of 1..n (877 at n = 7, 21 147 at n = 9): the
parser keeps a partition under (n, text) only when the text is that
partition's own canonical ``text()``, so a warm process parses each
canonical text once, and ``is_noncrossing`` is cached by partition
value.  Errors are never cached: a text that fails to parse raises on
every call with the same message and position, and a crossing partition
fails ``require_noncrossing`` every time.

The value types here, as everywhere in the package, are immutable
``typing.NamedTuple`` records.  The validating types here, ``Partition``
and ``Chain``, check their fields in ``__new__``, and ``_make`` calls the
constructor, so ``_replace`` validates too.
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


def _element_tables():
    # Row m of each table comes from row m without its least element.
    elements: list[tuple[int, ...]] = [()]
    digits = [""]
    for mask in range(1, 1 << MAX_N):
        low = mask & -mask
        e = low.bit_length()
        elements.append((e,) + elements[mask ^ low])
        digits.append(str(e) + digits[mask ^ low])
    return tuple(elements), tuple(digits)


# Per mask below 2**MAX_N: its elements in increasing order, and their digits.
_ELEMENTS, _DIGITS = _element_tables()


def elements_of(mask: int) -> tuple[int, ...]:
    if mask >> MAX_N:  # negative masks too: they shift to -1
        raise ValueError(f"mask {mask} is not a subset of 1..{MAX_N}")
    return _ELEMENTS[mask]


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
        parts = tuple(parts)  # an iterator is read once, here
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
        return tuple(map(_ELEMENTS.__getitem__, self.parts))

    def text(self) -> str:
        """Blocks as digit strings, singletons omitted; "" for all singletons."""
        return ",".join([_DIGITS[p] for p in self.parts if p & (p - 1)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.n}, {self.text()!r})"


@lru_cache(maxsize=None)  # one entry per set partition of 1..n: Bell(n)
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
        # q's parts are disjoint and cover 1..n: the one that meets this
        # part is the only one that can hold it.
        for big in q.parts:
            if part & big:
                if part & ~big:
                    return False
                break
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


# -- text notation ------------------------------------------------------

# (n, text) -> its partition, for canonical texts only: Bell(n) entries at most.
_PARSED: dict[tuple[int, str], Partition] = {}


def _parse_partition(n: int, text: str, offset: int = 0) -> Partition:
    """Parse block notation like "12,46"; singletons are implied.

    A canonical text is parsed once per process; a bad text raises afresh
    on every call, at its own ``offset``.
    """
    known = _PARSED.get((n, text))
    if known is not None:
        return known
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
    # The parse already checked that the parts are nonempty, disjoint and
    # cover 1..n, so only the sort of the constructor is left to do.
    partition = tuple.__new__(Partition, (n, _sorted_parts(blocks)))
    if partition.text() == text:
        _PARSED[n, text] = partition
    return partition


# -- chains -------------------------------------------------------------


class InvalidChainError(ValueError):
    """Members do not form a strictly increasing chain of proper rank."""


class _ChainFields(NamedTuple):
    n: int
    members: tuple[Partition, ...]


class Chain(_ChainFields):
    """Strictly increasing non-crossing partitions with ranks in 1..n-2."""

    __slots__ = ()

    def __new__(cls, n: int, members: tuple[Partition, ...]):
        # Stored as a tuple, so every chain hashes (the ``chains`` memos key on it).
        members = tuple(members)
        if not members:
            raise InvalidChainError("chain needs at least one member")
        for p in members:
            if p.n != n:
                raise UniverseMismatch(f"member over universe {p.n} in a chain over {n}")
            require_noncrossing(p)
            if not 1 <= p.rank <= n - 2:
                reason = f"outside 1..{n - 2}"
                if n < 3:
                    reason = f"but no rank lies in 1..n-2 at n = {n}, so no chain exists"
                raise InvalidChainError(f"member {p.text()!r} has rank {p.rank}, {reason}")
        for a, b in itertools.pairwise(members):
            if a.parts == b.parts or not leq(a, b):
                raise InvalidChainError(
                    f"members {a.text()!r} and {b.text()!r} are not strictly increasing"
                )
        return tuple.__new__(cls, (n, members))

    @classmethod
    def _make(cls, iterable) -> Chain:
        # Validates, so ``_replace`` cannot build an invalid chain.
        return cls(*iterable)

    @classmethod
    def _trusted(cls, n: int, members: tuple[Partition, ...]) -> Chain:
        # Constructor for already-validated members (hot enumeration paths).
        return tuple.__new__(cls, (n, members))

    @classmethod
    def from_text(cls, n: int, text: str) -> Chain:
        members = []
        offset = 0
        for segment in text.split("<"):
            members.append(_parse_partition(n, segment, offset))
            offset += len(segment) + 1
        return cls(n, tuple(members))

    def text(self) -> str:
        return "<".join(p.text() for p in self.members)

    def ranks(self) -> tuple[int, ...]:
        return tuple(p.rank for p in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chain({self.n}, {self.text()!r})"

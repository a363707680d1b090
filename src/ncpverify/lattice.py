"""Precomputed order and crossing structure of NC(n).

The downstream search problems (condition III intervals, chain
enumeration, maximal-chain scans) all reduce to questions about the
finite poset NC(n), so for n <= 7 we build its full catalogue once: the
sorted list of partitions together with strict order and crossing
relations as bitsets over partition indices.  A bitset row makes "is
there a crossing pair strictly between P and Q" a handful of word
operations instead of a fresh search.

Index convention: partitions are sorted by (rank, sort_key), so the
all-singleton bottom is index 0 and the one-block top is the last index,
and each rank occupies one contiguous slice.

The catalogue also carries the tables that let the theorem5 scan run on
tuples of indices instead of ``Partition`` objects:

* ``symmetries`` -- the 2n dihedral symmetries (in ``dihedral_group``
  order) as index permutations;
* ``dual_index`` -- the clockwise Kreweras complement as an index map;
* ``key_position`` -- each partition's place in ``sort_key`` order, so
  a chain key is a tuple of ints;
* ``crossing_windows`` / ``criterion_windows`` -- condition III per open
  interval (lower, upper), memoised: the literal reading (two crossing
  partitions inside) and the four-member criterion.  The intervals below
  and above a chain are the ones from bottom and to top, so each reading
  of a chain is an OR over one table.

Within one rank, index order is ``sort_key`` order, so two chains with
the same rank tuple compare by their index tuples exactly as they compare
by their keys; dihedral images share the rank tuple, so the least image of
a chain is the least index tuple.  The rule for callers is "objects only
at the edges": the hot loops pass index tuples, and ``Partition`` or
``Chain`` objects are built only for what gets parsed, printed or
reported.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ncpverify.core import (
    Partition,
    _masks_alternate,
    _sorted_parts,
    dihedral_group,
    is_noncrossing,
    kreweras_dual,
    leq,
    partitions_cross,
)


def set_partitions(n: int):
    """All set partitions of {1..n} (crossing included), via growth strings."""

    def rec(assign: list[int], used: int):
        if len(assign) == n:
            groups: dict[int, int] = {}
            for e, g in enumerate(assign, 1):
                groups[g] = groups.get(g, 0) | 1 << (e - 1)
            yield Partition(n, tuple(groups.values()))
            return
        for v in range(used + 1):
            assign.append(v)
            yield from rec(assign, used + (v == used))
            assign.pop()

    yield from rec([], 0)


def noncrossing_partitions(n: int):
    """All of NC(n) in (rank, canonical) order, bottom first, top last."""
    found = [p for p in set_partitions(n) if is_noncrossing(p)]
    found.sort(key=lambda p: (p.rank, p.sort_key()))
    yield from found


def _four_members_cross(n: int, members) -> bool:
    """Do four of the given disjoint masks admit a crossing pairing?

    For members a, b, c, d (any order) the three pairings (a+c vs b+d
    up to relabeling) cover all arrangements of the alternation test.
    """
    for a, b, c, d in itertools.combinations(members, 4):
        if (
            _masks_alternate(a | b, c | d, n)
            or _masks_alternate(a | c, b | d, n)
            or _masks_alternate(a | d, b | c, n)
        ):
            return True
    return False


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Catalogue:
    """NC(n) with strict order and crossing relations as index bitsets.

    ``above[i]`` / ``below[i]`` hold the indices strictly greater/less
    than partition i; ``crossing[i]`` holds the indices whose partition
    crosses partition i.  ``proper_mask`` selects ranks 1..n-2, i.e. the
    proper part of the lattice that chains live in.

    ``symmetries[g][i]`` is the index of ``dihedral_group(n)[g]`` applied
    to partition i; ``key_position[i]`` is the place of partition i when
    all are sorted by ``sort_key``.  ``crossing_windows[i, j]`` and
    ``criterion_windows[i, j]`` are the two condition-III readings of the
    open interval between partitions i < j, filled on first lookup.
    """

    __slots__ = (
        "n",
        "partitions",
        "index_of",
        "rank_indices",
        "above",
        "below",
        "crossing",
        "proper_mask",
        "bottom",
        "top",
        "universal",
        "part_by_element",
        "dual_index",
        "symmetries",
        "key_position",
        "crossing_windows",
        "criterion_windows",
    )

    def __init__(self, n: int):
        if not 1 <= n <= 7:
            raise ValueError("catalogue supports n <= 7 (NC(7) has 429 elements)")
        self.n = n
        self.partitions = tuple(noncrossing_partitions(n))
        self.index_of = {p.parts: i for i, p in enumerate(self.partitions)}
        size = len(self.partitions)

        buckets: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(self.partitions):
            buckets[p.rank].append(i)
        self.rank_indices = tuple(tuple(b) for b in buckets)
        self.bottom = 0
        self.top = size - 1

        above = [0] * size
        below = [0] * size
        for r in range(n - 1):
            for s in range(r + 1, n):
                for i in buckets[r]:
                    pi = self.partitions[i]
                    for j in buckets[s]:
                        if leq(pi, self.partitions[j]):
                            above[i] |= 1 << j
                            below[j] |= 1 << i
        self.above = tuple(above)
        self.below = tuple(below)

        crossing = [0] * size
        for i in range(size):
            pi = self.partitions[i]
            for j in range(i + 1, size):
                if partitions_cross(pi, self.partitions[j]):
                    crossing[i] |= 1 << j
                    crossing[j] |= 1 << i
        self.crossing = tuple(crossing)

        proper = 0
        for r in range(1, n - 1):
            for i in buckets[r]:
                proper |= 1 << i
        self.proper_mask = proper

        self.universal = tuple(p.is_universal() for p in self.partitions)
        self.part_by_element = tuple(
            tuple(p.part_containing(e) for e in range(1, n + 1))
            for p in self.partitions
        )
        self.dual_index = tuple(
            self.index_of[kreweras_dual(p).parts] for p in self.partitions
        )
        self.symmetries = tuple(
            tuple(
                self.index_of[_sorted_parts(g.apply_mask(m) for m in p.parts)]
                for p in self.partitions
            )
            for g in dihedral_group(n)
        )
        by_key = sorted(range(size), key=lambda i: self.partitions[i].sort_key())
        position = [0] * size
        for place, i in enumerate(by_key):
            position[i] = place
        self.key_position = tuple(position)
        self.crossing_windows = _Memo(self._crossing_in_window)
        self.criterion_windows = _Memo(self._criterion_in_window)

    # -- condition III per open interval ---------------------------------

    def has_crossing_pair(self, region: int) -> bool:
        """True iff the index set ``region`` holds two mutually crossing partitions."""
        for j in iter_bits(region):
            if self.crossing[j] & region:
                return True
        return False

    def _crossing_in_window(self, window: tuple[int, int]) -> bool:
        lower, upper = window
        region = self.above[lower] & self.below[upper] & self.proper_mask
        return self.has_crossing_pair(region)

    def _criterion_in_window(self, window: tuple[int, int]) -> bool:
        """Four parts of ``lower`` inside one part of ``upper`` cross in union.

        From bottom this says ``upper`` has a part of size >= 4 (four
        singletons always admit a crossing pairing); to top, that four
        parts of ``lower`` cross in union.
        """
        lower, upper = window
        groups: dict[int, list[int]] = {}
        containers = self.part_by_element[upper]
        for part in self.partitions[lower].parts:
            container = containers[(part & -part).bit_length() - 1]
            groups.setdefault(container, []).append(part)
        return any(
            len(members) >= 4 and _four_members_cross(self.n, members)
            for members in groups.values()
        )


class _Memo(dict):
    """A dict that computes a missing value once; hits stay plain lookups."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


@lru_cache(maxsize=None)
def catalogue(n: int) -> Catalogue:
    return Catalogue(n)

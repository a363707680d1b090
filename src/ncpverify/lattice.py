"""Precomputed order and crossing structure of NC(n).

The downstream search problems (condition III intervals, chain
enumeration, maximal-chain scans) all reduce to questions about the
finite poset NC(n), so for every n <= 9 (NC(9) has 4 862 elements) we
build its full catalogue once: the sorted list of partitions together
with strict order and crossing relations as bitsets over partition
indices.  A bitset row makes "is there a crossing pair strictly between
P and Q" a handful of word operations instead of a fresh search.

The rows are built block by block, not pair by pair.  p <= q holds
exactly when every part of p lies inside some part of q, and p crosses
q exactly when a block of p crosses a block of q.  So one bitset per
subset s of {1..n} -- the partitions with a part containing s, and the
partitions with a block crossing s -- gives each row as an AND or an OR
over the row's own parts.

Index convention: partitions are sorted by (rank, sort_key), so the
all-singleton bottom is index 0 and the one-block top is the last index,
and each rank occupies one contiguous slice.

The catalogue also carries the tables that let the theorem5 scan run on
tuples of indices instead of ``Partition`` objects:

* ``symmetries`` -- the 2n dihedral symmetries (in ``dihedral_group``
  order) as index permutations;
* ``dual_index`` -- the clockwise Kreweras complement as an index map;
* ``texts`` -- each partition's text, so a chain prints as the
  ``<``-join of its members' entries;
* ``windows`` -- condition III per open interval (lower, upper), filled
  on first lookup: a 2-bit code holding the four-member criterion
  (``CRITERION``) and the literal reading (``LITERAL``, two crossing
  partitions inside).  The intervals below and above a chain are the
  ones from bottom and to top, so each reading of a chain is an OR over
  its windows.  The criterion asks whether four parts of ``lower``
  inside one part of ``upper`` cross in union, and any four disjoint
  nonempty blocks do: with least elements w < x < y < z, the union of
  the first and third alternates with that of the second and fourth.
  So it is a count, read from ``leaders`` (the least element of each
  part, one mask per partition): some part of ``upper`` holds four of
  ``lower``'s leaders.

The code a chain carries through enumeration (``enumeration._grow_chains``)
extends the window code to 6 bits, laid out here and nowhere else:
bits 0 and 1 are the chain's own readings, bits 2 and 3 the same
readings of the dual chain (``DUAL_SHIFT`` up), and bits 4 and 5 say
that some member, or some member of the dual chain, is not universal
(condition II).  The Kreweras complement K reverses the order, so the
window (lower, upper) of a chain is the window (K upper, K lower) of
its dual; ``edge_code`` reads both for one edge of a chain, and
``member_code`` gives the condition-II bits of one member.

Within one rank, index order is ``sort_key`` order, so two chains with
the same rank tuple compare by their index tuples exactly as they compare
by their keys; dihedral images share the rank tuple, so the least image of
a chain is the least index tuple.  Across rank tuples the two orders
differ and no table here bridges them: the order chains stream in is
``enumeration.stream_order``, and the one comparison across rank tuples
(the duality stage of ``pipeline``) reads the members' keys.  The rule
for callers is "objects only at the edges": the hot loops pass index
tuples, and ``Partition`` or ``Chain`` objects are built only for what
gets parsed, printed or reported.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ncpverify.core import (
    MAX_N,
    Partition,
    _masks_alternate,
    dihedral_group,
    kreweras_dual,
)


def noncrossing_partitions(n: int):
    """All of NC(n) in (rank, canonical) order, bottom first, top last.

    Generated directly, interval by interval: the part of an interval's
    least element splits the rest of the interval into gaps, and a part
    that met two gaps would cross it, so the gaps are partitioned
    independently.
    """
    found: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def parts_of(lo: int, hi: int) -> list[tuple[int, ...]]:
        """The non-crossing partitions of the bit positions lo..hi."""
        if lo > hi:
            return [()]
        known = found.get((lo, hi))
        if known is not None:
            return known
        known = found[lo, hi] = []
        rest = range(lo + 1, hi + 1)
        for size in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, size):
                part = 1 << lo
                for e in chosen:
                    part |= 1 << e
                bounds = (lo, *chosen, hi + 1)
                gaps = [parts_of(a + 1, b - 1) for a, b in itertools.pairwise(bounds)]
                for pieces in itertools.product(*gaps):
                    known.append((part, *itertools.chain.from_iterable(pieces)))
        return known

    partitions = [Partition(n, parts) for parts in parts_of(0, n - 1)]
    partitions.sort(key=lambda p: (p.rank, p.sort_key()))
    yield from partitions


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The condition II/III code of a chain, bit by bit (see the module docstring).
CRITERION = 1
LITERAL = 2
READINGS = CRITERION | LITERAL
DUAL_SHIFT = 2
DUAL_CRITERION = CRITERION << DUAL_SHIFT
DUAL_LITERAL = LITERAL << DUAL_SHIFT
NOT_UNIVERSAL = 1 << 4
DUAL_NOT_UNIVERSAL = 1 << 5
BOTH_II = NOT_UNIVERSAL | DUAL_NOT_UNIVERSAL


class Catalogue:
    """NC(n) with strict order and crossing relations as index bitsets.

    ``above[i]`` / ``below[i]`` hold the indices strictly greater/less
    than partition i; ``crossing[i]`` holds the indices whose partition
    crosses partition i.  ``proper_mask`` selects ranks 1..n-2, i.e. the
    proper part of the lattice that chains live in.  Any 1 <= n <= 9
    (``core.MAX_N``) is accepted.

    ``symmetries[g][i]`` is the index of ``dihedral_group(n)[g]`` applied
    to partition i; ``texts[i]`` is its text; ``leaders[i]`` the mask
    of the least elements of its parts.
    ``windows[i, j]`` is the 2-bit condition-III code (``CRITERION``,
    ``LITERAL``) of the open interval between partitions i < j, filled
    on first lookup, so building the catalogue computes none of them.
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
        "texts",
        "leaders",
        "windows",
    )

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"catalogue supports 1 <= n <= {MAX_N}, got n = {n}")
        self.n = n
        self.partitions = partitions = tuple(noncrossing_partitions(n))
        self.index_of = {p.parts: i for i, p in enumerate(partitions)}
        size = len(partitions)

        buckets: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(partitions):
            buckets[p.rank].append(i)
        self.rank_indices = tuple(tuple(b) for b in buckets)
        self.bottom = 0
        self.top = size - 1

        # Block tables, keyed by part mask.  Every nonempty subset of
        # {1..n} is a part of some partition (itself plus singletons), so
        # each table has 2^n - 1 keys.  holders[s]: the partitions with
        # part s; containers[s]: those with a part containing s;
        # cross_of[s]: those with a block crossing s (empty for singletons).
        holders: dict[int, int] = {}
        for i, p in enumerate(partitions):
            for s in p.parts:
                holders[s] = holders.get(s, 0) | 1 << i
        full = (1 << n) - 1
        containers: dict[int, int] = {}
        cross_of: dict[int, int] = {}
        for s in holders:
            rest = full & ~s
            is_block = s & (s - 1)
            inside = crossed = 0
            t = rest  # every subset t of the complement of s, down to 0
            while True:
                inside |= holders[s | t]
                if is_block and t & (t - 1) and _masks_alternate(s, t, n):
                    crossed |= holders[t]
                if not t:
                    break
                t = (t - 1) & rest
            containers[s] = inside
            cross_of[s] = crossed

        # p <= q iff every part of p lies inside a part of q; p and q cross
        # iff a block of p crosses a block of q.
        above = []
        crossing = []
        for i, p in enumerate(partitions):
            row = ~(1 << i)
            crossed = 0
            for s in p.parts:
                row &= containers[s]
                crossed |= cross_of[s]
            above.append(row)
            crossing.append(crossed)
        below = [0] * size
        for i, row in enumerate(above):
            for j in iter_bits(row):
                below[j] |= 1 << i
        self.above = tuple(above)
        self.below = tuple(below)
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
        # g(p) is the one partition that holds the image of every part of p.
        symmetries = []
        for g in dihedral_group(n):
            image = {s: holders[g.apply_mask(s)] for s in holders}
            table = []
            for p in partitions:
                hit = -1
                for s in p.parts:
                    hit &= image[s]
                table.append(hit.bit_length() - 1)
            symmetries.append(tuple(table))
        self.symmetries = tuple(symmetries)
        self.texts = tuple(p.text() for p in partitions)
        # The least element of each part as one mask (distinct bits, so
        # the sum is their OR).
        self.leaders = tuple(sum(s & -s for s in p.parts) for p in partitions)
        self.windows = _Memo(self._window_code)

    # -- condition III per open interval ---------------------------------

    def has_crossing_pair(self, region: int) -> bool:
        """True iff the index set ``region`` holds two mutually crossing partitions."""
        for j in iter_bits(region):
            if self.crossing[j] & region:
                return True
        return False

    def _window_code(self, window: tuple[int, int]) -> int:
        lower, upper = window
        code = CRITERION if self._criterion_in_window(lower, upper) else 0
        region = self.above[lower] & self.below[upper] & self.proper_mask
        if self.has_crossing_pair(region):
            code |= LITERAL
        return code

    def _criterion_in_window(self, lower: int, upper: int) -> bool:
        """Four parts of ``lower`` inside one part of ``upper`` cross in union.

        Any four disjoint nonempty blocks cross in union: with least
        elements w < x < y < z, the union of the first and third holds w
        and y, that of the second and fourth x and z, so they alternate.
        So the criterion holds exactly when some part of ``upper`` holds
        the least elements of four parts of ``lower``.  From bottom this
        says ``upper`` has a part of size >= 4; to top, that ``lower``
        has four parts.
        """
        leaders = self.leaders[lower]
        return any((leaders & part).bit_count() >= 4 for part in self.partitions[upper].parts)

    # -- the condition II/III code of a chain -----------------------------

    def edge_code(self, lower: int, upper: int) -> int:
        """The readings of the window (lower, upper) and, ``DUAL_SHIFT`` up,
        of its dual window (K upper, K lower)."""
        dual = self.dual_index
        windows = self.windows
        return windows[lower, upper] | windows[dual[upper], dual[lower]] << DUAL_SHIFT

    def member_code(self, j: int) -> int:
        """Condition II as partition j and its dual K j contribute it."""
        code = 0 if self.universal[j] else NOT_UNIVERSAL
        if not self.universal[self.dual_index[j]]:
            code |= DUAL_NOT_UNIVERSAL
        return code


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

"""Precomputed order and crossing structure of NC(n).

The downstream search problems (condition III intervals, chain
enumeration, maximal-chain scans) all reduce to questions about the
finite poset NC(n), so for every n <= 9 (NC(9) has 4 862 elements) we
build its full catalogue once: the sorted list of partitions together
with the strict order and the crossing relation as bitsets over
partition indices.  The order is stored once, upward: ``above[i]`` holds
every index strictly greater than i, and every walk over NC(n) reads it
from the lower end.  Bitset rows make "is there a crossing pair strictly
between P and Q" one bit read: P's row, built once from its upper
covers, holds every Q for which the answer is yes.

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

* ``symmetries`` -- the 2n dihedral symmetries of the circle as index
  permutations, in the order r_0..r_{n-1}, s_0..s_{n-1}: the rotation
  r_k sends element e to (e - 1 + k) mod n + 1, and the reflection s_c
  sends e to (c - (e - 1)) mod n + 1, so ``symmetries[n - 1]`` is r_{-1}
  (which is K², the square of the Kreweras complement) and
  ``symmetries[n + c]`` is s_c;
* ``dual_index`` -- the clockwise Kreweras complement as an index map;
* ``texts`` -- each partition's text, so a chain prints as the
  ``<``-join of its members' entries;
* ``window_rows`` -- condition III per open interval (lower, upper), one
  entry per lower partition, filled on first lookup: two bitsets over
  the upper partitions, one per reading, which ``window_code`` reads as
  a 2-bit code holding the four-member criterion (``CRITERION``) and the
  literal reading (``LITERAL``, two crossing partitions inside).  The
  intervals below and above a chain are the ones from bottom and to
  top, so each reading of a chain is an OR over its windows.

  The criterion asks whether four parts of ``lower`` inside one part of
  ``upper`` cross in union, and any four disjoint nonempty blocks do:
  with least elements w < x < y < z, the union of the first and third
  alternates with that of the second and fourth.  So it is a count,
  read from ``leaders`` (the least element of each part, one mask per
  partition): some part of ``upper`` holds four of ``lower``'s leaders,
  that is, ``upper`` is in ``quad_containers[t]`` for a 4-subset t of
  them.

  The literal reading comes from the interval law (Kreweras 1972; Biane
  1997): [lower, upper] is a product of full lattices NC(k), and NC(k)
  holds a crossing pair exactly when k >= 4, which is when two of its
  atoms cross.  The atoms of the factors are the upper covers of
  ``lower`` below ``upper``, so the window holds a crossing pair exactly
  when ``upper`` lies above the join of two crossing upper covers (the
  cover law; the tests compare it with an exhaustive search of the
  window on every window up to n = 8).  Indices are sorted by rank, so
  that join is the least index above both covers.

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

    ``above[i]`` holds the indices strictly greater than partition i, the
    one order table; ``crossing[i]`` holds the indices whose partition
    crosses partition i.  ``proper_mask`` selects ranks 1..n-2, i.e. the
    proper part of the lattice that chains live in.  Any 1 <= n <= 9
    (``core.MAX_N``) is accepted.

    ``symmetries[g][i]`` is the index of the g-th symmetry (r_0..r_{n-1},
    then s_0..s_{n-1}) applied to partition i; ``texts[i]`` is its text;
    ``leaders[i]`` the mask of the least elements of its parts.
    ``quad_containers[s]`` holds the partitions with a part containing
    the 4-element mask s.  ``window_rows[i]`` holds the condition-III readings
    (``CRITERION``, ``LITERAL``) of every open interval from partition i
    as two bitsets over the upper end, and ``window_code(i, j)`` reads
    the 2-bit code of one interval from them.  A row is filled on first
    lookup, so building the catalogue computes none of them.
    """

    __slots__ = (
        "n",
        "partitions",
        "index_of",
        "rank_indices",
        "above",
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
        "quad_containers",
        "window_rows",
    )

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"catalogue supports 1 <= n <= {MAX_N}, got n = {n}")
        self.n = n
        self.partitions = partitions = tuple(noncrossing_partitions(n))
        self.index_of = {p.parts: i for i, p in enumerate(partitions)}

        buckets: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(partitions):
            buckets[p.rank].append(i)
        self.rank_indices = tuple(tuple(b) for b in buckets)
        self.bottom = 0
        self.top = len(partitions) - 1

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
        # The criterion rows read only the 4-element masks; the whole
        # table, kept, would add 64 KB to a process at n = 8.
        self.quad_containers = {s: row for s, row in containers.items() if s.bit_count() == 4}
        self.above = tuple(above)
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
        # The symmetries as mask maps.  r_k rotates a mask by k bits; s_c
        # sends bit b to bit c - b mod n, which is "reverse the n bits,
        # then rotate by c + 1".  g(p) is the one partition that holds the
        # image of every part of p.
        reversed_masks = [0] * (full + 1)
        for s in range(1, full + 1):
            reversed_masks[s] = reversed_masks[s >> 1] >> 1 | (s & 1) << (n - 1)
        maps = [(range(full + 1), k) for k in range(n)]
        maps += [(reversed_masks, (c + 1) % n) for c in range(n)]
        symmetries = []
        for source, k in maps:
            image = {}
            for s in holders:
                t = source[s]
                image[s] = holders[(t << k | t >> (n - k)) & full]
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
        self.window_rows = _Memo(self._window_rows)

    # -- condition III per open interval ---------------------------------

    def window_code(self, lower: int, upper: int) -> int:
        """The 2-bit condition-III code of the open interval (lower, upper)."""
        criterion, literal = self.window_rows[lower]
        return (criterion >> upper & 1) * CRITERION | (literal >> upper & 1) * LITERAL

    def _window_rows(self, lower: int) -> tuple[int, int]:
        """The criterion and literal rows of ``lower`` (module docstring).

        The criterion row is the OR of ``quad_containers`` over the 4-subsets
        of ``lower``'s leaders.  The literal row is the OR of the up-sets
        of the joins of crossing upper covers of ``lower``.  Two covers lie
        strictly inside every window that reaches their join, so both are
        of proper rank and the row needs no ``proper_mask``.
        """
        above = self.above
        leaders = [1 << e for e in iter_bits(self.leaders[lower])]
        criterion = 0
        for four in itertools.combinations(leaders, 4):
            criterion |= self.quad_containers[sum(four)]
        literal = 0
        rank = self.partitions[lower].rank + 1
        if rank < self.n:
            members = self.rank_indices[rank]
            covers = above[lower] & ((1 << len(members)) - 1) << members[0]
            later = covers
            for a in iter_bits(covers):
                later ^= 1 << a
                for b in iter_bits(self.crossing[a] & later):
                    common = above[a] & above[b]
                    join = (common & -common).bit_length() - 1
                    literal |= 1 << join | above[join]
        return criterion & above[lower], literal

    # -- the condition II/III code of a chain -----------------------------

    def edge_code(self, lower: int, upper: int) -> int:
        """The readings of the window (lower, upper) and, ``DUAL_SHIFT`` up,
        of its dual window (K upper, K lower)."""
        dual = self.dual_index
        window_code = self.window_code
        return window_code(lower, upper) | window_code(dual[upper], dual[lower]) << DUAL_SHIFT

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

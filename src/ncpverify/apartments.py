"""Non-crossing spanning trees, apartment membership, and dominance.

A spanning tree on the circle 1..n whose chords pairwise avoid crossing
carries an *apartment*: the family of partitions realizable as
sub-forests of the tree.  A partition belongs to the apartment exactly
when every part induces a connected subgraph.  A member u of a chain is
*dominant* when every tree whose apartment contains u also contains the
whole chain; the weakened fourth condition accepts a chain when it has
no dominant vertex at all, or when its dominant vertex on its own still
admits a compatible maximal chain.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from ncpverify.chains import Chain
from ncpverify.condition4 import cond_iv
from ncpverify.core import (
    MAX_N,
    NotationError,
    Partition,
    UniverseMismatch,
    _masks_alternate,
    mask_of,
)

__all__ = [
    "NCSpanningTree",
    "DominanceReport",
    "enumerate_nc_spanning_trees",
    "spanning_trees",
    "apartment_contains",
    "tree_membership_bits",
    "dominant_vertices",
    "dominant_vertex",
    "cond_iv_prime",
]


class _NCSpanningTreeFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]


class NCSpanningTree(_NCSpanningTreeFields):
    """A spanning tree of 1..n whose chords are pairwise non-crossing."""

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple[tuple[int, int], ...]):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"universe size {n} outside 1..{MAX_N}")
        if len(edges) != n - 1:
            raise ValueError(
                f"a spanning tree on {n} elements needs {n - 1} edges, got {len(edges)}"
            )
        seen = set()
        for a, b in edges:
            if not (1 <= a < b <= n):
                raise ValueError(f"edge ({a},{b}) is not an ordered chord of 1..{n}")
            if (a, b) in seen:
                raise ValueError(f"edge ({a},{b}) repeated")
            seen.add((a, b))
        if edges != tuple(sorted(edges)):
            raise ValueError("edges must be listed in ascending order")
        # Connectivity: n-1 distinct edges with no cycle span the circle.
        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError(f"edge ({a},{b}) closes a cycle")
            parent[ra] = rb
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                s, t = mask_of(e), mask_of(f)
                if not s & t and _masks_alternate(s, t, n):
                    raise ValueError(f"edges {e} and {f} cross")
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def _make(cls, iterable) -> NCSpanningTree:
        # Validates, so ``_replace`` cannot build an invalid tree.
        return cls(*iterable)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> NCSpanningTree:
        # Constructor for already-validated edges (hot enumeration paths).
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def from_text(cls, n: int, text: str) -> NCSpanningTree:
        """Parse the debugging notation, e.g. ``"1-3,3-5,5-6"``."""
        edges = []
        position = 0
        for piece in text.split(","):
            left, sep, right = piece.partition("-")
            # ASCII only: str.isdigit() takes any script's digits.
            if not sep or not all(s.isascii() and s.isdigit() for s in (left, right)):
                raise NotationError(f"expected digits-digits, got {piece!r}", position)
            a, b = int(left), int(right)
            if a == b:
                raise NotationError(f"edge {piece!r} joins an element to itself", position)
            edges.append((min(a, b), max(a, b)))
            position += len(piece) + 1
        return cls(n, tuple(sorted(edges)))

    def text(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.edges)


class DominanceReport(NamedTuple):
    """Outcome of the exhaustive dominant-vertex scan for one chain."""

    dominant: Partition | None
    checked_trees: int


def enumerate_nc_spanning_trees(n: int) -> Iterator[NCSpanningTree]:
    """Every non-crossing spanning tree on 1..n, each exactly once.

    Trees are emitted in ascending lexicographic order of their sorted
    chord lists.  The count equals C(3n-3, n-1)/(2n-1).
    """
    if not 3 <= n <= MAX_N:
        raise ValueError(f"universe size {n} outside 3..{MAX_N}")
    chords = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    masks = [1 << (a - 1) | 1 << (b - 1) for a, b in chords]
    crossers = [0] * len(chords)
    for i, s in enumerate(masks):
        for j in range(i + 1, len(masks)):
            t = masks[j]
            if not s & t and _masks_alternate(s, t, n):
                crossers[i] |= 1 << j
                crossers[j] |= 1 << i

    parent = list(range(n + 1))

    def find(x: int) -> int:
        # No path compression: unions must be undoable in O(1).
        while parent[x] != x:
            x = parent[x]
        return x

    chosen: list[tuple[int, int]] = []

    def extend(start: int, needed: int, banned: int) -> Iterator[NCSpanningTree]:
        if needed == 0:
            yield NCSpanningTree._trusted(n, tuple(chosen))
            return
        for idx in range(start, len(chords) - needed + 1):
            if banned >> idx & 1:
                continue
            a, b = chords[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            parent[ra] = rb
            chosen.append(chords[idx])
            yield from extend(idx + 1, needed - 1, banned | crossers[idx])
            chosen.pop()
            parent[ra] = ra

    yield from extend(0, n - 1, 0)


@lru_cache(maxsize=None)
def spanning_trees(n: int) -> tuple[NCSpanningTree, ...]:
    """All non-crossing spanning trees on 1..n, materialized once."""
    return tuple(enumerate_nc_spanning_trees(n))


def apartment_contains(tree: NCSpanningTree, partition: Partition) -> bool:
    """Is the partition realizable as a sub-forest of the tree?

    Equivalent to every part inducing a connected subgraph.  Induced
    subgraphs of a tree are forests, so a part of size s induces at most
    s-1 edges, with equality exactly when it is connected; summing over
    parts, the partition lies in the apartment iff the number of tree
    edges internal to a part equals the partition's rank.
    """
    if tree.n != partition.n:
        raise UniverseMismatch(
            f"tree over universe {tree.n}, partition over {partition.n}"
        )
    part_of = [0] * (tree.n + 1)
    for index, mask in enumerate(partition.parts):
        m = mask
        while m:
            low = m & -m
            part_of[low.bit_length()] = index
            m ^= low
    internal = sum(1 for a, b in tree.edges if part_of[a] == part_of[b])
    return internal == partition.rank


@lru_cache(maxsize=None)
def tree_membership_bits(partition: Partition) -> int:
    """Bitset over spanning trees: bit t set iff tree t's apartment has the partition."""
    bits = 0
    for t, tree in enumerate(spanning_trees(partition.n)):
        if apartment_contains(tree, partition):
            bits |= 1 << t
    return bits


def dominant_vertices(chain: Chain) -> tuple[Partition, ...]:
    """Members whose apartments all contain the whole chain.

    A chain member u is dominant when every tree whose apartment holds u
    also holds every other member; with membership bitsets that reads
    bits(u) == AND of all members' bits (the reverse inclusion is
    automatic because u itself is one of the members).
    """
    member_bits = [tree_membership_bits(p) for p in chain.members]
    chain_bits = member_bits[0]
    for bits in member_bits[1:]:
        chain_bits &= bits
    return tuple(
        p for p, bits in zip(chain.members, member_bits) if bits == chain_bits
    )


def dominant_vertex(chain: Chain) -> DominanceReport:
    """Exhaustive scan for the dominant vertex of a chain.

    At most one member qualifies on every corpus scanned so far; should
    several ever qualify, the lowest-rank one is reported and the
    uniqueness checks elsewhere will flag the chain.
    """
    candidates = dominant_vertices(chain)
    return DominanceReport(
        candidates[0] if candidates else None, len(spanning_trees(chain.n))
    )


def cond_iv_prime(chain: Chain) -> bool:
    """Weakened fourth condition: no dominant vertex, or it passes alone."""
    report = dominant_vertex(chain)
    if report.dominant is None:
        return True
    return cond_iv(Chain._trusted(chain.n, (report.dominant,))).satisfied

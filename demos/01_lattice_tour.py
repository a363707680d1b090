"""Tour of the non-crossing partition lattice: parsing, order, duality.

Run:  python3 demos/01_lattice_tour.py
"""

from __future__ import annotations

from ncpverify.core import Partition, is_noncrossing, kreweras_dual, leq
from ncpverify.lattice import catalogue, noncrossing_partitions


def join(p: Partition, q: Partition) -> Partition:
    """The least common upper bound, read from the catalogue's order rows.

    The catalogue lists partitions by rank, so the lowest index that lies
    at or above both p and q is their join.
    """
    cat = catalogue(p.n)
    i, j = cat.index_of[p.parts], cat.index_of[q.parts]
    common = (cat.above[i] | 1 << i) & (cat.above[j] | 1 << j)
    return cat.partitions[(common & -common).bit_length() - 1]


def meet(p: Partition, q: Partition) -> Partition:
    """The greatest common lower bound: the highest index at or below both."""
    cat = catalogue(p.n)
    i, j = cat.index_of[p.parts], cat.index_of[q.parts]
    common = (cat.below[i] | 1 << i) & (cat.below[j] | 1 << j)
    return cat.partitions[common.bit_length() - 1]


def main() -> None:
    print("sizes of NC(n) for n = 1..7:")
    print(" ", [sum(1 for _ in noncrossing_partitions(n)) for n in range(1, 8)])

    p = Partition.from_text(7, "123,46")
    print(f"\npartition {p.text()!r}: rank {p.rank}, non-crossing: {is_noncrossing(p)}")

    d = kreweras_dual(p)
    print(f"its dual: {d.text()!r}, rank {d.rank} (= 6 - {p.rank})")

    a = Partition.from_text(7, "13")
    b = Partition.from_text(7, "24")
    print(f"\n{a.text()!r} and {b.text()!r} cross, so their lattice join merges them:")
    print(f"  join = {join(a, b).text()!r}")
    print(f"  meet = {meet(a, b).text()!r} (all singletons print as '')")

    small = Partition.from_text(7, "12")
    large = Partition.from_text(7, "12346")
    print(f"\norder: {small.text()!r} <= {large.text()!r}: {leq(small, large)}")
    print(f"dual reverses it: {leq(kreweras_dual(large), kreweras_dual(small))}")


if __name__ == "__main__":
    main()

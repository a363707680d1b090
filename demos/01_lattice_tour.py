"""Tour of the non-crossing partition lattice: parsing, order, duality.

Run:  python3 demos/01_lattice_tour.py
"""

from __future__ import annotations

from ncpverify.core import (
    Partition,
    is_noncrossing,
    kreweras_dual,
    leq,
    nc_join,
    pi_meet,
    rank,
)
from ncpverify.lattice import noncrossing_partitions


def main() -> None:
    print("sizes of NC(n) for n = 1..7:")
    print(" ", [sum(1 for _ in noncrossing_partitions(n)) for n in range(1, 8)])

    p = Partition.from_text(7, "123,46")
    print(f"\npartition {p.text()!r}: rank {rank(p)}, non-crossing: {is_noncrossing(p)}")

    d = kreweras_dual(p)
    print(f"its dual: {d.text()!r}, rank {rank(d)} (= 6 - {rank(p)})")

    a = Partition.from_text(7, "13")
    b = Partition.from_text(7, "24")
    print(f"\n{a.text()!r} and {b.text()!r} cross, so their lattice join merges them:")
    print(f"  join = {nc_join(a, b).text()!r}")
    print(f"  meet = {pi_meet(a, b).text()!r} (all singletons print as '')")

    small = Partition.from_text(7, "12")
    large = Partition.from_text(7, "12346")
    print(f"\norder: {small.text()!r} <= {large.text()!r}: {leq(small, large)}")
    print(f"dual reverses it: {leq(kreweras_dual(large), kreweras_dual(small))}")


if __name__ == "__main__":
    main()

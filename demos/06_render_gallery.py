"""Render chord diagrams for partitions, chains, and trees to SVG files.

Run:  python3 demos/06_render_gallery.py
Writes into demos/out/ and prints each file's path relative to demos/.
"""

from __future__ import annotations

import os

from ncpverify.apartments import NCSpanningTree
from ncpverify.chains import Chain
from ncpverify.core import Partition
from ncpverify.svg import render_to_file


def main() -> None:
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        ("partition_12_46.svg", Partition.from_text(7, "12,46")),
        ("partition_123_46.svg", Partition.from_text(7, "123,46")),
        ("chain_refuted.svg", Chain.from_text(7, "12<12,34<123456")),
        ("chain_witnessed.svg", Chain.from_text(7, "24<246")),
        ("tree_path.svg", NCSpanningTree.from_text(7, "1-2,2-3,3-4,4-5,5-6,6-7")),
        ("tree_star.svg", NCSpanningTree.from_text(7, "1-2,1-3,1-4,1-5,1-6,1-7")),
    ]
    for name, obj in jobs:
        render_to_file(obj, os.path.join(out_dir, name))
        print(f"wrote out/{name}")


if __name__ == "__main__":
    main()

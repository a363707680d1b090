"""Tests for non-crossing spanning trees, apartments, dominant vertices."""

from __future__ import annotations

import itertools
from collections import deque
from math import comb

import pytest

from ncpverify.apartments import (
    NCSpanningTree,
    apartment_contains,
    cond_iv_prime,
    dominant_vertex,
    dominant_vertices,
    spanning_trees,
    tree_membership_bits,
)
from ncpverify.chains import Chain, smallest_blocks
from ncpverify.core import NotationError, Partition
from ncpverify.lattice import catalogue

import oracles


def test_tree_counts_match_closed_form():
    # number of non-crossing spanning trees on n cyclic points:
    # binom(3n-3, n-1) / (2n-1)
    for n in range(3, 8):
        expected = comb(3 * n - 3, n - 1) // (2 * n - 1)
        assert len(spanning_trees(n)) == expected
    assert len(spanning_trees(4)) == 12
    assert len(spanning_trees(7)) == 1428


def test_tree_count_independent_bruteforce():
    # independent oracle: enumerate all labeled spanning trees on 5 vertices
    # (edge subsets of size 4, connected) and keep the non-crossing ones
    n = 5
    edges = list(itertools.combinations(range(1, n + 1), 2))
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        # connectivity via union-find
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue
        crossing = any(
            oracles.parts_cross(frozenset(e), frozenset(f))
            for e, f in itertools.combinations(subset, 2)
        )
        if not crossing:
            count += 1
    assert count == len(spanning_trees(n)) == 55


def test_trees_are_valid_and_sorted():
    trees = spanning_trees(7)
    assert trees[0].text() == "1-2,1-3,1-4,1-5,1-6,1-7"  # star at 1 is first
    seen = set()
    for tree in trees:
        assert len(tree.edges) == 6
        assert tree.text() not in seen
        seen.add(tree.text())
    assert [t.text() for t in trees] == sorted(t.text() for t in trees)


def test_tree_text_roundtrip():
    t = NCSpanningTree.from_text(7, "1-2,2-3,3-4,4-5,5-6,6-7")
    assert t.text() == "1-2,2-3,3-4,4-5,5-6,6-7"
    with pytest.raises(Exception):
        NCSpanningTree.from_text(7, "1-2,2-3")  # too few edges
    # only ASCII digits name elements, reported at the edge's offset
    for text, position in (("1-\uff12,2-3", 0), ("1-2,2-\u00b2", 4)):
        with pytest.raises(NotationError, match="expected digits-digits") as caught:
            NCSpanningTree.from_text(7, text)
        assert caught.value.position == position


def test_apartment_contains_path_tree():
    # a partition lies in a tree's apartment iff each part induces a
    # connected subtree
    path = NCSpanningTree.from_text(7, "1-2,2-3,3-4,4-5,5-6,6-7")
    assert apartment_contains(path, Partition.from_text(7, "123"))
    assert apartment_contains(path, Partition.from_text(7, "12,4567"))
    assert not apartment_contains(path, Partition.from_text(7, "13"))
    star = NCSpanningTree.from_text(7, "1-2,1-3,1-4,1-5,1-6,1-7")
    assert apartment_contains(star, Partition.from_text(7, "135"))
    assert not apartment_contains(star, Partition.from_text(7, "35"))


def _parts_connected(tree, partition) -> bool:
    # independent oracle: breadth-first search inside each part
    n = tree.n
    adjacent = {e: set() for e in range(1, n + 1)}
    for a, b in tree.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    for mask in partition.parts:
        inside = {e for e in range(1, n + 1) if mask >> (e - 1) & 1}
        start = min(inside)
        seen, queue = {start}, deque([start])
        while queue:
            for w in (adjacent[queue.popleft()] & inside) - seen:
                seen.add(w)
                queue.append(w)
        if seen != inside:
            return False
    return True


def test_apartment_contains_matches_connectivity_oracle():
    for n in (4, 5):
        for tree in spanning_trees(n):
            for p in catalogue(n).partitions:
                assert apartment_contains(tree, p) == _parts_connected(tree, p), (
                    tree.text(),
                    p.text(),
                )


def test_tree_membership_bits_agrees_with_contains():
    trees = spanning_trees(7)
    for text in ["123", "13", "12,4567", "24"]:
        p = Partition.from_text(7, text)
        bits = tree_membership_bits(p)
        for k, tree in enumerate(trees):
            assert bool(bits >> k & 1) == apartment_contains(tree, p)


@pytest.mark.parametrize("n", range(3, 8))
def test_every_apartment_holds_two_to_the_n_minus_one_partitions(n):
    # The apartment's partitions are the component partitions of the
    # subsets of the tree's n - 1 edges, and distinct subsets give
    # distinct partitions.
    rows = [tree_membership_bits(p) for p in catalogue(n).partitions]
    for t, tree in enumerate(spanning_trees(n)):
        assert sum(bits >> t & 1 for bits in rows) == 2 ** (n - 1), tree.text()


def test_quoted_chain_has_no_dominant_vertex_but_satisfies_iv_prime():
    chain = Chain.from_text(7, "13<13457")
    report = dominant_vertex(chain)
    assert report.dominant is None
    assert report.checked_trees == 1428
    assert cond_iv_prime(chain) is True


def test_dominant_vertex_unique_and_prime_preserving():
    # corpus: all two-member chains built from one-edge partitions and the
    # known dominated examples; dominance is unique and the dominant
    # vertex reproduces the chain's prime family
    corpus = ["67", "45", "67<45,67", "67<23,67", "24<246", "13<13457", "12,46"]
    for text in corpus:
        chain = Chain.from_text(7, text)
        doms = dominant_vertices(chain)
        assert len(doms) <= 1
        report = dominant_vertex(chain)
        if doms:
            assert report.dominant == doms[0]
            fam = smallest_blocks(chain)
            ufam = smallest_blocks(Chain.from_text(7, doms[0].text()))
            for i in range(1, 8):
                assert ufam.prime(i) == fam.prime(i)
        else:
            assert report.dominant is None


def test_single_member_chain_dominates_itself():
    chain = Chain.from_text(7, "67")
    report = dominant_vertex(chain)
    assert report.dominant is not None
    assert report.dominant.text() == "67"


def test_multi_member_dominant_example():
    chain = Chain.from_text(7, "67<45,67")
    report = dominant_vertex(chain)
    assert report.dominant is not None
    assert report.dominant.text() == "45,67"


def test_iv_prime_weaker_than_iv():
    # wherever condition IV holds, IV' holds as well
    from ncpverify.condition4 import cond_iv

    for text in ["24<246", "13<13457", "12,46", "67"]:
        chain = Chain.from_text(7, text)
        if cond_iv(chain).satisfied:
            assert cond_iv_prime(chain)

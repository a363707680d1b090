"""Chains of the proper part of NC(n) and the conditions they may satisfy.

A chain is a strictly increasing sequence of non-crossing partitions
whose ranks stay strictly between bottom and top (1..n-2).  The type
itself, ``Chain``, and its error ``InvalidChainError`` are defined in
``core`` beside the text notation they parse, so that the certificate
checker can read chains without this module; they are re-exported here,
and ``ncpverify.chains.Chain`` is ``ncpverify.core.Chain``.  From a chain
we derive, for every circle element i, the smallest block containing i
anywhere along the chain (``F_i``; the full ground set when i stays a
singleton throughout) and its restriction to the cyclic neighbors of i
(``F_i'``).  Members increase, so F_i is the first non-singleton part
holding i: ``smallest_blocks`` reads the whole family in one pass over
the members' parts, and cuts F' out of it with neighbor masks built
once per n.  These neighbor sets are the entire interface between a
chain and the maximal-chain search of the condition-four module, which
is why they also come packed into one int here, in the n-fields-of-n-bits
layout of the maximal-chain family codes (``enumeration``), and why the
theorem5 report groups classes by their F' up to symmetry.  F_i' holds at
most i - 1 and i + 1, so F' is a necklace word of n two-bit letters (bit 0
for i - 1, bit 1 for i + 1): a rotation of the circle rotates the word, a
reflection reverses it and swaps each letter's bits, and
``canonical_prime_signature`` is the least of these 2n words.

The four chain conditions:

* I   — the corank set (complement of the member ranks in 1..n-2)
        contains two consecutive integers.
* II  — some member is not "universal" (universal = exactly one block,
        and that block a cyclic arc).
* III — some open interval of the chain (below the bottom member,
        between consecutive members, or above the top member) contains
        two crossing partitions; read both by a structural criterion
        on members and literally, from the crossing upper covers of each
        window's lower end (the cover law of the ``lattice`` module).
* IV  — lives in the condition-four module.

The same questions also come as functions of a chain's catalogue-index
tuple (``*_of_indices``, ``dual_indices``, ``canonical_indices``,
``index_text``), for every n the catalogue accepts (n <= 9); the
object-level functions wrap them, so each question has one path.
Orbit sizes come from ``enumeration.orbit_classes``, which builds each
orbit once.  Condition III of one chain is the OR of its window codes, read
from the catalogue's window rows (``window_code_of_indices``).  The theorem5
scan and the survey do not call these per chain: they read conditions
II and III from the code each chain carries out of enumeration, which
is built from the same table and tested against these functions.

Two values derived from a chain are memoised by value: the F family
(``smallest_blocks``) and the catalogue-index tuple (``chain_indices``).
Chains hash and compare by their fields, so an equal chain built
elsewhere finds the same entry, and both values are immutable.  A check
query reads each of them through several public calls in a row, for the
chain, its IV witness and its dominant-vertex chain, then for the dual;
the memos keep the last ``_RECENT_CHAINS`` chains, a bound fixed by that
traffic and not by the length of the query stream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ncpverify.core import _ELEMENTS, Chain, InvalidChainError
from ncpverify.lattice import CRITERION, LITERAL, Catalogue, catalogue


# One side of a check query touches three chains (the chain, its IV
# witness and its dominant-vertex chain), each through several public calls
# in a row; four entries hold them all, and a fixed bound keeps a long
# query stream from growing the memos.
_RECENT_CHAINS = 4


class SmallestBlockFamily(NamedTuple):
    """The indexed family i -> F_i, with the neighbor restrictions F_i'.

    ``blocks[i-1]`` is the mask of F_i; ``primes[i-1]`` the mask of
    F_i' = F_i intersected with {i-1, i+1} (cyclic).
    """

    n: int
    blocks: tuple[int, ...]
    primes: tuple[int, ...]

    def block(self, i: int) -> int:
        return self.blocks[self._position(i)]

    def prime(self, i: int) -> int:
        return self.primes[self._position(i)]

    def _position(self, i: int) -> int:
        # A negative position would read the family from its end.
        if not 1 <= i <= self.n:
            raise ValueError(f"element {i} outside universe 1..{self.n}")
        return i - 1

    def packed_primes(self) -> int:
        """n fields of n bits: field i-1 (bits (i-1)*n ..) holds F_i'.

        This is the layout of the maximal-chain family codes, so two
        families have pointwise-disjoint primes iff their packed values
        AND to zero, and a chain's F' meets a maximal chain's C' iff it
        meets the family code itself.
        """
        n = self.n
        return sum(prime << e * n for e, prime in enumerate(self.primes))


def neighbor_mask(n: int, i: int) -> int:
    return 1 << (i - 2) % n | 1 << i % n


@lru_cache(maxsize=None)
def _neighbor_masks(n: int) -> tuple[int, ...]:
    return tuple(neighbor_mask(n, i) for i in range(1, n + 1))


@lru_cache(maxsize=_RECENT_CHAINS)
def smallest_blocks(chain: Chain) -> SmallestBlockFamily:
    # Each non-singleton part is assigned to the elements it is the first
    # to cover; elements that no part covers keep the full set.
    n = chain.n
    full = (1 << n) - 1
    blocks = [full] * n
    unset = full
    for p in chain.members:
        for part in p.parts:
            fresh = part & unset
            if fresh and part & (part - 1):
                unset ^= fresh
                for e in _ELEMENTS[fresh]:
                    blocks[e - 1] = part
    primes = tuple(map(int.__and__, blocks, _neighbor_masks(n)))
    return SmallestBlockFamily(n, tuple(blocks), primes)


# -- conditions I, II, III -----------------------------------------------


def cond_i(chain: Chain) -> bool:
    """Corank set contains two consecutive integers (no wraparound)."""
    return cond_i_of_ranks(chain.n, chain.ranks())


def cond_i_of_ranks(n: int, ranks) -> bool:
    coranks = set(range(1, n - 1)) - set(ranks)
    return any(j + 1 in coranks for j in coranks)


def cond_ii(chain: Chain) -> bool:
    """Some member is not universal."""
    return not all(p.is_universal() for p in chain.members)


def cond_iii_criterion(chain: Chain) -> bool:
    """Structural test for condition III on the members themselves.

    Fires when (i) four members of the top partition cross in union,
    (ii) four members of some P sitting inside one part of the next
    member up cross in union, or (iii) the bottom partition has a part
    of size >= 4.  Singleton members participate in (i) and (ii).  The
    clauses are catalogue tables (any n <= 9).
    """
    cat = catalogue(chain.n)
    return bool(window_code_of_indices(cat, chain_indices(cat, chain)) & CRITERION)


def cond_iii_bruteforce(chain: Chain) -> bool:
    """Literal condition III, the ground truth the criterion is measured by.

    True iff two crossing partitions of proper rank lie strictly below
    the bottom member, strictly between some consecutive members, or
    strictly above the top member.  Each window is read by the cover law
    (``lattice`` module docstring): it holds such a pair exactly when two
    crossing upper covers of its lower end lie below its upper end.  The
    exhaustive search of each window stays in the tests, as the
    reference the law is compared with (``tests/test_index_kernel.py``),
    beside the package-free ``tests/oracles.py::literal_iii``.
    """
    cat = catalogue(chain.n)
    return bool(window_code_of_indices(cat, chain_indices(cat, chain)) & LITERAL)


# -- chains as tuples of catalogue indices ---------------------------------


@lru_cache(maxsize=_RECENT_CHAINS)
def chain_indices(cat: Catalogue, chain: Chain) -> tuple[int, ...]:
    return tuple(cat.index_of[p.parts] for p in chain.members)


def chain_from_indices(cat: Catalogue, indices) -> Chain:
    return Chain._trusted(cat.n, tuple(cat.partitions[j] for j in indices))


def index_text(cat: Catalogue, indices) -> str:
    """The chain's text, read from the catalogue's member texts."""
    texts = cat.texts
    return "<".join(texts[j] for j in indices)


def window_code_of_indices(cat: Catalogue, indices) -> int:
    """OR of the window codes (``CRITERION``, ``LITERAL``) the chain leaves.

    The windows run from bottom to the first member, between consecutive
    members, and from the last member to top.
    """
    window_code = cat.window_code
    code = 0
    lower = cat.bottom
    for upper in indices:
        code |= window_code(lower, upper)
        lower = upper
    return code | window_code(lower, cat.top)


def dual_indices(cat: Catalogue, indices) -> tuple[int, ...]:
    """Memberwise clockwise Kreweras dual, re-sorted increasingly."""
    dual = cat.dual_index
    return tuple(dual[j] for j in reversed(indices))


def canonical_indices(cat: Catalogue, indices) -> tuple[int, ...]:
    """Least dihedral image; images share the rank tuple, so the least
    index tuple is also the least key (see the ``lattice`` docstring)."""
    return min(tuple(perm[j] for j in indices) for perm in cat.symmetries)


# -- duality and symmetry -------------------------------------------------


def dual_chain(chain: Chain) -> Chain:
    """Memberwise Kreweras dual, re-sorted increasingly (duality reverses order)."""
    cat = catalogue(chain.n)
    return chain_from_indices(cat, dual_indices(cat, chain_indices(cat, chain)))


def canonical_chain(chain: Chain) -> Chain:
    """Least dihedral image (same symmetry applied to every member)."""
    cat = catalogue(chain.n)
    return chain_from_indices(cat, canonical_indices(cat, chain_indices(cat, chain)))


# A letter with its two bits swapped, as a reflection swaps i - 1 and i + 1.
_MIRRORED_LETTER = (0, 2, 1, 3)


def canonical_prime_signature(chain: Chain) -> tuple[int, ...]:
    """Least dihedral image of the F' necklace word (dedup invariant)."""
    n = chain.n
    word = tuple(
        (prime >> (e - 1) % n & 1) | (prime >> (e + 1) % n & 1) << 1
        for e, prime in enumerate(smallest_blocks(chain).primes)
    )
    mirror = tuple(_MIRRORED_LETTER[letter] for letter in reversed(word))
    return min(w[k:] + w[:k] for w in (word, mirror) for k in range(n))

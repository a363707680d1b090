"""Acceptance suite: one test per top-level criterion, exact, tolerance zero.

Each test prints a single PASS/FAIL line (visible even under pytest's
capture) and then asserts. Criteria 5 and 6 check the package's verdicts
on the bundled reference tables; where a reference row does not hold,
the test names it in an exact exception list and proves the exception
with the package-free oracles in ``tests/oracles.py``:

* criterion 5 -- conditions I, II, the four-member condition-III
  criterion and IV-refutation hold on all 58 reference chains; the
  literal (exhaustive) condition III agrees with the oracle's window
  search on every chain and fails on exactly ``123,46``;
* criterion 6 -- every quoted pattern hit is detected on every chain of
  its case, except five (case, chain, hit) triples in cases 9 and 32;
  for each, the oracle's smallest-block family breaks the equality the
  hit needs, and the chain is still IV-refuted with a certificate that
  replays.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from ncpverify.apartments import (
    cond_iv_prime,
    dominant_vertex,
    dominant_vertices,
    spanning_trees,
)
from ncpverify.chains import (
    Chain,
    cond_i,
    cond_ii,
    cond_iii_bruteforce,
    cond_iii_criterion,
    dual_chain,
    smallest_blocks,
)
from ncpverify.condition4 import cond_iv, detect_patterns, pattern_refute, verify_witness
from ncpverify.core import elements_of, kreweras_dual, leq
from ncpverify.enumeration import all_chain_index_tuples, maximal_chain_index
from ncpverify.lattice import catalogue, noncrossing_partitions
from ncpverify.pipeline import (
    VERDICT_VERIFIED,
    duality_reduced_rank_sets,
    validate_lemma3,
)
from ncpverify.replay import replay_certificate

import oracles


def _announce(capsys, number: int, ok: bool, message: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {number:02d} {'PASS' if ok else 'FAIL'} {message}", end="")


def test_acceptance_01_partition_counts(capsys):
    sizes = [sum(1 for _ in noncrossing_partitions(n)) for n in range(1, 8)]
    catalan = [1]
    for m in range(7):
        catalan.append(sum(catalan[i] * catalan[m - i] for i in range(m + 1)))
    expected = [1, 2, 5, 14, 42, 132, 429]
    ok = sizes == expected == catalan[1:8]
    _announce(capsys, 1, ok, f"|NC(n)| for n=1..7 is {sizes}, matching the Catalan recurrence")
    assert sizes == expected
    assert sizes == catalan[1:8]


def test_acceptance_02_maximal_chain_counts(capsys):
    counts = {n: len(maximal_chain_index(n)) for n in range(3, 8)}
    ok = all(counts[n] == n ** (n - 2) for n in counts) and counts[7] == 16807
    _announce(capsys, 2, ok, f"maximal chains equal n^(n-2) for n=3..7 ({counts[7]} at n=7)")
    for n, count in counts.items():
        assert count == n ** (n - 2), n
    assert counts[7] == 16807


def test_acceptance_03_duality(capsys):
    parts = catalogue(7).partitions
    rank_ok = all(kreweras_dual(p).rank == 6 - p.rank for p in parts)
    reversal_ok = all(
        leq(kreweras_dual(q), kreweras_dual(p))
        for p in parts
        for q in parts
        if leq(p, q)
    )
    rot = oracles.dihedral_perms(7)[6]
    assert rot == (7, 1, 2, 3, 4, 5, 6)
    double_ok = all(
        kreweras_dual(kreweras_dual(p)).parts == oracles.apply_symmetry(rot, p.parts)
        for p in parts
    )
    ok = rank_ok and reversal_ok and double_ok
    _announce(
        capsys,
        3,
        ok,
        "dual rank is 6-rank, order reverses on all comparable pairs, "
        "double dual is a one-step rotation (all 429 partitions)",
    )
    assert rank_ok and reversal_ok and double_ok


def test_acceptance_04_reduced_rank_sets(capsys):
    reduced = [set(s) for s in duality_reduced_rank_sets(7)]
    expected = [
        {1},
        {2},
        {3},
        {1, 2},
        {1, 3},
        {1, 4},
        {1, 5},
        {2, 3},
        {1, 2, 3},
        {1, 2, 5},
    ]
    ok = reduced == expected
    _announce(capsys, 4, ok, f"duality-reduced condition-I rank sets are exactly {expected}")
    assert reduced == expected


# The one reference chain on which literal condition III fails. Below
# "123,46" every part lies in {1,2,3} or {4,6}; above it the size->=2
# parts are 12346, 1237, 123, 46, 456, 467, 4567, 123456 and 123467, and
# no two disjoint ones among them interleave.
LITERAL_III_FAILS = {"123,46"}


def test_acceptance_05_fixture_chains_satisfy_conditions(capsys, fixture_set):
    offenders = []
    disagreements = []
    literal_fails = set()
    for text in fixture_set.all_chain_texts():
        chain = Chain.from_text(7, text)
        conditions = (
            cond_i(chain),
            cond_ii(chain),
            cond_iii_criterion(chain),
            not cond_iv(chain).satisfied,
        )
        if not all(conditions):
            offenders.append((text, *conditions))
        literal = cond_iii_bruteforce(chain)
        if literal != oracles.literal_iii(7, text):
            disagreements.append(text)
        if not literal:
            literal_fails.add(text)
    ok = not offenders and not disagreements and literal_fails == LITERAL_III_FAILS
    _announce(
        capsys,
        5,
        ok,
        "all 58 reference chains satisfy I, II and the condition-III criterion "
        "and are IV-refuted; literal III matches the independent window search "
        f"and fails exactly on {sorted(literal_fails)}",
    )
    assert not offenders, f"(chain, I, II, criterion III, IV refuted): {offenders}"
    assert not disagreements, (
        f"cond_iii_bruteforce disagrees with the independent oracle on {disagreements}"
    )
    assert literal_fails == LITERAL_III_FAILS


# The quoted hits that do not hold, as (case, chain, hit), each with the
# two indices whose F-blocks the hit needs equal. Read backwards from i,
# clause 3 of length 3 is (>=, =), so (3,-,7)(3) needs F_7 >= F_6 = F_5;
# clause 1 is (=, >=), so (3,-,5)(1) needs F_5 = F_4 >= F_3.
QUOTED_HITS_THAT_FAIL = {
    (9, "123,46", "(3,-,7)(3)"): (6, 5),
    (32, "124<1234", "(3,-,5)(1)"): (5, 4),
    (32, "13<123<1234", "(3,-,5)(1)"): (5, 4),
    (32, "14<124<1234", "(3,-,5)(1)"): (5, 4),
    (32, "24<124<1234", "(3,-,5)(1)"): (5, 4),
}


def test_acceptance_06_quoted_hits_reproduced(capsys, fixture_set, alignment_table):
    missing = {
        (case.case_id, text, hit.text())
        for case in fixture_set.cases
        for text in case.chains
        for hit in set(case.claimed_hits) - set(
            detect_patterns(Chain.from_text(7, text), strict=False)
        )
    }
    expected = set(QUOTED_HITS_THAT_FAIL)
    convs = alignment_table.conventions
    failing_cases = sorted(c.case_id for c in convs if not c.nonstrict_reproduces)
    strict_count = sum(1 for c in convs if c.strict_reproduces)
    nonstrict_count = sum(1 for c in convs if c.nonstrict_reproduces)
    ok = missing == expected
    _announce(
        capsys,
        6,
        ok,
        f"per-case convention report: non-strict reproduces {nonstrict_count}/39, "
        f"strict {strict_count}/39; quoted hits not reproduced: "
        + ", ".join(f"case {c} {t} {h}" for c, t, h in sorted(missing)),
    )
    assert missing == expected, (
        f"unexpected (case, chain, hit): {sorted(missing - expected)}; "
        f"documented but reproduced: {sorted(expected - missing)}"
    )
    assert failing_cases == sorted({case for case, _, _ in expected})

    full = frozenset(range(1, 8))
    for (case, text, hit), (a, b) in QUOTED_HITS_THAT_FAIL.items():
        fam = oracles.smallest_blocks(7, text)
        assert fam[a] != fam[b] and full in (fam[a], fam[b]), (case, text, hit)
        chain = Chain.from_text(7, text)
        assert not cond_iv(chain).satisfied, text
        cert = pattern_refute(chain)
        assert cert is not None and replay_certificate(cert).ok, text


def test_acceptance_07_theorem_pipeline(capsys, pipeline_report):
    r = pipeline_report
    no_survivor = r.survivors == () and r.verdict == VERDICT_VERIFIED
    # direct restatement: no class satisfies I, II, literal III and IV on
    # both sides
    direct = not any(
        c.iv_satisfied and c.cond_iii_literal and c.dual_cond_iii_literal
        for c in r.classes
    )
    ok = no_survivor and direct
    _announce(
        capsys,
        7,
        ok,
        f"exhaustive pipeline over {r.chains_scanned} chains, "
        f"{len(r.classes)} orbit classes: zero classes satisfy I-IV on both sides",
    )
    assert r.survivors == ()
    assert r.verdict == VERDICT_VERIFIED
    assert direct


def test_acceptance_08_exclusion_soundness(capsys):
    report = validate_lemma3(7)
    ok = report.violations == () and report.ci_always_proper
    _announce(
        capsys,
        8,
        ok,
        f"{report.pairs_checked} survivor-hit pairs across "
        f"{report.chains_checked} chains respect every exclusion set",
    )
    assert report.violations == ()
    assert report.ci_always_proper


def test_acceptance_09_incomparable_parts_disjoint(capsys):
    n = 7

    def wrap(x: int) -> int:
        return ((x - 1) % n) + 1

    arc = {}
    for i in range(1, n + 1):
        for k in range(2, n):
            mask = 0
            for t in range(1, k):
                mask |= 1 << (wrap(i + t) - 1)
            arc[(i, k)] = mask

    # Both checks read a chain only through its F-family (F_i: the first
    # part of size >= 2 holding i along the members, else the full set),
    # so they run once per distinct family, weighted by its chain count.
    cat = catalogue(n)
    full = (1 << n) - 1
    families: Counter[tuple[int, ...]] = Counter()
    for indices, _ in all_chain_index_tuples(cat):
        columns = zip(*(cat.part_by_element[j] for j in indices))
        families[
            tuple(next((part for part in column if part & (part - 1)), full) for column in columns)
        ] += 1

    incomparable_violations = 0
    dichotomy_violations = 0
    chains = sum(families.values())
    pairs = 0
    for family, weight in families.items():
        blocks = [0, *family]
        for i in range(1, n + 1):
            fi = blocks[i]
            for j in range(i + 1, n + 1):
                fj = blocks[j]
                if fi == fj or (fi | fj) == fj or (fi | fj) == fi:
                    continue
                pairs += weight
                if fi & fj or oracles.parts_cross(
                    frozenset(elements_of(fi)), frozenset(elements_of(fj))
                ):
                    incomparable_violations += weight
        for i in range(1, n + 1):
            fi = blocks[i]
            for k in range(2, n):
                if not (fi >> (wrap(i + k) - 1)) & 1:
                    continue
                outside = arc[(i, k)] & ~fi
                m = outside
                while m:
                    low = m & -m
                    j = low.bit_length()
                    m ^= low
                    fj = blocks[j]
                    if (fi | fj) != fj and (fj | arc[(i, k)]) != arc[(i, k)]:
                        dichotomy_violations += weight
    ok = incomparable_violations == 0 and dichotomy_violations == 0
    _announce(
        capsys,
        9,
        ok,
        f"over all {chains} chains: {pairs} incomparable smallest-block pairs "
        "are all disjoint and non-crossing; the enclosed-index dichotomy "
        "has zero violations",
    )
    assert chains == 85099
    assert pairs == 699804
    assert incomparable_violations == 0
    assert dichotomy_violations == 0


def test_acceptance_10_apartments(capsys, fixture_set, pipeline_report):
    counts_ok = len(spanning_trees(4)) == 12 and len(spanning_trees(7)) == 1428
    formula_ok = all(
        len(spanning_trees(n)) == comb(3 * n - 3, n - 1) // (2 * n - 1)
        for n in range(3, 8)
    )
    quoted = Chain.from_text(7, "13<13457")
    quoted_ok = dominant_vertex(quoted).dominant is None and cond_iv_prime(quoted)

    corpus = list(fixture_set.all_chain_texts())
    for c in pipeline_report.classes:
        corpus.append(c.representative)
        corpus.append(c.dual_representative)
    uniqueness_ok = True
    primes_ok = True
    for text in dict.fromkeys(corpus):
        chain = Chain.from_text(7, text)
        doms = dominant_vertices(chain)
        if len(doms) > 1:
            uniqueness_ok = False
        if doms:
            fam = smallest_blocks(chain)
            ufam = smallest_blocks(Chain._trusted(7, (doms[0],)))
            if any(ufam.prime(i) != fam.prime(i) for i in range(1, 8)):
                primes_ok = False
    ok = counts_ok and formula_ok and quoted_ok and uniqueness_ok and primes_ok
    _announce(
        capsys,
        10,
        ok,
        "tree counts match the closed form (12 at n=4, 1428 at n=7); the "
        "quoted chain has no dominant vertex yet satisfies IV'; dominance "
        f"is unique and prime-preserving over {len(dict.fromkeys(corpus))} chains",
    )
    assert counts_ok and formula_ok and quoted_ok
    assert uniqueness_ok and primes_ok


def test_acceptance_11_positive_control_and_certificates(capsys, fixture_set):
    control = Chain.from_text(7, "24<246")
    outcome = cond_iv(control)
    control_ok = (
        outcome.satisfied
        and verify_witness(control, outcome.witness)
        and pattern_refute(control) is None
    )
    cert_ok = True
    replay_ok = True
    for text in fixture_set.all_chain_texts():
        cert = pattern_refute(Chain.from_text(7, text))
        if cert is None:
            cert_ok = False
            continue
        if not replay_certificate(cert).ok:
            replay_ok = False
    ok = control_ok and cert_ok and replay_ok
    _announce(
        capsys,
        11,
        ok,
        "positive control satisfies IV with a verified witness and no "
        "certificate; all 58 reference certificates replay in the "
        "independent checker",
    )
    assert control_ok
    assert cert_ok and replay_ok

"""End-to-end verification pipeline and fixture alignment.

The pipeline reproduces the whole argument mechanically.  ``run_theorem5``
runs five stages, each reading the output of the one before:

1. scan -- every chain of the proper part of NC(n) whose rank set leaves
   two consecutive coranks, kept when the chain and its dual both satisfy
   conditions II and III (read from the code each chain carries out of
   enumeration);
2. orbit sweep -- the candidates grouped into dihedral orbit classes;
3. duality -- one class kept per duality pair;
4. condition IV and the verdict -- the exhaustive scan as ground truth,
   a replayable pattern certificate wherever one exists, and the literal
   "THEOREM 5 VERIFIED" exactly when no class survives all four
   conditions on both sides; no reference data is read up to here;
5. the reference tables: alignment, matched case, unresolved classes --
   only at the tables' n, from the stage-4 report and the embedded data
   (58 chains in 39 cases, ``compare_fixture``) alone, so transcription
   drift is distinguishable from a mathematical failure.

Stages 1-3 are cached per n in ``reduced_classes``.  ``validate_lemma3``
reads its corpus from there and runs neither stage 4 nor stage 5.  The
report then gains the condition-III survey.  The text, JSON and CSV
reports live in ``ncpverify.reports``, read only the report and are
re-exported here.

Condition III exists in two forms: the four-member union criterion used
to enumerate the reference tables, and the literal two-witness search it
is meant to stand in for.  They are not equivalent: the criterion fires
on some chains (for example "123,46") where no witness pair exists,
because merging the four members can itself create a crossing partition.
The criterion never misses a chain the literal search accepts -- at n=7
this containment is counted exhaustively by a DP over the order rows in
condition_iii_survey -- so the pipeline filters candidates by the union
of the two tests.  That keeps every class the reference tables list
while still covering every chain the literal definition admits, and the
report carries both verdicts per class instead of pretending they
coincide.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ncpverify.chains import (
    Chain,
    canonical_indices,
    canonical_prime_signature,
    chain_indices,
    cond_i_of_ranks,
    dual_indices,
    index_text,
    smallest_blocks,
    window_code_of_indices,
)
from ncpverify.condition4 import (
    RefutationCertificate,
    cond_iv,
    detect_patterns,
    exclusion_mask,
    pattern_refute,
)
from ncpverify.enumeration import (
    _FULL_SCAN_MAX_N,
    OrbitClass,
    all_chain_index_tuples,
    chain_index_tuples,
    # Unused here, but part of this module's namespace that
    # perfbench/test_perfbench.py rebinds.
    enumerate_chains,  # noqa: F401
    maximal_chain_index,
    orbit_classes,
    rank_sets,
    sample_chains,
    stream_order,
)
from ncpverify.fixtures import load_fixtures
from ncpverify.lattice import (
    BOTH_II,
    CRITERION,
    DUAL_CRITERION,
    DUAL_LITERAL,
    DUAL_SHIFT,
    LITERAL,
    READINGS,
    catalogue,
    iter_bits,
)
from ncpverify.reports import report_to_csv, report_to_json, report_to_text

__all__ = [
    "VERDICT_VERIFIED",
    "ClassReport",
    "PipelineReport",
    "ReducedClasses",
    "ConditionIIISurvey",
    "FixtureAlignmentRow",
    "CaseConventionRow",
    "AlignmentTable",
    "cond_i_rank_sets",
    "duality_reduced_rank_sets",
    "reduced_classes",
    "run_theorem5",
    "condition_iii_survey",
    "LemmaThreeReport",
    "validate_lemma3",
    "compare_fixture",
    "report_to_json",
    "report_to_csv",
    "report_to_text",
]

VERDICT_VERIFIED = "THEOREM 5 VERIFIED"

# The seeded random sample that validate_lemma3 adds to its corpus.
LEMMA3_SAMPLE_SIZE = 200
LEMMA3_SEED = 20260816
# Example chains condition_iii_survey keeps per disagreement direction.
SURVEY_EXAMPLE_LIMIT = 10


class ClassReport(NamedTuple):
    """Everything the pipeline knows about one duality-reduced orbit class."""

    representative: str
    ranks: tuple[int, ...]
    orbit_size: int
    dual_representative: str
    cond_iii_criterion: bool
    cond_iii_literal: bool
    dual_cond_iii_criterion: bool
    dual_cond_iii_literal: bool
    iv_satisfied: bool
    iv_witness: str | None
    iv_checked: int
    certificate: RefutationCertificate | None
    matched_case: int | None
    signature_duplicate_of: str | None
    survives: bool


class PipelineReport(NamedTuple):
    """One theorem5 run.  From the verdict's record and the tables alone,
    stage 5 fills each class's ``matched_case``, ``unresolved`` and
    ``alignment`` (left ``None``, empty and ``None`` unless n is the
    reference tables' n); then ``survey`` is added."""

    n: int
    cond_i_sets: tuple[tuple[int, ...], ...]
    reduced_sets: tuple[tuple[int, ...], ...]
    chains_scanned: int
    candidates: tuple[str, ...]
    classes: tuple[ClassReport, ...]
    iii_disagreements: tuple[str, ...]
    unresolved: tuple[str, ...]
    survivors: tuple[str, ...]
    verdict: str
    alignment: AlignmentTable | None = None
    survey: ConditionIIISurvey | None = None


class ReducedClasses(NamedTuple):
    """What stages 1-3 of ``run_theorem5`` know for one n.

    ``candidates`` maps each candidate index tuple, in scan order, to its
    condition II/III code; ``classes`` are the orbit classes kept after
    duality, in report order.
    """

    n: int
    cond_i_sets: tuple[tuple[int, ...], ...]
    chains_scanned: int
    candidates: dict[tuple[int, ...], int]
    iii_disagreements: tuple[str, ...]
    classes: tuple[OrbitClass, ...]


class ConditionIIISurvey(NamedTuple):
    """Exhaustive criterion-vs-literal comparison over every chain of one n.

    ``criterion_only`` chains pass the four-member union criterion while the
    literal two-witness search fails; ``literal_only`` would be the reverse.
    An empty ``literal_only`` is the soundness direction: the criterion then
    over-approximates the literal condition, so filtering by their union
    (as run_theorem5 does) covers every chain the literal definition admits.
    """

    n: int
    chains_checked: int
    agreements: int
    criterion_only: int
    literal_only: int
    criterion_only_examples: tuple[str, ...]
    literal_only_examples: tuple[str, ...]
    disagreeing_fixture_chains: tuple[str, ...]

    @property
    def criterion_covers_literal(self) -> bool:
        return self.literal_only == 0


class FixtureAlignmentRow(NamedTuple):
    case_id: int
    chain: str
    found_in_class: str | None
    hits_reproduced: bool
    strict_also_reproduces: bool
    iv_refuted: bool
    certificate_style: str
    style_matches: bool
    aligned: bool


class CaseConventionRow(NamedTuple):
    """Which inclusion conventions reproduce a case's quoted hits."""

    case_id: int
    nonstrict_reproduces: bool
    strict_reproduces: bool


class AlignmentTable(NamedTuple):
    rows: tuple[FixtureAlignmentRow, ...]
    conventions: tuple[CaseConventionRow, ...]
    all_aligned: bool


def _dual_rank_set(n: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(n - 1 - r for r in ranks))


def cond_i_rank_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every rank set whose corank keeps two consecutive integers."""
    return tuple(rs for rs in rank_sets(n) if cond_i_of_ranks(n, rs))


def duality_reduced_rank_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """Condition-I rank sets, one per duality pair, in ``rank_sets`` order."""
    return tuple(rs for rs in cond_i_rank_sets(n) if rs <= _dual_rank_set(n, rs))


# -- stages 1-3: scan, orbit sweep, duality --------------------------------


def _scan(n: int, cond_i_sets) -> tuple[int, dict[tuple[int, ...], int], tuple[str, ...]]:
    """Stage 1: the chains scanned, the candidates and the III disagreements.

    A candidate passed II on both sides and III under some reading on both
    sides; it maps to its condition II/III code.  A disagreement is a
    scanned chain, or the dual of one, that passes under one condition-III
    reading only, listed once in scan order.
    """
    cat = catalogue(n)
    chains_scanned = 0
    candidates: dict[tuple[int, ...], int] = {}
    disagreements: dict[str, None] = {}
    for ranks in cond_i_sets:
        for indices, code in chain_index_tuples(cat, ranks):
            chains_scanned += 1
            if code & BOTH_II != BOTH_II:
                continue
            own = code & READINGS
            if not own:
                continue
            if own != READINGS:
                disagreements.setdefault(index_text(cat, indices))
            other = code >> DUAL_SHIFT & READINGS
            if not other:
                continue
            if other != READINGS:
                disagreements.setdefault(index_text(cat, dual_indices(cat, indices)))
            candidates[indices] = code
    return chains_scanned, candidates, tuple(disagreements)


def _one_per_dual_pair(classes: list[OrbitClass]) -> tuple[OrbitClass, ...]:
    """Stage 3: the classes whose representative's member keys are at most
    its dual's.  Across rank tuples index order is not key order, and at
    n = 7 comparing index tuples would keep other classes."""
    return tuple(
        cls
        for cls in classes
        if [p.sort_key() for p in cls.representative.members]
        <= [p.sort_key() for p in cls.dual_representative.members]
    )


@lru_cache(maxsize=None)
def reduced_classes(n: int = 7) -> ReducedClasses:
    """Stages 1-3 of ``run_theorem5``: scan, orbit sweep and duality."""
    if not 3 <= n <= _FULL_SCAN_MAX_N:
        raise ValueError(f"the pipeline supports 3 <= n <= {_FULL_SCAN_MAX_N}")
    cond_i_sets = cond_i_rank_sets(n)
    chains_scanned, candidates, disagreements = _scan(n, cond_i_sets)
    classes = orbit_classes(list(candidates), n)  # stage 2
    return ReducedClasses(
        n=n,
        cond_i_sets=cond_i_sets,
        chains_scanned=chains_scanned,
        candidates=candidates,
        iii_disagreements=disagreements,
        classes=_one_per_dual_pair(classes),
    )


# -- stage 4: condition IV and the verdict ----------------------------------


def _decide(reduced: ReducedClasses) -> PipelineReport:
    """Stage 4: condition IV per class and the verdict, as the report, with
    each class's F' signature group named for stage 5.  It reads no reference
    data, so every ``matched_case`` is ``None`` and ``unresolved`` is empty."""
    n = reduced.n
    cat = catalogue(n)
    # The F' family of each kept class up to symmetry (the least image of
    # its necklace word), on both duality sides: two classes whose families
    # coincide on either side are interchangeable as far as condition IV is
    # concerned, because the pattern clauses and the exclusion sets read
    # nothing but F' (and refuting one side of a dual pair refutes the other).
    # A class's earliest signature sharer is the least first class of its signatures.
    first_class: dict[tuple[int, ...], int] = {}
    reports: list[ClassReport] = []
    for position, cls in enumerate(reduced.classes):
        rep = cls.representative
        verdict_iv = cond_iv(rep)
        certificate = pattern_refute(rep)
        if certificate is not None and verdict_iv.satisfied:
            raise RuntimeError(
                f"pattern engine refuted {rep.text()!r} but an exhaustive witness exists"
            )
        found = {canonical_prime_signature(c) for c in (rep, cls.dual_representative)}
        for signature in found:
            first_class.setdefault(signature, position)
        earliest = min(first_class[signature] for signature in found)

        # The representative is itself a candidate (the filter is dihedral
        # invariant), and condition III is invariant too, so the dual side
        # recorded for it holds for the dual representative.
        code = reduced.candidates[cls.rep_indices]
        literal_iii = bool(code & LITERAL)
        dual_literal_iii = bool(code & DUAL_LITERAL)
        reports.append(
            ClassReport(
                representative=rep.text(),
                ranks=rep.ranks(),
                orbit_size=cls.orbit_size,
                dual_representative=cls.dual_representative.text(),
                cond_iii_criterion=bool(code & CRITERION),
                cond_iii_literal=literal_iii,
                dual_cond_iii_criterion=bool(code & DUAL_CRITERION),
                dual_cond_iii_literal=dual_literal_iii,
                iv_satisfied=verdict_iv.satisfied,
                iv_witness=verdict_iv.witness.text() if verdict_iv.witness else None,
                iv_checked=verdict_iv.checked,
                certificate=certificate,
                matched_case=None,
                signature_duplicate_of=(
                    reports[earliest].representative if earliest < position else None
                ),
                # A genuine counterexample to the theorem must satisfy the
                # literal condition III on both sides, not merely the
                # four-member criterion, which is known to over-fire.
                survives=verdict_iv.satisfied and literal_iii and dual_literal_iii,
            )
        )

    survivors = tuple(r.representative for r in reports if r.survives)
    verdict = (
        VERDICT_VERIFIED
        if not survivors
        else f"NOT VERIFIED: {len(survivors)} surviving class(es)"
    )
    return PipelineReport(
        n=n,
        cond_i_sets=reduced.cond_i_sets,
        reduced_sets=duality_reduced_rank_sets(n),
        chains_scanned=reduced.chains_scanned,
        candidates=tuple(index_text(cat, indices) for indices in reduced.candidates),
        classes=tuple(reports),
        iii_disagreements=reduced.iii_disagreements,
        unresolved=(),
        survivors=survivors,
        verdict=verdict,
    )


# -- stage 5: the reference tables ------------------------------------------


def _align(report: PipelineReport) -> PipelineReport:
    """Stage 5: the alignment, each class's matched case and the unresolved
    classes, from ``compare_fixture``'s one join of chains to classes and
    the report's signature groups."""
    alignment = compare_fixture(report)
    # A class's case is the first, in case order, with a chain in the class.
    first_case: dict[str, int] = {}
    for row in alignment.rows:
        if row.found_in_class is not None:
            first_case.setdefault(row.found_in_class, row.case_id)
    classes = tuple(
        cls._replace(matched_case=first_case.get(cls.representative))
        for cls in report.classes
    )

    # A class is resolved if it shares an F' signature with a class a
    # reference chain lands in (its own, if it is one): the reference tables
    # list one chain per family and rely on condition IV reading nothing
    # else.  Sharing is transitive at every n the pipeline accepts, so a
    # class's group is named by its ``signature_duplicate_of``, or by itself.
    def group(cls: ClassReport) -> str:
        return cls.signature_duplicate_of or cls.representative

    matched = {group(cls) for cls in classes if cls.matched_case is not None}
    unresolved = tuple(cls.representative for cls in classes if group(cls) not in matched)
    return report._replace(classes=classes, unresolved=unresolved, alignment=alignment)


@lru_cache(maxsize=None)
def run_theorem5(n: int = 7) -> PipelineReport:
    """Run the full enumeration-and-refutation pipeline for one n: the
    verdict, then the reference alignment and the survey, which never feed it."""
    report = _decide(reduced_classes(n))
    if n == load_fixtures().n:
        report = _align(report)
    return report._replace(survey=condition_iii_survey(n))


class LemmaThreeReport(NamedTuple):
    """Empirical check of the pattern exclusions against real maximal chains.

    For every corpus chain F and every pattern hit (k,s,i) of F, every
    maximal chain C whose C' family is disjoint from F' everywhere must
    avoid the hit's excluded companions inside C_i.  ``violations`` lists
    each (chain, hit, maximal-chain) triple that breaks this; soundness
    of the whole certificate machinery rests on it staying empty.
    ``ci_always_proper`` additionally confirms that C_i never degenerates
    to the bare singleton {i} on any of the n^(n-2) maximal chains.
    """

    n: int
    chains_checked: int
    chains_with_survivors: int
    total_survivors: int
    hits_checked: int
    pairs_checked: int
    violations: tuple[str, ...]
    maximal_chains: int
    ci_always_proper: bool


@lru_cache(maxsize=None)
def validate_lemma3(n: int = 7) -> LemmaThreeReport:
    """Test the exclusion rule on class representatives, reference chains,
    a witness-rich control chain, and a seeded random sample of
    ``LEMMA3_SAMPLE_SIZE`` chains (seed ``LEMMA3_SEED``).

    The representatives come from ``reduced_classes`` (stages 1-3 of
    ``run_theorem5``); no condition-IV, certificate or signature work runs.
    """
    if not 3 <= n <= _FULL_SCAN_MAX_N:
        raise ValueError(f"lemma-3 validation supports 3 <= n <= {_FULL_SCAN_MAX_N}")
    index = maximal_chain_index(n)

    corpus: list[Chain] = []
    seen: set[Chain] = set()

    def add(chain: Chain) -> None:
        if chain not in seen:
            seen.add(chain)
            corpus.append(chain)

    if n == 7:
        add(Chain.from_text(7, "24<246"))
    for cls in reduced_classes(n).classes:
        add(cls.representative)
        add(cls.dual_representative)
    fixtures = load_fixtures()
    if n == fixtures.n:
        for text in fixtures.all_chain_texts():
            add(Chain.from_text(n, text))
    for chain in sample_chains(n, LEMMA3_SAMPLE_SIZE, LEMMA3_SEED):
        add(chain)

    chains_with_survivors = total_survivors = 0
    hits_checked = pairs_checked = 0
    violations: list[str] = []
    for chain in corpus:
        family = smallest_blocks(chain)
        demand = family.packed_primes()
        surviving = index.survivors(demand)
        hits = detect_patterns(chain)
        hits_checked += len(hits)
        if not surviving:
            continue
        chains_with_survivors += 1
        total_survivors += len(surviving)
        # each hit's exclusions, moved to the field of C_i in the family code
        masks = [(hit, (hit.i - 1) * n, exclusion_mask(n, hit)) for hit in hits]
        forbidden = 0
        for _, shift, mask in masks:
            forbidden |= mask << shift
        pairs_checked += len(surviving) * len(hits)
        # A survivor's test reads only its family, so testing each
        # surviving family once covers every (survivor, hit) pair.
        if not any(code & forbidden for code in index.families(demand)):
            continue
        text = chain.text()
        for k in surviving:
            code = index.enclosing[k]
            for hit, shift, mask in masks:
                if code >> shift & mask:
                    violations.append(
                        f"chain {text} hit {hit.text()} violated by maximal chain #{k}"
                    )

    return LemmaThreeReport(
        n=n,
        chains_checked=len(corpus),
        chains_with_survivors=chains_with_survivors,
        total_survivors=total_survivors,
        hits_checked=hits_checked,
        pairs_checked=pairs_checked,
        violations=tuple(violations),
        maximal_chains=len(index),
        ci_always_proper=ci_always_proper(n, index.families()),
    )


def ci_always_proper(n: int, codes) -> bool:
    """True iff field e of every family code holds element e + 1 and more.

    Field e (bits e*n ..) is C_(e+1), and the test reads one field at a
    time, so it runs on each field's distinct values, far fewer than the
    codes.
    """
    codes = tuple(codes)
    full = (1 << n) - 1
    for e in range(n):
        own = 1 << e
        for mask in {code >> e * n & full for code in codes}:
            if not mask & own or mask == own:
                return False
    return True


@lru_cache(maxsize=None)
def condition_iii_survey(n: int = 7) -> ConditionIIISurvey:
    """Compare criterion and literal condition III over every chain of one n.

    The two tests are not equivalent, so instead of asserting agreement the
    artifact measures it.  The containment is counted exhaustively by a DP
    over the order rows: every window of every chain is read, but no chain
    is built.  The first ``SURVEY_EXAMPLE_LIMIT`` example chains per
    direction come from the chain stream, read only as far as the last
    one; every affected reference-table chain is read directly.
    """
    if not 3 <= n <= _FULL_SCAN_MAX_N:
        raise ValueError(f"the survey supports 3 <= n <= {_FULL_SCAN_MAX_N}")
    cat = catalogue(n)
    readings = _chain_readings(cat)
    criterion_only = readings[CRITERION]
    literal_only = readings[LITERAL]

    examples: dict[int, list[str]] = {CRITERION: [], LITERAL: []}
    missing = min(SURVEY_EXAMPLE_LIMIT, criterion_only) + min(
        SURVEY_EXAMPLE_LIMIT, literal_only
    )
    chains = all_chain_index_tuples(cat)
    while missing:
        indices, code = next(chains)
        found = examples.get(code & READINGS)
        if found is not None and len(found) < SURVEY_EXAMPLE_LIMIT:
            found.append(index_text(cat, indices))
            missing -= 1

    fixture_disagreements: set[tuple[int, ...]] = set()
    fixtures = load_fixtures()
    if n == fixtures.n:
        for text in fixtures.all_chain_texts():
            indices = chain_indices(cat, Chain.from_text(n, text))
            for variant in (indices, dual_indices(cat, indices)):
                if window_code_of_indices(cat, variant) in (CRITERION, LITERAL):
                    fixture_disagreements.add(variant)

    return ConditionIIISurvey(
        n=n,
        chains_checked=sum(readings),
        agreements=readings[0] + readings[READINGS],
        criterion_only=criterion_only,
        literal_only=literal_only,
        criterion_only_examples=tuple(examples[CRITERION]),
        literal_only_examples=tuple(examples[LITERAL]),
        disagreeing_fixture_chains=tuple(
            index_text(cat, indices)
            for indices in sorted(fixture_disagreements, key=stream_order(cat))
        ),
    )


def _chain_readings(cat) -> list[int]:
    """The number of chains per condition-III reading (``READINGS`` code).

    A chain's reading is the OR of its windows, so ``ending[j]`` counts
    the chains whose greatest member is j by their reading so far.  Index
    order extends rank order, so when j is read every chain below it has
    been pushed up to it; j adds itself alone above bottom, pushes its
    counts up its ``above`` row, and closes with its window to top.
    """
    window_code = cat.window_code
    proper = cat.proper_mask
    top = cat.top
    totals = [0] * (READINGS + 1)
    ending = [[0] * (READINGS + 1) for _ in cat.partitions]
    for j in iter_bits(proper):
        counts = ending[j]
        counts[window_code(cat.bottom, j)] += 1
        for k in iter_bits(cat.above[j] & proper):
            window = window_code(j, k)
            pushed = ending[k]
            for reading, count in enumerate(counts):
                pushed[reading | window] += count
        window = window_code(j, top)
        for reading, count in enumerate(counts):
            totals[reading | window] += count
    return totals


def _certificate_style(certificate: RefutationCertificate | None) -> str:
    if certificate is None:
        return "none"
    if any(step.get("kind") == "forced-block" for step in certificate.steps):
        return "forced"
    return "emptiness"


def compare_fixture(report: PipelineReport) -> AlignmentTable:
    """Align the pipeline's classes with the embedded reference data.

    This is the one join of reference chains to classes: each row's
    ``found_in_class`` is the class holding the chain or its dual, and
    stage 5 of ``run_theorem5`` reads each class's matched case from it.
    A chain is *aligned* when it lands in some class, its quoted hits are
    reproduced under the non-strict convention, and condition IV is
    refuted for it.  The certificate-style column is informational: the
    engine prefers outright companion-set emptiness whenever exhaustive
    pattern detection yields it, so some reference cases narrated through
    forced blocks are closed by a shorter emptiness certificate here.
    A report of another n than the tables' is refused: they are read in its catalogue.
    """
    fixtures = load_fixtures()
    if report.n != fixtures.n:
        raise ValueError(f"report is for n={report.n}, fixtures for n={fixtures.n}")

    # Each class under both duality sides' orbit texts (the text of the least
    # dihedral image), so one lookup of a chain's own orbit text finds the
    # class whether the chain or its dual is in it.
    cat = catalogue(report.n)
    class_of: dict[str, str] = {}
    for cls in report.classes:
        class_of.setdefault(cls.representative, cls.representative)
        class_of.setdefault(cls.dual_representative, cls.representative)

    rows: list[FixtureAlignmentRow] = []
    conventions: list[CaseConventionRow] = []
    for case in fixtures.cases:
        case_nonstrict = True
        case_strict = True
        for text in case.chains:
            chain = Chain.from_text(fixtures.n, text)
            orbit = canonical_indices(cat, chain_indices(cat, chain))
            found = class_of.get(index_text(cat, orbit))
            claimed = set(case.claimed_hits)
            nonstrict = claimed <= set(detect_patterns(chain, strict=False))
            strict = claimed <= set(detect_patterns(chain, strict=True))
            case_nonstrict &= nonstrict
            case_strict &= strict
            iv_refuted = not cond_iv(chain).satisfied
            style = _certificate_style(pattern_refute(chain))
            style_matches = (style == "forced") == case.expects_forced_argument
            rows.append(
                FixtureAlignmentRow(
                    case_id=case.case_id,
                    chain=text,
                    found_in_class=found,
                    hits_reproduced=nonstrict,
                    strict_also_reproduces=strict,
                    iv_refuted=iv_refuted,
                    certificate_style=style,
                    style_matches=style_matches,
                    aligned=found is not None and nonstrict and iv_refuted,
                )
            )
        conventions.append(CaseConventionRow(case.case_id, case_nonstrict, case_strict))
    return AlignmentTable(
        rows=tuple(rows),
        conventions=tuple(conventions),
        all_aligned=all(r.aligned for r in rows),
    )

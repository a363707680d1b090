"""The theorem5 report as text, JSON and CSV.

``report_to_json`` and ``report_to_csv`` write the files of ``ncpverify
theorem5 --json/--csv`` (keys and columns in docs/formats.md), and
``report_to_text`` what it prints.  Each takes one ``PipelineReport``,
which holds the reference alignment and the condition-III survey too,
reads its records (immutable ``NamedTuple``s) field by field and runs
none of the pipeline's stages.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ncpverify.pipeline import (
        AlignmentTable,
        ClassReport,
        ConditionIIISurvey,
        PipelineReport,
    )

__all__ = ["report_to_json", "report_to_csv", "report_to_text"]


def _class_to_dict(cls: ClassReport) -> dict:
    return {
        "representative": cls.representative,
        "ranks": list(cls.ranks),
        "orbitSize": cls.orbit_size,
        "dualRepresentative": cls.dual_representative,
        # Always true: only condition-I rank sets are scanned (duality keeps
        # consecutive coranks consecutive), and candidates passed II on both sides.
        "condI": True,
        "condII": True,
        "condIIICriterion": cls.cond_iii_criterion,
        "condIIILiteral": cls.cond_iii_literal,
        "dualCondI": True,
        "dualCondII": True,
        "dualCondIIICriterion": cls.dual_cond_iii_criterion,
        "dualCondIIILiteral": cls.dual_cond_iii_literal,
        "condIVSatisfied": cls.iv_satisfied,
        "condIVWitness": cls.iv_witness,
        "condIVChecked": cls.iv_checked,
        "refutedByPatterns": cls.certificate is not None,
        "certificate": cls.certificate._asdict() if cls.certificate else None,
        "matchedCase": cls.matched_case if cls.matched_case is not None else "unmatched",
        "signatureDuplicateOf": cls.signature_duplicate_of,
        "survives": cls.survives,
    }


def _alignment_to_dict(table: AlignmentTable) -> dict:
    return {
        "allAligned": table.all_aligned,
        "rows": [
            {
                "caseId": row.case_id,
                "chain": row.chain,
                "foundInClass": row.found_in_class,
                "hitsReproduced": row.hits_reproduced,
                "strictAlsoReproduces": row.strict_also_reproduces,
                "condIVRefuted": row.iv_refuted,
                "certificateStyle": row.certificate_style,
                "styleMatches": row.style_matches,
                "aligned": row.aligned,
            }
            for row in table.rows
        ],
        "conventions": [
            {
                "caseId": row.case_id,
                "nonstrictReproduces": row.nonstrict_reproduces,
                "strictReproduces": row.strict_reproduces,
            }
            for row in table.conventions
        ],
    }


def _survey_to_dict(survey: ConditionIIISurvey) -> dict:
    return {
        "n": survey.n,
        "chainsChecked": survey.chains_checked,
        "agreements": survey.agreements,
        "criterionOnly": survey.criterion_only,
        "literalOnly": survey.literal_only,
        "criterionCoversLiteral": survey.criterion_covers_literal,
        "criterionOnlyExamples": list(survey.criterion_only_examples),
        "literalOnlyExamples": list(survey.literal_only_examples),
        "disagreeingFixtureChains": list(survey.disagreeing_fixture_chains),
    }


def report_to_json(report: PipelineReport) -> str:
    payload = {
        "n": report.n,
        "verdict": report.verdict,
        "condIRankSets": [list(rs) for rs in report.cond_i_sets],
        "reducedRankSets": [list(rs) for rs in report.reduced_sets],
        "chainsScanned": report.chains_scanned,
        "candidateCount": len(report.candidates),
        "classCount": len(report.classes),
        "classes": [_class_to_dict(cls) for cls in report.classes],
        "condIIIDisagreements": list(report.iii_disagreements),
        "unresolvedClasses": list(report.unresolved),
        "survivors": list(report.survivors),
        "condIIISurvey": _survey_to_dict(report.survey),
    }
    if report.alignment is not None:
        payload["alignment"] = _alignment_to_dict(report.alignment)
    return json.dumps(payload, indent=2) + "\n"


_CSV_COLUMNS = [
    "representative",
    "ranks",
    "orbitSize",
    "dualRepresentative",
    "condI",
    "condII",
    "condIIICriterion",
    "condIIILiteral",
    "dualCondI",
    "dualCondII",
    "dualCondIIICriterion",
    "dualCondIIILiteral",
    "condIVSatisfied",
    "condIVChecked",
    "refutedByPatterns",
    "certificateConflict",
    "matchedCase",
    "signatureDuplicateOf",
    "survives",
]


def report_to_csv(report: PipelineReport) -> str:
    """One row per class: the JSON record's fields, ``ranks`` space-joined
    and the certificate cut to its conflict style (``None`` is written empty)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for cls in report.classes:
        row = _class_to_dict(cls)
        row["ranks"] = " ".join(str(r) for r in cls.ranks)
        row["certificateConflict"] = (
            cls.certificate.steps[-1].get("conflict", "") if cls.certificate is not None else ""
        )
        writer.writerow([row[column] for column in _CSV_COLUMNS])
    return out.getvalue()


def report_to_text(report: PipelineReport) -> str:
    lines = [
        f"universe size: {report.n}",
        f"condition-I rank sets: {len(report.cond_i_sets)}"
        f" (duality-reduced: {len(report.reduced_sets)})",
        "reduced rank sets: "
        + ", ".join("{" + ",".join(map(str, rs)) + "}" for rs in report.reduced_sets),
        f"chains scanned: {report.chains_scanned}",
        f"candidates passing I-III on both sides: {len(report.candidates)}",
        f"orbit classes (duality-reduced): {len(report.classes)}",
        f"condition-III criterion-vs-literal disagreements among scanned chains: "
        f"{len(report.iii_disagreements)}",
    ]
    refuted = sum(1 for cls in report.classes if cls.certificate is not None)
    lines.append(f"classes refuted by pattern certificates: {refuted}")
    lines.append(
        f"classes refuted by exhaustive scan: "
        f"{sum(1 for cls in report.classes if not cls.iv_satisfied)}"
    )
    if report.alignment is not None:
        matched = sum(1 for cls in report.classes if cls.matched_case is not None)
        lines.append(
            f"classes matched to a reference case: {matched}"
            f" (by duplicate F' family: {len(report.classes) - matched - len(report.unresolved)})"
        )
    criterion_gap = [
        cls
        for cls in report.classes
        if not (cls.cond_iii_literal and cls.dual_cond_iii_literal)
    ]
    if criterion_gap:
        lines.append(
            f"classes admitted only by the four-member criterion "
            f"(literal condition III fails): {len(criterion_gap)}"
        )
        for cls in criterion_gap:
            if cls.iv_satisfied:
                lines.append(
                    f"  {cls.representative} EVEN SATISFIES CONDITION IV"
                    f" (witness {cls.iv_witness}) -- the criterion alone"
                    f" cannot replace the literal condition"
                )
    if report.unresolved:
        by_rep = {cls.representative: cls for cls in report.classes}
        literal_unresolved = [
            text
            for text in report.unresolved
            if by_rep[text].cond_iii_literal and by_rep[text].dual_cond_iii_literal
        ]
        if literal_unresolved:
            lines.append(
                "UNRESOLVED CLASSES satisfying literal condition III (the"
                " reference tables appear to be missing these):"
            )
            for text in literal_unresolved:
                lines.append(f"  {text}")
        gap_unresolved = [t for t in report.unresolved if t not in literal_unresolved]
        if gap_unresolved:
            lines.append(
                "unresolved classes admitted only by the criterion (literal"
                " condition III fails, so the reference tables rightly omit"
                " them): " + ", ".join(gap_unresolved)
            )
    if report.survivors:
        lines.append("SURVIVING CLASSES (I, II, literal III and IV on both sides):")
        for text in report.survivors:
            lines.append(f"  {text}")
    table = report.alignment
    if table is not None:
        lines.append(
            f"reference alignment: {sum(1 for r in table.rows if r.aligned)}"
            f"/{len(table.rows)} chains aligned"
        )
        for row in table.rows:
            if not row.aligned:
                lines.append(
                    f"  MISALIGNED case {row.case_id} chain {row.chain}: "
                    f"found={row.found_in_class is not None} "
                    f"hits={row.hits_reproduced} refuted={row.iv_refuted}"
                )
        nonstrict = sum(1 for c in table.conventions if c.nonstrict_reproduces)
        strict = sum(1 for c in table.conventions if c.strict_reproduces)
        cases = len(table.conventions)
        lines.append(
            f"convention report: non-strict reproduces {nonstrict}/{cases} cases, "
            f"strict reproduces {strict}/{cases}"
        )
    survey = report.survey
    lines.append(
        f"condition-III survey over all {survey.chains_checked} chains: "
        f"{survey.agreements} agree, {survey.criterion_only} criterion-only, "
        f"{survey.literal_only} literal-only"
    )
    lines.append(
        "criterion covers literal: "
        + ("yes (union filter = criterion)" if survey.criterion_covers_literal
           else "NO -- literal-only chains exist")
    )
    if survey.disagreeing_fixture_chains:
        lines.append(
            "reference chains where the tests disagree (criterion fires, "
            "literal fails): "
            + ", ".join(survey.disagreeing_fixture_chains)
        )
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"

"""The full verification pipeline, its verdict, and the criterion gap.

Run:  python3 demos/04_run_theorem5.py
"""

from __future__ import annotations

from ncpverify.pipeline import report_to_text, run_theorem5


def main() -> None:
    report = run_theorem5(7)
    print(report_to_text(report))

    print("classes admitted only by the four-member criterion:")
    for c in report.classes:
        literal_both = c.cond_iii_literal and c.dual_cond_iii_literal
        if not literal_both:
            tag = "IV satisfied!" if c.iv_satisfied else "IV refuted"
            print(f"  {c.representative:14s} ({tag})")


if __name__ == "__main__":
    main()

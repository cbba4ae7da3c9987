"""Comparisons of the program's outputs with the oracle's expectations.

Standard library only. Tolerances are declared here, not bitwise: a later
change may reorder floating-point sums, but a planted shift of 1e-6 in one
correlation or one pair score must still be caught.
"""

from __future__ import annotations

CORRELATION_TOL = 1e-9
PAIR_TOL = 1e-9
COEFFICIENTS = ("pearson", "spearman", "kendall")


def check_report(report: dict, expected: dict) -> list[str]:
    """Differences between a ``report.json`` payload and the oracle."""
    want_rows = {(r["metric"], r["judgment"]): r for r in expected["correlations"]}
    n_systems = len(expected["system_ids"])
    problems = []
    seen = set()
    for row in report.get("rows", []):
        key = (row.get("metric"), row.get("judgment"))
        if key in seen or key not in want_rows:
            problems.append(f"unexpected report row {key}")
            continue
        seen.add(key)
        for coef in COEFFICIENTS:
            got, want = row.get(coef), want_rows[key][coef]
            if not (isinstance(got, float) and abs(got - want) <= CORRELATION_TOL):
                problems.append(f"{key} {coef}: report {got!r}, oracle {want!r}")
        if row.get("n") != n_systems:
            problems.append(f"{key} n: report {row.get('n')!r}, oracle {n_systems}")
    for key in sorted(set(want_rows) - seen):
        problems.append(f"report lacks row {key}")
    return problems


def check_pair(soft: float, ref_total: int, cand_total: int, recall: float, want: dict,
               soft_matching: bool) -> list[str]:
    """Pair-level agreement with the oracle, plus two properties of the method:
    a soft match count is never below the exact clipped count of the same
    pair (identical units have cosine 1) and never above
    min(ref_total, cand_total)."""
    problems = []
    if (ref_total, cand_total) != (want["ref_total"], want["cand_total"]):
        problems.append(f"unit totals {(ref_total, cand_total)}, oracle "
                        f"{(want['ref_total'], want['cand_total'])}")
    if not abs(soft - want["soft"]) <= PAIR_TOL * max(1.0, want["soft"]):
        problems.append(f"match count {soft!r}, oracle {want['soft']!r}")
    want_recall = want["soft"] / want["ref_total"] if want["ref_total"] else 0.0
    if not abs(recall - want_recall) <= PAIR_TOL:
        problems.append(f"recall {recall!r}, oracle {want_recall!r}")
    if soft_matching and soft < want["exact"] * (1 - 1e-6):
        problems.append(f"soft match count {soft!r} below the exact count {want['exact']}")
    if soft > min(ref_total, cand_total) + 1e-9:
        problems.append(f"match count {soft!r} above min(ref_total, cand_total)")
    return problems

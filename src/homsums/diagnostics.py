"""Kernel-family sweeps: per-size fourth-cumulant, influence and target-gap
diagnostics rendered as rows for CSV/JSON output."""

from __future__ import annotations

from math import factorial
from typing import Iterable, Sequence

from .classical import classical_fourth_moment_formula, classical_second_moment
from .errors import HomsumError
from .free import free_fourth_moment, free_second_moment
from .kernels import KernelFamily, influence_max
from .laws import ClassicalLaw, FreeLaw
from .reports import DiagnosticsRow


def analyze_family(
    family_id: str,
    d: int,
    n_values: Sequence[int],
    law,
    regime: str,
) -> list[DiagnosticsRow]:
    """One diagnostics row per family size, from the exact closed-form
    engines.  Classical rows carry the fourth cumulant of the sum; free rows
    the ``d!^2``-scaled fourth cumulant.  The gap column is the distance of
    the (scaled) fourth moment from its target (3 classical, 2 free)."""
    family = KernelFamily(family_id, d)
    if regime == "classical":
        if not isinstance(law, ClassicalLaw):
            raise HomsumError("classical sweep needs a ClassicalLaw")
    elif regime == "free":
        if not isinstance(law, FreeLaw):
            raise HomsumError("free sweep needs a FreeLaw")
    else:
        raise HomsumError(f"unknown regime {regime!r}")
    rows = []
    for n in n_values:
        kernel = family.kernel(n)
        infl = influence_max(kernel)
        if regime == "classical":
            e4 = classical_fourth_moment_formula(kernel, law).value
            e2 = classical_second_moment(kernel)
            chi4 = e4 - 3 * e2 * e2
            gap = abs(e4 - 3)
            rows.append(DiagnosticsRow(n, chi4, infl, gap))
        else:
            phi4 = free_fourth_moment(kernel, law).value
            phi2 = free_second_moment(kernel)
            scaled_kappa4 = factorial(d) ** 2 * (phi4 - 2 * phi2 * phi2)
            gap = abs(factorial(d) ** 2 * phi4 - 2)
            rows.append(DiagnosticsRow(n, scaled_kappa4, infl, gap))
    return rows


def sweep_summary(rows: Iterable[DiagnosticsRow]) -> dict:
    """Descriptive convergence flags; no limit claims."""
    rows = list(rows)
    gaps = [r.gap for r in rows]
    decreasing = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    positive = all(r.fourth_cumulant_scaled > 0 for r in rows)
    return {
        "rows": len(rows),
        "gap_strictly_decreasing": decreasing,
        "fourth_cumulant_all_positive": positive,
        "final_gap": float(gaps[-1]) if gaps else None,
    }


def rows_to_csv(rows: Iterable[DiagnosticsRow]) -> str:
    lines = [DiagnosticsRow.CSV_HEADER]
    lines.extend(r.to_csv() for r in rows)
    return "\n".join(lines) + "\n"

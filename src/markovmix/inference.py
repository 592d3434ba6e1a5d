"""Wald tests and estimation-report assembly.

The text layout mirrors the reference output format: one block per
equation with Estimate / Std. Error / t value / Pr(>|t|) columns and
significance stars, followed by the equation's log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)

# star thresholds as used in the displayed tables
_STAR_LEVELS = ((0.001, "***"), (0.05, "**"), (0.1, "*"))
# a 0-d result is a 0-d array; [()] makes it a float64 scalar, as a ufunc gives
_erfc = np.vectorize(math.erfc, otypes=[float])


def norm_cdf(x) -> np.ndarray | float:
    """Standard normal CDF via 0.5 * erfc(-x / sqrt(2)), good to ~1e-15."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2)


def chi2_1_sf(x) -> np.ndarray | float:
    """Upper tail of chi-square with 1 df: 2 * (1 - Phi(sqrt(x)))."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("chi-square statistic must be non-negative")
    return _erfc(np.sqrt(x / 2.0))[()]


def normal_p_value(z) -> np.ndarray | float:
    """Two-sided p-value of a standard normal statistic."""
    return _erfc(np.abs(np.asarray(z, dtype=float)) / _SQRT2)[()]


def significance_stars(p: float) -> str:
    for threshold, stars in _STAR_LEVELS:
        if p <= threshold:
            return stars
    return ""


@dataclass
class WaldResult:
    statistic: float
    df: int
    p_value: float
    null_value: float


def wald_test(estimate: float, std_error: float, null_value: float = 0.0) -> WaldResult:
    """Squared standardized deviation from the null, referred to chi2(1)."""
    if not np.isfinite(std_error) or std_error <= 0:
        raise ValueError(f"standard error must be positive and finite, got {std_error}")
    statistic = float((estimate - null_value) ** 2 / std_error**2)
    return WaldResult(statistic, 1, float(chi2_1_sf(statistic)), null_value)


@dataclass
class EquationReport:
    """Per-parameter rows and the log-likelihood for one equation."""

    estimates: np.ndarray
    std_errors: np.ndarray  # NaN where unavailable (e.g. singular Hessian)
    z_values: np.ndarray
    p_values: np.ndarray
    loglik: float
    row_names: Optional[list[str]] = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.estimates = np.asarray(self.estimates, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        self.z_values = np.asarray(self.z_values, dtype=float)
        self.p_values = np.asarray(self.p_values, dtype=float)


@dataclass
class FitReport:
    equations: list[EquationReport]

    def to_dict(self) -> dict:
        def clean(arr):
            return [None if not np.isfinite(v) else float(v) for v in arr]

        return {
            "equations": [
                {
                    "estimates": [float(v) for v in eq.estimates],
                    "std_errors": clean(eq.std_errors),
                    "z_values": clean(eq.z_values),
                    "p_values": clean(eq.p_values),
                    "loglik": float(eq.loglik),
                    "warnings": list(eq.warnings),
                }
                for eq in self.equations
            ]
        }


def equation_report(
    estimates: np.ndarray,
    std_errors: np.ndarray,
    loglik: float,
    row_names: Optional[list[str]] = None,
    warnings: Optional[list[str]] = None,
) -> EquationReport:
    """Assemble one equation's rows; z and p derive from the inputs.

    Standard errors may contain NaN (unavailable); the matching z and p
    entries become NaN rather than fabricated numbers.
    """
    estimates = np.asarray(estimates, dtype=float)
    std_errors = np.asarray(std_errors, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(std_errors > 0, estimates / std_errors, np.nan)
    p = np.full_like(z, np.nan)
    ok = np.isfinite(z)
    p[ok] = normal_p_value(z[ok])
    return EquationReport(
        estimates=estimates,
        std_errors=std_errors,
        z_values=z,
        p_values=p,
        loglik=loglik,
        row_names=row_names,
        warnings=list(warnings or []),
    )


def format_report(report: FitReport) -> str:
    """Render a FitReport in the fixed text layout.

    Numbers format as 6-decimal estimates and standard errors, 3-decimal
    z and p columns; each column right-justifies under its header, and
    the significance stars come last.
    """
    lines: list[str] = []
    for idx, eq in enumerate(report.equations, start=1):
        lines.append(f"$`Equation {idx}`")
        lines.extend(_format_equation_rows(eq))
        lines.append("")
        lines.append(f"$`LogLik {idx}`")
        ll_str = f"{eq.loglik:.3f}"
        width = max(len(ll_str), len("[,1]"))
        lines.append(" " * len("[1,]") + " " + "[,1]".rjust(width))
        lines.append("[1,] " + ll_str.rjust(width))
        lines.append("")
        for warning in eq.warnings:
            lines.append(f"Warning ({idx}): {warning}")
        if eq.warnings:
            lines.append("")
    return "\n".join(lines)


def _format_equation_rows(eq: EquationReport) -> list[str]:
    names = eq.row_names or [str(i + 1) for i in range(len(eq.estimates))]

    def fmt(value: float, decimals: int) -> str:
        return "NA" if not np.isfinite(value) else f"{value:.{decimals}f}"

    headers = ("Estimate", "Std. Error", "t value", "Pr(>|t|)")
    cols = [
        [fmt(v, 6) for v in eq.estimates],
        [fmt(v, 6) for v in eq.std_errors],
        [fmt(v, 3) for v in eq.z_values],
        [fmt(v, 3) for v in eq.p_values],
    ]
    stars = [significance_stars(p) if np.isfinite(p) else "" for p in eq.p_values]
    widths = [max(len(h), *(len(v) for v in col)) for h, col in zip(headers, cols)]
    name_width = max(len(n) for n in names)

    def row(name: str, cells, star: str) -> str:
        padded = " ".join(cell.rjust(w) for cell, w in zip(cells, widths))
        return f"{name.ljust(name_width)} {padded} {star.ljust(3)}"

    return [row("", headers, "")] + [
        row(name, [col[i] for col in cols], stars[i]) for i, name in enumerate(names)
    ]

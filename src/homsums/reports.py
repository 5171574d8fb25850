"""Result containers: moment reports with method provenance, diagnostics rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

METHODS = ("closed-form", "enumeration", "monte-carlo")


def jsonable(x: Any) -> Any:
    """Fractions render as exact strings, containers recurse."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


@dataclass
class MomentReport:
    """A computed moment/cumulant value plus how it was obtained."""

    value: Fraction | float
    method: str
    detail: dict = field(default_factory=dict)
    order: int = 4
    scaled_value: Fraction | float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    def to_json(self) -> dict:
        out = {
            "value": float(self.value),
            "method": self.method,
            "detail": jsonable(self.detail),
        }
        if isinstance(self.value, Fraction):
            out["value_exact"] = jsonable(self.value)
        if self.scaled_value is not None:
            out["scaled_value"] = float(self.scaled_value)
            if isinstance(self.scaled_value, Fraction):
                out["scaled_value_exact"] = jsonable(self.scaled_value)
        return out


@dataclass(frozen=True)
class DiagnosticsRow:
    """Per-size record of a kernel family sweep."""

    n: int
    fourth_cumulant_scaled: Fraction | float
    influence_max: Fraction | float
    gap: Fraction | float

    CSV_HEADER = "n,fourth_cumulant_scaled,influence_max,gap"

    def to_csv(self) -> str:
        return (
            f"{self.n},{float(self.fourth_cumulant_scaled)!r},"
            f"{float(self.influence_max)!r},{float(self.gap)!r}"
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "fourth_cumulant_scaled": float(self.fourth_cumulant_scaled),
            "influence_max": float(self.influence_max),
            "gap": float(self.gap),
        }

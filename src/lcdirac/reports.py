"""Audit report record and the shared tolerance-budget rule."""
from __future__ import annotations

from typing import Optional

from ._records import fresh, record

# Default of the tolerance-budget factor, the config key constants.C_tol.
C_TOL = 10.0


@record
class AuditReport:
    """Outcome of one numerically verified inequality.

    passed is equivalent to max_violation <= tolerance_budget; witness, when
    present, locates the worst margin as (time, location).
    """

    inequality: str
    passed: bool
    max_violation: float
    tolerance_budget: float
    witness: Optional[tuple] = None
    info: dict = fresh(dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_violation", float(self.max_violation))
        object.__setattr__(self, "tolerance_budget", float(self.tolerance_budget))
        if self.passed != (self.max_violation <= self.tolerance_budget):
            raise ValueError("passed flag inconsistent with measured violation")


def tolerance_budget(dx: float, initial_charge: float, c_tol: float) -> float:
    """Resolution-dependent slack for auditing continuum inequalities.

    Linear in dx: the discrete defect of the second-order scheme integrated
    over O(1) time is O(dx^2) in the interior plus O(dx) from boundary
    quadrature, so a linear budget is safe yet still falsifiable.
    """
    return c_tol * dx * (1.0 + initial_charge)

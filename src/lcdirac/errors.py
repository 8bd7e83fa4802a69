"""Exception types shared across the package."""
from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid grid, datum, constants, or run configuration."""


class UsageError(ValueError):
    """Operation called with incompatible arguments (grid/time mismatch etc.)."""


class ResolutionError(ValueError):
    """A requested scale cannot be resolved on the current lattice."""


class PreconditionError(ValueError):
    """A smallness or coverage hypothesis required by an audit is not met."""


class FrequencyDomainError(ValueError):
    """Standing-wave frequency outside the existence window."""


class BlowUpError(RuntimeError):
    """Solver produced a non-finite value.

    Carries the first offending site and time, whatever snapshots were
    recorded before the failure, and the index of the failed run among
    runs evolved in lockstep (0 for a single run).
    """

    def __init__(self, t: float, site: int, x: float, partial=None, run: int = 0):
        super().__init__(f"non-finite field value at x={x!r} (site {site}) at t={t!r}")
        self.t = t
        self.site = site
        self.x = x
        self.partial = partial if partial is not None else []
        self.run = run

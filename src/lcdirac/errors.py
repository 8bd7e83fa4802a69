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

    Carries the first offending site and time; evolve sets ``partial``
    (whatever snapshots were recorded before the failure) and ``run`` (the
    index of the failed run among runs evolved in lockstep, 0 for a single
    run). A caller that knows what the run is sets ``label`` (e.g. "the
    run mollified at radius 0.2"), which the message then names.
    """

    def __init__(self, t: float, site: int, x: float):
        super().__init__(t, site, x)
        self.t = t
        self.site = site
        self.x = x
        self.partial = []
        self.run = 0
        self.label = None

    def __str__(self):
        where = f"non-finite field value at x={self.x!r} (site {self.site}) at t={self.t!r}"
        return where if self.label is None else f"{where} in {self.label}"

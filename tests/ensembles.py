"""Random smooth data for the test ensembles.

Closed-form random superpositions of complex Gaussian bumps, sampled onto a
grid and scaled to a target charge. The same profile can be sampled at
several resolutions, so refinement studies compare one datum across grids.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from lcdirac.fields import ComponentSpec, GridSpec, InitialDatum


def random_bump_profile(
    rng: np.random.Generator,
    support: tuple[float, float],
    n_bumps: int = 3,
) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form random superposition of complex Gaussian bumps.

    Grid independent, so the same profile can be sampled across refinement
    levels; centers stay inside the support so the data are effectively
    compact.
    """
    lo, hi = support
    pad = 0.15 * (hi - lo)
    terms = [
        (
            rng.normal() + 1j * rng.normal(),
            rng.uniform(lo + pad, hi - pad),
            rng.uniform(0.25, 0.6) * (hi - lo) / 4.0,
        )
        for _ in range(n_bumps)
    ]

    def profile(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=np.complex128)
        for amp, c, w in terms:
            out += amp * np.exp(-(((x - c) / w) ** 2))
        return out

    return profile


def datum_from_profiles(
    pu: Callable[[np.ndarray], np.ndarray],
    pv: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    target_charge: Optional[float] = None,
    reference_n: int = 4096,
) -> InitialDatum:
    """Sample two closed-form profiles onto the grid, optionally rescaled.

    The charge normalization is computed on a fixed fine reference lattice
    so the scale does not change under grid refinement.
    """
    scale = 1.0
    if target_charge is not None:
        ref = GridSpec(grid.x_min, grid.x_max, reference_n, grid.boundary)
        xr = ref.sites()
        total = float(np.sum(np.abs(pu(xr)) ** 2 + np.abs(pv(xr)) ** 2)) * ref.dx
        scale = np.sqrt(target_charge / total) if total > 0 else 0.0
    x = grid.sites()
    return InitialDatum(
        ComponentSpec("sampled", values=pu(x) * scale),
        ComponentSpec("sampled", values=pv(x) * scale),
    )


def random_smooth_datum(
    rng: np.random.Generator,
    grid: GridSpec,
    target_charge: float,
    support: tuple[float, float],
    n_bumps: int = 3,
) -> InitialDatum:
    """Random compact smooth datum with the given charge; ensemble helper."""
    pu = random_bump_profile(rng, support, n_bumps)
    pv = random_bump_profile(rng, support, n_bumps)
    return datum_from_profiles(pu, pv, grid, target_charge, reference_n=grid.n_points)

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lcdirac as lc
from lcdirac import kernels

settings.register_profile(
    "ci",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def gn():
    return lc.GROSS_NEVEU


@pytest.fixture
def gn_constants(gn):
    return lc.derive_constants(gn)


@pytest.fixture
def thirring():
    return lc.THIRRING


def random_field(rng, grid, scale=1.0, t=0.0):
    n = grid.n_points
    u = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    v = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return lc.SpinorField(grid, t, u, v)


@contextlib.contextmanager
def backend(name):
    """Run the block on the named kernel backend."""
    before = kernels.use_backend(name)
    try:
        yield
    finally:
        kernels.use_backend(before)


def naive_q1(fA, fB):
    """The pair's ordered interaction sum without dx^2, by the O(N^2) oracle:
    q(|U|^2, |vA|^2 + |vB|^2) + q(|uA|^2 + |uB|^2, |V|^2)."""
    aU2, aV2 = np.abs(fA.u - fB.u) ** 2, np.abs(fA.v - fB.v) ** 2
    umod, vmod = np.abs(fA.u) ** 2 + np.abs(fB.u) ** 2, np.abs(fA.v) ** 2 + np.abs(fB.v) ** 2
    return kernels.q_upper_naive(aU2, vmod) + kernels.q_upper_naive(umod, aV2)

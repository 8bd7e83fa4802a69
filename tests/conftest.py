import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lcdirac as lc
from lcdirac import kernels, solver

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


def child_env():
    """The environment of a child interpreter that imports lcdirac from this
    tree. PYTHONUNBUFFERED is dropped: an unbuffered stdout would hide a
    stream the process forgot to flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(lc.__file__).parents[1])
    return env


def run_lcdirac(*args, options=(), **kwargs):
    """Run ``python [OPTIONS] -m lcdirac ARGS`` in a child process and return
    its CompletedProcess, both streams captured as text unless kwargs
    redirect them."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *options, "-m", "lcdirac", *map(str, args)], env=child_env(),
                          text=True, timeout=120, **kwargs)


@contextlib.contextmanager
def backend(name):
    """Run the block on the named kernel backend."""
    before = kernels.use_backend(name)
    try:
        yield
    finally:
        kernels.use_backend(before)


# Each swaps one sign of the standing wave in lcdirac.solver for the wrong one:
# the attribute it replaces and a wrapper of the original.
SOLITON_MUTANTS = {
    # u and v swapped, which is the phase mirror g -> -g
    "mirrored_profile": ("_standing_profile", lambda profile: lambda x, m, omega: profile(x, m, omega)[::-1]),
    # the time phase e^{+i omega t} in place of e^{-i omega t}
    "reversed_time_phase": ("_standing_wave", lambda wave: lambda f0, omega, t: wave(f0, -omega, t)),
}


def apply_soliton_mutant(monkeypatch, name):
    attr, wrap = SOLITON_MUTANTS[name]
    monkeypatch.setattr(solver, attr, wrap(getattr(solver, attr)))


def naive_q1(fA, fB):
    """The pair's ordered interaction sum without dx^2, by the O(N^2) oracle:
    q(|U|^2, |vA|^2 + |vB|^2) + q(|uA|^2 + |uB|^2, |V|^2)."""
    aU2, aV2 = np.abs(fA.u - fB.u) ** 2, np.abs(fA.v - fB.v) ** 2
    umod, vmod = np.abs(fA.u) ** 2 + np.abs(fB.u) ** 2, np.abs(fA.v) ** 2 + np.abs(fB.v) ** 2
    return kernels.q_upper_naive(aU2, vmod) + kernels.q_upper_naive(umod, aV2)

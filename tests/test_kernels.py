import ctypes
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
from lcdirac.errors import UsageError
from lcdirac.cli import parse_config, run_command
from lcdirac.kernels import pure

needs_compiled = pytest.mark.skipif(
    "compiled" not in kernels.available_backends(), reason=f"compiled kernels not built ({kernels.backend_reason()})"
)


@pytest.fixture
def arrays(rng):
    n = 257
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = rng.uniform(size=n)
    b = rng.uniform(size=n)
    return u, v, a, b


@pytest.fixture
def backend():
    """Run the test body, then restore the backend selected at import."""
    before = kernels.backend_name()
    yield kernels.use_backend
    kernels.use_backend(before)


@pytest.fixture(scope="module")
def portable_build(tmp_path_factory):
    """The library built with the portable flags, and its reason line."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return kernels.load_compiled(str(tmp_path_factory.mktemp("portable")), fingerprint=None)


def q_brute(a, b):
    total = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            total += a[i] * b[j]
    return total


def test_q_upper_against_brute_force(rng):
    a = rng.uniform(size=40)
    b = rng.uniform(size=40)
    expect = q_brute(a, b)
    assert kernels.q_upper(a, b) == pytest.approx(expect, rel=1e-12)
    assert kernels.q_upper_naive(a, b) == pytest.approx(expect, rel=1e-12)


def test_q_upper_small_sizes():
    assert kernels.q_upper(np.array([1.0]), np.array([2.0])) == 0.0
    assert kernels.q_upper(np.array([2.0, 3.0]), np.array([5.0, 7.0])) == 14.0


def test_fast_matches_naive_within_backend(rng):
    for n in (31, 256, 1024):
        a = rng.uniform(size=n)
        b = rng.uniform(size=n)
        assert kernels.q_upper(a, b) == pytest.approx(kernels.q_upper_naive(a, b), rel=1e-12)


def _datum(kind, n):
    """Zero (signed), rough (negative and imaginary amplitudes) or Gaussian data on [-8, 8).

    A grid has at least two sites, so n = 1 gives the first site of the two-site datum.
    """
    if n == 1:
        u, v, h = _datum(kind, 2)
        return u[:1], v[:1], h
    grid = lc.make_grid(-8.0, 8.0, n)
    if kind == "zero":
        zeros = np.random.default_rng(n).choice([0.0, -0.0], size=(2, 2 * n)).view(np.complex128)
        u0 = lc.ComponentSpec("sampled", values=zeros[0])
        v0 = lc.ComponentSpec("sampled", values=zeros[1])
    elif kind == "rough":
        u0 = lc.ComponentSpec("indicator_jump", -0.3, center=0.2, halfwidth=1.0)
        v0 = lc.ComponentSpec("power_singularity_truncated", 0.2j, center=-0.1, halfwidth=1.5,
                              exponent=0.3, cap=10.0)
    else:
        u0 = lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8)
        v0 = lc.ComponentSpec("gaussian_pulse", 0.03 - 0.04j, center=0.5, width=0.9)
    f = lc.sample_initial(lc.InitialDatum(u0, v0), grid)
    return f.u, f.v, grid.dt


def _bits(a):
    return a.view(np.uint64)


# The C step works in blocks of 256 sites: sizes below, at and around one and
# two blocks, and a partial last block.
STEP_SIZES = (1, 2, 255, 256, 257, 511, 513, 768, 1000, 3072, 4096)


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("params", [(1.0, 0.0, 0.25), (0.5, 1.0, 0.0), (0.0, 0.3, -0.2)])
def test_backends_agree_on_step(backend, periodic, params):
    """Bit for bit, over 100 steps, signed zeros included."""
    m, alpha, beta = params
    for n in STEP_SIZES:
        for kind in ("zero", "rough", "gaussian"):
            u, v, h = _datum(kind, n)
            ends = {}
            for name in ("pure", "compiled"):
                backend(name)
                a, b = u, v
                for _ in range(100):
                    a, b, _ = kernels.step_unforced(a, b, h, m, alpha, beta, periodic)
                ends[name] = a, b
            for got, want in zip(ends["compiled"], ends["pure"]):
                assert np.array_equal(_bits(got), _bits(want)), (n, kind)


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 511, 512, 513, 600, 4096])
def test_backends_agree_on_forced_step(backend, rng, periodic, n):
    """Bit for bit over 20 steps, each with its own four forcing samples.

    The sizes put the last site at, and one either side of, the end of the
    kernel's first and second block of 256 sites, where the stages wrap or
    are handed from one block to the next; 4096 fills 16 blocks. About two
    in five starting values and forcing samples are +0.0 or -0.0.
    """
    def with_zeros(x):
        x[rng.random(x.shape) < 0.25] = 0.0
        x[rng.random(x.shape) < 0.25] = -0.0
        return x.view(np.complex128)

    u, v = with_zeros(rng.normal(size=(2, 2 * n)))
    forcings = [with_zeros(rng.normal(size=(4, 2 * n))) for _ in range(20)]
    ends = {}
    for name in ("pure", "compiled"):
        backend(name)
        a, b = u, v
        for forcing in forcings:
            a, b, _ = kernels.step_unforced(a, b, 0.1, 1.0, 0.5, 0.25, periodic, forcing=forcing)
        ends[name] = a, b
    for got, want in zip(ends["compiled"], ends["pure"]):
        assert np.array_equal(_bits(got), _bits(want))


@needs_compiled
def test_backends_agree_on_signed_zeros(backend):
    """One step on data, forcing and parameters drawn from {+-0, small integers}.

    Here the order and the signs of the step's real operations decide the
    sign of many zeros, so a kernel that regroups a sum or flips a sign
    differs from the other backend.
    """
    rng = np.random.default_rng(11)
    u, v = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0], size=(2, 2 * 20000)).view(np.complex128)
    zeros = rng.choice([0.0, -0.0], size=(4, 2 * 20000)).view(np.complex128)
    choices = (0.0, -0.0, 1.0, -0.5)
    for m, alpha, beta, periodic in itertools.product(choices, choices, choices, (True, False)):
        for forcing in (None, zeros):
            ends = {}
            for name in ("pure", "compiled"):
                backend(name)
                ends[name] = kernels.step_unforced(u, v, 0.5, m, alpha, beta, periodic, forcing=forcing)
            assert ends["compiled"][2] == ends["pure"][2]
            for got, want in zip(ends["compiled"][:2], ends["pure"][:2]):
                assert np.array_equal(_bits(got), _bits(want)), (m, alpha, beta, periodic, forcing is None)


@needs_compiled
def test_backends_agree_where_products_underflow(backend):
    """One step on parts drawn from {+-0, 1e-160, -3e-170, 2e-155, -1e-162,
    1, -0.5}, whose products underflow to signed zeros: bit for bit,
    verdict included, on both boundaries, forced and unforced.

    A kernel built on NumPy's complex multiply, which on FMA hardware may
    fuse a product that underflows with the next term, differs here.
    """
    rng = np.random.default_rng(31)
    parts = [0.0, -0.0, 1e-160, -3e-170, 2e-155, -1e-162, 1.0, -0.5]
    u, v, *forcing = rng.choice(parts, size=(6, 2 * 4096)).view(np.complex128)
    params = ((1.0, 0.5, 0.25), (-0.7, 1.0, -0.3), (0.0, -1.0, 1.0))
    for (m, alpha, beta), periodic, f in itertools.product(params, (True, False), (None, forcing)):
        ends = {}
        for name in ("pure", "compiled"):
            backend(name)
            ends[name] = kernels.step_unforced(u, v, 1e-3, m, alpha, beta, periodic, forcing=f)
        assert ends["compiled"][2] == ends["pure"][2]
        for got, want in zip(ends["compiled"][:2], ends["pure"][:2]):
            assert np.array_equal(_bits(got), _bits(want)), (m, alpha, beta, periodic, f is None)


@needs_compiled
def test_backends_agree_on_q(arrays, backend):
    _, _, a, b = arrays
    vals = {}
    for name in ("pure", "compiled"):
        backend(name)
        vals[name] = (kernels.q_upper(a, b), kernels.q_upper_naive(a, b))
    assert vals["compiled"] == vals["pure"]  # q_upper is NumPy for every backend


@needs_compiled
@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_step_tiny_lattices(arrays, backend, n):
    u, v, _, _ = arrays
    backend("compiled")
    for periodic in (True, False):
        got = kernels.step_unforced(u[:n], v[:n], 0.1, 1.0, 1.0, 0.25, periodic)
        want = pure.step_unforced(u[:n], v[:n], 0.1, 1.0, 1.0, 0.25, periodic)
        assert got[2] == want[2] == -1
        assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got[:2], want[:2]))


@needs_compiled
def test_compiled_step_coerces_and_checks_inputs(arrays, backend):
    u, v, _, _ = arrays
    backend("compiled")
    strided = np.repeat(u, 2)[::2]  # not contiguous
    got = kernels.step_unforced(strided, list(v), 0.1, 1.0, 0.0, 0.25, True)
    want = pure.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True)
    assert got[2] == want[2] == -1
    assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got[:2], want[:2]))
    with pytest.raises(ValueError, match="equal length"):
        kernels.step_unforced(u, v[:-1], 0.1, 1.0, 0.0, 0.25, True)
    with pytest.raises(ValueError, match="equal length"):
        kernels.step_unforced(u.reshape(1, 1, -1), v.reshape(1, 1, -1), 0.1, 1.0, 0.0, 0.25, True)
    with pytest.raises(ValueError, match="equal length"):
        kernels.step_unforced(u.reshape(1, -1), v, 0.1, 1.0, 0.0, 0.25, True)

    forcing = [u[::-1], v[::-1], 2 * u, list(v)]
    got = kernels.step_unforced(strided, v, 0.1, 1.0, 0.0, 0.25, True,
                                forcing=[np.repeat(f, 2)[::2] for f in forcing])
    want = pure.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=[np.asarray(f) for f in forcing])
    assert got[2] == want[2] == -1
    assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got[:2], want[:2]))
    with pytest.raises(ValueError, match="4 arrays"):
        kernels.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=forcing[:3])
    with pytest.raises(ValueError, match="shaped like u"):
        kernels.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=forcing[:3] + [v[:-1]])


# The batched step: the sizes around the ends of the C step's first and
# second 256-site block, and 16 blocks.
BATCH_SIZES = (255, 256, 257, 511, 512, 513, 4096)


def _batch(rng, n, kind, runs=3):
    """(u, v) of shape (runs, n): dense random rows ("dense"), or rows zero
    but for a pulse of 40 sites at a different place in each, the extent
    a pool finds for it ("compact")."""
    u, v = _cplx(rng, (runs, n), 0.3), _cplx(rng, (runs, n), 0.3)
    if kind == "compact":
        for r in range(runs):
            keep = slice((r * n) // runs, (r * n) // runs + 40)
            for a in (u, v):
                pulse = a[r, keep].copy()
                a[r] = 0.0
                a[r, keep] = pulse
    return u, v


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("periodic", [True, False])
def test_batched_step_equals_single_run_steps(rng, backend, name, periodic):
    """One call on R runs gives the bits and the verdict of R single-run
    calls, over 3 steps, for fresh arrays and for a pool's generations, on
    dense and compactly supported rows and with forcing, which one set of
    samples gives every row."""
    backend(name)
    for n, kind in itertools.product(BATCH_SIZES, ("dense", "compact", "forced")):
        u, v = _batch(rng, n, "dense" if kind == "forced" else kind)
        forcing = [_cplx(rng, n, 0.1) for _ in range(4)] if kind == "forced" else None
        args = (0.1, 1.0, 0.5, 0.25, periodic)
        want = []
        for a, b in zip(u, v):
            for _ in range(3):
                a, b, bad = kernels.step_unforced(a, b, *args, forcing=forcing)
                assert bad == -1
            want.append((a, b))
        a, b = u, v
        for _ in range(3):
            a, b, bad = kernels.step_unforced(a, b, *args, forcing=forcing)
            assert bad == -1 and a.shape == b.shape == (3, n)
        with kernels.LevelPool(3, n) as pool:
            pool.load(zip(u, v))
            for k in range(1, 4):
                x, y, bad = kernels.step_unforced(pool.u[1 - k % 2], pool.v[1 - k % 2], *args, forcing=forcing,
                                                  out=pool)
                assert bad == -1 and x is pool.u[k % 2] and y is pool.v[k % 2]
            pooled = pool.rows[1]
        for r, (x, y) in enumerate(want):
            _assert_bits_equal([a[r], b[r]], [x, y], n, kind, r)
            _assert_bits_equal(pooled[r], [x, y], n, kind, r, "pool")


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("periodic", [True, False])
def test_batched_verdict_names_the_first_bad_run(rng, backend, name, periodic):
    """A non-finite value in run j > 0 gives the verdict j n + site, where
    site is the single-run verdict of that run; the rows before it are the
    single-run levels, and of two bad runs the first is named, also
    between a pool's generations, whichever way the rows are stepped. Run 0
    is all +0.0, so on compiled its pool extent is empty."""
    backend(name)
    args = (0.1, 1.0, 0.5, 0.25, periodic)
    for n in (257, 1100):
        u, v = _batch(rng, n, "dense", runs=4)
        u[0] = v[0] = 0.0
        for j, site in ((1, 0), (2, 255), (3, n - 1), (2, 700 % n)):
            a, b = u.copy(), v.copy()
            a[j, site] = complex(np.nan, 0.0)
            b[3, 5] = np.inf  # a later bad run
            single = [kernels.step_unforced(a[r], b[r], *args) for r in range(j + 1)]
            assert [s[2] for s in single[:j]] == [-1] * j and single[j][2] >= 0
            x, y, bad = kernels.step_unforced(a, b, *args)
            assert bad == j * n + single[j][2], (n, j, site)
            for r in range(j + 1):
                _assert_bits_equal([x[r], y[r]], single[r][:2], n, j, r)
            with kernels.LevelPool(4, n) as pool:
                for g in (0, 1):  # generation 1 lies before generation 0: stepped last to first
                    pool.load(zip(a, b), g)
                    x, y, bad = kernels.step_unforced(pool.u[g], pool.v[g], *args, out=pool)
                    assert bad == j * n + single[j][2], (n, j, site, g)
                    for r in range(j + 1):
                        _assert_bits_equal([x[r], y[r]], single[r][:2], n, j, r, g)


# Leaves of NumPy's pairwise sum hold at most 128 terms: lengths below one
# leaf, at its edges, just past a split into blocks of 8, and larger sums.
LEAF_LENGTHS = (2, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 4096, 4097)


def _leaf_fields(rng, n):
    """A complex field whose 128-site leaves are each all +0.0, dense, dense
    with -0.0, NaN and infinite parts, or all -0.0."""
    z = _cplx(rng, n)
    parts = z.view(np.float64).reshape(n, 2)
    for lo in range(0, n, 128):
        leaf = parts[lo:lo + 128]
        kind = rng.choice(["zero", "zero", "dense", "corners", "minus"])
        if kind == "zero":
            leaf[:] = 0.0
        elif kind == "minus":
            leaf[:] = -0.0
        elif kind == "corners":
            flat = leaf.reshape(-1)
            count = min(flat.size, 3)
            flat[rng.choice(flat.size, size=count, replace=False)] = rng.choice(
                [-0.0, np.nan, np.inf, -np.inf], size=count)
    return z


@pytest.mark.parametrize("name", kernels.available_backends())
def test_fused_distance_sums_are_add_reduce_of_the_terms(rng, backend, name):
    """Each pair's two sums, taken in one call for every pair of a level,
    equal np.add.reduce of pure's term arrays bit for bit (a NaN matching
    any NaN), at every leaf edge, on levels mixing zero, dense, -0.0 and
    NaN or infinite leaves, also where a pair's run A is the run B of the
    pair before it, whose product the C pass forms once."""
    backend(name)
    # chains whose run B is the next pair's run A, as converge's are, also into and out of a self pair
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (2, 2), (3, 3), (3, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in LEAF_LENGTHS:
            for _ in range(3):
                runs = [(_leaf_fields(rng, n), _leaf_fields(rng, n)) for _ in range(4)]
                want = []
                for i, j in pairs:
                    l1, p1 = pure.distance_terms(runs[i], runs[j])
                    want.append([np.add.reduce(l1), np.add.reduce(p1)])
                _assert_sums_equal(_distance_sums(runs, name, pairs), want, n)


VERDICT_N = 1100  # four 256-site blocks of the C step and a partial fifth
VERDICT_SITES = (0, 255, 256, 257, 700, VERDICT_N - 1)
# Forcing that overflows exactly one part of u_new (F1 at the half step)
# or v_new (F2 at the half step) at its site, when m = alpha = beta = 0 and
# h = 4: the update adds h i f, so h * 1e308 overflows in one part only.
ONE_PART = {"u.real": (2, -1e308j), "u.imag": (2, 1e308), "v.real": (3, -1e308j), "v.imag": (3, 1e308)}


def _first_nonfinite(u, v):
    """The first site where a part of u or v is not finite, or -1."""
    bad = np.flatnonzero(~np.isfinite(np.stack([u.real, u.imag, v.real, v.imag])).all(axis=0))
    return int(bad[0]) if bad.size else -1


def _verdict_cases():
    """(u, v, h, (m, alpha, beta), periodic, forcing, site, part) of steps
    whose output first goes non-finite at site, with only part bad there;
    site and part None where the test reads the site from the output."""
    rng = np.random.default_rng(18)
    n = VERDICT_N
    cases = []
    for periodic in (True, False):
        u, v = _cplx(rng, n, 0.3), _cplx(rng, n, 0.3)
        cases.append((u, v, 0.1, (1.0, 0.5, 0.25), periodic, None, -1, None))
        cases.append((u, v, 0.1, (1.0, 0.5, 0.25), periodic, [_cplx(rng, n, 0.3) for _ in range(4)], -1, None))
        # a NaN, infinite or overflowing input spoils both parts near its site, and later ones
        for value, comp, site in itertools.product((np.nan, np.inf, -np.inf, 1e200), "uv", VERDICT_SITES):
            a, b = u.copy(), v.copy()
            (a if comp == "u" else b).real[site] = value
            (b if comp == "u" else a).imag[min(site + 300, n - 1)] = value
            cases.append((a, b, 0.1, (1.0, 0.5, 0.25), periodic, None, None, None))
            f = [np.zeros(n, complex) for _ in range(4)]
            f[0 if comp == "u" else 1][site] = value
            cases.append((u, v, 0.1, (1.0, 0.5, 0.25), periodic, f, None, None))
        for (part, (k, value)), site in itertools.product(ONE_PART.items(), VERDICT_SITES):
            f = [np.zeros(n, complex) for _ in range(4)]
            f[k][site] = value
            if site + 256 < n:
                f[5 - k][site + 256] = np.nan  # a later bad site, in the other component
            cases.append((u, v, 4.0, (0.0, 0.0, 0.0), periodic, f, site, part))
    return cases


@pytest.mark.parametrize("build", ["compiled", "pure", "portable"])
def test_step_verdict_is_the_first_nonfinite_site(build, backend, request, monkeypatch):
    """The step's verdict is the first site where a part of u_new or v_new
    is not finite, and -1 on finite output, at block edges and in later
    blocks, for each part, periodic and zero inflow, forced and unforced."""
    if build != "pure":
        if "compiled" not in kernels.available_backends():
            pytest.skip(f"compiled kernels not built ({kernels.backend_reason()})")
        if build == "portable":
            lib, reason = request.getfixturevalue("portable_build")
            assert lib is not None, reason
            monkeypatch.setattr(kernels, "_lib", lib)
    backend("pure" if build == "pure" else "compiled")
    read_sites = set()
    for u, v, h, (m, alpha, beta), periodic, forcing, site, part in _verdict_cases():
        u_new, v_new, bad = kernels.step_unforced(u, v, h, m, alpha, beta, periodic, forcing=forcing)
        assert bad == _first_nonfinite(u_new, v_new), (periodic, forcing is None, site, part)
        if site is None:
            read_sites.add(bad)
            continue
        assert bad == site, (periodic, part)
        if part is not None:
            parts = {"u.real": u_new.real, "u.imag": u_new.imag, "v.real": v_new.real, "v.imag": v_new.imag}
            assert [name for name, a in parts.items() if not np.isfinite(a[site])] == [part]
    assert read_sites >= set(VERDICT_SITES)


# A LevelPool's compiled step reads and writes only each row's extent, the
# interval of sites outside which every bit is +0.0, widened by one site per
# side (the whole row once it reaches either end of a periodic grid); its distance sums skip the 128-site leaves no extent of a pair
# meets. pure steps and sums every site, so it is the oracle for both.
EXTENT_SIZES = (255, 256, 257, 511, 512, 513, 768, 4096)
EXTENT_PARAMS = ((-1.0, 1.0, 0.25), (1.0, -0.5, 0.0), (0.5, 0.3, -0.2), (-0.7, -1.0, -0.3))
PARTS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (u or v, real or imaginary part)


def _mixed_blocks(rng, n):
    """u and v whose 256-site blocks are each all +0.0, all -0.0, +0.0 with
    one -0.0 part, +0.0 with one tiny part, a random mix of signed zeros, or
    dense; the +0.0 kind is drawn most often, so neighbours share it and
    the extents hold interior zero gaps."""
    uv = np.zeros((2, 2 * n))
    for lo in range(0, n, 256):
        part = uv[:, 2 * lo : 2 * min(lo + 256, n)]
        kind = rng.choice(["plus", "plus", "plus", "minus", "one -0", "one tiny", "signed", "dense"])
        if kind == "minus":
            part[:] = -0.0
        elif kind in ("one -0", "one tiny"):
            part[rng.integers(2), rng.integers(part.shape[1])] = -0.0 if kind == "one -0" else 1e-3
        elif kind == "signed":
            part[:] = rng.choice([0.0, -0.0], size=part.shape)
        elif kind == "dense":
            part[:] = 0.3 * rng.normal(size=part.shape)
    return uv.view(np.complex128)


def _edge_levels(n, periodic):
    """All-+0.0 levels with one part nonzero or -0.0 at one site, a one-site
    extent, next to every 256-site block edge and at both ends of the grid."""
    for edge in range(0, n + 1, 256):
        for site in (edge - 1, edge):
            if not periodic and not 0 <= site < n:
                continue
            for (comp, im), value in itertools.product(PARTS, (0.5, -0.0)):
                uv = np.zeros((2, 2 * n))
                uv[comp, 2 * (site % n) + im] = value
                yield (site % n, comp, im, value), uv.view(np.complex128)


def _pooled(name, u, v, params, periodic, steps, h=None, pairs=None, tamper=None):
    """Each level of `steps` unforced steps of the rows of u and v in one
    LevelPool on backend name, as evolve steps them, and the distance sums
    of pairs (consecutive runs by default) on each level's pool rows:
    [(level bits, sums, verdict), ...], up to the first bad verdict. tamper,
    if given, is called with the pool once the rows are loaded."""
    runs, n = u.shape
    pairs = [(r, r + 1) for r in range(runs - 1)] if pairs is None else pairs
    sums = kernels.DistanceSums(n, pairs) if pairs else None
    out = []
    with kernels.LevelPool(runs, n) as pool:
        kernels.use_backend(name)
        pool.load(zip(u, v))
        if tamper is not None:
            tamper(pool)
        for k in range(1, steps + 1):
            new = k % 2
            x, y, bad = kernels.step_unforced(pool.u[1 - new], pool.v[1 - new], 16.0 / n if h is None else h,
                                              *params, periodic, out=pool)
            level = np.stack([x, y]).view(np.uint64).copy()
            if bad >= 0:
                out.append((level, None, bad))
                break
            out.append((level, kernels.distance_sums(sums, pool.rows[new]) if pairs else None, bad))
    return out


def _pooled_both(u, v, params, periodic, steps=1, **kw):
    """_pooled on compiled (or the portable build in its place) and on pure."""
    got = _pooled("compiled", u, v, params, periodic, steps, **kw)
    return got, _pooled("pure", u, v, params, periodic, steps, **kw)


def _assert_pooled_equal(got, want, *context):
    assert len(got) == len(want), context
    for k, ((level, sums, bad), (level0, sums0, bad0)) in enumerate(zip(got, want)):
        assert bad == bad0, (k, *context)
        if bad < 0:  # a bad row may be followed by rows left unwritten
            assert np.array_equal(level, level0), (k, *context)
        assert sums == sums0 or np.array_equal(np.array(sums).view(np.uint64), np.array(sums0).view(np.uint64)), \
            (k, *context)


def _use_build(build, backend, request, monkeypatch):
    if "compiled" not in kernels.available_backends():
        pytest.skip(f"compiled kernels not built ({kernels.backend_reason()})")
    backend("compiled")  # restored after the test
    if build == "portable":
        lib, reason = request.getfixturevalue("portable_build")
        assert lib is not None, reason
        monkeypatch.setattr(kernels, "_lib", lib)


@pytest.mark.parametrize("build", ["compiled", "portable"])
@pytest.mark.parametrize("periodic", [True, False])
def test_zero_windows_match_pure(build, backend, request, monkeypatch, periodic):
    """A pool's extents against pure, bit for bit, sums and verdicts too:
    over 5 steps of runs whose 256-site blocks mix all-+0.0 windows, -0.0,
    signed-zero, tiny and dense blocks, so their extents hold interior zero
    gaps and differ from run to run; and over one step of all-+0.0 levels
    with one nonzero or -0.0 part next to a block edge or at either end of
    the grid, a one-site extent; with a negative m, alpha or beta, where
    the stages of zero data are -0.0 in some part."""
    _use_build(build, backend, request, monkeypatch)
    rng = np.random.default_rng(30)
    for n, params in itertools.product(EXTENT_SIZES, EXTENT_PARAMS):
        u, v = np.stack([_mixed_blocks(rng, n) for _ in range(3)], axis=1)
        _assert_pooled_equal(*_pooled_both(u, v, params, periodic, steps=5), n, params)
        for case, (u, v) in _edge_levels(n, periodic):
            _assert_pooled_equal(*_pooled_both(u[None], v[None], params, periodic, pairs=[]),
                                 n, params, case)


def _supports(rng, n):
    """(u, v) of 6 runs, each zero but for an arc of random data: one wraps
    past the last site to the first, one meets site 0, one the last site,
    one is all +0.0, and the widths range from 1 site to most of the grid,
    so a slot's older level often reaches past the new one; -0.0 parts and
    subnormal values lie at the arcs' ends."""
    arcs = [(n - 7, 20), (0, 30), (n - 25, 25), (0, 0), (n // 3, 1), (n // 5, 3 * n // 5)]
    u, v = np.zeros((2, len(arcs), n), complex)
    for r, (first, count) in enumerate(arcs):
        sites = (first + np.arange(count)) % n
        u[r, sites], v[r, sites] = _cplx(rng, count, 0.3), _cplx(rng, count, 0.3)
        if count > 2:
            u[r, sites[0]] = complex(-0.0, 0.0)
            v[r, sites[-1]] = complex(0.0, 5e-324)
            u[r, sites[-2]] = complex(1e-310, -0.0)
    return u, v


@pytest.mark.parametrize("build", ["compiled", "portable"])
@pytest.mark.parametrize("periodic", [True, False])
def test_extents_through_evolve_match_pure(build, backend, request, monkeypatch, periodic):
    """evolve's levels, as its observers see them, and the distance sums of
    every consecutive pair on their pool rows, bit for bit against pure, on
    runs whose supports wrap the grid, meet an edge, hold -0.0 and
    subnormal parts at their ends and differ between runs, over enough
    steps that the widest extent covers the grid; and the blow-up of a NaN
    inside a support that wraps the grid, at each end and in the middle of
    the arc, names the same run, site and time."""
    _use_build(build, backend, request, monkeypatch)
    rng = np.random.default_rng(36)
    p = lc.ModelParams(1.0, 1.0, 0.25)
    for n in (300, 517):
        grid = lc.make_grid(-8.0, 8.0, n, "periodic" if periodic else "zero_inflow")
        u, v = _supports(rng, n)
        pairs = [(r, r + 1) for r in range(len(u) - 1)]
        got = {}
        for name in ("compiled", "pure"):
            kernels.use_backend(name)
            sums, levels = kernels.DistanceSums(n, pairs), []

            def keep(lv):
                levels.append((np.stack([[f.u, f.v] for f in lv]).view(np.uint64).copy(),
                               kernels.distance_sums(sums, [(f.u, f.v) for f in lv])))

            lc.evolve([lc.SpinorField(grid, 0.0, a, b) for a, b in zip(u, v)], p, lc.SolverConfig(),
                      n // 2 * grid.dt, observers=[keep])
            got[name] = levels
        assert len(got["compiled"]) == len(got["pure"]) == n // 2 + 1
        for k, ((level, sums), (level0, sums0)) in enumerate(zip(got["compiled"], got["pure"])):
            assert np.array_equal(level, level0) and sums == sums0, (n, k)
        for site in (n - 7, n - 1, 0, 12):  # the arc of run 0 runs from site n - 7 to site 12
            a = u.copy()
            a[0, site] = complex(0.0, np.nan)
            verdicts = set()
            for name in ("compiled", "pure"):
                kernels.use_backend(name)
                runs = [lc.SpinorField._evolved(grid, 0.0, x, y) for x, y in zip(a[::-1], v[::-1])]
                with pytest.raises(lc.BlowUpError) as err:
                    lc.evolve(runs, p, lc.SolverConfig(), 4 * grid.dt, observers=[lambda lv: None])
                verdicts.add((err.value.run, err.value.site, err.value.t))
            assert len(verdicts) == 1 and verdicts.pop()[0] == len(u) - 1, (n, site)


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
def test_extent_one_site_short_differs_from_pure(backend, periodic):
    """An extent shrunk by one site in the pool's extents array, at either
    end: compiled no longer steps the level's edge site, so its level, or
    its distance sums where the edge site is alone in its 128-site leaf,
    differ from pure's. Unshrunk, they agree."""
    rng = np.random.default_rng(1)
    n = 512
    u, v = np.zeros((2, 3, n), complex)
    u[:, 100:129], v[:, 100:129] = _cplx(rng, (3, 29), 0.3), _cplx(rng, (3, 29), 0.3)  # site 128 opens a leaf
    args = (u, v, (1.0, 1.0, 0.25), periodic)
    want = _pooled("pure", *args, 3)
    _assert_pooled_equal(_pooled("compiled", *args, 3), want, "unshrunk")
    for shrink in ((1, 0), (0, -1)):  # the extent's first site dropped, or its last
        def short(pool):
            assert pool.extents[2].tolist() == [100, 129]  # generation 0 holds run 1 in slot 2
            pool.extents[2] += shrink

        level, sums, bad = _pooled("compiled", *args, 1, tamper=short)[0]
        assert bad == want[0][2] == -1
        assert not np.array_equal(level, want[0][0]), shrink
    u[:], v[:] = 0.0, 0.0
    u[1, 128] = v[1, 128] = 0.5  # run 1's extent is site 128 alone, the first of the leaf [128, 256)
    with kernels.LevelPool(3, n) as pool:
        pool.load(zip(u, v))
        sums = kernels.DistanceSums(n, [(0, 1), (1, 2)])
        want = kernels.distance_sums(sums, pool.rows[0])
        assert pool.extents[2].tolist() == [128, 129] and min(want) > 0
        pool.extents[2] = 128, 128
        assert kernels.distance_sums(sums, pool.rows[0]) == [0.0] * 4


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
def test_verdict_after_a_zero_block_names_its_site(backend, periodic):
    """A NaN in u.real at site 296 of an otherwise all-+0.0 pool row, a
    one-site extent: site 295 is the first bad one (vn_295 reads the stage
    of site 296), and the sites before it are finite."""
    u, v = np.zeros((2, 1, 1024), complex)
    u.real[0, 296] = np.nan
    for name in ("compiled", "pure"):
        (level, _, bad), = _pooled(name, u, v, (-1.0, -0.5, -0.25), periodic, 1, h=0.1, pairs=[])
        u_new, v_new = level.view(np.complex128)[:, 0]
        assert bad == 295 == _first_nonfinite(u_new, v_new), name
        assert np.isfinite(v_new[:295]).all() and np.isnan(v_new.real[295])


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
def test_verdict_of_a_zero_block_is_checked(backend, periodic):
    """An all-+0.0 pool row, an empty extent, stepped with h = inf: inf * 0
    makes every site NaN, so a zero site does not stay +0.0, the row is
    stepped whole, and the verdict is site 0."""
    u, v = np.zeros((2, 1, 1024), complex)
    for name in ("compiled", "pure"):
        (level, _, bad), = _pooled(name, u, v, (1.0, 1.0, 0.25), periodic, 1, h=np.inf, pairs=[])
        u_new, v_new = level.view(np.complex128)[:, 0]
        assert bad == 0 == _first_nonfinite(u_new, v_new), name
        assert np.isnan(u_new.real).all() and np.isnan(v_new.real).all()


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
def test_pure_step_into_a_pool_marks_its_slots_whole(backend, monkeypatch, periodic):
    """pure's step into a pool scans nothing: it sets the extents of the
    slots it writes to the whole row, so a compiled step after it, and the
    distance sums on its rows, give pure's bits."""
    rng = np.random.default_rng(5)
    n = 300
    u, v = np.zeros((2, 3, n), complex)
    u[:, 140:160], v[:, 140:160] = _cplx(rng, (3, 20), 0.3), _cplx(rng, (3, 20), 0.3)
    args = (16.0 / n, 1.0, 1.0, 0.25, periodic)
    want = _pooled("pure", u, v, args[1:4], periodic, 2)
    sums = kernels.DistanceSums(n, [(0, 1), (1, 2)])
    with kernels.LevelPool(3, n) as pool:
        pool.load(zip(u, v))
        assert pool.extents[1:].tolist() == [[140, 160]] * 3
        backend("pure")
        with monkeypatch.context() as m:
            m.setattr(kernels, "_extent", None)  # a scan would raise
            kernels.step_unforced(pool.u[0], pool.v[0], *args, out=pool)
        assert pool.extents[:3].tolist() == [[0, n]] * 3  # generation 1: slots 0 to 2
        backend("compiled")
        assert kernels.distance_sums(sums, pool.rows[1]) == want[0][1]
        x, y, bad = kernels.step_unforced(pool.u[1], pool.v[1], *args, out=pool)
        assert bad == -1 and np.array_equal(np.stack([x, y]).view(np.uint64), want[1][0])


ROW_PARTS = ("sums", "margins", "sites", "edges")


def _terms_on(name, n, runs, i0, i1, kshift=0, E=None, origin=None, m=1.0, C0=0.3, dx=0.05, edges=None):
    """Every part of kernels.LevelTerms.row after one level_terms call on backend name."""
    before = kernels.use_backend(name)
    try:
        growth = {} if origin is None else {"origin": origin, "m": m, "C0": C0}
        terms = kernels.LevelTerms(n, len(runs), dx, edges=edges, **growth)
        kernels.level_terms(terms, runs, i0, i1, kshift, E)
    finally:
        kernels.use_backend(before)
    return {part: getattr(terms, part).copy() for part in ROW_PARTS}


def _assert_terms_agree(runs, i0, i1, kshift=0, E=None, origin=None, **kw):
    n = runs[0][0].shape[0]
    got = _terms_on("compiled", n, runs, i0, i1, kshift, E, origin, **kw)
    want = _terms_on("pure", n, runs, i0, i1, kshift, E, origin, **kw)
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name].view(np.uint64), want[name].view(np.uint64)), (name, i0, i1, kshift)
    return got


def _cplx(rng, n, scale=1.0):
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


@needs_compiled
@pytest.mark.parametrize("runs", [1, 2])
def test_backends_agree_on_level_terms(rng, runs):
    """Bit for bit on random levels and sections, with and without margins."""
    n = 300
    origin = (_cplx(rng, n), _cplx(rng, n))
    for _ in range(40):
        fields = [(_cplx(rng, n), _cplx(rng, n)) for _ in range(runs)]
        kshift = int(rng.integers(0, 40))
        i0 = int(rng.integers(kshift, 150))
        i1 = int(rng.integers(i0, n - kshift + 1))
        got = _assert_terms_agree(fields, i0, i1)
        if runs == 2:  # run B is read over the section only
            blind = [fields[0], tuple(a.copy() for a in fields[1])]
            for a in blind[1]:
                a[np.r_[0:i0, i1:n]] = np.nan
            _assert_bits_equal(list(_assert_terms_agree(blind, i0, i1).values()), list(got.values()))
        E = float(rng.uniform(0.5, 3.0))
        _assert_terms_agree(fields, i0, i1, kshift, E, origin, edges=(kshift + 3, n - kshift - 4))


@needs_compiled
def test_backends_agree_on_level_terms_of_a_gain_mutant(rng):
    """A level that grew by 1 % along each characteristic beats its bounds,
    pointwise and over windows: both witnesses are positive."""
    n, kshift, E = 256, 20, 1.0
    u0, v0 = _cplx(rng, n), _cplx(rng, n)
    u = np.zeros(n, complex)
    u[kshift:] = 1.01 * u0[: n - kshift]
    v = np.zeros(n, complex)
    v[: n - kshift] = v0[kshift:]
    for runs in ([(u, v)], [(u, v), (u0, v0)]):
        got = _assert_terms_agree(runs, kshift, n - kshift, kshift, E, (u0, v0), m=0.0)
        assert got["margins"][0] > 0 and got["margins"][2] > 0
        assert got["sites"][2] >= kshift


@needs_compiled
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e154, 1.5e154])
def test_backends_agree_on_level_terms_with_extreme_values(rng, bad):
    n, kshift = 64, 3
    origin = (_cplx(rng, n), _cplx(rng, n))
    for where in (0, 3, 31, 60, 63):
        for part in (1.0, 1j):
            fields = [(_cplx(rng, n), _cplx(rng, n)), (_cplx(rng, n), _cplx(rng, n))]
            fields[where % 2][where % 3 % 2][where] = bad * part
            for runs in (fields[:1], fields):
                _assert_terms_agree(runs, kshift, n - kshift, kshift, 2.0, origin)
                _assert_terms_agree(runs, 10, 40)


@needs_compiled
def test_backends_agree_on_level_terms_of_small_and_odd_sections(rng):
    """Sections of 0 to 3 sites, and of 2^k - 1, 2^k and 2^k + 1 sites, whose
    windows end at or just before the section's end; the feet of the first
    and last window on the grid's first and last site."""
    n = 160
    origin = (_cplx(rng, n), _cplx(rng, n))
    fields = [(_cplx(rng, n), _cplx(rng, n)), (_cplx(rng, n), _cplx(rng, n))]
    lengths = [0, 1, 2, 3] + [2**k + d for k in range(2, 8) for d in (-1, 0, 1)]
    for length in lengths:
        for kshift in (0, 5):
            for i0 in (kshift, n - kshift - length):  # the section at either end of the grid
                got = _assert_terms_agree(fields, i0, i0 + length, kshift, 1.5, origin, edges=(0, n - 1))
                has_window = length >= 2
                assert (got["sites"][2] >= 0) == has_window and (got["sites"][0] >= 0) == (length > 0)


@needs_compiled
def test_backends_agree_on_every_level_of_an_audit_cone_run():
    """Every row of an AuditPass over runs A and B at the audit_cone
    workload's size (N = 3072, 257 levels, all five evolved audits), the
    t = 0 level included: sums, margins, sites and edge densities, compiled
    against pure, bit for bit. Here m C0 dominates the window slack, so the
    compiled pass skips every width from 4 or 8 up."""
    grid = lc.make_grid(-6.0, 6.0, 3072, "zero_inflow")
    datum = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8),
                            lc.ComponentSpec("gaussian_pulse", 0.055, center=0.5, width=0.9))
    f0 = lc.sample_initial(datum, grid)
    levels = []
    lc.evolve([f0, lc.SpinorField(grid, 0.0, f0.u * (1.0 + 1e-3), f0.v)], lc.GROSS_NEVEU, lc.SolverConfig(), 1.0,
              observers=[lambda lv: levels.append(tuple(lc.SpinorField(f.grid, f.t, f.u.copy(), f.v.copy())
                                                        for f in lv))])
    rows = {}
    for name in ("compiled", "pure"):
        before = kernels.use_backend(name)
        try:
            audits = lc.functionals.AuditPass(("charge", "triangle", "pointwise", "bony", "gronwall"),
                                              lc.TriangleDomain(-4.0, 4.0), lc.derive_constants(lc.GROSS_NEVEU),
                                              lc.GROSS_NEVEU, T=1.0, tau=1.0, C0=lc.charge(f0) + 1.0)
            for level in levels:
                audits(level)
        finally:
            kernels.use_backend(before)
        rows[name] = np.array([[t, *row] for t, row in audits.rows])
    assert len(rows["pure"]) == 257 and np.isfinite(rows["pure"]).all()
    _assert_bits_equal([rows["compiled"]], [rows["pure"]])


def _grown(rng, n, kshift, gain_u, gain_v, scale=1.0):
    """A level, and its level at t = 0, whose |u|^2 and |v|^2 are their feet's
    times gain_u and gain_v (u carried right and v left by kshift sites)."""
    u0, v0 = _cplx(rng, n, scale), _cplx(rng, n, scale)
    u, v = np.zeros(n, complex), np.zeros(n, complex)
    u[kshift:] = np.sqrt(gain_u) * u0[: n - kshift]
    v[: n - kshift] = np.sqrt(gain_v) * v0[kshift:]
    return [(u, v)], (u0, v0)


@needs_compiled
@pytest.mark.parametrize("gains", [(1.5, 1.0), (1e-6, 1.5)])
def test_window_margin_where_a_wide_window_wins(rng, gains):
    """A level that grew beyond E along either characteristic, with a small
    slack: the widest windows gain most, so no width can be skipped and
    the window margin is found at the widest width, on both backends, bit
    for bit; with v the one that grew, a bound taken from the smaller of the
    two densities' totals would skip the winner."""
    n, kshift, dx, m, C0 = 300, 10, 0.05, 1e-3, 0.5
    runs, origin = _grown(rng, n, kshift, *gains)
    (u, v), (u0, v0) = runs[0], origin
    starts = np.arange(kshift, n - kshift - 1)  # the width-2 windows, near enough
    for E in (1.0, 1.2):
        got = _assert_terms_agree(runs, kshift, n - kshift, kshift, E, origin, m=m, C0=C0, dx=dx)
        pair = [(abs(a[starts]) ** 2 + abs(a[starts + 1]) ** 2
                 - E * (abs(a0[starts + d]) ** 2 + abs(a0[starts + d + 1]) ** 2)) * dx
                for a, a0, d in ((u, u0, -kshift), (v, v0, kshift))]
        narrow = np.maximum(*pair).max() - E * m * C0 * 2 * dx
        assert got["margins"][2] > 2 * max(narrow, 0.0) > 0


@needs_compiled
def test_window_margins_with_a_negative_growth_factor(rng):
    """With E < 0 a window's margin exceeds its sum at t: the bound that
    skips widths does not hold, and every width is taken, on both backends.
    A nearly zero level on a large origin makes the widest window win."""
    n, kshift = 200, 4
    runs, origin = _grown(rng, n, kshift, 1e-6, 1e-6, scale=3.0)
    for E in (-1.0, -0.5, -0.0, 0.0):
        got = _assert_terms_agree(runs, kshift, n - kshift, kshift, E, origin, m=1.0, C0=0.5)
        if E < 0:
            assert got["margins"][2] > 0


@needs_compiled
@pytest.mark.parametrize("where", ["level", "origin"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e154, 1e300])
def test_window_margins_with_nonfinite_values_and_an_overflowing_E(rng, where, bad):
    """NaN, infinities and overflowing squares in the level or at t = 0, at
    the section's first, middle and last sites, and growth factors that
    overflow (E, or E m C0, or the slack of a wide window, infinite): the
    margins and sites of both backends agree bit for bit."""
    n, kshift = 96, 5
    for site in (kshift, n // 2, n - kshift - 1, n - kshift - 2):
        (level,), origin = _grown(rng, n, kshift, 1.2, 0.9)
        runs, origin = [list(level)], list(origin)
        (runs[0] if where == "level" else origin)[site % 2][site] = bad
        for E, m, C0 in ((1.3, 1.0, 0.5), (np.inf, 1.0, 0.5), (np.inf, 0.0, 0.5), (1e300, 1e10, 1.0),
                         (2.0, 1e300, 1e300), (1.0, 1e306, 1.0)):
            _assert_terms_agree(runs, kshift, n - kshift, kshift, E, origin, m=m, C0=C0,
                                edges=(kshift, n - kshift - 1))


@pytest.mark.parametrize("name", kernels.available_backends())
def test_window_margin_tied_between_widths(name):
    """A width-2 window and the width-4 window over it tie (dx = E = 1,
    m C0 = 1/8: 1 - 2/8 = 1.25 - 4/8), and no window does better: the
    margin is the tie and its site the first width-2 window's, [9, 11),
    before the width-4 window [10, 14); the width-4 bound equals the best,
    so that width may be skipped."""
    n, i0, i1 = 40, 4, 36
    u = np.zeros(n, complex)
    u[10], u[12] = 1.0, 0.5
    zero = np.zeros(n, complex)
    got = _terms_on(name, n, [(u, zero)], i0, i1, 0, 1.0, (zero, zero), m=0.5, C0=0.25, dx=1.0)
    assert (got["margins"][2], got["sites"][2]) == (0.75, 9.0)


CHUNK = 16  # the pointwise candidates _level.c's growth_margins tests against the best at once


def _chunk_cases(length):
    """(name, candidates) for a section of length sites: the pointwise
    candidates a margin is picked from, with NaN, tied and -inf ones at the
    chunk edges and in later chunks than the best before them."""
    edges = sorted({0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, length - 1} & set(range(length)))
    base = -((1.0 + np.arange(length) / 64) ** 2)  # falling, and exact squares: the first site is the best
    cases = [("falling", base), ("all -inf", np.full(length, -np.inf)), ("all tied", np.full(length, -0.25))]
    for p in edges:
        for kind, value in (("nan", np.nan), ("-inf", -np.inf), ("best", 1.0)):
            x = base.copy()
            x[p] = value
            cases.append((f"{kind} at {p}", x))
        for q in edges:
            if q > p:  # a tie, a larger value and a NaN after the best, each in a later chunk or the same
                for kind, value in (("tie", 1.0), ("larger", 4.0), ("nan", np.nan)):
                    x = base.copy()
                    x[p], x[q] = 1.0, value
                    cases.append((f"best at {p}, {kind} at {q}", x))
                x = base.copy()
                x[p], x[q] = np.nan, 4.0  # a NaN first stays the pick
                cases.append((f"nan at {p}, larger at {q}", x))
    return cases


def _with_candidates(xu, xv, i0, n, kshift):
    """Levels, and their levels at t = 0, whose pointwise candidates (E = 1,
    m = 0) over the section from i0 are xu and xv: a candidate |u|^2 - |u0|^2
    at a foot is x, x >= 0 as |u|^2, x < 0 as -|u0|^2 (-inf an infinite u0,
    NaN a NaN u)."""
    u, v, u0, v0 = (np.zeros(n, complex) for _ in range(4))
    for x, a, a0, foot in ((xu, u, u0, -kshift), (xv, v, v0, kshift)):
        for j, value in enumerate(x):
            if value >= 0 or value != value:
                a[i0 + j] = np.sqrt(value)
            else:
                a0[i0 + j + foot] = np.sqrt(-value)
    return [(u, v)], (u0, v0)


@needs_compiled
def test_backends_agree_on_pointwise_picks_at_chunk_edges():
    """The pointwise margins and their sites, compiled against pure, bit for
    bit, for sections of 1, 2, CHUNK - 1, CHUNK, CHUNK + 1 and 2 CHUNK + 1
    sites, with NaN, tied and -inf candidates at the edges of the chunks
    the C pass tests at once, and in a later chunk than the best so far;
    each pick is np.argmax's: the first NaN, else the first largest."""
    for length in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
        for kshift in (0, 3):
            i0 = kshift + 2
            n = i0 + length + kshift + 2
            cases = _chunk_cases(length)
            for (name_u, xu), (name_v, xv) in zip(cases, cases[1:] + cases[:1]):
                runs, origin = _with_candidates(xu, xv, i0, n, kshift)
                got = _assert_terms_agree(runs, i0, i0 + length, kshift, 1.0, origin, m=0.0)
                for k, x in ((0, xu), (1, xv)):
                    j = int(np.argmax(x))
                    assert got["sites"][k] == i0 + j, (length, kshift, name_u, name_v, k)
                    assert got["margins"][k] == x[j] or x[j] != x[j], (length, kshift, name_u, name_v, k)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_level_terms_refuse_feet_off_the_grid(rng, name):
    n = 64
    origin = (_cplx(rng, n), _cplx(rng, n))
    fields = [(_cplx(rng, n), _cplx(rng, n))]
    _terms_on(name, n, fields, 5, n - 5, 5, 1.0, origin)  # the feet on the first and last site
    for i0, i1 in ((4, 30), (30, n - 4)):
        with pytest.raises(UsageError, match="leaves the grid"):
            _terms_on(name, n, fields, i0, i1, 5, 1.0, origin)
    _terms_on(name, n, fields, 4, n - 4, 5)  # no margins: the feet are not read
    with pytest.raises(UsageError, match="sites"):
        _terms_on(name, n + 1, fields, 4, n - 4)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_window_witness_is_the_first_dyadic_window_in_width_order(name):
    """Run A's |u|^2 is 1 on a block of sites and 0 elsewhere, the level at
    t = 0 is zero and m = 0, so a window's margin is dx times its overlap
    with the block. The witness must be the first window of largest overlap
    when every dyadic window of the section is listed width-major: widths 2,
    4, ... up to the section, then by start, stride half a width."""
    i0, pad = 7, 7
    for n_sec in (300, 299, 256, 255, 128, 97, 64, 5, 4, 3, 2, 1, 0, 301):
        windows = [(i0 + r, w) for w in (2, 4, 8, 16, 32, 64, 128, 256) if w <= n_sec
                   for r in range(0, n_sec - w + 1, w // 2)]
        n = n_sec + i0 + pad
        zero = np.zeros(n, complex)
        for lo, length in ((i0, 1), (i0 + 1, 2), (i0 + 3, 3), (i0 + 60, 5), (i0 + 100, 40), (i0, n_sec),
                           (i0 + n_sec - 3, 3), (i0 + n_sec // 2, n_sec - n_sec // 2)):
            u = zero.copy()
            u[lo : lo + length] = 1.0
            got = _terms_on(name, n, [(u, zero)], i0, i0 + n_sec, 0, 1.0, (zero, zero), m=0.0, dx=1.0)
            if not windows:
                assert (got["margins"][2], got["sites"][2]) == (-np.inf, -1)
                continue
            overlap = [max(0, min(s + w, lo + length) - max(s, lo)) for s, w in windows]
            first = overlap.index(max(overlap))
            assert (got["margins"][2], got["sites"][2]) == (max(overlap), windows[first][0]), (n_sec, lo, length)


# Corner values: NaN, infinities, values whose products overflow, and values
# near 1e-300 whose products underflow.
CORNERS = (np.nan, np.inf, -np.inf, 1e154, -1.5e154, 1e-300, -3e-300, 5e-324, -0.0)


def _cornered(rng, n, count=3):
    """A random complex field with count corner values among its real and imaginary parts."""
    z = _cplx(rng, n)
    parts = z.view(np.float64)
    parts[rng.choice(2 * n, size=min(count, 2 * n), replace=False)] = rng.choice(CORNERS, size=min(count, 2 * n))
    return z


def _distance_sums(runs, name="compiled", pairs=((0, 1),)):
    """The sums of one kernels.distance_sums call on backend name, as an
    (npairs, 2) array: per pair, the sums of l1 and of p1."""
    sums = kernels.DistanceSums(runs[0][0].shape[0], pairs)
    before = kernels.use_backend(name)
    try:
        got = kernels.distance_sums(sums, runs)
    finally:
        kernels.use_backend(before)
    _assert_bits_equal([np.array(got)], [sums.sums.ravel()])
    return sums.sums.copy()


def _real_distance_sums(runs):
    """The sums of l1 and p1 of runs A and B in NumPy real arithmetic: each
    part of a complex product rounded after each multiply and each sum,
    the whole term arrays summed by np.add.reduce."""
    (uA, vA), (uB, vB) = runs

    def mul(a, b):
        return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real

    with np.errstate(over="ignore", invalid="ignore"):
        U, V = uA - uB, vA - vB
        (ar, ai), (br, bi) = mul(uA, vA), mul(uB, vB)
        l1, p1 = (U.real**2 + U.imag**2) + (V.real**2 + V.imag**2), (ar - br) ** 2 + (ai - bi) ** 2
        return np.array([[np.add.reduce(l1), np.add.reduce(p1)]])


def _distance_cases(rng):
    """Random pairs at N = 2, 3 and 4096, pairs with corner values, and
    pairs whose products overflow."""
    cases = []
    for n in (2, 3, 4096):
        cases.append([(_cplx(rng, n), _cplx(rng, n)) for _ in range(2)])
        for _ in range(20):
            cases.append([(_cornered(rng, n, 1 + n // 1000), _cornered(rng, n, 1)) for _ in range(2)])
        cases.append([(_cplx(rng, n, 1e154), _cplx(rng, n, 1e154)) for _ in range(2)])
    return cases


@pytest.mark.parametrize("name", kernels.available_backends())
def test_pool_buffers_give_the_bits_of_fresh_arrays(rng, backend, name):
    """Stepping a pool generation into the other, and the level terms and
    distance sums of pool rows, equal the same calls on fresh arrays, bit
    for bit; every view is read-only, each row C-contiguous, and bound only
    while the pool is open."""
    backend(name)
    n = 97
    u, v, ub, vb = (_cplx(rng, n, 0.3) for _ in range(4))
    with kernels.LevelPool(2, n) as pool:
        (b, c), _ = pool.rows
        views = [*pool.u, *pool.v, *(x for gen in pool.rows for run in gen for x in run)]
        assert all(not x.flags.writeable for x in views)
        assert all(x.flags.c_contiguous for gen in pool.rows for run in gen for x in run)
        for periodic in (True, False):
            pool.load([(u, v), (ub, vb)])
            want = [kernels.step_unforced(x, y, 0.1, 1.0, 0.5, 0.25, periodic) for x, y in ((u, v), (ub, vb))]
            got = kernels.step_unforced(pool.u[0], pool.v[0], 0.1, 1.0, 0.5, 0.25, periodic, out=pool)
            assert got[0] is pool.u[1] and got[1] is pool.v[1] and got[2] == -1
            for (x, y), w in zip(pool.rows[1], want):
                _assert_bits_equal([x, y], w[:2], periodic)
        pool.load([(u, v), (ub, vb)])
        terms, fresh = (kernels.LevelTerms(n, 2, 0.1, (u, v), 1.0, 0.5, edges=(5, 90)) for _ in range(2))
        kernels.level_terms(terms, [b, c], 10, 80, 3, 1.5)
        kernels.level_terms(fresh, [(u, v), (ub, vb)], 10, 80, 3, 1.5)
        _assert_bits_equal([terms.row], [fresh.row])
        _assert_bits_equal([_distance_sums([b, c], name)], [_distance_sums([(u, v), (ub, vb)], name)])
    assert not any(id(x) in kernels._BOUND for x in views)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_step_refuses_an_out_that_is_not_a_free_pool_pair(rng, backend, name):
    """A pool steps only its own generations, and only while open: fresh
    arrays, another pool's generation, u and v of different generations and
    a 2-d view the pool did not make are refused, as are fields of another
    size in level_terms and distance_sums."""
    backend(name)
    n = 16
    u, v = _cplx(rng, n), _cplx(rng, n)
    with kernels.LevelPool(2, n) as pool, kernels.LevelPool(2, n) as twin, kernels.LevelPool(2, n + 1) as other:
        for p in (pool, twin):
            p.load([(u, v), (u, v)])
        b, wide = pool.rows[0][0], other.rows[1][0]
        for x, y in ((np.stack([u, u]), np.stack([v, v])),  # fresh arrays
                     (twin.u[0], twin.v[0]),  # a generation of another pool
                     (pool.u[0], pool.v[1]), (pool.u[1], pool.v[0]),  # u of one generation, v of the other
                     (pool.blocks[1:, 0], pool.v[0])):  # a 2-d view the pool did not make
            with pytest.raises(ValueError):
                kernels.step_unforced(x, y, 0.1, 1.0, 0.5, 0.25, True, out=pool)
        with pytest.raises(UsageError):
            kernels.distance_sums(kernels.DistanceSums(n, [(0, 1)]), [b, wide])
        with pytest.raises(UsageError):
            kernels.level_terms(kernels.LevelTerms(n + 1, 1, 0.1), [b], 0, 4, 0, None)
    with pytest.raises(ValueError):  # closed: steps nothing
        kernels.step_unforced(pool.u[0], pool.v[0], 0.1, 1.0, 0.5, 0.25, True, out=pool)


def _assert_bits_equal(got, want, *context):
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), context


@needs_compiled
def test_backends_agree_on_distance_terms(rng):
    """The compiled and pure backends give the same sums, bit for bit, for
    one pair and for several pairs of one level in one call."""
    for runs in _distance_cases(rng):
        _assert_bits_equal([_distance_sums(runs)], [_distance_sums(runs, "pure")], runs[0][0].shape)
    for n in (3, 300):
        runs = [(_cornered(rng, n), _cplx(rng, n)) for _ in range(4)]
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (0, 3)]
        _assert_bits_equal([_distance_sums(runs, "compiled", pairs)], [_distance_sums(runs, "pure", pairs)], n)


def test_unfused_distance_terms_match_real_arithmetic(rng):
    """Each backend's sums equal those of the real-arithmetic reference bit
    for bit: every complex product is formed from four real products and
    two sums, none fused, and each sum is np.add.reduce's of the terms."""
    for runs in _distance_cases(rng):
        want = _real_distance_sums(runs)
        for name in kernels.available_backends():
            _assert_bits_equal([_distance_sums(runs, name)], [want], name, runs[0][0].shape)


def _distance_digests():
    """{backend: CRC-32 of its distance sums over _distance_cases at seed 5}."""
    cases = _distance_cases(np.random.default_rng(5))
    return {name: zlib.crc32(b"".join(_distance_sums(runs, name).tobytes() for runs in cases))
            for name in kernels.available_backends()}


def test_distance_terms_ignore_numpy_dispatch():
    """With NumPy's dispatched SIMD loops off (its complex product then
    rounds differently on FMA hardware), both backends give the same bits."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__

    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_kernels as t\n"
            "print(repr(t._distance_digests()))\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               PYTHONPATH=str(Path(kernels.__file__).parents[2]))
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(_distance_digests())


def test_distance_terms_refuse_other_shapes(rng, monkeypatch):
    """On either backend, a field of another size, or too few runs for the
    pairs, is refused before the pass runs; the sums the pass writes are a
    C-contiguous (npairs, 2) float64 array, and the C pass gets the address
    of each run's fields in order, with a NULL extent for each fresh field."""
    calls = []
    monkeypatch.setattr(kernels, "_lib", type("Lib", (), {"lcd_distance_sums": lambda *a: calls.append(a)}))
    monkeypatch.setattr(kernels.pure, "distance_sums", lambda *a: calls.append(a))
    n = 8
    run = (_cplx(rng, n), _cplx(rng, n))
    sums = kernels.DistanceSums(n, [(0, 1), (1, 0), (1, 1)])
    out = sums.sums
    assert out.dtype == np.float64 and out.shape == (3, 2) and out.flags.c_contiguous
    assert sums._addresses == (sums._rows.ctypes.data, sums._extents.ctypes.data, sums.pairs.ctypes.data, 3, n,
                               out.ctypes.data, sums._partial.ctypes.data)
    assert sums._partial.shape == (64, 3, 2)  # every pair's two partial sums at each depth of the split
    for name in ("compiled", "pure"):
        monkeypatch.setattr(kernels, "_active", name)
        calls.clear()
        kernels.distance_sums(sums, [run, run[::-1]])
        assert len(calls) == 1, name
        if name == "compiled":
            assert sums._rows.tolist() == [a.ctypes.data for a in (*run, *run[::-1])]
            assert sums._extents.tolist() == [0] * 4
        for other in ((_cplx(rng, n + 1), run[1]), (run[0], _cplx(rng, n - 1)), (run[0][:, None], run[1])):
            with pytest.raises(UsageError, match="sites"):
                kernels.distance_sums(sums, [run, other])
            with pytest.raises(UsageError, match="sites"):
                kernels.distance_sums(sums, [other, run])
        with pytest.raises(ValueError, match="runs"):
            kernels.distance_sums(sums, [run])
        assert len(calls) == 1, name


# The lengths at which NumPy's pairwise sum changes shape: every length to
# past two blocks of 128, and across the splits of larger arrays.
SUM_LENGTHS = (*range(301), 3071, 3072, 4096, 8193)


def _numpy_terms(runs, i0, i1):
    """The elementwise terms of one level, formed here with NumPy from the
    fields as kernels.LevelTerms names them: run A's densities over the
    grid ("grid"), and over the section [i0, i1) each run r's densities,
    products and suffix-scan products ("dens0", "prod0", "q0", ...) and the
    pair's terms ("l1", "d1", "q1u", "q1v")."""
    sec = slice(i0, i1)

    def square(z):
        return z.real**2 + z.imag**2

    def suffix(b):  # sum_{j > i} b_j, from the right as np.cumsum scans
        out = np.zeros(len(b))
        out[:-1] = np.cumsum(b[::-1])[::-1][1:]
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        terms = {"grid": square(runs[0][0]) + square(runs[0][1])}
        au, av = [], []
        for r, (u, v) in enumerate(runs):
            a, b = square(u[sec]), square(v[sec])
            au.append(a)
            av.append(b)
            terms.update({f"dens{r}": a + b, f"prod{r}": a * b, f"q{r}": a * suffix(b)})
        if len(runs) == 2:
            (uA, vA), (uB, vB) = runs
            U, V = square(uA[sec] - uB[sec]), square(vA[sec] - vB[sec])
            umod, vmod = au[0] + au[1], av[0] + av[1]
            terms.update(l1=U + V, d1=U * vmod + umod * V, q1u=U * suffix(vmod), q1v=umod * suffix(V))
    return terms


def _numpy_sums(runs, i0, i1):
    """What LevelTerms.sums must hold, from np.add.reduce of the terms
    _numpy_terms forms: 0.0 for the suffix-scan products below two sites."""
    t = _numpy_terms(runs, i0, i1)

    def upper(a):
        return np.add.reduce(a) if len(a) >= 2 else 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        want = [np.add.reduce(t["grid"])]
        for r in range(len(runs)):
            want += [np.add.reduce(t[f"dens{r}"]), np.add.reduce(t[f"prod{r}"]), upper(t[f"q{r}"])]
        if len(runs) == 2:
            want += [np.add.reduce(t["l1"]), np.add.reduce(t["d1"]), upper(t["q1u"]), upper(t["q1v"])]
    return np.array(want)


def _assert_sums_equal(got, want, *context):
    """Bit for bit, but that a NaN matches any NaN: IEEE 754 leaves the sign
    and payload of a NaN result open (where two NaNs meet, they follow the
    operand order a compiler picks), and no artifact prints them."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (context, got, want)


def _summed_fields(rng, n, kind):
    """A complex field of n sites whose squares span 1e-8 to 1e8 ("mixed"),
    the same with corner values among them ("corners": NaN, infinities,
    overflowing squares), or negative zeros throughout ("zeros")."""
    if kind == "zeros":
        return np.full(n, complex(-0.0, -0.0))
    z = 10.0 ** rng.uniform(-4, 4, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "corners" and n:
        parts = z.view(np.float64)
        count = 1 + n // 50
        parts[rng.choice(2 * n, size=count, replace=False)] = rng.choice(CORNERS, size=count)
    return z


@pytest.mark.parametrize("name", kernels.available_backends())
def test_sums_are_numpys_add_reduce_bit_for_bit(rng, backend, name):
    """Every sum level_terms and distance_sums return equals np.add.reduce
    of the terms formed with NumPy from the fields (_numpy_terms, and
    pure.distance_terms), bit for bit, at every length where NumPy's
    pairwise order changes shape; if a NumPy release changes that order,
    this fails rather than an artifact's digits moving."""
    backend(name)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in SUM_LENGTHS:
            for kind in ("mixed", "corners", "zeros"):
                runs = [tuple(_summed_fields(rng, n, kind) for _ in "uv") for _ in range(2)]
                terms = kernels.LevelTerms(n, 2, 1.0)
                sums = kernels.level_terms(terms, runs, 0, n, 0, None)
                _assert_bits_equal([np.array(sums)], [terms.sums])
                _assert_sums_equal(terms.sums, _numpy_sums(runs, 0, n), n, kind)
                l1, p1 = pure.distance_terms(*runs)
                _assert_sums_equal(_distance_sums(runs, name), [[np.add.reduce(l1), np.add.reduce(p1)]], n, kind)


@needs_compiled
def test_c_sum_is_numpys_add_reduce_on_any_doubles(rng):
    """_level.c's sum, on values no term takes as well: negatives, -inf, a
    sum of +inf and -inf, and negative zeros throughout, which NumPy sums to
    +0.0 from its identity."""
    fn = kernels._lib.lcd_add_reduce
    fn.argtypes, fn.restype = [ctypes.c_void_p, ctypes.c_ssize_t], ctypes.c_double
    for n in SUM_LENGTHS:
        mixed = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
        special = mixed.copy()
        special[rng.choice(n, size=min(n, 1 + n // 50), replace=False)] = rng.choice(
            [np.inf, -np.inf, np.nan, -0.0, 1e308], size=min(n, 1 + n // 50))
        for values in (mixed, special, np.full(n, -0.0), np.full(n, 1e308)):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.reduce(values)
            _assert_sums_equal(fn(values.ctypes.data, n), want, n)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_sums_of_short_and_empty_sections(rng, backend, name):
    """Sections of 0 to 129 sites: each sum is np.add.reduce's and both
    backends agree bit for bit; an infinite density on a one-site section
    gives Q0 = Q1 = 0.0 (the sum of its one term, inf * 0.0, would be NaN);
    an empty section, as at and past the cone's apex, sums to rows of
    (0, 0, 0), whatever an earlier level left in the buffers."""
    from lcdirac.functionals import _cone_row

    backend(name)
    n, i0, dx = 140, 4, 0.05
    runs = [(_cplx(rng, n), _cplx(rng, n)) for _ in range(2)]
    terms = kernels.LevelTerms(n, 2, dx)
    for length in (0, 1, 2, 7, 8, 9, 127, 128, 129):
        sums = kernels.level_terms(terms, runs, i0, i0 + length, 0, None)
        _assert_bits_equal([terms.sums], [_numpy_sums(runs, i0, i0 + length)], length)
        if "compiled" in kernels.available_backends():
            want = _terms_on("pure" if name == "compiled" else "compiled", n, runs, i0, i0 + length, dx=dx)
            _assert_bits_equal([terms.sums], [want["sums"]], length)
        if length == 0:
            rows = [_cone_row(sums, dx), _cone_row(sums, dx, run=1), _cone_row(sums, dx, pair=True)]
            assert rows == [(0.0, 0.0, 0.0)] * 3
    infinite = [(runs[0][0].copy(), runs[0][1]), (runs[1][0], runs[1][1].copy())]
    infinite[0][0][i0] = infinite[1][1][i0] = np.inf  # |u|^2 of A and |v|^2 of B
    sums = kernels.level_terms(terms, infinite, i0, i0 + 1, 0, None)
    one = _numpy_terms(infinite, i0, i0 + 1)
    assert np.isnan(one["q0"][0]) and np.isnan(one["q1u"][0])
    L0, D0, Q0 = _cone_row(sums, dx)
    L1, D1, Q1 = _cone_row(sums, dx, pair=True)
    assert L0 == D0 == L1 == D1 == np.inf and Q0 == 0.0 and Q1 == 0.0
    for i1 in (i0, i0 - 1):  # no section: nothing to sum, only run A's grid
        sums = kernels.level_terms(terms, runs, i0, i1, 0, None)
        assert sums[1:] == [0.0] * 10


ARTIFACT_DOCS = {
    "simulate": {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
        "time": {"T": 1.0, "record_every": 3},
        "init": {"u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "center": -0.5, "width": 0.8},
                 "v0": {"kind": "gaussian_pulse", "amplitude": [0.03, -0.04], "center": 0.5, "width": 0.9}},
        "command": "simulate",
    },
    "audit": {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
        "time": {"T": 1.0},
        "init": {"u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "width": 0.8},
                 "v0": {"kind": "gaussian_pulse", "amplitude": 0.055, "width": 0.9}},
        "domain": {"a": -4.0, "b": 4.0},
        "audit": {"samples": 2000},
        "command": "audit",
    },
    "converge": {
        "model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 512, "boundary": "periodic"},
        "time": {"T": 0.25},
        "init": {"u0": {"kind": "indicator_jump", "amplitude": -0.3, "halfwidth": 1.0},
                 "v0": {"kind": "power_singularity_truncated", "amplitude": [0.0, 0.2], "halfwidth": 1.5,
                        "exponent": 0.3, "cap": 10.0}},
        "mollify": {"epsilons": [0.4, 0.2, 0.1]},
        "command": "converge",
    },
}


@needs_compiled
@pytest.mark.parametrize("command", sorted(ARTIFACT_DOCS))
def test_artifacts_identical_across_backends(tmp_path, backend, command):
    outputs = {}
    for name in ("pure", "compiled"):
        backend(name)
        doc = dict(ARTIFACT_DOCS[command], output={"path": str(tmp_path / name / "run")})
        assert run_command(parse_config(json.dumps(doc))) == 0
        files = sorted((tmp_path / name).iterdir())
        outputs[name] = {p.name: p.read_bytes() for p in files}
    assert outputs["compiled"] == outputs["pure"]
    assert outputs["pure"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiler_present_means_compiled():
    # Guards tier-1 against silently running on the pure backend only.
    assert kernels.backend_name() == "compiled", kernels.backend_reason()
    assert kernels.backend_reason().startswith("compiled: _step.")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_step_source_compiles_without_warnings(tmp_path):
    # The cached build keeps cc's warnings in captured stderr; here they fail.
    assert [Path(s).name for s in kernels.SOURCES] == ["_step.c", "_format.c", "_level.c"]
    # on Linux, link with every symbol resolved: the library needs libc, nothing more
    defs = ["-Wl,-z,defs"] if sys.platform.startswith("linux") else []
    for flags in (kernels.CFLAGS, kernels.PORTABLE_CFLAGS):
        cmd = ["cc", "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", *flags, *defs,
               "-o", str(tmp_path / "_step.so"), *kernels.SOURCES]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (flags, done.stderr)
        assert done.stderr == ""


def test_editing_either_source_changes_the_key(tmp_path):
    copies = [tmp_path / Path(s).name for s in kernels.SOURCES]
    for source, copy in zip(kernels.SOURCES, copies):
        shutil.copyfile(source, copy)
    key = kernels.library_key(copies)
    assert key == kernels.library_key()
    seen = {key}
    for copy in copies:
        with open(copy, "a") as fh:
            fh.write("/* edited */\n")
        seen.add(kernels.library_key(copies))
    assert len(seen) == len(copies) + 1
    fingerprints = {kernels.CPU, None, 0, 1}  # another CPU, or none, gets another library
    assert len({kernels.library_key(copies, fingerprint=fp) for fp in fingerprints}) == len(fingerprints)
    portable = kernels.library_key(copies, flags=kernels.PORTABLE_CFLAGS)
    assert portable not in seen
    assert kernels.library_key(copies, flags=kernels.PORTABLE_CFLAGS + ("-DEDITED",)) != portable


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_editing_the_portable_flags_rebuilds(tmp_path, monkeypatch):
    """A portable library cached under other portable flags is not loaded."""
    first, reason = kernels.load_compiled(str(tmp_path), fingerprint=None)
    assert first is not None, reason
    monkeypatch.setattr(kernels, "PORTABLE_CFLAGS", kernels.PORTABLE_CFLAGS + ("-DEDITED",))
    second, reason = kernels.load_compiled(str(tmp_path), fingerprint=None)
    assert second is not None, reason
    assert Path(second._name).name != Path(first._name).name
    assert [p.name for p in tmp_path.iterdir()] == [Path(second._name).name]


def test_cpu_fingerprint_reads_the_first_flags_line(tmp_path):
    info = tmp_path / "cpuinfo"
    info.write_bytes(b"processor\t: 0\nflags\t\t: fpu sse2 avx2\n\nprocessor\t: 1\nflags\t\t: fpu\n")
    assert kernels.cpu_fingerprint(str(info)) == zlib.crc32(b"flags\t\t: fpu sse2 avx2\n")
    info.write_bytes(b"processor\t: 0\nFeatures\t: fp asimd\n")
    assert kernels.cpu_fingerprint(str(info)) == zlib.crc32(b"Features\t: fp asimd\n")
    info.write_bytes(b"processor\t: 0\n")
    assert kernels.cpu_fingerprint(str(info)) is None
    assert kernels.cpu_fingerprint(str(tmp_path / "missing")) is None


def test_cached_import_loads_no_new_stdlib_module():
    # subprocess costs ~4 ms to import and hashlib ~4.5 ms and 3.6 MB of RSS;
    # with the library cached, importing the kernels needs neither.
    code = ("import sys, numpy; before = set(sys.modules); import lcdirac.kernels; "
            "print(sorted(m for m in set(sys.modules) - before if not m.startswith('lcdirac')))")
    env = dict(os.environ, PYTHONPATH=str(Path(kernels.__file__).parents[2]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "subprocess" not in done.stdout and "hashlib" not in done.stdout, done.stdout


def test_no_compiler_falls_back_to_pure(tmp_path):
    """A fresh copy of the package (no cached build) with no cc on PATH."""
    src = Path(kernels.__file__).parents[1]
    shutil.copytree(src, tmp_path / "lcdirac", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "empty").mkdir()
    env = {"PATH": str(tmp_path / "empty"), "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    code = "from lcdirac import kernels; print(kernels.backend_name()); print(kernels.backend_reason())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == ["pure", "pure: cc not found"]
    assert not list((tmp_path / "lcdirac").rglob("*.so*"))  # nothing built, no temp file left


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_build_removes_stale_libraries(tmp_path):
    (tmp_path / "_step.deadbeef.so").write_bytes(b"built from an older _step.c")
    (tmp_path / "other.so").write_bytes(b"not ours")
    fn, reason = kernels.load_compiled(str(tmp_path))
    assert fn is not None, reason
    built = Path(fn._name).name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([built, "other.so"])


def _kernel_outputs(monkeypatch, lib):
    """Every compiled kernel's output, as bytes, on random and corner inputs
    (NaN, infinities, overflowing and underflowing values, signed zeros),
    computed by lib: the level terms with their sums and the distance sums,
    also at the lengths where NumPy's pairwise sum changes shape, and a
    batched step."""
    monkeypatch.setattr(kernels, "_lib", lib)
    kernels.use_backend("compiled")
    rng = np.random.default_rng(16)
    out = []
    for n in (1, 3, 257, 4096):
        u, v = _cplx(rng, n, 0.3), _cornered(rng, n)
        forcing = [_cplx(rng, n) for _ in range(4)]
        for periodic, f in itertools.product((True, False), (None, forcing)):
            a, b = u, v
            for _ in range(5):
                a, b, bad = kernels.step_unforced(a, b, 0.1, 1.0, 0.5, 0.25, periodic, forcing=f)
            out += [a.tobytes(), b.tobytes(), str(bad).encode()]
    u, v = rng.choice([0.0, -0.0, 1.0, -0.5, 1e-160, -3e-170], size=(2, 2 * 2000)).view(np.complex128)
    a, b, bad = kernels.step_unforced(u, v, 0.5, -0.0, 1.0, -0.5, False)
    out += [a.tobytes(), b.tobytes(), str(bad).encode()]
    block = _cornered(rng, 600, 60).view(np.float64).reshape(-1, 6)
    out.append(kernels.format_rows(block).encode())
    origin = (_cplx(rng, 300), _cplx(rng, 300))
    for fields in ([(_cplx(rng, 300), _cplx(rng, 300)) for _ in range(2)],
                   [(_cornered(rng, 300), _cornered(rng, 300)) for _ in range(2)]):
        out += [a.tobytes() for a in _terms_on("compiled", 300, fields, 20, 270, 20, 1.5, origin).values()]
    for runs in _distance_cases(rng):
        out.append(_distance_sums(runs).tobytes())
    for n in (1, 7, 8, 9, 127, 128, 129, 3071, 8193):
        runs = [tuple(_summed_fields(rng, n, "corners") for _ in "uv") for _ in range(2)]
        out += [_terms_on("compiled", n, runs, 0, n)["sums"].tobytes(), _distance_sums(runs).tobytes()]
    u, v = _cplx(rng, (3, 513), 0.3), _cplx(rng, (3, 513), 0.3)
    for bad_run in (None, 1):  # rows past a bad one are left unwritten
        if bad_run is not None:
            u[bad_run, 300] = np.nan
        a, b, bad = kernels.step_unforced(u, v, 0.1, 1.0, 0.5, 0.25, True)
        written = 3 if bad < 0 else bad // 513 + 1
        out += [a[:written].tobytes(), b[:written].tobytes(), str(bad).encode()]
    return out


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@needs_compiled
def test_portable_build_matches_native(portable_build, monkeypatch, backend):
    """The library built without -march=native gives the same bits as the native one."""
    portable, reason = portable_build
    assert portable is not None, reason
    assert "portable flags: no CPU fingerprint" in reason and Path(portable._name).name.endswith(".portable.so")
    want = _kernel_outputs(monkeypatch, kernels._lib)
    got = _kernel_outputs(monkeypatch, portable)
    assert len(got) == len(want)
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


def _fused_multiply_adds(library) -> list[str]:
    """The instructions of objdump -d's listing of library whose mnemonic
    is a fused multiply-add: vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, and so
    vfmaddsub* and vfmsubadd*."""
    done = subprocess.run(["objdump", "-d", library], capture_output=True, text=True, timeout=120, check=True)
    return [line for line in done.stdout.splitlines() if re.search(r"\tvfn?m(add|sub)", line)]


needs_objdump = pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump on PATH")


@needs_objdump
@needs_compiled
def test_compiled_library_has_no_fused_multiply_adds():
    """-ffp-contract=off keeps every a * b + c of the sources two roundings,
    but a vectorised loop may still be fused (GCC 12 turned a complex
    multiply into vfmaddsub), which would make the bits depend on the
    loops' shapes: the loaded library holds no fused multiply-add."""
    assert _fused_multiply_adds(kernels._lib._name) == []


@needs_objdump
@needs_compiled
def test_portable_build_has_no_fused_multiply_adds(portable_build):
    portable, reason = portable_build
    assert portable is not None, reason
    assert _fused_multiply_adds(portable._name) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_cc_rejecting_the_native_flags_builds_portable(tmp_path):
    """A fresh copy of the package with a cc that rejects -march=native:
    a portable build, not the pure backend, and no second cc call once cached."""
    src = Path(kernels.__file__).parents[1]
    shutil.copytree(src, tmp_path / "lcdirac", ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "cc.log"
    (bin_dir / "cc").write_text(
        "#!/bin/sh\n"
        f"echo called >> '{log}'\n"
        'for a in "$@"; do [ "$a" = -march=native ] && '
        "{ echo \"cc: error: unrecognized command-line option '-march=native'\" >&2; exit 1; }; done\n"
        f'exec \'{shutil.which("cc")}\' "$@"\n'
    )
    (bin_dir / "cc").chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=str(tmp_path),
               PYTHONDONTWRITEBYTECODE="1")
    code = "from lcdirac import kernels; print(kernels.backend_reason())"
    for calls in (2, 2):  # the native attempt and the portable build, then the cached library
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout.startswith("compiled: _step.") and ".portable.so (portable flags: cc rejected" in done.stdout
        assert len(log.read_text().splitlines()) == calls


def test_unwritable_cache_falls_back_to_pure(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    fn, reason = kernels.load_compiled(str(blocker / "cache"))
    assert fn is None
    assert reason.startswith("pure: ") and "\n" not in reason


def test_use_backend_validation(backend):
    with pytest.raises(ValueError):
        kernels.use_backend("gpu")
    before = kernels.backend_name()
    restored = kernels.use_backend("pure")
    assert restored == before
    assert kernels.backend_reason().startswith("pure: ")

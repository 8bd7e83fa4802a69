import itertools
import json
import os
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
                    a, b = kernels.step_unforced(a, b, h, m, alpha, beta, periodic)
                ends[name] = a, b
            for got, want in zip(ends["compiled"], ends["pure"]):
                assert np.array_equal(_bits(got), _bits(want)), (n, kind)


@needs_compiled
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 257, 600])
def test_backends_agree_on_forced_step(backend, rng, periodic, n):
    """Bit for bit over 20 steps, each with its own four forcing samples."""
    u, v = rng.normal(size=(2, 2 * n)).view(np.complex128)
    forcings = [rng.normal(size=(4, 2 * n)).view(np.complex128) for _ in range(20)]
    ends = {}
    for name in ("pure", "compiled"):
        backend(name)
        a, b = u, v
        for forcing in forcings:
            a, b = kernels.step_unforced(a, b, 0.1, 1.0, 0.5, 0.25, periodic, forcing=forcing)
        ends[name] = a, b
    for got, want in zip(ends["compiled"], ends["pure"]):
        assert np.array_equal(_bits(got), _bits(want))


@needs_compiled
def test_backends_agree_on_signed_zeros(backend):
    """One step on data, forcing and parameters drawn from {+-0, small integers}.

    Here the 0 * x terms of NumPy's complex products decide the sign of
    many zeros, so a kernel that drops them differs from NumPy.
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
            for got, want in zip(ends["compiled"], ends["pure"]):
                assert np.array_equal(_bits(got), _bits(want)), (m, alpha, beta, periodic, forcing is None)


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
        assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))


@needs_compiled
def test_compiled_step_coerces_and_checks_inputs(arrays, backend):
    u, v, _, _ = arrays
    backend("compiled")
    strided = np.repeat(u, 2)[::2]  # not contiguous
    got = kernels.step_unforced(strided, list(v), 0.1, 1.0, 0.0, 0.25, True)
    want = pure.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True)
    assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))
    with pytest.raises(ValueError, match="equal length"):
        kernels.step_unforced(u, v[:-1], 0.1, 1.0, 0.0, 0.25, True)
    with pytest.raises(ValueError, match="equal length"):
        kernels.step_unforced(u.reshape(1, -1), v.reshape(1, -1), 0.1, 1.0, 0.0, 0.25, True)

    forcing = [u[::-1], v[::-1], 2 * u, list(v)]
    got = kernels.step_unforced(strided, v, 0.1, 1.0, 0.0, 0.25, True,
                                forcing=[np.repeat(f, 2)[::2] for f in forcing])
    want = pure.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=[np.asarray(f) for f in forcing])
    assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))
    with pytest.raises(ValueError, match="4 arrays"):
        kernels.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=forcing[:3])
    with pytest.raises(ValueError, match="shaped like u"):
        kernels.step_unforced(u, v, 0.1, 1.0, 0.0, 0.25, True, forcing=forcing[:3] + [v[:-1]])


def _terms_on(name, n, runs, i0, i1, kshift=0, E=None, origin=None, m=1.0, C0=0.3, dx=0.05):
    """Every buffer of kernels.LevelTerms after one level_terms call on backend name."""
    before = kernels.use_backend(name)
    try:
        growth = {} if origin is None else {"origin": origin, "m": m, "C0": C0}
        terms = kernels.LevelTerms(n, len(runs), dx, **growth)
        kernels.level_terms(terms, runs, i0, i1, kshift, E)
    finally:
        kernels.use_backend(before)
    return {name: getattr(terms, name) for name in kernels._Level.ARRAYS if getattr(terms, name) is not None}


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
        if runs == 2:  # run B's densities are written over the section only
            outside = np.r_[0:i0, i1:n]
            assert not any(got[name][1, outside].any() for name in ("au", "av", "dens"))
        _assert_terms_agree(fields, i0, i1, kshift, float(rng.uniform(0.5, 3.0)), origin)


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
    lengths = [0, 1, 2, 3] + [2**k + d for k in range(2, 7) for d in (-1, 0, 1)]
    for length in lengths:
        for kshift in (0, 5):
            for i0 in (kshift, n - kshift - length):  # the section at either end of the grid
                got = _assert_terms_agree(fields, i0, i0 + length, kshift, 1.5, origin)
                has_window = length >= 2
                assert (got["sites"][2] >= 0) == has_window and (got["sites"][0] >= 0) == (length > 0)


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


def _distance_terms(runs, name="compiled"):
    """(l1, p1) of one distance-mode level_terms call on backend name."""
    n = runs[0][0].shape[0]
    before = kernels.use_backend(name)
    try:
        terms = kernels.LevelTerms(n, 2, 0.05, distance=True)
        kernels.level_terms(terms, runs, 0, n, 0, None)
    finally:
        kernels.use_backend(before)
    return terms.l1, terms.p1


def _unfused_distance_terms(runs):
    """(l1, p1) in NumPy real arithmetic: each part of a complex product
    rounded after each multiply and each sum."""
    (uA, vA), (uB, vB) = runs

    def mul(a, b):
        return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real

    with np.errstate(over="ignore", invalid="ignore"):
        U, V = uA - uB, vA - vB
        (ar, ai), (br, bi) = mul(uA, vA), mul(uB, vB)
        return (U.real**2 + U.imag**2) + (V.real**2 + V.imag**2), (ar - br) ** 2 + (ai - bi) ** 2


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


def _assert_bits_equal(got, want, *context):
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), context


@needs_compiled
def test_backends_agree_on_distance_terms(rng):
    """Bit for bit with NumPy's complex product, whichever rounding it has here."""
    for runs in _distance_cases(rng):
        _assert_bits_equal(_distance_terms(runs), _distance_terms(runs, "pure"), runs[0][0].shape)


@needs_compiled
def test_unfused_distance_terms_match_real_arithmetic(rng, monkeypatch):
    monkeypatch.setattr(kernels, "FUSED_PRODUCT", False)
    for runs in _distance_cases(rng):
        _assert_bits_equal(_distance_terms(runs), _unfused_distance_terms(runs), runs[0][0].shape)


def test_numpy_product_probe_follows_its_dispatch():
    """With NumPy's dispatched loops off, its complex product is unfused;
    the probe must say so, and both backends must still agree with it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__

    code = (
        "import numpy as np, sys; sys.path.insert(0, sys.argv[1]); import test_kernels as t\n"
        "from lcdirac import kernels\n"
        "print(kernels.FUSED_PRODUCT)\n"
        "for runs in t._distance_cases(np.random.default_rng(5)):\n"
        "    want = t._unfused_distance_terms(runs)\n"
        "    for name in kernels.available_backends():\n"
        "        t._assert_bits_equal(t._distance_terms(runs, name), want, name)\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               PYTHONPATH=str(Path(kernels.__file__).parents[2]))
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if kernels.FUSED_PRODUCT:  # then the fused rule came from a dispatched loop
        assert done.stdout.split() == ["False"]


def test_distance_terms_refuse_other_shapes():
    with pytest.raises(ValueError, match="two runs"):
        kernels.LevelTerms(8, 1, 0.1, distance=True)
    with pytest.raises(ValueError, match="two runs"):
        kernels.LevelTerms(8, 2, 0.1, origin=(np.zeros(8), np.zeros(8)), distance=True)


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
    for flags in (kernels.CFLAGS, kernels.PORTABLE_CFLAGS):
        cmd = ["cc", "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", *flags,
               "-o", str(tmp_path / "_step.so"), *kernels.SOURCES, "-lm"]
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
    computed by lib; the distance terms with the product fused and unfused."""
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
                a, b = kernels.step_unforced(a, b, 0.1, 1.0, 0.5, 0.25, periodic, forcing=f)
            out += [a.tobytes(), b.tobytes()]
    u, v = rng.choice([0.0, -0.0, 1.0, -0.5, 1e-160, -3e-170], size=(2, 2 * 2000)).view(np.complex128)
    out += [a.tobytes() for a in kernels.step_unforced(u, v, 0.5, -0.0, 1.0, -0.5, False)]
    block = _cornered(rng, 600, 60).view(np.float64).reshape(-1, 6)
    out.append(kernels.format_rows(block).encode())
    origin = (_cplx(rng, 300), _cplx(rng, 300))
    for fields in ([(_cplx(rng, 300), _cplx(rng, 300)) for _ in range(2)],
                   [(_cornered(rng, 300), _cornered(rng, 300)) for _ in range(2)]):
        out += [a.tobytes() for a in _terms_on("compiled", 300, fields, 20, 270, 20, 1.5, origin).values()]
    for fused in (True, False):
        monkeypatch.setattr(kernels, "FUSED_PRODUCT", fused)
        for runs in _distance_cases(rng):
            out += [a.tobytes() for a in _distance_terms(runs)]
    return out


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@needs_compiled
def test_portable_build_matches_native(tmp_path, monkeypatch, backend):
    """The library built without -march=native (and with libm's fma where
    the CPU has none) gives the same bits as the native one."""
    portable, reason = kernels.load_compiled(str(tmp_path), fingerprint=None)
    assert portable is not None, reason
    assert "portable flags: no CPU fingerprint" in reason and Path(portable._name).name.endswith(".portable.so")
    want = _kernel_outputs(monkeypatch, kernels._lib)
    got = _kernel_outputs(monkeypatch, portable)
    assert len(got) == len(want)
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


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

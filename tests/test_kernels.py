import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
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
    assert [Path(s).name for s in kernels.SOURCES] == ["_step.c", "_format.c"]
    cmd = ["cc", "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", *kernels.CFLAGS,
           "-o", str(tmp_path / "_step.so"), *kernels.SOURCES]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
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
    assert len(seen) == 3


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
    built = reason.split(": ", 1)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([built, "other.so"])


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

"""Kernel backend selection.

Three kernels have a compiled and a pure backend with the same results bit
for bit (but for the step's corner named in ``_step.c``):

- ``step_unforced`` is the one lattice step, unforced or, given
  ``forcing``, forced (the name predates forcing; ``perfbench`` wraps it by
  that name);
- ``format_rows`` writes a 2-d float64 block as CSV rows of ``%.17g``
  values, byte for byte as Python's ``%`` operator does;
- ``level_terms`` writes every elementwise term the cone functionals and
  the audits sum at one level (densities, products, suffix-scan products,
  pair terms) into a ``LevelTerms``, with the growth margins and their
  sites; it is the one formula for L0/D0/Q0 and L1/D1/Q1.

Every pairwise sum stays in NumPy on both backends: the callers sum the
terms with ``np.add.reduce``, so moving the terms to C changes no
summation order and no digit of an artifact. Only sequential scans (the
``np.cumsum`` order) run in C.

The backends:

- ``compiled``: ``_step.c``, ``_format.c`` and ``_level.c``, built into one
  library with the system C compiler on first import, cached as
  ``__pycache__/_step.<key>.so`` next to this file (the key is a CRC-32 of
  the sources and the flags; a build deletes the libraries of other keys)
  and called through ctypes;
- ``pure``: the NumPy step and level terms in ``pure.py`` and one ``%``
  template per block, used whenever the build or the load fails.

``backend_reason()`` says which one runs and why. The ordered pair sums
``q_upper`` (O(N)) and ``q_upper_naive`` (O(N^2)) are NumPy for every
backend and on no production path: ``level_terms`` writes the suffix-scan
products the cone functionals sum. The tests keep ``q_upper_naive`` as
their oracle, and ``perfbench`` wraps ``q_upper`` by name. The active
backend is fixed at import and can be overridden with ``use_backend``
(benchmarks and cross-backend tests).
"""
from __future__ import annotations

import ctypes
import os
import zlib

import numpy as np

from ..errors import UsageError
from . import pure
from .pure import q_upper, q_upper_naive  # noqa: F401  (public names)

CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(_HERE, name) for name in ("_step.c", "_format.c", "_level.c"))
TOKEN_BYTES = 25  # the longest %.17g token, -2.2250738585072014e-308, and a separator


def library_key(sources=SOURCES) -> int:
    """CRC-32 of the sources and the flags: the cached library's name."""
    data = b""
    for source in sources:
        with open(source, "rb") as fh:
            data += fh.read()
    return zlib.crc32(data + " ".join(CFLAGS).encode())


def _compile(sources, target: str):
    import subprocess  # only on a cache miss: it costs milliseconds to import

    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        try:
            done = subprocess.run(["cc", *CFLAGS, "-o", tmp, *sources],
                                  capture_output=True, text=True, timeout=300)
        except FileNotFoundError:
            raise OSError("cc not found") from None
        except subprocess.TimeoutExpired:
            raise OSError("cc timed out") from None
        if done.returncode != 0:
            first = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[0]
            raise OSError(f"cc failed: {first}")
        os.replace(tmp, target)  # atomic: a concurrent import sees all or nothing
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _remove_stale(cache_dir: str, keep: str):
    """Delete the libraries built from an older source or flag set."""
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return
    for name in names:
        path = os.path.join(cache_dir, name)
        if name.startswith("_step.") and name.endswith(".so") and path != keep:
            try:
                os.remove(path)
            except OSError:  # another process may hold or remove it
                pass


def load_compiled(cache_dir: str = os.path.join(_HERE, "__pycache__")):
    """Build the sources into cache_dir unless cached, then load the library.

    Returns ``(library or None, one-line reason)``; never raises.
    """
    try:
        target = os.path.join(cache_dir, f"_step.{library_key():08x}.so")
        if not os.path.exists(target):
            _compile(SOURCES, target)
            _remove_stale(cache_dir, target)
        lib = ctypes.CDLL(target)
        step, fmt, level = lib.lcd_step, lib.lcd_format_rows, lib.lcd_level_terms
    except (OSError, AttributeError) as exc:  # AttributeError: a symbol is missing
        return None, f"pure: {exc}"
    step.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] + [ctypes.c_double] * 4 + [ctypes.c_int]
                     + [ctypes.c_void_p] * 4)
    step.restype = None
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t]
    fmt.restype = ctypes.c_ssize_t
    level.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_ssize_t] * 3 + [ctypes.c_int, ctypes.c_double]
    level.restype = None
    return lib, f"compiled: {os.path.basename(target)}"


_lib, _reason = load_compiled()
_active = "compiled" if _lib is not None else "pure"


def _compiled_step(u, v, h, m, alpha, beta, periodic, forcing=None):
    u = np.ascontiguousarray(u, dtype=np.complex128)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"u and v must be 1-d of equal length, got shapes {u.shape} and {v.shape}")
    f_ptrs = [None] * 4  # NULL: the unforced step
    if forcing is not None:
        f = [np.ascontiguousarray(a, dtype=np.complex128) for a in forcing]
        if len(f) != 4:
            raise ValueError(f"forcing needs 4 arrays, got {len(f)}")
        if any(a.shape != u.shape for a in f):
            raise ValueError(f"forcing arrays must be shaped like u {u.shape}, got {[a.shape for a in f]}")
        f_ptrs = [a.ctypes.data for a in f]
    u_new = np.empty_like(u)
    v_new = np.empty_like(v)
    _lib.lcd_step(u.ctypes.data, v.ctypes.data, u_new.ctypes.data, v_new.ctypes.data,
                  u.shape[0], h, m, alpha, beta, bool(periodic), *f_ptrs)
    return u_new, v_new


def available_backends() -> tuple[str, ...]:
    return ("compiled", "pure") if _lib is not None else ("pure",)


def backend_name() -> str:
    return _active


def backend_reason() -> str:
    """One line: the active backend and why, e.g. ``pure: cc not found``."""
    if _active == "pure" and _lib is not None:
        return "pure: selected with use_backend"
    return _reason


def use_backend(name: str):
    """Select 'compiled' or 'pure'; returns the previously active name."""
    global _active
    if name not in ("compiled", "pure"):
        raise ValueError(f"unknown backend {name!r}")
    if name not in available_backends():
        raise RuntimeError(f"compiled kernels are not available ({_reason})")
    before, _active = _active, name
    return before


def step_unforced(u, v, h, m, alpha, beta, periodic, forcing=None):
    """One step; forcing is None or the four samples ``pure.step_unforced`` names."""
    if _active == "compiled":
        return _compiled_step(u, v, h, m, alpha, beta, periodic, forcing)
    return pure.step_unforced(u, v, h, m, alpha, beta, periodic, forcing)


def _compiled_format(values):
    """The C rows of a 2-d float64 block, or None when a value is undecided."""
    rows, cols = values.shape
    cap = rows * cols * TOKEN_BYTES
    buf = np.empty(cap, dtype=np.uint8)
    n = _lib.lcd_format_rows(values.ctypes.data, rows, cols, buf.ctypes.data, cap)
    return None if n < 0 else str(buf[:n], "ascii")


def format_rows(values) -> str:
    """CSV rows of a 2-d block: each value as ``"%.17g" % x``, ``,`` between
    values, ``\n`` after each row.

    The compiled backend formats in C; a block with a value the C cannot
    decide (none is known) is formatted by the template, as on ``pure``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValueError(f"values must be 2-d with at least one column, got shape {values.shape}")
    if _active == "compiled":
        text = _compiled_format(values)
        if text is not None:
            return text
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


class _Level(ctypes.Structure):
    """``lcd_level`` in ``_level.c``, field for field."""

    ARRAYS = ("au", "av", "dens", "prod", "q", "l1", "d1", "q1u", "q1v",
              "pre_u", "pre_v", "au0", "av0", "pre_u0", "pre_v0", "margins", "sites")
    _fields_ = ([("n", ctypes.c_ssize_t), ("runs", ctypes.c_ssize_t)]
                + [(name, ctypes.c_double) for name in ("dx", "m", "C0")]
                + [(name, ctypes.c_void_p) for name in ARRAYS])


class LevelTerms:
    """The buffers ``level_terms`` writes one level into, allocated once
    for n sites and 1 or 2 runs (A, then B), with the addresses the C pass
    takes kept in one struct (``a.ctypes.data`` costs about 2 us a lookup).

    Per run r, over the grid: ``au[r]`` = |u|^2, ``av[r]`` = |v|^2 and
    ``dens[r]`` = au + av. Over the section [i0, i1) of the last level
    written (``i0 = i1 = 0`` when empty), at the same indices: ``prod[r]`` =
    au av and ``q[r]`` = au suffix(av), whose sum is q_upper(au, av); for
    two runs, with U = uA - uB, V = vA - vB, umod = auA + auB and
    vmod = avA + avB: ``l1`` = |U|^2 + |V|^2, ``d1`` = |U|^2 vmod + umod
    |V|^2, ``q1u`` = |U|^2 suffix(vmod) and ``q1v`` = umod suffix(|V|^2).
    Outside the section these hold what earlier levels left.

    With origin, run A's (u, v) at t = 0, and the run's m and C0, a level
    written with a growth factor also gets the growth margins: ``margins``
    and ``sites`` hold the largest margin, and its site as ``np.argmax``
    finds it, of |u|^2 and of |v|^2 against their feet at t = 0 and of the
    bound over every dyadic window (-inf and -1 without a candidate);
    ``pre_u`` and ``pre_v`` are the level's prefix sums, and ``au0``,
    ``av0``, ``pre_u0`` and ``pre_v0`` the origin's.
    """

    def __init__(self, n: int, runs: int, dx: float, origin=None, m: float = 0.0, C0: float = 0.0):
        if runs not in (1, 2):
            raise ValueError(f"runs must be 1 or 2, got {runs}")
        self.n, self.runs, self.dx, self.m, self.C0 = n, runs, dx, m, C0
        self.au, self.av, self.dens, self.prod, self.q = np.zeros((5, runs, n))
        self.l1 = self.d1 = self.q1u = self.q1v = None
        if runs == 2:
            self.l1, self.d1, self.q1u, self.q1v = np.zeros((4, n))
        self.pre_u = self.pre_v = self.au0 = self.av0 = self.pre_u0 = self.pre_v0 = None
        if origin is not None:
            u0, v0 = (_field(a, n) for a in origin)
            self.au0 = u0.real**2 + u0.imag**2
            self.av0 = v0.real**2 + v0.imag**2
            self.pre_u0 = np.concatenate([[0.0], np.cumsum(self.au0)])
            self.pre_v0 = np.concatenate([[0.0], np.cumsum(self.av0)])
            self.pre_u, self.pre_v = np.zeros((2, n + 1))
        self.margins = np.full(3, -np.inf)
        self.sites = np.full(3, -1, dtype=np.intp)
        self.i0 = self.i1 = 0
        arrays = (getattr(self, name) for name in _Level.ARRAYS)
        self._struct = _Level(n, runs, dx, m, C0, *(None if a is None else a.ctypes.data for a in arrays))
        self._address = ctypes.addressof(self._struct)


def _field(a, n: int) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.shape != (n,):
        raise UsageError(f"a field of shape {a.shape} on terms sized for {n} sites")
    return a


def level_terms(terms: LevelTerms, runs, i0: int, i1: int, kshift: int, E):
    """Write one level's terms into terms (see ``LevelTerms``).

    runs holds one (u, v) pair per run of terms; [i0, i1) is the section,
    empty when i1 <= i0. E, the growth factor at this level (None for
    none), asks for the growth margins of a nonempty section, with the feet
    kshift sites along each characteristic. A section whose feet leave the
    grid raises UsageError, as does a field of another size, so the C pass
    never reads past a buffer.
    """
    fields = [(_field(u, terms.n), _field(v, terms.n)) for u, v in runs]
    if len(fields) != terms.runs:
        raise ValueError(f"terms hold {terms.runs} runs, got {len(fields)}")
    if i1 <= i0:  # no section, so no margins
        i0 = i1 = 0
        E = None
    reach = 0  # how far past the section the C pass reads
    if E is not None:
        if terms.au0 is None:
            raise ValueError("growth margins need terms made with an origin")
        reach = abs(kshift)
    if i0 - reach < 0 or i1 + reach > terms.n:
        raise UsageError(f"section [{i0}, {i1}) with its feet {reach} sites out "
                         f"leaves the grid of {terms.n} sites")
    terms.i0, terms.i1 = i0, i1
    if _active == "compiled":
        ptrs = [a.ctypes.data for run in fields for a in run] + [None, None]  # NULL: no run B
        _lib.lcd_level_terms(terms._address, *ptrs[:4], i0, i1, kshift, E is not None, 0.0 if E is None else E)
    else:
        pure.level_terms(terms, fields, i0, i1, kshift, E)

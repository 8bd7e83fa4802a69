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
  sites; it is the one formula for L0/D0/Q0 and L1/D1/Q1. In distance mode
  it writes the terms of the field and product distances of two runs,
  which ``converge`` and ``unique`` take at every level.

Every pairwise sum stays in NumPy on both backends: the callers sum the
terms with ``np.add.reduce``, so moving the terms to C changes no
summation order and no digit of an artifact. Only sequential scans (the
``np.cumsum`` order) run in C.

The backends:

- ``compiled``: ``_step.c``, ``_format.c`` and ``_level.c``, built into one
  library with the system C compiler on first import, for the CPU it runs
  on (``CFLAGS``, with ``-march=native``), cached as
  ``__pycache__/_step.<key>.so`` next to this file and called through
  ctypes. The key is a CRC-32 of the sources, the flags and the CPU
  fingerprint (``cpu_fingerprint``: the CRC-32 of the first flags line of
  /proc/cpuinfo), so a cached library never loads on another CPU; a build
  deletes the libraries of other keys. Where there is no fingerprint, or cc
  rejects the native flags, the library is built with ``PORTABLE_CFLAGS``
  as ``_step.<key>.portable.so``; both builds give the same bits;
- ``pure``: the NumPy step and level terms in ``pure.py`` and one ``%``
  template per block, used whenever the build or the load fails.

NumPy rounds each part of a complex product once (a fused multiply-add)
where its FMA loops are dispatched, and twice otherwise. The distance
terms must round as NumPy does, so ``FUSED_PRODUCT`` probes NumPy once at
import and the C pass follows it.

``backend_reason()`` says which one runs and why: for ``compiled``, the
library, its flag set (native, or portable and why) and whether the
distance product is fused. The ordered pair sums
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

PORTABLE_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# For the CPU of the build. Without SLP vectorisation: with AVX2 or AVX-512
# it vectorised _format.c's digit stores and made format_rows about 8 %
# slower; the step and level loops are loop-vectorised either way.
CFLAGS = ("-O3", "-march=native", "-fno-tree-slp-vectorize", "-ffp-contract=off", "-fPIC", "-shared")
_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(_HERE, name) for name in ("_step.c", "_format.c", "_level.c"))
TOKEN_BYTES = 25  # the longest %.17g token, -2.2250738585072014e-308, and a separator


def cpu_fingerprint(path: str = "/proc/cpuinfo"):
    """CRC-32 of the first ``flags`` (x86) or ``Features`` (ARM) line of
    path, the instruction sets -march=native may use; None without one."""
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if line.startswith((b"flags", b"Features")):
                    return zlib.crc32(line)
    except OSError:
        pass
    return None


def _numpy_fuses_complex_product() -> bool:
    """Whether NumPy rounds each part of a complex product once, as
    fma(ar, br, -ai bi), as its SIMD loops do where its FMA dispatch is
    active, or twice, as ar br - ai bi. The real part of these 16 equal
    products is -2^-60 fused and 0 unfused."""
    a = np.full(16, complex(1.0 + 2.0**-30, 1.0))
    b = np.full(16, complex(1.0 - 2.0**-30, 1.0))
    return bool(((a * b).real != 0.0).all())


CPU = cpu_fingerprint()
FUSED_PRODUCT = _numpy_fuses_complex_product()


def library_key(sources=SOURCES, fingerprint=CPU) -> int:
    """CRC-32 of the sources, the flags and the CPU fingerprint: the cached library's name."""
    data = b""
    for source in sources:
        with open(source, "rb") as fh:
            data += fh.read()
    return zlib.crc32(data + " ".join(CFLAGS).encode() + repr(fingerprint).encode())


def _compile(sources, target: str, flags):
    import subprocess  # only on a cache miss: it costs milliseconds to import

    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        try:
            done = subprocess.run(["cc", *flags, "-o", tmp, *sources, "-lm"],
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
    """Delete the libraries built from an older source or flag set, or for another CPU."""
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


def _cached_or_built(cache_dir: str, fingerprint) -> tuple[str, str]:
    """The library for this CPU, built unless cached, and its flag set.

    With a fingerprint it is ``_step.<key>.so``, built with CFLAGS; where
    there is none, or cc rejects CFLAGS, ``_step.<key>.portable.so``, built
    with PORTABLE_CFLAGS. The key holds the fingerprint, so a portable build
    cached for a CPU records that cc rejected CFLAGS there, and cc is not
    asked again.
    """
    base = os.path.join(cache_dir, f"_step.{library_key(fingerprint=fingerprint):08x}")
    native, portable = f"{base}.so", f"{base}.portable.so"
    native_why = None if fingerprint is None else f"native flags for CPU {fingerprint:08x}"
    if native_why and os.path.exists(native):
        return native, native_why
    why = "portable flags: " + ("no CPU fingerprint" if native_why is None else "cc rejected the native flags")
    if os.path.exists(portable):
        return portable, why
    if native_why:
        try:
            _compile(SOURCES, native, CFLAGS)
        except OSError:
            pass  # cc rejects CFLAGS, or fails again below
        else:
            _remove_stale(cache_dir, native)
            return native, native_why
    _compile(SOURCES, portable, PORTABLE_CFLAGS)
    _remove_stale(cache_dir, portable)
    return portable, why


def load_compiled(cache_dir: str = os.path.join(_HERE, "__pycache__"), fingerprint=CPU):
    """Build the sources into cache_dir unless cached, then load the library.

    fingerprint (``cpu_fingerprint()``) names the CPU the build is for;
    None builds with the portable flags. Returns ``(library or None,
    one-line reason)``; never raises.
    """
    try:
        target, flags = _cached_or_built(cache_dir, fingerprint)
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
    product = "fused" if FUSED_PRODUCT else "unfused"
    return lib, f"compiled: {os.path.basename(target)} ({flags}; {product} distance product)"


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

    ARRAYS = ("au", "av", "dens", "prod", "q", "l1", "d1", "q1u", "q1v", "p1",
              "pre_u", "pre_v", "au0", "av0", "pre_u0", "pre_v0", "margins", "sites")
    _fields_ = ([("n", ctypes.c_ssize_t), ("runs", ctypes.c_ssize_t),
                 ("distance", ctypes.c_int), ("fused", ctypes.c_int)]
                + [(name, ctypes.c_double) for name in ("dx", "m", "C0")]
                + [(name, ctypes.c_void_p) for name in ARRAYS])


class LevelTerms:
    """The buffers ``level_terms`` writes one level into, allocated once
    for n sites and 1 or 2 runs (A, then B), with the addresses the C pass
    takes kept in one struct (``a.ctypes.data`` costs about 2 us a lookup).

    Over the section [i0, i1) of the last level written (``i0 = i1 = 0``
    when empty), per run r: ``au[r]`` = |u|^2, ``av[r]`` = |v|^2,
    ``dens[r]`` = au + av (for run A over the whole grid), ``prod[r]`` =
    au av and ``q[r]`` = au suffix(av), whose sum is q_upper(au, av); for
    two runs, with U = uA - uB, V = vA - vB, umod = auA + auB and
    vmod = avA + avB: ``l1`` = |U|^2 + |V|^2, ``d1`` = |U|^2 vmod + umod
    |V|^2, ``q1u`` = |U|^2 suffix(vmod) and ``q1v`` = umod suffix(|V|^2).
    Outside the section these hold what earlier levels left.

    With distance set (two runs, no origin), only ``l1`` and ``p1`` =
    |uA vA - uB vB|^2 are kept and written, the terms of
    ``fields.l2_distance`` and of the product distance; the complex products
    round as NumPy's do on this host (``FUSED_PRODUCT``).

    With origin, run A's (u, v) at t = 0, and the run's m and C0, a level
    written with a growth factor also gets the growth margins: ``margins``
    and ``sites`` hold the largest margin, and its site as ``np.argmax``
    finds it, of |u|^2 and of |v|^2 against their feet at t = 0 and of the
    bound over every dyadic window (-inf and -1 without a candidate);
    ``pre_u`` and ``pre_v`` are the level's prefix sums, and ``au0``,
    ``av0``, ``pre_u0`` and ``pre_v0`` the origin's.
    """

    def __init__(self, n: int, runs: int, dx: float, origin=None, m: float = 0.0, C0: float = 0.0,
                 distance: bool = False):
        if runs not in (1, 2):
            raise ValueError(f"runs must be 1 or 2, got {runs}")
        if distance and (runs != 2 or origin is not None):
            raise ValueError("distance terms take two runs and no origin")
        self.n, self.runs, self.dx, self.m, self.C0, self.distance = n, runs, dx, m, C0, distance
        self.au = self.av = self.dens = self.prod = self.q = None
        self.l1 = self.d1 = self.q1u = self.q1v = self.p1 = None
        if distance:
            self.l1, self.p1 = np.zeros((2, n))
        else:
            self.au, self.av, self.dens, self.prod, self.q = np.zeros((5, runs, n))
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
        self._struct = _Level(n, runs, distance, FUSED_PRODUCT, dx, m, C0,
                              *(None if a is None else a.ctypes.data for a in arrays))
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

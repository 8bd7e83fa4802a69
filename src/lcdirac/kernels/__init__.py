"""Kernel backend selection.

Four kernels have a compiled and a pure backend with the same results bit
for bit:

- ``step_unforced`` is the one lattice step, unforced or, given
  ``forcing``, forced (the name predates forcing; ``perfbench`` wraps it by
  that name), of one run (1-d u and v) or of a batch of runs (2-d, one row
  per run, rows a fixed stride apart), which C steps row after row with
  one call: ``evolve`` makes one call per step for all its lockstep runs,
  with one set of forcing samples for every row. It returns the new u and
  v and the blow-up verdict, the first site where either has a non-finite
  part as a flat index ``run * n + site`` (-1 for none), found in the pass
  that writes the level, for the first bad run. Both backends
  evaluate it in the same plain real arithmetic, operation for operation.
  Given ``out``, a ``LevelPool`` one of whose generations u and v are, it
  writes the level into the other generation, as ``evolve`` does at every
  step; without, into fresh arrays. On ``compiled``, an unforced step
  into a pool computes each run only over its extent (see below) widened
  by one site per side: a site reads only itself and its neighbours (the
  light cone), and a site whose three inputs are all +0.0 steps to +0.0,
  so compactly supported runs cost what their support costs;
- ``format_rows`` writes a 2-d float64 block as CSV rows of ``%.17g``
  values, byte for byte as Python's ``%`` operator does;
  ``format_rows_into`` writes the same rows as ASCII into a caller's
  uint8 array at an offset, so a writer can fill one buffer block by block;
  on ``compiled``, ``_format.c`` writes every double, with no fallback
  (``tests/test_format_proof.py`` proves that its rounding decides each
  one);
- ``level_terms`` takes the sums of every elementwise term the cone
  functionals and the audits read at one level (densities, products,
  suffix-scan products, pair terms), the growth margins and their sites,
  and run A's densities at the triangle's edges, into the one row of a
  ``LevelTerms``, and returns the sums: the one formula for L0/D0/Q0 and
  L1/D1/Q1. ``LevelTerms.write`` is the same pass without the list, which
  ``AuditPass`` makes once per level. On ``compiled`` it is one fused C
  pass that stores no term: run A's grid forward and the section
  backward, each in the leaves of NumPy's pairwise split, every leaf's
  terms summed in stack scratch; a dyadic window width that provably
  cannot beat the best margin so far is skipped, and the margins are
  picked in chunks, each searched only if it holds one ``np.argmax``
  would take; ``pure`` forms every term array and sums it with
  ``np.add.reduce``;
- ``distance_sums`` takes the sums of the field and product distance
  terms of every run pair of one level, which ``converge`` and ``unique``
  take at every level, in one call, and returns two sums per pair; each
  complex product is four real products and two sums on both backends. On
  ``compiled`` no term array is stored: each leaf of NumPy's pairwise sum
  (at most 128 sites) is written into stack scratch and summed there, the
  leaves in turn and every pair within each, so a run that is one pair's
  run B and the next pair's run A has its product formed once a leaf, and
  a leaf that none of a pair's pool extents meets is skipped, its sums
  +0.0 as summing its +0.0 terms gives; ``pure`` writes the whole term
  arrays and sums them with ``np.add.reduce``.

A ``LevelPool`` holds ``evolve``'s lockstep runs in runs + 1 level pairs,
as two generations one pair apart: every step reads one generation and
writes the other over it, each run's new level where an input already read
lay (``lcd_step`` steps the rows first to last or last to first, as memmove
copies), so the runs need one spare pair, not a second set. The pool
holds ``lcd_step``'s arguments for stepping either generation into the
other, computed when it is made, so ``step_unforced(u, v, ..., out=pool)``
is two identity checks and the C call. Each of its views (a generation's
(runs, n) u and v, and each run's u and v rows) is made once, and its
address is bound while the pool is open: ``level_terms``,
``LevelTerms.write`` and ``distance_sums`` check such a view at every call
but take it as it is, with no address lookup (``a.ctypes.data`` costs
about 2 us) and no conversion; any other array is converted and checked.
The pool also keeps one extent per slot: the interval of sites outside
which every bit of the slot's u and v is +0.0. ``load`` finds it with one
scan (a -0.0 part is not zero); ``lcd_step`` reads each input row's
extent, steps only that interval widened by one site per side (clipped at
a zero-inflow edge; on a periodic grid, all of the row once it reaches
either end), stores +0.0 where the output slot's older level reached past
the new extent, and writes the new one. ``distance_sums`` finds a row's
extent next to its address, in the entry of its bound view. Fresh arrays,
and a forced step, have no extents: every site is stepped; the ``pure``
step into a pool marks every slot it writes as the whole row.

Every sum of terms is ``np.add.reduce``'s bit for bit: ``pure`` calls it
and ``_level.c`` sums in NumPy's pairwise order, which
``tests/test_kernels.py`` pins against NumPy, so a NumPy release that
changed it would fail a test, not move an artifact's digits. Every scan
keeps ``np.cumsum``'s sequential order.

The backends:

- ``compiled``: ``_step.c``, ``_format.c`` and ``_level.c``, built into
  one library with the system C compiler on first import, for the CPU it
  runs on (``CFLAGS``, with ``-march=native``), cached as
  ``__pycache__/_step.<key>.so`` next to this file and called through
  ctypes. The key is a CRC-32 of the sources, the build's flags and the
  CPU fingerprint (``cpu_fingerprint``: the CRC-32 of the first flags line
  of /proc/cpuinfo), so a cached library never loads on another CPU; a
  build deletes the libraries of other keys. Where there is no fingerprint,
  or cc rejects the native flags, the library is built with
  ``PORTABLE_CFLAGS`` as ``_step.<key>.portable.so``; both builds give the
  same bits and link nothing beyond libc;
- ``pure``: the NumPy kernels in ``pure.py`` and one ``%`` template per
  block, used whenever the build or the load fails.

``backend_reason()`` says which one runs and why: for ``compiled``, the
library and its flag set (native, or portable and why). The ordered pair sums
``q_upper`` (O(N)) and ``q_upper_naive`` (O(N^2)) are NumPy for every
backend and on no production path: ``level_terms`` sums the suffix-scan
products the cone functionals read. The tests keep ``q_upper_naive`` as
their oracle, and ``perfbench`` wraps ``q_upper`` by name. The active
backend is fixed at import and can be overridden with ``use_backend``
(benchmarks and cross-backend tests).
"""
from __future__ import annotations

import ctypes
import math
import os
import zlib

import numpy as np

from ..errors import UsageError
from . import pure
from .pure import q_upper, q_upper_naive  # noqa: F401  (public names)

PORTABLE_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
# For the CPU of the build. Without SLP vectorisation: measured in one
# process on a 2-core AVX-512 Xeon, 150 alternating rounds, the time with it
# over the time without was 1.00-1.01 for format_rows (the pair-table digit
# stores no longer care; it was 1.08 for the old per-digit loop), 0.99-1.01
# for the step (split real and imaginary stages) and 1.01-1.03 for
# level_terms. The loops are loop-vectorised either way, in 32-byte vectors:
# GCC 12 prefers 256 bits there. -mprefer-vector-width=512 takes the
# bare step to about 0.75 of its time at N = 3072-4096, but moved neither
# converge_rough nor audit_cone past its run-to-run spread, so it is not set.
CFLAGS = ("-O3", "-march=native", "-fno-tree-slp-vectorize", "-ffp-contract=off", "-fno-math-errno",
          "-fPIC", "-shared")
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


CPU = cpu_fingerprint()


def library_key(sources=SOURCES, fingerprint=CPU, flags=CFLAGS) -> int:
    """CRC-32 of the sources, the flags of the build and the CPU fingerprint: the cached library's name."""
    data = b""
    for source in sources:
        with open(source, "rb") as fh:
            data += fh.read()
    return zlib.crc32(data + " ".join(flags).encode() + repr(fingerprint).encode())


def _compile(sources, target: str, flags):
    import subprocess  # only on a cache miss: it costs milliseconds to import

    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        try:
            done = subprocess.run(["cc", *flags, "-o", tmp, *sources],
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
    with PORTABLE_CFLAGS. Each key holds the flags of its build and the
    fingerprint; the portable key also holds CFLAGS, so a portable build
    cached for a CPU records that cc rejected these CFLAGS there, and cc is
    not asked again.
    """
    native = os.path.join(cache_dir, f"_step.{library_key(fingerprint=fingerprint, flags=CFLAGS):08x}.so")
    native_why = None if fingerprint is None else f"native flags for CPU {fingerprint:08x}"
    if native_why and os.path.exists(native):
        return native, native_why
    key = library_key(fingerprint=fingerprint, flags=CFLAGS + PORTABLE_CFLAGS)
    portable = os.path.join(cache_dir, f"_step.{key:08x}.portable.so")
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
        step, fmt, level, dist = lib.lcd_step, lib.lcd_format_rows, lib.lcd_level_terms, lib.lcd_distance_sums
    except (OSError, AttributeError) as exc:  # AttributeError: a symbol is missing
        return None, f"pure: {exc}"
    step.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 4 + [ctypes.c_void_p] * 2 + [ctypes.c_double] * 4
                     + [ctypes.c_int] + [ctypes.c_void_p] * 4)
    step.restype = ctypes.c_ssize_t
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t]
    fmt.restype = ctypes.c_ssize_t
    level.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_ssize_t] * 3 + [ctypes.c_int, ctypes.c_double]
    level.restype = None
    dist.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 2 + [ctypes.c_void_p] * 2
    dist.restype = None
    return lib, f"compiled: {os.path.basename(target)} ({flags})"


_lib, _reason = load_compiled()
_active = "compiled" if _lib is not None else "pure"


# (address, extent address) of each view of every open LevelPool, by the
# view's id: the extent address is that of the slot's extent for a run's u
# and v rows, 0 (NULL) for a generation's 2-d views. A pool adds its views
# when it is made and removes them when it closes; while it is open it holds
# its views, so no other object has their ids.
_BOUND: dict = {}


class LevelPool:
    """The levels of runs evolved in lockstep: one level pair a run and a spare.

    ``blocks`` is one complex128 array of shape (runs + 1, 2, n), one level
    pair (u at ``blocks[s, 0]``, v at ``blocks[s, 1]``) a slot. Generation 0
    holds run r in slot r + 1, generation 1 holds it in slot r: the two
    generations lie one slot apart, and ``step_unforced(..., out=pool)``
    steps either into the other over it, each run's new level written where
    the previous run's (or the next run's) input lay once that input is
    read. ``u[g]`` and ``v[g]`` are the (runs, n) views of generation g that
    the step reads and writes whole, their rows 2 n sites apart; ``rows[g]``
    holds each run's (u, v) as 1-d C-contiguous views; ``steps[g]`` holds
    ``lcd_step``'s address, size and extent arguments for stepping
    generation g into the other. ``extents`` holds one (first, end) a
    slot: the sites [first, end) outside which every bit of the slot's u
    and v is +0.0 ((0, 0) for none, (0, n) for the whole row, which it is
    before the first ``load``). ``load`` scans the slots it writes for
    their extents, and the compiled step keeps them, so stepping and
    ``distance_sums`` on pool rows read and write only where the runs can
    be nonzero; ``pure`` reads none and sets the slots it steps into to
    the whole row. Every view is read-only
    (``blocks`` is their base, which only the step and ``load`` write, so
    the extents stay true), is made once, and has its address bound when
    the pool is made and unbound by ``close`` (or at the end of a ``with``
    block); the views stay valid arrays, but a closed pool steps nothing.
    """

    def __init__(self, runs: int, n: int):
        self.runs, self.n = runs, n
        self.blocks = np.empty((runs + 1, 2, n), dtype=np.complex128)
        self.extents = np.empty((runs + 1, 2), dtype=np.intp)
        self.extents[:] = 0, n  # the whole row: blocks holds no level yet
        generations = (self.blocks[1:], self.blocks[:-1])
        self.u = tuple(gen[:, 0] for gen in generations)
        self.v = tuple(gen[:, 1] for gen in generations)
        self.rows = tuple(tuple((gen[r, 0], gen[r, 1]) for r in range(runs)) for gen in generations)
        extent = [self.extents.ctypes.data + slot * self.extents.strides[0] for slot in range(runs + 1)]
        bound = [(view, 0) for view in (*self.u, *self.v)]
        bound += [(view, extent[r + 1 - g]) for g, gen in enumerate(self.rows) for r, run in enumerate(gen)
                  for view in run]
        self._views = [view for view, _ in bound]
        for view, at in bound:
            view.setflags(write=False)
            _BOUND[id(view)] = view.ctypes.data, at
        # rows 2 n sites apart; generation g holds its first run in slot 1 - g and steps into slot g
        self.steps = tuple((*(a.ctypes.data for a in (self.u[g], self.v[g], self.u[1 - g], self.v[1 - g])),
                            runs, 2 * n, 2 * n, n, extent[1 - g], extent[g]) for g in (0, 1))

    def __enter__(self) -> "LevelPool":
        return self

    def __exit__(self, *exc):
        self.close()

    def load(self, runs, g: int = 0):
        """Copy each run's (u, v) into generation g and set each slot's extent."""
        for r, (u, v) in enumerate(runs):
            slot = self.blocks[r + 1 - g]
            slot[0] = u
            slot[1] = v
            self.extents[r + 1 - g] = _extent(slot)

    def _put(self, u, v, g: int):
        """Copy the (runs, n) u and v into generation g and set its slots'
        extents to the whole row, which is always true, with no scan."""
        slots = slice(1 - g, 1 - g + self.runs)  # generation g holds run r in slot r + 1 - g
        self.blocks[slots, 0] = u
        self.blocks[slots, 1] = v
        self.extents[slots] = 0, self.n

    def generation(self, u, v) -> int:
        """The generation g whose views u and v are (``u[g]`` and ``v[g]``
        themselves); ValueError for any other arrays, or once closed."""
        if self.steps:
            for g in (0, 1):
                if u is self.u[g] and v is self.v[g]:
                    return g
        raise ValueError("u and v must be the u and v of one generation of an open LevelPool")

    def close(self):
        self.steps = ()
        for view in self._views:
            _BOUND.pop(id(view), None)


def _extent(slot) -> tuple[int, int]:
    """The extent (first, end) of a slot's (2, n) u and v: the sites
    [first, end) outside which every bit is zero, from the first nonzero
    site to the last; (0, 0) for none. A -0.0 part is not zero."""
    n = slot.shape[1]
    words = slot.view(np.uint64).reshape(2, n, 2)  # (u or v, site, real or imaginary part)
    sites = np.flatnonzero(words[0, :, 0] | words[0, :, 1] | words[1, :, 0] | words[1, :, 1])
    return (int(sites[0]), int(sites[-1]) + 1) if sites.size else (0, 0)


def _bound(a) -> tuple[np.ndarray, int]:
    """a and its address: as it is for an open pool's view, else as a
    C-contiguous complex128 array (a copy if need be, which the caller
    keeps alive while C reads it)."""
    bound = _BOUND.get(id(a))
    if bound is None:
        a = np.ascontiguousarray(a, dtype=np.complex128)
        return a, a.ctypes.data
    return a, bound[0]


def _rows(u, v) -> tuple[np.ndarray, int, np.ndarray, int, int]:
    """u and v as runs of equal shape, 1-d (one run) or 2-d (one row per
    run), with their addresses and the sites from one row to the next: an
    open pool's views as they are, any other arrays as ``_bound`` makes
    them."""
    (u, au), (v, av) = _bound(u), _bound(v)
    if u.ndim not in (1, 2) or u.shape != v.shape:
        raise ValueError(f"u and v must be 1-d or 2-d of equal length, got shapes {u.shape} and {v.shape}")
    stride = u.strides[0] // 16 if u.ndim == 2 else u.shape[0]
    if u.ndim == 2 and v.strides[0] != u.strides[0]:  # one stride serves both: make both C-contiguous
        (u, au), (v, av) = ((a, a.ctypes.data) for a in (np.ascontiguousarray(u), np.ascontiguousarray(v)))
        stride = u.shape[1]
    return u, au, v, av, stride


def _lcd_step(steps, h, m, alpha, beta, periodic, forcing) -> int:
    """``lcd_step`` with steps, its address, size and extent arguments, and
    forcing checked against the rows' n sites; returns its verdict."""
    n = steps[7]
    f_ptrs = [None] * 4  # NULL: the unforced step
    if forcing is not None:
        f = [np.ascontiguousarray(a, dtype=np.complex128) for a in forcing]
        if len(f) != 4:
            raise ValueError(f"forcing needs 4 arrays, got {len(f)}")
        if any(a.shape != (n,) for a in f):
            raise ValueError(f"forcing arrays must be shaped like u's rows ({n},), got {[a.shape for a in f]}")
        f_ptrs = [a.ctypes.data for a in f]
    return _lib.lcd_step(*steps, h, m, alpha, beta, bool(periodic), *f_ptrs)


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


def step_unforced(u, v, h, m, alpha, beta, periodic, forcing=None, out=None):
    """One step of one run or of a batch of runs; forcing is None or the
    four samples ``pure.step_unforced`` names, shaped like one run.

    u and v are one run's fields (1-d) or the rows of several (2-d, one row
    per run), stepped in turn. Returns ``(u_new, v_new, bad)``: the new
    level, shaped like u, and the first site where u_new or v_new has a
    non-finite part as a flat index over the rows (``run * n + site``), or
    -1 when every row is finite; rows after the first bad one may be left
    unwritten. Given out, an open ``LevelPool``, u and v must be the u and
    v of one of its generations (``LevelPool.generation``, else
    ValueError): the level is written into the other generation, whose u
    and v are u_new and v_new. Without, u_new and v_new are fresh
    C-contiguous complex128 arrays.
    """
    if out is not None:
        g = out.generation(u, v)
        if _active == "compiled":
            bad = _lcd_step(out.steps[g], h, m, alpha, beta, periodic, forcing)
        else:
            u_new, v_new, bad = pure.step_unforced(u, v, h, m, alpha, beta, periodic, forcing)
            out._put(u_new, v_new, 1 - g)
        return out.u[1 - g], out.v[1 - g], bad
    if _active == "pure":
        return pure.step_unforced(u, v, h, m, alpha, beta, periodic, forcing)
    u, au, v, av, stride = _rows(u, v)
    u_new, v_new = np.empty(u.shape, dtype=np.complex128), np.empty(u.shape, dtype=np.complex128)
    n = u.shape[-1]
    steps = (au, av, u_new.ctypes.data, v_new.ctypes.data, u.shape[0] if u.ndim == 2 else 1, stride, n, n,
             None, None)  # no extents: every site is stepped
    return u_new, v_new, _lcd_step(steps, h, m, alpha, beta, periodic, forcing)


def _block(values) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValueError(f"values must be 2-d with at least one column, got shape {values.shape}")
    return values


def _template(values) -> str:
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


def format_rows(values) -> str:
    """CSV rows of a 2-d block: each value as ``"%.17g" % x``, ``,`` between
    values, ``\n`` after each row (``format_rows_into`` on a buffer of its own).
    """
    values = _block(values)
    buf = np.empty(values.size * TOKEN_BYTES, dtype=np.uint8)
    return str(buf[:format_rows_into(buf, 0, values)], "ascii")


def format_rows_into(buf: np.ndarray, at: int, values) -> int:
    """Write ``format_rows(values)`` as ASCII into buf, a writable 1-d
    C-contiguous uint8 array, at offset at and return the offset after it.

    buf must hold ``values.size * TOKEN_BYTES`` bytes from at, room for the
    longest tokens; the bytes past the returned offset are left undefined.
    The compiled backend writes every double in C (``_format.c``, proven
    for all of them by ``tests/test_format_proof.py``); pure uses one ``%``
    template per block.
    """
    values = _block(values)
    rows, cols = values.shape
    cap = rows * cols * TOKEN_BYTES
    if buf.dtype != np.uint8 or buf.ndim != 1 or not (buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError("buf must be a writable 1-d C-contiguous uint8 array")
    if not 0 <= at <= buf.size - cap:
        raise ValueError(f"{cap} bytes from offset {at} do not fit a buffer of {buf.size}")
    if _active == "compiled":
        n = _lib.lcd_format_rows(values.ctypes.data, rows, cols, buf.ctypes.data + at, cap)
        if n < 0:  # only a short buffer, which the check above rules out
            raise RuntimeError(f"lcd_format_rows refused {cap} bytes for a {rows}x{cols} block")
        return at + n
    text = _template(values).encode("ascii")
    buf[at:at + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return at + len(text)


class _Level(ctypes.Structure):
    """``lcd_level`` in ``_level.c``, field for field."""

    ARRAYS = ("au0", "av0", "pre_u0", "pre_v0", "pre_u", "pre_v")
    _fields_ = ([("n", ctypes.c_ssize_t), ("runs", ctypes.c_ssize_t)]
                + [(name, ctypes.c_double) for name in ("dx", "m", "C0")]
                + [(name, ctypes.c_void_p) for name in ARRAYS]
                + [("ia", ctypes.c_ssize_t), ("ib", ctypes.c_ssize_t), ("row", ctypes.c_void_p)])


SECTION_SUMS, PAIR_SUMS = (1, 4), 7  # where LevelTerms.sums holds each run's section sums, and the pair's


class LevelTerms:
    """The row ``level_terms`` writes one level into, and the origin and
    scratch its growth margins read, allocated once for n sites and 1 or 2
    runs (A, then B), with the addresses the C pass takes kept in one
    struct (``a.ctypes.data`` costs about 2 us a lookup).

    No term is kept: ``row``, one float64 array, holds what the pass leaves
    of a level, and ``sums``, ``margins``, ``sites`` and ``edges`` are its
    parts, at the offsets 0, ``margins_at``, ``sites_at`` and ``edges_at``.
    With au = |u|^2, av = |v|^2 and the section [i0, i1), and for two runs
    U = uA - uB, V = vA - vB, umod = auA + auB and vmod = avA + avB,
    ``sums`` holds the sums of the terms: run A's au + av over the grid,
    then from ``SECTION_SUMS[r]`` run r's au + av, au av and au suffix(av)
    (whose sum is q_upper(au, av)) over the section, and for two runs from
    ``PAIR_SUMS`` those of |U|^2 + |V|^2, |U|^2 vmod + umod |V|^2,
    |U|^2 suffix(vmod) and umod suffix(|V|^2) (the sums of the suffix-scan
    products 0.0 below two sites).

    With origin, run A's (u, v) at t = 0, and the run's m and C0, a level
    written with a growth factor also gets the growth margins: ``margins``
    and ``sites`` hold the largest margin, and its site as ``np.argmax``
    finds it, of |u|^2 and of |v|^2 against their feet at t = 0 and of the
    bound over every dyadic window (-inf and -1 without a candidate);
    ``au0``, ``av0``, ``pre_u0`` and ``pre_v0`` are the origin's densities
    and prefix sums, ``pre_u`` and ``pre_v`` the pass's scratch for the
    level's. With edges, the triangle's edge sites (ia, ib), ``edges``
    holds run A's |u|^2 at ib - kshift and |v|^2 at ia + kshift (NaN where
    a site leaves the grid, and both NaN without edges).
    """

    def __init__(self, n: int, runs: int, dx: float, origin=None, m: float = 0.0, C0: float = 0.0,
                 edges=None):
        if runs not in (1, 2):
            raise ValueError(f"runs must be 1 or 2, got {runs}")
        self.n, self.runs, self.dx, self.m, self.C0 = n, runs, dx, m, C0
        self._shape = (n,)
        self.margins_at = 1 + 3 * runs + (4 if runs == 2 else 0)
        self.sites_at, self.edges_at = self.margins_at + 3, self.margins_at + 6
        self.row = np.empty(self.edges_at + 2)
        self.sums, self.margins = self.row[: self.margins_at], self.row[self.margins_at : self.sites_at]
        self.sites, self.edges = self.row[self.sites_at : self.edges_at], self.row[self.edges_at :]
        self.row[:] = [0.0] * self.margins_at + [-np.inf] * 3 + [-1.0] * 3 + [np.nan] * 2
        self.edge_sites = None if edges is None else tuple(int(i) for i in edges)
        if self.edge_sites is not None and not all(0 <= i < n for i in self.edge_sites):
            raise ValueError(f"edge sites {self.edge_sites} must lie on the grid of {n} sites")
        addresses = dict.fromkeys(_Level.ARRAYS)
        self.au0 = self.av0 = self.pre_u0 = self.pre_v0 = self.pre_u = self.pre_v = None
        if origin is not None:
            # the float64 buffers are views of one block, so their addresses take one lookup
            block = np.zeros(2 * n + 4 * (n + 1))
            self.au0, self.av0 = block[:n], block[n : 2 * n]
            self.pre_u0, self.pre_v0, self.pre_u, self.pre_v = block[2 * n :].reshape(4, n + 1)
            u0, v0 = (_field(a, n)[0] for a in origin)
            with np.errstate(over="ignore", invalid="ignore"):  # left to the caller, as in the pass
                np.add(u0.real**2, u0.imag**2, out=self.au0)
                np.add(v0.real**2, v0.imag**2, out=self.av0)
                np.cumsum(self.au0, out=self.pre_u0[1:])
                np.cumsum(self.av0, out=self.pre_v0[1:])
            base = block.ctypes.data
            addresses.update(au0=base, av0=base + 8 * n,
                             **{name: base + 8 * (2 * n + k * (n + 1))
                                for k, name in enumerate(("pre_u0", "pre_v0", "pre_u", "pre_v"))})
        ia, ib = (-1, -1) if edges is None else self.edge_sites
        self._struct = _Level(n, runs, dx, m, C0, *addresses.values(), ia, ib, self.row.ctypes.data)
        self._address = ctypes.addressof(self._struct)

    def write(self, fields, i0: int, i1: int, kshift: int, E) -> None:
        """``level_terms`` of fields, u and v of each run in turn, without
        the list of sums: each field is checked, and converted if need be,
        as ``distance_sums`` checks its runs (an open pool's view as it is,
        with no address lookup)."""
        n, shape = self.n, self._shape
        if len(fields) != 2 * self.runs:
            raise ValueError(f"terms hold {self.runs} runs, got {len(fields) // 2}")
        arrays, addresses = [], []  # the fields, converted where need be and alive through the call
        for a in fields:
            bound = _BOUND.get(id(a))
            if bound is None or a.shape != shape:
                a, address = _field(a, n)
            else:
                address = bound[0]
            arrays.append(a)
            addresses.append(address)
        if i1 <= i0:  # no section, so no margins
            i0 = i1 = 0
            E = None
        reach = 0  # how far past the section the C pass reads
        if E is not None:
            if self.au0 is None:
                raise ValueError("growth margins need terms made with an origin")
            reach = kshift if kshift >= 0 else -kshift
        if i0 < reach or i1 + reach > n:
            raise UsageError(f"section [{i0}, {i1}) with its feet {reach} sites out "
                             f"leaves the grid of {n} sites")
        if _active == "compiled":
            if self.runs == 1:
                addresses += None, None  # NULL: no run B
            _lib.lcd_level_terms(self._address, *addresses, i0, i1, kshift, E is not None, 0.0 if E is None else E)
        else:
            pure.level_terms(self, list(zip(arrays[::2], arrays[1::2])), i0, i1, kshift, E)


def _field(a, n: int) -> tuple[np.ndarray, int]:
    """a as a C-contiguous complex128 field of n sites, and its address."""
    a, address = _bound(a)
    if a.shape != (n,):
        raise UsageError(f"a field of shape {a.shape} on terms sized for {n} sites")
    return a, address


def level_terms(terms: LevelTerms, runs, i0: int, i1: int, kshift: int, E) -> list[float]:
    """Write one level's row into terms (see ``LevelTerms``) and return
    ``terms.sums`` as Python floats.

    runs holds one (u, v) pair per run of terms; [i0, i1) is the section,
    empty when i1 <= i0. E, the growth factor at this level (None for
    none), asks for the growth margins of a nonempty section, with the feet
    kshift sites along each characteristic. A section whose feet leave the
    grid raises UsageError, as does a field of another size, so the C pass
    never reads past a buffer. ``LevelTerms.write`` makes the same call
    without building the list.
    """
    terms.write([a for run in runs for a in run], i0, i1, kshift, E)
    return terms.sums.tolist()


DISTANCE_DEPTH = 64  # the depths of the pairwise split lcd_distance_sums keeps partial sums for


class DistanceSums:
    """The run pairs whose distances ``distance_sums`` takes at one level,
    and the buffers it writes, allocated once for n sites, with their
    addresses kept (a lookup costs about 2 us): ``pairs``, an (npairs, 2)
    intp array of run indices (A, B); ``sums``, an (npairs, 2) float64
    array whose row k holds pair k's sums of |U|^2 + |V|^2, with
    U = uA - uB and V = vA - vB, the terms of ``fields.l2_distance``, and
    of |uA vA - uB vB|^2; the tables of the runs' field addresses and of
    their extents (the address of a ``LevelPool`` slot's extent for a pool
    row, NULL for any other field) the C pass reads, which skips each leaf
    of the pairwise split that no extent of a pair meets; and its scratch,
    the partial sums of every pair at each of at most ``DISTANCE_DEPTH``
    depths of the split (see ``lcd_distance_sums``).
    """

    def __init__(self, n: int, pairs):
        self.n = n
        self.pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        if (self.pairs < 0).any():
            raise ValueError("run indices must be nonnegative")
        self.runs = int(self.pairs.max()) + 1 if self.pairs.size else 0
        self.sums = np.zeros(self.pairs.shape)
        self._rows = np.zeros(2 * self.runs, dtype=np.intp)
        self._extents = np.zeros(2 * self.runs, dtype=np.intp)
        self._partial = np.empty((DISTANCE_DEPTH, *self.pairs.shape))
        self._addresses = (self._rows.ctypes.data, self._extents.ctypes.data, self.pairs.ctypes.data,
                           len(self.pairs), n, self.sums.ctypes.data, self._partial.ctypes.data)


def distance_sums(sums: DistanceSums, runs) -> list[float]:
    """Write the sums of the field- and product-distance terms of every pair
    of sums.pairs into ``sums.sums`` (see ``DistanceSums``) in one pass,
    each complex product as four real products and two sums, and return
    them as Python floats, pair by pair: [l1 of pair 0, p1 of pair 0, ...].
    runs holds one (u, v) pair per run, at least as many as the pairs
    name. A field of another size raises UsageError before the pass runs.
    """
    if len(runs) < sums.runs:
        raise ValueError(f"the pairs name {sums.runs} runs, got {len(runs)}")
    fields = [_field(a, sums.n) for run in runs[: sums.runs] for a in run]  # (array, address)
    if _active == "compiled":
        sums._rows[:] = [address for _, address in fields]
        sums._extents[:] = [_BOUND.get(id(a), (0, 0))[1] for a, _ in fields]  # 0: NULL, the whole row
        _lib.lcd_distance_sums(*sums._addresses)
    else:
        pure.distance_sums(sums, [(fields[2 * r][0], fields[2 * r + 1][0]) for r in range(sums.runs)])
    return sums.sums.ravel().tolist()

"""Kernel backend selection.

Two kernels have a compiled and a pure backend with the same results bit
for bit (but for the step's corner named in ``_step.c``):

- ``step_unforced`` is the one lattice step, unforced or, given
  ``forcing``, forced (the name predates forcing; ``perfbench`` wraps it by
  that name);
- ``format_rows`` writes a 2-d float64 block as CSV rows of ``%.17g``
  values, byte for byte as Python's ``%`` operator does.

The backends:

- ``compiled``: ``_step.c`` and ``_format.c``, built into one library with
  the system C compiler on first import, cached as
  ``__pycache__/_step.<key>.so`` next to this file (the key is a CRC-32 of
  both sources and the flags; a build deletes the libraries of other keys)
  and called through ctypes;
- ``pure``: the NumPy step in ``pure.py`` and one ``%`` template per block,
  used whenever the build or the load fails.

``backend_reason()`` says which one runs and why. The ordered pair sums
``q_upper`` and ``q_upper_naive`` are NumPy for every backend. The active
backend is fixed at import and can be overridden with ``use_backend``
(benchmarks and cross-backend tests).
"""
from __future__ import annotations

import ctypes
import os
import zlib

import numpy as np

from . import pure
from .pure import q_upper, q_upper_naive  # noqa: F401  (public names)

CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(_HERE, name) for name in ("_step.c", "_format.c"))
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
    """Build ``_step.c`` and ``_format.c`` into cache_dir unless cached,
    then load the library.

    Returns ``(library or None, one-line reason)``; never raises.
    """
    try:
        target = os.path.join(cache_dir, f"_step.{library_key():08x}.so")
        if not os.path.exists(target):
            _compile(SOURCES, target)
            _remove_stale(cache_dir, target)
        lib = ctypes.CDLL(target)
        step, fmt = lib.lcd_step, lib.lcd_format_rows
    except (OSError, AttributeError) as exc:  # AttributeError: a symbol is missing
        return None, f"pure: {exc}"
    step.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] + [ctypes.c_double] * 4 + [ctypes.c_int]
                     + [ctypes.c_void_p] * 4)
    step.restype = None
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t]
    fmt.restype = ctypes.c_ssize_t
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

#!/usr/bin/env python3
"""Time the lattice step on each kernel backend, and the ordered pair sum.

The unforced light-cone step runs on every available backend (``compiled``
is ``_step.c`` through ctypes, ``pure`` is NumPy), with the pure/compiled
time ratio. ``q_upper`` is NumPy on every backend, so it is timed once,
beside its O(N^2) oracle ``q_upper_naive`` and their time ratio.

Usage: python benchmarks/bench_kernels.py [--sizes 256,1024,4096] [--repeats 7]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from lcdirac import kernels


def best_of(fn, repeats: int) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(sizes, repeats):
    rng = np.random.default_rng(7)
    backends = kernels.available_backends()
    print(f"kernel backend: {kernels.backend_reason()}")
    header = f"{'kernel':<16}{'N':>6}" + "".join(f"{b:>14}" for b in backends) + f"{'ratio':>10}"
    print(header)
    print("-" * len(header))
    before = kernels.backend_name()
    try:
        for n in sizes:
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            times = []
            for bk in backends:
                kernels.use_backend(bk)
                times.append(best_of(lambda: kernels.step_unforced(u, v, 0.01, 1.0, 0.0, 0.25, True), repeats))
            ratio = f"{times[-1] / times[0]:.1f}x" if len(times) == 2 else "n/a"
            cells = "".join(f"{t * 1e6:>12.1f}us" for t in times)
            print(f"{'step_unforced':<16}{n:>6}{cells}{ratio:>10}")

            a = rng.uniform(size=n)
            b = rng.uniform(size=n)
            t_fast = best_of(lambda: kernels.q_upper(a, b), repeats)
            t_naive = best_of(lambda: kernels.q_upper_naive(a, b), repeats)
            print(f"{'q_upper':<16}{n:>6}{t_fast * 1e6:>12.1f}us")
            print(f"{'q_upper_naive':<16}{n:>6}{t_naive * 1e6:>12.1f}us{f'{t_naive / t_fast:.1f}x':>{10 + 14 * (len(backends) - 1)}}")
    finally:
        kernels.use_backend(before)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="256,1024,4096")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    bench([int(s) for s in args.sizes.split(",")], args.repeats)


if __name__ == "__main__":
    main()

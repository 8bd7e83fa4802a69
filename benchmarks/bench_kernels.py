#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure NumPy fallback.

Times the unforced light-cone step and the ordered pair sum (fast suffix
scan and direct O(N^2) oracle) on both backends, plus the fast/naive speed
ratio that the functional evaluators rely on.

Usage: python benchmarks/bench_kernels.py [--sizes 256,1024,4096] [--repeats 7]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from lcdirac import kernels


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(sizes, repeats):
    rng = np.random.default_rng(7)
    backends = kernels.available_backends()
    print(f"available backends: {', '.join(backends)}")
    header = f"{'kernel':<16}{'N':>6}" + "".join(f"{b:>14}" for b in backends) + f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    before = kernels.backend_name()
    try:
        for n in sizes:
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            a = rng.uniform(size=n)
            b = rng.uniform(size=n)
            rows = {
                "step_unforced": lambda: kernels.step_unforced(u, v, 0.01, 1.0, 0.0, 0.25, True),
                "q_upper": lambda: kernels.q_upper(a, b),
                "q_upper_naive": lambda: kernels.q_upper_naive(a, b),
            }
            for name, fn in rows.items():
                times = []
                for bk in backends:
                    kernels.use_backend(bk)
                    fn()  # warm up
                    times.append(best_of(fn, repeats))
                ratio = f"{times[-1] / times[0]:.1f}x" if len(times) == 2 and times[0] > 0 else "n/a"
                cells = "".join(f"{t*1e6:>12.1f}us" for t in times)
                print(f"{name:<16}{n:>6}{cells}{ratio:>10}")
            # algorithmic ratio within the default backend
            kernels.use_backend(backends[0])
            t_fast = best_of(lambda: kernels.q_upper(a, b), repeats)
            t_naive = best_of(lambda: kernels.q_upper_naive(a, b), repeats)
            pad = " " * (14 * len(backends))
            print(f"{'fast/naive':<16}{n:>6}{pad}{f'{t_naive / t_fast:.1f}x':>10}")
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

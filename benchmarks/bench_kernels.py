#!/usr/bin/env python3
"""Time the lattice step on each kernel backend, and the ordered pair sum.

The unforced light-cone step runs on every available backend (``compiled``
is ``_step.c`` through ctypes, ``pure`` is NumPy) for the two models the
end-to-end workloads step: Thirring (alpha = 1) on a periodic lattice, as in
``converge_rough``, and Gross-Neveu (beta = 0.25) with zero inflow, as in
``audit_cone``. Each cell is nanoseconds per site update, from the best of
``--repeats`` timings of CALLS steps; the last column is the
pure/compiled ratio. ``q_upper`` is NumPy on every backend, so it is timed
once, beside its O(N^2) oracle ``q_upper_naive`` and their time ratio.

Usage: python benchmarks/bench_kernels.py [--sizes 768,3072,4096] [--repeats 7]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from lcdirac import GROSS_NEVEU, THIRRING, kernels

CALLS = 20  # steps per timing
MODELS = (("thirring, periodic", THIRRING, True), ("gross-neveu, zero inflow", GROSS_NEVEU, False))


def best_of(fn, repeats: int) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def step_ns_per_site(u, v, p, periodic, repeats) -> float:
    h = 16.0 / u.shape[0]  # the time step of [-8, 8) at this size

    def steps():
        for _ in range(CALLS):
            kernels.step_unforced(u, v, h, p.m, p.alpha, p.beta, periodic)

    return best_of(steps, repeats) / (CALLS * u.shape[0]) * 1e9


def bench(sizes, repeats):
    rng = np.random.default_rng(7)
    backends = kernels.available_backends()
    print(f"kernel backend: {kernels.backend_reason()}")
    print("step: ns per site update")
    header = f"{'model':<26}{'N':>6}" + "".join(f"{b:>12}" for b in backends) + f"{'ratio':>10}"
    print(header)
    print("-" * len(header))
    before = kernels.backend_name()
    try:
        for name, p, periodic in MODELS:
            for n in sizes:
                u = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                v = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                times = []
                for bk in backends:
                    kernels.use_backend(bk)
                    times.append(step_ns_per_site(u, v, p, periodic, repeats))
                ratio = f"{times[-1] / times[0]:.1f}x" if len(times) == 2 else "n/a"
                cells = "".join(f"{t:>12.1f}" for t in times)
                print(f"{name:<26}{n:>6}{cells}{ratio:>10}")
    finally:
        kernels.use_backend(before)

    print()
    print(f"{'pair sum':<16}{'N':>6}{'time':>14}{'ratio':>10}")
    for n in sizes:
        a = rng.uniform(size=n)
        b = rng.uniform(size=n)
        t_fast = best_of(lambda: kernels.q_upper(a, b), repeats)
        t_naive = best_of(lambda: kernels.q_upper_naive(a, b), repeats)
        print(f"{'q_upper':<16}{n:>6}{t_fast * 1e6:>12.1f}us")
        print(f"{'q_upper_naive':<16}{n:>6}{t_naive * 1e6:>12.1f}us{f'{t_naive / t_fast:.1f}x':>10}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="768,3072,4096")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    bench([int(s) for s in args.sizes.split(",")], args.repeats)


if __name__ == "__main__":
    main()

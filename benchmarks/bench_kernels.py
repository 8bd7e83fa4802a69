#!/usr/bin/env python3
"""Time the lattice step, the CSV formatter and the audit pass on each
kernel backend, and the standalone ordered pair sum.

The unforced light-cone step runs on every available backend (``compiled``
is ``_step.c`` through ctypes, ``pure`` is NumPy) for the two models the
end-to-end workloads step: Thirring (alpha = 1) on a periodic lattice, as in
``converge_rough``, and Gross-Neveu (beta = 0.25) with zero inflow, as in
``audit_cone``. Each cell is nanoseconds per site update, from the best of
``--repeats`` timings of CALLS steps; the last column is the
pure/compiled ratio. Below the step rows, ``format_rows`` writes one
snapshot level of 768 sites x 6 columns (``_format.c`` against the ``%``
template), in nanoseconds per value. Then a full ``AuditPass`` (charge,
triangle, pointwise, bony and gronwall on runs A and B, N = 3072 on
[-6, 6), cone [-4, 4], T = 1: the size of the ``audit_cone`` workload, its
257 levels evolved once and held) is fed every level, in microseconds per
level; ``level_terms`` is ``_level.c`` or its NumPy twin, and the sums are
NumPy on both. Then the pair distances ``converge`` and ``unique`` take at
every level (``_PairDistance.feed``: one distance-mode ``level_terms``
pass over two random Thirring-sized runs and two NumPy sums), in
microseconds per pair-level. Last, the standalone ordered pair sum ``q_upper`` (NumPy on
every backend, and no longer called by lcdirac: the cone functionals sum
``level_terms``' suffix-scan products) is timed once, beside its O(N^2)
oracle ``q_upper_naive`` that the tests compare the functionals with, and
their time ratio.

Usage: python benchmarks/bench_kernels.py [--sizes 768,3072,4096] [--repeats 7]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

import lcdirac as lc
from lcdirac import GROSS_NEVEU, THIRRING, kernels
from lcdirac.functionals import AuditPass
from lcdirac.harness import _PairDistance

CALLS = 20  # steps per timing
AUDITS = ("charge", "triangle", "pointwise", "bony", "gronwall")
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


def format_ns_per_value(block, repeats) -> float:
    return best_of(lambda: kernels.format_rows(block), repeats) / block.size * 1e9


def audit_levels():
    """Levels of audit_cone's size: Gross-Neveu pulses on 3072 sites and a
    copy perturbed by 1e-3, both evolved to T = 1."""
    grid = lc.make_grid(-6.0, 6.0, 3072, "zero_inflow")
    datum = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8),
                            lc.ComponentSpec("gaussian_pulse", 0.055, center=0.5, width=0.9))
    f0 = lc.sample_initial(datum, grid)
    runs = [f0, lc.SpinorField(grid, 0.0, f0.u * (1.0 + 1e-3), f0.v)]
    levels = []
    lc.evolve(runs, GROSS_NEVEU, lc.SolverConfig(), 1.0, observers=[levels.append])
    return levels


def audit_us_per_level(levels, repeats) -> float:
    f0 = levels[0][0]
    dom = lc.TriangleDomain(-4.0, 4.0)
    k = lc.derive_constants(GROSS_NEVEU)

    def feed():
        audits = AuditPass(AUDITS, dom, k, GROSS_NEVEU, T=1.0, tau=levels[-1][0].t, C0=lc.charge(f0) + 1.0)
        audits.start(levels[0])
        for lv in levels:
            audits(lv)

    return best_of(feed, repeats) / len(levels) * 1e6


def distance_us_per_pair_level(n, rng, repeats) -> float:
    grid = lc.make_grid(-8.0, 8.0, n, "periodic")
    a, b = (lc.SpinorField(grid, 0.0, 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                           0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))) for _ in range(2))

    def feed():
        dist = _PairDistance()
        for _ in range(CALLS):
            dist.feed(a, b)

    return best_of(feed, repeats) / CALLS * 1e6


def print_row(label, n, times):
    ratio = f"{times[-1] / times[0]:.1f}x" if len(times) == 2 else "n/a"
    cells = "".join(f"{t:>12.1f}" for t in times)
    print(f"{label:<26}{n:>6}{cells}{ratio:>10}")


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
                print_row(name, n, times)
        # one snapshot level: t, x and the four field components at 17 digits
        n = 768
        block = np.column_stack([np.full(n, 0.25), np.linspace(-8.0, 8.0, n, endpoint=False),
                                 0.1 * rng.normal(size=(n, 4))])
        print("format: ns per value")
        times = []
        for bk in backends:
            kernels.use_backend(bk)
            times.append(format_ns_per_value(block, repeats))
        print_row("format_rows, 6 columns", n, times)
        levels = audit_levels()
        print("audit pass: us per level")
        times = []
        for bk in backends:
            kernels.use_backend(bk)
            times.append(audit_us_per_level(levels, repeats))
        print_row("AuditPass, 5 audits", levels[0][0].grid.n_points, times)
        print("pair distance: us per pair-level")
        for n in sizes:
            times = []
            for bk in backends:
                kernels.use_backend(bk)
                times.append(distance_us_per_pair_level(n, rng, repeats))
            print_row("_PairDistance.feed", n, times)
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

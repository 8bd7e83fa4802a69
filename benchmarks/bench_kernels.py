#!/usr/bin/env python3
"""Time the lattice step, the CSV formatter and the audit pass on each
kernel backend, and the standalone ordered pair sum.

The unforced light-cone step runs on every available backend (``compiled``
is ``_step.c`` through ctypes, ``pure`` is NumPy) for the two models the
end-to-end workloads step: Thirring (alpha = 1) on a periodic lattice, as in
``converge_rough``, and Gross-Neveu (beta = 0.25) with zero inflow, as in
``audit_cone``. Each cell is nanoseconds per site update, from the best of
``--repeats`` timings of CALLS steps; the last column is the
pure/compiled ratio. Then one step per level for Thirring on a periodic
lattice, in microseconds per level: the kernel call
(``kernels.step_unforced``) on fresh arrays, the same call from one
``LevelPool`` generation into the other (``out=pool``) as ``evolve`` makes
it, and on ``compiled`` the bare ``lcd_step`` on the pool's own step
arguments (``LevelPool.steps``), so the overhead per level stays visible. Then one lockstep level of R = 2 and 5
dense runs at N = 3072 and 4096, in microseconds per level: the one batched
call on the pool's generations that ``evolve`` makes (``BENCH_33.json``
records it against R single-run calls); and the same call on 5 compactly
supported runs of different widths (5 to 40 % of the grid, each at its own
place clear of the grid's ends, as ``converge_rough``'s mollified runs
differ); both are loaded into a pool and stepped from one generation into
the other as ``evolve`` steps them, so the compiled step computes only
each run's extent. Then ``format_rows`` writes one
snapshot level of 768 sites x 6 columns (``_format.c`` against the ``%``
template), in nanoseconds per value, and beside it ``cli.snapshots_csv``
writes a run of the ``simulate_csv`` workload's size (65 levels of 768
sites) into its one byte buffer, in nanoseconds per value, so the Python
around the C stays visible. Then a full ``AuditPass`` (charge,
triangle, pointwise, bony and gronwall on runs A and B, N = 3072 on
[-6, 6), cone [-4, 4], T = 1: the size of the ``audit_cone`` workload, its
257 levels evolved once and held) is fed every level, in microseconds per
level, the t = 0 call included: as in ``evolve``, that first call also
starts the pass (its t = 0 checks and charges come from that level's
row); ``level_terms`` is ``_level.c``'s one fused pass a level, which
stores no term, or its NumPy twin, which forms every term array. It is fed
fresh levels (its construction timed with them), and the
same levels as ``evolve`` feeds them: the t = 0 level as it is, and level k
on the rows of a ``LevelPool``'s generation k % 2, copied there untimed
before its call, so the pass reads each generation's bound views. On
``compiled`` the bare ``lcd_level_terms`` calls of that
pass are replayed the same way, one per level with the arguments the pass
gave, each right after the pass's own call on that level. Both rows sum
each level's best time over the repeats, and a third row shows the Python
per level: the sum over levels of each level's median difference between
the pass's call and its replay, so the machine's drift between repeats
cannot turn it negative. The bench refuses a pass whose calls it cannot
record by name on ``kernels._lib``. Beside them, one level's growth
margins at N = 3072, in microseconds per call (on ``compiled`` the bare
``lcd_level_terms`` call that ``LevelTerms.write`` makes): a level grown
by 5 % along each characteristic, with a slack per site (m C0 = 100) that
lets the pass skip every window width from 4 up, as on ``audit_cone``, and
the same level with almost none (m C0 = 1e-6), where the widest windows
win and no width can be skipped. Then the pair distances
``converge`` and ``unique`` take at every level (``kernels.distance_sums``:
the terms of every pair of random Thirring-sized runs, the product in real
arithmetic on both backends, and their two sums per pair), in microseconds
per level of five runs and their four consecutive pairs, as
``converge_rough`` takes them: one ``distance_sums`` call per pair against
one call for all four pairs, on a ``LevelPool``'s rows, on dense levels and
on the five compactly supported runs above (the compiled pass skips every
128-site leaf outside a pair's extents), and on ``compiled`` the bare
``lcd_distance_sums`` call of all four pairs.
Then the standalone ordered pair sum ``q_upper`` (NumPy on
every backend, and no longer called by lcdirac: the cone functionals sum
``level_terms``' suffix-scan products) is timed once, beside its O(N^2)
oracle ``q_upper_naive`` that the tests compare the functionals with, and
their time ratio.

Usage: python benchmarks/bench_kernels.py [--sizes 768,3072,4096] [--repeats 7]
"""
from __future__ import annotations

import argparse
import itertools
import time

import numpy as np

import lcdirac as lc
from lcdirac import GROSS_NEVEU, THIRRING, SpinorField, cli, kernels
from lcdirac.functionals import AuditPass

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


def random_rows(rng, runs, n):
    """(runs, n) complex rows of u and of v, each part normal with deviation 0.1."""
    return [0.1 * (rng.normal(size=(runs, n)) + 1j * rng.normal(size=(runs, n))) for _ in "uv"]


COMPACT_WIDTHS = (0.05, 0.1, 0.2, 0.3, 0.4)  # of the grid, one a run


def compact_rows(rng, n, widths=COMPACT_WIDTHS):
    """(runs, n) rows of u and of v as random_rows makes them, each zero
    but for an interval of its width in COMPACT_WIDTHS, from (r + 1) / 10
    of the grid for run r: at its own place and clear of both ends, as
    converge_rough's supports are."""
    u, v = random_rows(rng, len(widths), n)
    for r, width in enumerate(widths):
        first = (r + 1) * n // 10
        end = first + max(1, int(width * n))
        for a in (u, v):
            a[r, :first] = a[r, end:] = 0.0
    return u, v


def level_us(n, p, rng, repeats):
    """(kernel call, kernel call into a pool generation and, on compiled,
    bare lcd_step) in us per level on a periodic grid of n sites."""
    grid = lc.make_grid(-8.0, 8.0, n, "periodic")
    f = lc.SpinorField(grid, 0.0, *(a[0] for a in random_rows(rng, 1, n)))
    args = (grid.dt, p.m, p.alpha, p.beta, True)

    def kernel():
        for _ in range(CALLS):
            kernels.step_unforced(f.u, f.v, *args)

    with kernels.LevelPool(1, n) as pool:
        pool.load([(f.u, f.v)])

        def pooled():  # from one generation into the other and back, as evolve steps one run
            for k in range(CALLS):
                kernels.step_unforced(pool.u[k % 2], pool.v[k % 2], *args, out=pool)

        times = [best_of(kernel, repeats), best_of(pooled, repeats)]
        if kernels.backend_name() == "compiled":
            def bare():
                for _ in range(CALLS):
                    kernels._lib.lcd_step(*pool.steps[0], *args, None, None, None, None)

            times.append(best_of(bare, repeats))
    return [t / CALLS * 1e6 for t in times]


def lockstep_us(rows, p, repeats) -> float:
    """One batched call in us per lockstep level of Thirring runs on a
    periodic grid: rows holds each run's (u, v), loaded into a pool before
    each timing and stepped from one generation into the other and back,
    as evolve steps them, so on compactly supported rows each call steps
    the runs' extents, widened by one site per side and call."""
    n = len(rows[0][0])
    args = (16.0 / n, p.m, p.alpha, p.beta, True)
    best = float("inf")
    with kernels.LevelPool(len(rows), n) as pool:
        for _ in range(repeats + 1):
            pool.load(rows)
            t0 = time.perf_counter()
            for k in range(CALLS):
                kernels.step_unforced(pool.u[k % 2], pool.v[k % 2], *args, out=pool)
            best = min(best, time.perf_counter() - t0)
    return best / CALLS * 1e6


def format_ns_per_value(block, repeats) -> float:
    return best_of(lambda: kernels.format_rows(block), repeats) / block.size * 1e9


def snapshots_ns_per_value(levels, repeats) -> float:
    return best_of(lambda: cli.snapshots_csv(levels), repeats) / (len(levels) * levels[0].grid.n_points * 6) * 1e9


def audit_levels(n=3072, T=1.0):
    """Levels of audit_cone's size by default: Gross-Neveu pulses on n sites
    of [-6, 6) and a copy perturbed by 1e-3, both evolved to T."""
    grid = lc.make_grid(-6.0, 6.0, n, "zero_inflow")
    datum = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8),
                            lc.ComponentSpec("gaussian_pulse", 0.055, center=0.5, width=0.9))
    f0 = lc.sample_initial(datum, grid)
    runs = [f0, lc.SpinorField(grid, 0.0, f0.u * (1.0 + 1e-3), f0.v)]
    levels = []
    def keep(lv):  # evolve's levels are valid only during the call
        levels.append(tuple(lc.SpinorField(f.grid, f.t, f.u.copy(), f.v.copy()) for f in lv))

    lc.evolve(runs, GROSS_NEVEU, lc.SolverConfig(), T, observers=[keep])
    return levels


def audit_pass(levels) -> AuditPass:
    """The five evolved audits of the audit_cone command over levels."""
    f0 = levels[0][0]
    return AuditPass(AUDITS, lc.TriangleDomain(-4.0, 4.0), lc.derive_constants(GROSS_NEVEU), GROSS_NEVEU,
                     T=levels[-1][0].t, tau=levels[-1][0].t, C0=lc.charge(f0) + 1.0)


def in_generation(pool, g, level):
    """level's runs copied into generation g of pool, where evolve's step
    writes them, and the level on the generation's rows."""
    pool.load([(f.u, f.v) for f in level], g)
    return tuple(SpinorField._evolved(f.grid, f.t, *pool.rows[g][r]) for r, f in enumerate(level))


def fed_as_evolve_feeds(levels, pool, call, after=None) -> list[float]:
    """The seconds call(k, level) takes for each level: the t = 0 level as
    it is, and level k >= 1 on the rows of the pool's generation k % 2,
    where evolve's step k writes it (the copy there untimed); after(k), if
    given, runs right after each timed call."""
    times = []
    for k, level in enumerate(levels):
        if k:
            level = in_generation(pool, k % 2, level)
        t0 = time.perf_counter()
        call(k, level)
        times.append(time.perf_counter() - t0)
        if after is not None:
            after(k)
    return times


def best_per_level(passes) -> float:
    """The sum over levels of each level's best time in passes, lists of
    fed_as_evolve_feeds' times, the first (a warm-up) left out."""
    return sum(min(level) for level in zip(*passes[1:]))


def bare_calls(name, run):
    """The argument tuples of every kernels._lib.<name> call that run()
    makes, looked up by name as the library's callers do."""
    lib, calls = kernels._lib, []

    def record(*args):
        calls.append(args)
        return getattr(lib, name)(*args)

    class Recorder:
        def __getattr__(self, attr):
            return record if attr == name else getattr(lib, attr)

    kernels._lib = Recorder()
    try:
        run()
    finally:
        kernels._lib = lib
    return calls


def audit_us_per_level(levels, repeats) -> dict[str, float]:
    """A full AuditPass in us per level, by row label: fed fresh levels
    (its construction included), fed the levels as evolve feeds them from a
    LevelPool's two generations and, on compiled, its bare lcd_level_terms
    calls on those generations, with the arguments the pass gave, each
    replayed right after the pass's own call on the same level; and the
    Python around the C call: the sum over levels of each level's median
    difference between the two, taken back to back."""

    def feed():
        audits = audit_pass(levels)
        for level in levels:
            audits(level)

    rows = {"AuditPass, 5 audits": best_of(feed, repeats)}
    with kernels.LevelPool(len(levels[0]), levels[0][0].grid.n_points) as pool:
        replay = None
        if kernels.backend_name() == "compiled":
            recorded = audit_pass(levels)  # holds the buffers the recorded calls address
            calls = bare_calls("lcd_level_terms",
                               lambda: fed_as_evolve_feeds(levels, pool, lambda k, lv: recorded(lv)))
            if len(calls) != len(levels):
                raise RuntimeError(f"recorded {len(calls)} lcd_level_terms calls for {len(levels)} levels")
            fn = kernels._lib.lcd_level_terms

            def replay(k):
                t0 = time.perf_counter()
                fn(*calls[k])
                return time.perf_counter() - t0

        pooled, bare = [], []
        for _ in range(repeats + 1):
            audits, replays = audit_pass(levels), []
            after = None if replay is None else (lambda k: replays.append(replay(k)))
            pooled.append(fed_as_evolve_feeds(levels, pool, lambda k, level: audits(level), after))
            bare.append(replays)
        rows["AuditPass, pool"] = best_per_level(pooled)
        if replay is not None:
            rows["lcd_level_terms, bound"] = best_per_level(bare)
            rows["AuditPass, pool - bound"] = sum(float(np.median(np.subtract(p, b)))
                                                  for p, b in zip(zip(*pooled[1:]), zip(*bare[1:])))
    return {label: t / len(levels) * 1e6 for label, t in rows.items()}


def margins_us(n, rng, repeats) -> dict[str, float]:
    """One level's terms with growth margins in us per call, by row label:
    a level of n sites grown by 5 % along each characteristic over its
    feet n / 16 sites back, on a section of 3 n / 4 sites, with m C0 = 100
    (the window widths from 4 up are skipped) and 1e-6 (the widest windows
    win); on compiled the bare lcd_level_terms call LevelTerms.write makes."""
    kshift, dx = n // 16, 12.0 / n
    u0, v0 = (0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in "uv")
    u, v = np.zeros(n, complex), np.zeros(n, complex)
    u[kshift:], v[: n - kshift] = np.sqrt(1.05) * u0[: n - kshift], np.sqrt(1.05) * v0[kshift:]
    args = ((u, v), n // 8, n - n // 8, kshift, 1.0)
    times = {}
    for label, m in (("margins, widths skipped", 100.0), ("margins, wide windows win", 1e-6)):
        terms = kernels.LevelTerms(n, 1, dx, (u0, v0), m=m, C0=1.0)

        def call(terms=terms):
            terms.write(*args)

        if kernels.backend_name() == "compiled":
            (bare,) = bare_calls("lcd_level_terms", call)

            def call(bare=bare, fn=kernels._lib.lcd_level_terms):
                fn(*bare)

        def calls(call=call):
            for _ in range(CALLS):
                call()

        times[label] = best_of(calls, repeats) / CALLS * 1e6
    return times


def distance_us_per_level(n, rng, repeats, runs=5) -> dict[str, float]:
    """The distance sums of runs pool rows and their consecutive pairs in us
    per level, by row label: one distance_sums call per pair, one call for
    every pair and, on compiled, its bare lcd_distance_sums call; on dense
    levels, then on the compactly supported runs of compact_rows, whose
    extents the pool's load finds."""
    pairs = [(j, j + 1) for j in range(runs - 1)]
    each, every = kernels.DistanceSums(n, [(0, 1)]), kernels.DistanceSums(n, pairs)
    times = {}
    with kernels.LevelPool(runs, n) as pool:
        pool.load(zip(*random_rows(rng, runs, n)))
        level = pool.rows[0]

        def per_pair():
            for _ in range(CALLS):
                for i, j in pairs:
                    kernels.distance_sums(each, [level[i], level[j]])

        def all_pairs():
            for _ in range(CALLS):
                kernels.distance_sums(every, level)

        def bare():
            for _ in range(CALLS):
                kernels._lib.lcd_distance_sums(*every._addresses)

        for data in ("dense", "compact"):
            if data == "compact":
                pool.load(zip(*compact_rows(rng, n, COMPACT_WIDTHS[:runs])))
            times[f"{len(pairs)} calls, {data}"] = best_of(per_pair, repeats)
            times[f"1 call, {data}"] = best_of(all_pairs, repeats)
            if kernels.backend_name() == "compiled":
                kernels.distance_sums(every, level)  # writes the rows' addresses into the table
                times[f"lcd_distance_sums, {data}"] = best_of(bare, repeats)
    return {label: t / CALLS * 1e6 for label, t in times.items()}


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
        print("step per level, thirring, periodic: us per level")
        for n in sizes:
            rows = []
            for bk in backends:
                kernels.use_backend(bk)
                rows.append(level_us(n, THIRRING, rng, repeats))
            print_row("kernels.step_unforced", n, [r[0] for r in rows])
            print_row("step_unforced, pool", n, [r[1] for r in rows])
            if len(rows[0]) > 2:
                print_row("lcd_step, bound", n, [rows[0][2]])
        print("lockstep level, thirring, periodic: us per level, one batched call")
        for (runs, data), n in itertools.product(((2, "dense"), (5, "dense"), (5, "compact")), (3072, 4096)):
            rows = random_rows(rng, runs, n) if data == "dense" else compact_rows(rng, n, COMPACT_WIDTHS[:runs])
            times = []
            for bk in backends:
                kernels.use_backend(bk)
                times.append(lockstep_us(list(zip(*rows)), THIRRING, repeats))
            print_row(f"R = {runs}, {data}, one call", n, times)
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
        grid = lc.make_grid(-6.0, 6.0, n, "zero_inflow")
        snaps = [lc.SpinorField(grid, k * grid.dt, 0.07 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                                0.07 * (rng.normal(size=n) + 1j * rng.normal(size=n))) for k in range(65)]
        times = []
        for bk in backends:
            kernels.use_backend(bk)
            times.append(snapshots_ns_per_value(snaps, repeats))
        print_row("snapshots_csv, 65 levels", n, times)
        levels = audit_levels()
        n = levels[0][0].grid.n_points
        print("audit pass: us per level")
        rows = []
        for bk in backends:
            kernels.use_backend(bk)
            rows.append(audit_us_per_level(levels, repeats))
        for label in rows[0]:
            print_row(label, n, [r[label] for r in rows if label in r])
        print("one level's growth margins: us per call")
        rows = []
        for bk in backends:
            kernels.use_backend(bk)
            rows.append(margins_us(n, rng, repeats))
        for label in rows[0]:
            print_row(label, n, [r[label] for r in rows])
        print("pair distances, 5 runs and 4 pairs: us per level")
        for n in sizes:
            rows = []
            for bk in backends:
                kernels.use_backend(bk)
                rows.append(distance_us_per_level(n, rng, repeats))
            for label in rows[0]:
                print_row(label, n, [r[label] for r in rows if label in r])
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

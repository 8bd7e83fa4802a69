"""Golden tests for the CSV writers.

The writers format whole blocks with one ``%`` template; these tests pin
their output byte for byte to the plain per-value ``f"{float(x):.17g}"``
form, and check that every token parses back to the exact source double.
"""
import struct

import numpy as np
import pytest

import lcdirac as lc
from lcdirac.cli import convergence_csv, snapshots_csv, trace_csv
from lcdirac.functionals import FunctionalTrace
from lcdirac.harness import ConvergenceTable

from conftest import random_field

AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1 / 3, 1e16, 1e17, -1.5e300]
TRACE_COLS = ["t", "L0", "D0", "Q0", "cumD0", "charge", "max_abs_u", "max_abs_v"]
PAIR_COLS = ["L1", "D1", "Q1", "cumD1"]


def ref_fmt(x) -> str:
    return f"{float(x):.17g}"


def ref_table(header, rows) -> str:
    lines = [",".join(header)] + [",".join(ref_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def ref_snapshots(snaps) -> str:
    rows = []
    for s in snaps:
        x = s.grid.sites()
        for i in range(s.grid.n_points):
            rows.append((s.t, x[i], s.u[i].real, s.u[i].imag, s.v[i].real, s.v[i].imag))
    return ref_table(["t", "x", "re_u", "im_u", "re_v", "im_v"], rows)


def ref_trace(tr: FunctionalTrace) -> str:
    cols = TRACE_COLS + (PAIR_COLS if tr.has_pair else [])
    return ref_table(cols, zip(*(getattr(tr, "times" if c == "t" else c) for c in cols)))


def ref_convergence(table: ConvergenceTable) -> str:
    eps = table.epsilons
    coarse, fine = (eps[:-1], eps[1:]) if table.mode == "consecutive" else (eps, eps)
    return ref_table(
        ["eps_coarse", "eps_fine", "field_distance", "product_distance"],
        zip(coarse, fine, table.pair_distances, table.product_distances),
    )


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_round_trip(text: str, columns):
    """Every data token parses back bit-equal to its source double."""
    lines = text.splitlines()[1:]
    parsed = [[float(tok) for tok in ln.split(",")] for ln in lines]
    expected = [list(row) for row in zip(*columns)]
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert [bits(g) for g in got] == [bits(float(w)) for w in want]


def awkward_rotation(k: int, n: int, nonneg: bool = False) -> np.ndarray:
    vals = np.roll(np.array(AWKWARD), k)[:n]
    # abs() would turn -0.0 into 0.0; keep the signed zero
    return np.where(vals < 0, -vals, vals) if nonneg else vals


def awkward_trace(pair: bool) -> FunctionalTrace:
    n = len(AWKWARD)
    cols = [awkward_rotation(0, n)] + [awkward_rotation(k, n, nonneg=True) for k in range(1, 8)]
    pair_cols = [awkward_rotation(k, n, nonneg=True) for k in range(8, 12)] if pair else [None] * 4
    return FunctionalTrace(*cols, None, *pair_cols)


def trace_columns(tr: FunctionalTrace):
    cols = [tr.times, tr.L0, tr.D0, tr.Q0, tr.cumD0, tr.charge, tr.max_abs_u, tr.max_abs_v]
    return cols + ([tr.L1, tr.D1, tr.Q1, tr.cumD1] if tr.has_pair else [])


def snapshot_columns(snaps):
    cols = [[], [], [], [], [], []]
    for s in snaps:
        n = s.grid.n_points
        for col, vals in zip(cols, ([s.t] * n, s.grid.sites(), s.u.real, s.u.imag, s.v.real, s.v.imag)):
            col.extend(vals)
    return cols


class TestSnapshots:
    def test_awkward_values(self):
        g = lc.make_grid(0.1, 1 / 3, len(AWKWARD), "periodic")
        snaps = [
            lc.SpinorField(
                g, t,
                awkward_rotation(k, len(AWKWARD)) + 1j * awkward_rotation(k + 1, len(AWKWARD)),
                awkward_rotation(k + 2, len(AWKWARD)) + 1j * awkward_rotation(k + 3, len(AWKWARD)),
            )
            for k, t in enumerate(AWKWARD)
        ]
        text = snapshots_csv(snaps)
        assert text == ref_snapshots(snaps)
        assert_round_trip(text, snapshot_columns(snaps))
        assert "-0," in text and "4.9406564584124654e-324" in text

    def test_random_multilevel_two_grids(self, rng):
        g1 = lc.make_grid(-6.0, 6.0, 48, "zero_inflow")
        g2 = lc.make_grid(-1.0 / 3.0, 2.0, 17, "periodic")
        snaps = [random_field(rng, g1, 10.0 ** rng.uniform(-8, 3), t=0.125 * j) for j in range(5)]
        snaps += [random_field(rng, g2, 10.0 ** rng.uniform(-8, 3), t=1.0 + 0.1 * j) for j in range(4)]
        snaps += [random_field(rng, g1, 1e-300, t=2.0)]  # back to the first grid
        text = snapshots_csv(snaps)
        assert text == ref_snapshots(snaps)
        assert_round_trip(text, snapshot_columns(snaps))

    def test_evolved_run(self, rng):
        g = lc.make_grid(-6.0, 6.0, 64, "zero_inflow")
        f0 = lc.sample_initial(lc.random_smooth_datum(rng, g, 0.05, (-3, 3)), g)
        snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(record_every=3), 1.0)
        assert snapshots_csv(snaps) == ref_snapshots(snaps)

    def test_no_snapshots_header_only(self):
        assert snapshots_csv([]) == "t,x,re_u,im_u,re_v,im_v\n"


class TestTrace:
    @pytest.mark.parametrize("pair", [False, True])
    def test_awkward_values(self, pair):
        tr = awkward_trace(pair)
        text = trace_csv(tr)
        assert text == ref_trace(tr)
        assert text.splitlines()[0] == ",".join(TRACE_COLS + (PAIR_COLS if pair else []))
        assert_round_trip(text, trace_columns(tr))

    @pytest.mark.parametrize("pair", [False, True])
    def test_random_values(self, rng, pair):
        n = 33
        cols = [np.sort(rng.uniform(0, 5, n))] + [10.0 ** rng.uniform(-300, 300, n) for _ in range(7)]
        pair_cols = [10.0 ** rng.uniform(-20, 20, n) for _ in range(4)] if pair else [None] * 4
        tr = FunctionalTrace(*cols, None, *pair_cols)
        text = trace_csv(tr)
        assert text == ref_trace(tr)
        assert_round_trip(text, trace_columns(tr))

    @pytest.mark.parametrize("pair", [False, True])
    def test_empty_trace(self, pair):
        empty = np.array([])
        tr = FunctionalTrace(*[empty] * 8, None, *([empty] * 4 if pair else [None] * 4))
        assert trace_csv(tr) == ",".join(TRACE_COLS + (PAIR_COLS if pair else [])) + "\n"
        assert trace_csv(tr) == ref_trace(tr)


class TestConvergence:
    EPS = (1e17, 1e16, 1 / 3, 0.1, 1e-5, 2.2250738585072014e-308, 5e-324)

    @pytest.mark.parametrize("mode", ["consecutive", "cross"])
    def test_awkward_values(self, mode):
        n = len(self.EPS) - 1 if mode == "consecutive" else len(self.EPS)
        table = ConvergenceTable(
            self.EPS,
            tuple(awkward_rotation(1, n, nonneg=True).tolist()),
            tuple(awkward_rotation(4, n, nonneg=True).tolist()),
            mode,
        )
        text = convergence_csv(table)
        assert text == ref_convergence(table)
        coarse, fine = (self.EPS[:-1], self.EPS[1:]) if mode == "consecutive" else (self.EPS, self.EPS)
        assert_round_trip(text, [coarse, fine, table.pair_distances, table.product_distances])

    def test_single_level_header_only(self):
        table = ConvergenceTable((0.1,), (), (), "consecutive")
        assert convergence_csv(table) == "eps_coarse,eps_fine,field_distance,product_distance\n"
        assert convergence_csv(table) == ref_convergence(table)

"""Golden tests for the CSV writers.

The writers format whole blocks through ``kernels.format_rows`` (C on the
compiled backend, one ``%`` template on pure); these tests pin their output
on every backend byte for byte to the plain per-value ``f"{float(x):.17g}"``
form, and check that every token parses back to the exact source double.
The C formatter is also checked on its own, block by block, over a seeded
corpus of awkward doubles.
"""
import ctypes
import functools
import struct
import types

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
from lcdirac.cli import convergence_csv, snapshots_csv, trace_csv
from lcdirac.functionals import FunctionalTrace
from lcdirac.harness import ConvergenceTable

from conftest import random_field
from ensembles import random_smooth_datum

AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1 / 3, 1e16, 1e17, -1.5e300]
TRACE_COLS = ["t", "L0", "D0", "Q0", "cumD0", "charge", "max_abs_u", "max_abs_v"]
PAIR_COLS = ["L1", "D1", "Q1", "cumD1"]


needs_compiled = pytest.mark.skipif(
    "compiled" not in kernels.available_backends(), reason=f"compiled kernels not built ({kernels.backend_reason()})"
)


@pytest.fixture(autouse=True)
def writer_backend(request):
    """Run each test on its class's ``backend`` (by default the one selected
    at import: compiled when it is built), then restore that one. The
    ``*Pure`` subclasses rerun every writer test on the pure backend."""
    before = kernels.backend_name()
    kernels.use_backend(getattr(request.cls, "backend", before))
    yield
    kernels.use_backend(before)


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
    return FunctionalTrace(*cols, *pair_cols)


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
        f0 = lc.sample_initial(random_smooth_datum(rng, g, 0.05, (-3, 3)), g)
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
        tr = FunctionalTrace(*cols, *pair_cols)
        text = trace_csv(tr)
        assert text == ref_trace(tr)
        assert_round_trip(text, trace_columns(tr))

    @pytest.mark.parametrize("pair", [False, True])
    def test_empty_trace(self, pair):
        empty = np.array([])
        tr = FunctionalTrace(*[empty] * 8, *([empty] * 4 if pair else [None] * 4))
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


class TestSnapshotsPure(TestSnapshots):
    backend = "pure"


class TestTracePure(TestTrace):
    backend = "pure"


class TestConvergencePure(TestConvergence):
    backend = "pure"


# ---------------------------------------------------------------------------
# The C formatter, block by block


def from_bits(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@functools.cache
def corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = lambda a: np.concatenate([np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)])  # noqa: E731
    return {
        "random bit patterns": rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False).view(np.float64),
        "normals scaled 1e-320 to 1e308": rng.normal(size=100_000) * 10.0 ** rng.uniform(-320, 307, 100_000),
        "integers near 1e17": 1e17 + 16.0 * np.arange(-20_000, 20_000),
        "integers near 1e16": 1e16 + 2.0 * np.arange(-20_000, 20_000),
        "dyadic ties": 1.0 + np.arange(2**17) * 2.0**-17,
        "powers of ten and neighbours": np.concatenate([near(powers), -near(powers)]),
        "fixed/exponent switch": np.concatenate(
            [near(switch), np.linspace(0.99e-5, 1.01e-5, 4001), np.linspace(0.99e17, 1.01e17, 4001)]
        ),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308, -1.7976931348623157e308]),
        "nans of either sign": from_bits([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                                          0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF]),
    }


def ref_rows(block: np.ndarray) -> str:
    return "".join(",".join(ref_fmt(x) for x in row) + "\n" for row in block.tolist())


def assert_c_rows(block: np.ndarray):
    """The C text of block equals the per-value reference; a mismatch names
    its first row (a plain == on megabyte strings makes pytest's diff crawl)."""
    text = kernels._compiled_format(block)
    assert text is not None, "the C formatter left a value undecided"
    want = ref_rows(block)
    if text != want:
        got_rows, want_rows = text.splitlines(), want.splitlines()
        row = next((i for i, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w), min(len(got_rows), len(want_rows)))
        values = [struct.pack(">d", x).hex() for x in block[row]] if row < len(block) else []
        pytest.fail(f"row {row} of {len(block)}: bits {values}: C {got_rows[row:row + 1]} != {want_rows[row:row + 1]}")


@needs_compiled
@pytest.mark.parametrize("name", list(corpus()))
def test_c_block_matches_per_value_format(name):
    values = corpus()[name]
    cut = values.size // 6 * 6
    assert_c_rows(values[:cut].reshape(-1, 6))
    assert_c_rows(values[cut:].reshape(-1, 1))  # the rest as one column


@needs_compiled
def test_nan_prints_without_sign():
    text = kernels._compiled_format(corpus()["nans of either sign"].reshape(1, -1))
    assert text == "nan,nan,nan,nan,nan\n"


@needs_compiled
def test_longest_tokens_fill_the_buffer_exactly():
    block = np.full((7, 3), -2.2250738585072014e-308)
    assert_c_rows(block)
    assert len(kernels._compiled_format(block)) == block.size * kernels.TOKEN_BYTES


@needs_compiled
def test_c_refuses_to_write_past_cap():
    block = np.full((2, 3), -2.2250738585072014e-308)
    cap = block.size * kernels.TOKEN_BYTES
    for short in (1, kernels.TOKEN_BYTES, cap - 1):
        buf = ctypes.create_string_buffer(b"#" * (cap + 8), cap + 8)
        n = kernels._lib.lcd_format_rows(block.ctypes.data, 2, 3, buf, short)
        assert n == -1
        assert buf.raw[short:] == b"#" * (cap + 8 - short)  # nothing written past cap
    assert kernels._lib.lcd_format_rows(block.ctypes.data, 2, 3, buf, cap) == cap


@needs_compiled
def test_format_rows_coerces_and_checks_input():
    want = ref_rows(np.array([[1.0, 2.5], [3.0, -0.0]]))
    assert kernels.format_rows([[1, 2.5], [3, -0.0]]) == want  # a list of ints and floats
    strided = np.array([[1.0, 9.0, 2.5], [3.0, 9.0, -0.0]])[:, ::2]
    assert kernels.format_rows(strided) == want
    assert kernels.format_rows(np.float32([[0.1]])) == "%.17g\n" % float(np.float32(0.1))
    assert kernels.format_rows(np.empty((0, 4))) == ""
    for bad in (np.zeros(3), np.zeros((2, 2, 2)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="2-d"):
            kernels.format_rows(bad)


@needs_compiled
def test_failed_c_block_falls_back_to_template(monkeypatch, rng):
    """A block the C leaves undecided is written by the template, same bytes."""
    calls = []

    def undecided(x, rows, cols, out, cap):
        calls.append(rows * cols)
        ctypes.memset(out, ord("#"), cap)  # a failed call may have written part of the buffer
        return -1

    g = lc.make_grid(-6.0, 6.0, 48, "zero_inflow")
    snaps = [random_field(rng, g, 10.0 ** rng.uniform(-8, 3), t=0.125 * j) for j in range(3)]
    tr = awkward_trace(pair=True)
    assert kernels.backend_name() == "compiled"
    monkeypatch.setattr(kernels, "_lib", types.SimpleNamespace(lcd_format_rows=undecided))
    assert snapshots_csv(snaps) == ref_snapshots(snaps)
    assert trace_csv(tr) == ref_trace(tr)
    assert calls == [48 * 6] * 3 + [len(AWKWARD) * 12]

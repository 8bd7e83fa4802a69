"""benchmarks/bench_kernels.py's step, audit-pass and distance helpers run
at a tiny size on every backend, so a change to the kernels' names or
signatures fails here, not only in the benchmark. Its bare rows replay the
kernel calls it records by looking up ``kernels._lib`` by name: a call that
bypassed that lookup would leave the bare audit row timing nothing."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels

from conftest import backend

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def levels(bench):
    return bench.audit_levels(96, 1.0)  # nine levels of runs A and B


@pytest.mark.parametrize("name", kernels.available_backends())
def test_helpers_run_at_a_tiny_size(bench, levels, name):
    rng = np.random.default_rng(0)
    compiled = name == "compiled"
    with backend(name):
        steps = bench.level_us(64, lc.THIRRING, rng, 1)
        lockstep = bench.lockstep_us(2, 64, lc.THIRRING, rng, 1)
        audit = bench.audit_us_per_level(levels, 1)
        distance = bench.distance_us_per_level(64, rng, 1)
    assert len(steps) == (5 if compiled else 3)
    assert list(audit) == ["AuditPass, 5 audits", "AuditPass, pool"] + ["lcd_level_terms, bound"] * compiled
    assert len(distance) == (6 if compiled else 4)
    assert all(t > 0 for t in [*steps, lockstep, *audit.values(), *distance.values()])


needs_compiled = pytest.mark.skipif("compiled" not in kernels.available_backends(),
                                    reason="compiled kernels not built")


@needs_compiled
def test_bound_row_counts_one_call_a_level(bench, levels):
    """The bare row replays one recorded lcd_level_terms call per level,
    each generation's fields at their bound addresses."""
    with backend("compiled"), kernels.LevelPool(2, levels[0][0].grid.n_points) as pool:
        audits = bench.audit_pass(levels)
        calls = bench.bare_calls("lcd_level_terms",
                                 lambda: bench.fed_as_evolve_feeds(levels, pool, lambda k, level: audits(level)))
    assert len(calls) == len(levels) == 9
    assert len({call[1:5] for call in calls[1:]}) == 2  # the four field addresses of either generation


@needs_compiled
def test_bound_row_refuses_a_pass_that_bypasses_the_lookup(bench, levels, monkeypatch):
    """A pass whose kernel calls do not look lcd_level_terms up on
    kernels._lib leaves the recorder nothing: the bench raises rather than
    print a bare row that timed no call."""
    library, write = kernels._lib, kernels.LevelTerms.write

    def bypassing(self, *args):
        recorder, kernels._lib = kernels._lib, library
        try:
            return write(self, *args)
        finally:
            kernels._lib = recorder

    monkeypatch.setattr(kernels.LevelTerms, "write", bypassing)
    with backend("compiled"), pytest.raises(RuntimeError, match="recorded 0 lcd_level_terms calls for 9 levels"):
        bench.audit_us_per_level(levels, 1)

"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import child
import run
from tracing import ROOT, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, CheckFailed, make_config

sys.path.insert(0, str(run.SOURCES))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}


def test_self_time_is_span_minus_children_coverage():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["a.inner", 12, 15, 1],
        ["b", 20, 50, 0],  # overlaps a: the union counts once
        ["c", 90, 120, 0],  # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == [100 - (40 + 10), 20 - 3, 3, 30, 30]


def test_layer_metrics_attribute_self_time_by_layer():
    tracer = Tracer()
    step = tracer.wrap(lambda u: u, "kernels.step_unforced",
                       lambda t, args, kwargs, result: t.counts.update({"kernels.step_sites": len(args[0])}))
    evolve = tracer.wrap(lambda: [step([0.0] * 8) for _ in range(3)], "solver.evolve")
    tracer.wrap(evolve, ROOT)()
    m = layer_metrics(tracer.document())
    assert m["kernels.step_calls"] == 3
    assert m["solver.evolve_calls"] == 1
    assert m["solver.site_updates"] == 24
    own = self_times(tracer.spans)  # root, evolve, three steps
    assert m["self_s.kernels"] == pytest.approx(sum(own[2:]) / 1e9)
    assert m["self_s.solver"] == pytest.approx(own[1] / 1e9)


def test_levels_are_counted_by_snapshot_not_by_time():
    class Snapshot:
        t = 0.5

    tracer = Tracer()
    base = tracer.wrap(lambda snap: None, "functionals.base_functionals", child._count_level_evaluated)
    a, b = Snapshot(), Snapshot()  # a level of run A and of run B at the same time
    tracer.wrap(lambda: [base(snap) for snap in (a, b, a, a)], ROOT)()
    assert layer_metrics(tracer.document())["functionals.recompute_ratio"] == 2.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)


def _artifacts(workload, tmp_path):
    """Run one tiny config in-process; return (prefix, expected)."""
    from lcdirac.cli import parse_config, run_command

    prefix = tmp_path / "run"
    doc = make_config(workload, 0, prefix, smoke=True)
    assert run_command(parse_config(json.dumps(doc))) == 0
    spec = WORKLOADS[workload]
    expected = spec.reference(doc)
    spec.check(prefix, expected)
    return prefix, expected


def _rewrite(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _bump_digit(line):
    i = max(j for j, ch in enumerate(line) if ch in "12345678")
    return line[:i] + str(int(line[i]) + 1) + line[i + 1:]


def _scale_distance(line):
    cols = line.rstrip("\n").split(",")
    cols[2] = repr(float(cols[2]) * (1.0 + 1e-6))
    return ",".join(cols) + "\n"


@pytest.mark.parametrize(
    "workload, artifact, edit",
    [
        ("simulate_csv", "_snapshots.csv", lambda lines: lines[:5] + [_bump_digit(lines[5])] + lines[6:]),
        ("simulate_csv", "_snapshots.csv", lambda lines: lines[:-1]),
        ("simulate_csv", "_trace.csv", lambda lines: lines[:2] + ["nan" + lines[2][lines[2].index(","):]] + lines[3:]),
        ("audit_cone", "_audits.csv", lambda lines: lines[:3] + [lines[3].replace(",true,", ",false,")] + lines[4:]),
        ("audit_cone", "_audits.csv", lambda lines: lines[:-1]),
        ("converge_rough", "_convergence.csv", lambda lines: lines[:1] + [_scale_distance(lines[1])] + lines[2:]),
    ],
)
def test_check_rejects_corrupted_artifact(workload, artifact, edit, tmp_path):
    prefix, expected = _artifacts(workload, tmp_path)
    _rewrite(prefix.with_name(prefix.name + artifact), edit)
    with pytest.raises(CheckFailed):
        WORKLOADS[workload].check(prefix, expected)


def test_converge_check_tolerates_last_bit_changes(tmp_path):
    prefix, expected = _artifacts("converge_rough", tmp_path)
    WORKLOADS["converge_rough"].check(prefix, expected * (1.0 + 4 * np.finfo(float).eps))


def _printed_metric_names(text):
    return [line.split()[1] for line in text.splitlines() if line.startswith("metric ")]


def test_end_to_end_run_prints_only_declared_metrics(capsys):
    result = run.run("simulate_csv", seed=3, seconds=0, trace=False, smoke=True)
    printed = _printed_metric_names(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_INVOCATIONS
    assert set(printed) == set(result["metrics"]) == END_TO_END


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_attributes_run_command_to_named_spans(workload, capsys):
    result = run.run(workload, seed=4, seconds=0, trace=True, smoke=True)
    printed = _printed_metric_names(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert set(printed) == set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.coverage"]["value"] > 0.95

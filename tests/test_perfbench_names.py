"""The traced benchmark view wraps lcdirac functions by the names their
callers look them up under, and the benchmark's references call the
library directly; a rename, removal or signature change here must fail
tier-1, not only the benchmark run."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))


def test_perfbench_child_installs_on_this_tree():
    proc = subprocess.run(
        [sys.executable, "-c", "import child, tracing; child.install(tracing.Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["simulate_csv", "audit_cone", "converge_rough"])
def test_perfbench_reference_runs_on_this_tree(tmp_path, workload):
    # the in-process reference at the smoke size, then the CLI's artifacts
    # checked against it, as the benchmark does for every invocation
    script = (
        "import json, sys; from pathlib import Path\n"
        "from workloads import WORKLOADS, make_config\n"
        "from lcdirac.cli import main\n"
        "w, prefix = sys.argv[1], Path(sys.argv[2])\n"
        "doc = make_config(w, 0, prefix, smoke=True)\n"
        "expected = WORKLOADS[w].reference(doc)\n"
        "cfg = prefix.with_name('cfg.json'); cfg.write_text(json.dumps(doc))\n"
        "assert main([str(cfg)]) == 0\n"
        "WORKLOADS[w].check(prefix, expected)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, workload, str(tmp_path / "run")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_step_sees_every_level():
    # the benchmark's kernels.step_* metrics come from the calls of
    # kernels.step_unforced that the child wraps: one per step for all the
    # lockstep runs, each with the runs' u first, so args[0].size is the
    # number of sites stepped
    script = (
        "import child, tracing\n"
        "import lcdirac as lc\n"
        "from lcdirac import kernels\n"
        "tracer = tracing.Tracer()\n"
        "child.install(tracer)\n"
        "traced, sizes = kernels.step_unforced, []\n"
        "def spy(*args, **kwargs):\n"
        "    sizes.append(args[0].size)\n"
        "    return traced(*args, **kwargs)\n"
        "kernels.step_unforced = spy\n"
        "g = lc.make_grid(-2.0, 2.0, 64, 'periodic')\n"
        "f0 = lc.sample_initial(lc.InitialDatum(lc.ComponentSpec('gaussian_pulse', 0.3),\n"
        "                                       lc.ComponentSpec('gaussian_pulse', 0.2)), g)\n"
        "def run():\n"
        "    lc.evolve([f0, f0, f0], lc.THIRRING, lc.SolverConfig(), 5 * g.dt, observers=[lambda levels: None])\n"
        "    assert sizes == [3 * 64] * 5, sizes\n"
        "    lc.evolve(f0, lc.THIRRING, lc.SolverConfig(record_every=2), 5 * g.dt)\n"
        "    assert sizes == [3 * 64] * 5 + [64] * 5, sizes\n"
        "tracer.wrap(run, 'cli.run_command')()\n"
        "m = tracing.layer_metrics(tracer.document())\n"
        "assert m['kernels.step_calls'] == 10 and m['solver.site_updates'] == 20 * 64, m\n"
        "assert m['kernels.step_s'] > 0 and m['kernels.step_ns_per_site'] > 0, m\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr

#!/usr/bin/env python3
"""End-to-end benchmark of the lcdirac CLI, with a separate traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: lcdirac is imported from ``src/`` there
and nowhere else, and the run fails without printing a result if the
sources are missing.

The load is a closed loop: one client runs one ``python -m lcdirac CFG``
child at a time and sends the next only after the previous exited, so a
slower program receives less load. The seed generates the config (see
workloads.py); every invocation of a run uses that same config, and its
artifacts are checked against an untimed in-process reference before the
next one starts.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics
that BENCHMARK.json declares: the median and the tail of wall time per
invocation from spawn to exit, the set-up time of a fresh interpreter and
the median of the child's peak resident memory from ``os.wait4``. The tail
is the highest percentile that still has ten invocations beyond it.

Times are given at reference speed. The speed of a shared box drifts by
20 % and more over seconds to minutes, and a slow period slows a child's
CPU work as much as its wall time, so raw seconds of two runs taken
minutes apart disagree by more than any useful bound. Each cycle of the
loop therefore times a reference child first -- a fresh interpreter that
imports NumPy in isolated mode (``-I``), so that nothing of lcdirac's
sources or the child environment reaches it -- then one invocation, then one
set-up probe, and scales both by REFERENCE_S / (that reference's time):
seconds on a machine where the reference takes REFERENCE_S. The program
cannot change the reference, so any change to lcdirac's import, parsing,
stepping or writing moves the scaled times as it moves the raw ones. The
raw median, the raw set-up and the reference's own median follow as
``info`` lines, as does the failed ratio; no bound applies to them.

``--trace 1`` alternates untraced invocations with traced ones (child.py),
in which spans wrap the calls into each layer, and prints the per-layer
metrics as medians over the traced requests. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import STEP_BYTES_PER_SITE, STEP_FLOPS_PER_SITE, layer_metrics, top_layer
from workloads import WORKLOADS, CheckFailed, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Children run single-threaded so they cannot oversubscribe the cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
# Children cache bytecode as an installed CLI does, whatever the caller's
# environment says; the warm-up invocation fills the cache.
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE",)
# The tail is the highest percentile that still has this many samples beyond it.
TAIL_BEYOND = 10
MIN_INVOCATIONS = TAIL_BEYOND + 1
# The reference child of every cycle, and its time at reference speed: about
# its median on a shared 2-core x86-64 VM with Python 3.11 and NumPy 2.4,
# where 4-minute stretches gave medians from 0.126 to 0.151 s.
REFERENCE_ARGV = [sys.executable, "-I", "-c", "import numpy"]
REFERENCE_S = 0.14
MIN_TRACED = 3
CHILD_TIMEOUT_S = 120.0


def declared_units() -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares, by name."""
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}


def environment() -> dict:
    import numpy

    from lcdirac import kernels

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        **THREAD_ENV,
    }


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one child to exit: (wall seconds from spawn to exit, exit code, peak RSS in MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Client:
    """The single closed-loop client of one run: invokes, checks, counts."""

    def __init__(self, workload: str, seed: int, work: Path, smoke: bool):
        self.spec = WORKLOADS[workload]
        self.work = work
        self.prefix = work / "run"
        doc = make_config(workload, seed, self.prefix, smoke)
        self.config = work / "cfg.json"
        self.config.write_text(json.dumps(doc, indent=1))
        self.expected = self.spec.reference(doc)
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        self.env.update(PYTHONPATH=str(SOURCES), **THREAD_ENV)
        self.log = work / "child.log"
        self.attempted = 0
        self.failed = 0

    def _clear_artifacts(self):
        for path in self.work.glob(self.prefix.name + "_*"):
            path.unlink()

    def invoke(self, argv: list[str]) -> tuple[float, float, bool]:
        """One checked invocation: (wall s, peak RSS MB, passed)."""
        self._clear_artifacts()
        self.attempted += 1
        wall, code, rss = spawn(argv, self.env, self.log)
        try:
            if code != 0:
                tail = self.log.read_text(errors="replace")[-400:]
                raise CheckFailed(f"exit code {code}: {tail}")
            self.spec.check(self.prefix, self.expected)
        except CheckFailed as exc:
            self.failed += 1
            print(f"perfbench: invocation {self.attempted} failed: {exc}", file=sys.stderr)
            return wall, rss, False
        finally:
            self._clear_artifacts()
        return wall, rss, True

    def cli(self) -> tuple[float, float, bool]:
        return self.invoke([sys.executable, "-m", "lcdirac", str(self.config)])

    def traced(self):
        """A traced invocation: (wall s, layer metrics or None if it failed)."""
        spans = self.work / "spans.json"
        wall, _, ok = self.invoke(
            [sys.executable, str(HERE / "child.py"), "trace", str(self.config), str(spans)]
        )
        metrics = layer_metrics(json.loads(spans.read_text())) if ok else None
        spans.unlink(missing_ok=True)
        return wall, metrics

    def run_alone(self, argv: list[str], what: str) -> float:
        """Wall seconds of a child that must succeed and leaves no artifact."""
        wall, code, _ = spawn(argv, self.env, self.log)
        if code != 0:
            raise RuntimeError(f"{what} exited {code}: {self.log.read_text(errors='replace')[-400:]}")
        return wall

    def reference(self) -> float:
        return self.run_alone(REFERENCE_ARGV, "reference child")

    def setup(self) -> float:
        """A fresh interpreter getting ready to step."""
        return self.run_alone([sys.executable, str(HERE / "child.py"), "setup", str(self.config)], "set-up probe")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_end_to_end(client: Client, seconds: float, report, info):
    """Closed loop of (reference, invocation, set-up probe) cycles for `seconds`."""
    refs, walls, scaled, setup, scaled_setup, rss = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_INVOCATIONS:
        ref = client.reference()
        wall, peak, _ = client.cli()
        probe = client.setup()
        refs.append(ref)
        walls.append(wall)
        scaled.append(wall * REFERENCE_S / ref)
        setup.append(probe)
        scaled_setup.append(probe * REFERENCE_S / ref)
        rss.append(peak)
    n = len(walls)
    at_ref = f"at reference speed, each scaled by {REFERENCE_S} s over its cycle's reference"
    report("wall_s.p50", statistics.median(scaled), f"median of {n} invocations {at_ref}")
    tail_value, tail_pct = tail(scaled)
    report("wall_s.tail", tail_value, f"p{tail_pct:.1f} of {n} invocations, {TAIL_BEYOND} beyond it, {at_ref}")
    report("setup_s", statistics.median(scaled_setup), f"median of {n} fresh interpreters {at_ref}")
    report("peak_rss_mb", statistics.median(rss), f"median of {n} invocations")
    info("wall_s.raw_p50", statistics.median(walls), "s", f"median of {n} invocations, unscaled")
    info("setup_s.raw", statistics.median(setup), "s", f"median of {n} fresh interpreters, unscaled")
    info("reference_s", statistics.median(refs), "s", f"median of {n} reference children")


def measure_layers(client: Client, seconds: float, report):
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(layers) < MIN_TRACED:
        untraced.append(client.cli()[0])
        wall, metrics = client.traced()
        traced.append(wall)
        if metrics is not None:
            layers.append(metrics)
    if not layers:
        raise RuntimeError("no traced request succeeded")
    n = len(layers)
    medians = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name, value in medians.items():
        report(name, value, f"median of {n} traced requests")
    report(
        "trace.overhead_s",
        statistics.median(traced) - statistics.median(untraced),
        f"median of {len(traced)} traced minus that of {len(untraced)} untraced invocations",
    )
    print(f"top layer by self time: {top_layer(medians)}")
    if medians["kernels.step_calls"]:
        n_sites = medians["solver.site_updates"] / medians["kernels.step_calls"]
        print(f"kernels.step at N={n_sites:.0f}: {medians['kernels.step_ns_per_site']:.4g} ns per site update; "
              f"computed {STEP_BYTES_PER_SITE} B and {STEP_FLOPS_PER_SITE} flop per site update")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; prints metric lines and returns the result object."""
    units = declared_units()
    metrics: dict[str, dict] = {}

    def report(name: str, value: float, how: str):
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value:.6g} {unit} ({how})")

    def info(name: str, value: float, unit: str, how: str):
        print(f"info {name} {value:.6g} {unit} ({how})")

    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        client = Client(workload, seed, work, smoke)
        print(f"perfbench {workload} seed={seed} trace={int(trace)}: closed loop, "
              f"1 client, 1 child at a time, {seconds:g} s")
        print("env " + json.dumps(environment()))
        client.cli()  # warm-up: compiles bytecode and fills the page cache; checked, not timed
        if trace:
            measure_layers(client, seconds, report)
        else:
            measure_end_to_end(client, seconds, report, info)
        info("failed_ratio", client.failed / client.attempted, "1",
             f"{client.failed} failed of {client.attempted} attempted")
        return {"correct": client.failed == 0, "attempted": client.attempted,
                "failed": client.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of the lcdirac CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCES / "lcdirac" / "__init__.py").is_file():
        print(f"perfbench: no lcdirac sources under {SOURCES}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate ``tests/golden.json``: the sha256 of every artifact of a set
of small configs, with each run's exit status.

``tests/test_golden.py`` runs the same configs on every kernel backend and
compares. A change that moves a digit of any artifact fails there; when the
change is deliberate, rerun this script and list the changed digests with
the change; the script prints them, against the file it replaces, with any
change of NumPy version or CPU model:

    PYTHONPATH=src python tests/make_golden.py

The file also records the NumPy version and the CPU model it was made on,
since NumPy's SIMD ``exp`` can differ in the last bit across machines; a
mismatch on another machine is reported with both, not passed.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")

GROSS_NEVEU = {"m": 1.0, "alpha": 0.0, "beta": 0.25}
THIRRING = {"m": 1.0, "alpha": 1.0, "beta": 0.0}
ZERO_INFLOW = {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"}
PERIODIC = {"x_min": -8.0, "x_max": 8.0, "n_points": 256, "boundary": "periodic"}
PULSES = {"u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "center": -0.5, "width": 0.8},
          "v0": {"kind": "gaussian_pulse", "amplitude": [0.03, -0.04], "center": 0.5, "width": 0.9}}
ROUGH = {"u0": {"kind": "indicator_jump", "amplitude": -0.3, "halfwidth": 1.0},
         "v0": {"kind": "power_singularity_truncated", "amplitude": [0.0, 0.2], "halfwidth": 1.5,
                "exponent": 0.3, "cap": 10.0}}
# A narrow pulse at x = 5, outside the cone [-4, 4], that blows up at t = 0.3125.
OUTSIDE_CONE = {c: {"kind": "gaussian_pulse", "amplitude": 10.0, "center": 5.0, "width": 0.05}
                for c in ("u0", "v0")}

CONFIGS = {
    "simulate_gross_neveu_zero_inflow_every_3": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 1.0, "record_every": 3},
        "init": PULSES, "command": "simulate",
    },
    "simulate_thirring_periodic_rough": {
        "model": THIRRING, "grid": PERIODIC, "time": {"T": 0.5}, "init": ROUGH, "command": "simulate",
    },
    # The cone trace up to the apex: the last sections hold 3, 1 and 0 sites.
    "simulate_gross_neveu_cone_to_apex": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 1.0}, "init": PULSES,
        "domain": {"a": -1.0, "b": 1.0}, "command": "simulate",
    },
    "simulate_blow_up": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 1.0},
        "init": {c: {"kind": "uniform", "amplitude": 1e200} for c in ("u0", "v0")}, "command": "simulate",
    },
    "audit_gross_neveu_zero_inflow_csv": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 1.0}, "init": PULSES,
        "domain": {"a": -4.0, "b": 4.0}, "audit": {"samples": 2000}, "command": "audit",
    },
    "audit_thirring_periodic_report": {
        "model": THIRRING, "grid": PERIODIC, "time": {"T": 0.5}, "init": PULSES,
        "audit_selection": ["algebraic", "charge", "pointwise", "gronwall"],
        "audit": {"samples": 2000}, "command": "audit", "output": {"format": "structured-report"},
    },
    "audit_blow_up": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 1.0}, "init": OUTSIDE_CONE,
        "domain": {"a": -4.0, "b": 4.0}, "audit": {"samples": 2000}, "command": "audit",
    },
    "converge_thirring_periodic_rough": {
        "model": THIRRING, "grid": dict(PERIODIC, n_points=512), "time": {"T": 0.25}, "init": ROUGH,
        "mollify": {"epsilons": [0.4, 0.2, 0.1]}, "command": "converge",
    },
    "unique_gross_neveu_zero_inflow": {
        "model": GROSS_NEVEU, "grid": ZERO_INFLOW, "time": {"T": 0.5}, "init": ROUGH,
        "mollify": {"epsilons": [0.5, 0.25], "kernel": "bump", "kernel_b": "triangle"}, "command": "unique",
    },
    "soliton_check_csv": {
        "model": THIRRING, "grid": PERIODIC, "command": "soliton-check",
    },
    "soliton_check_report": {
        "model": THIRRING, "grid": PERIODIC, "soliton": {"frequency": 0.75}, "command": "soliton-check",
        "output": {"format": "structured-report"},
    },
}


def machine() -> dict:
    """The NumPy version and CPU model the digests depend on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "cpu": cpu}


def run_config(doc: dict, workdir: Path) -> dict:
    """Run doc in-process with its artifacts under workdir: the exit status
    and the sha256 of every artifact, by file name."""
    from lcdirac.cli import parse_config, run_command

    doc = dict(doc, output=dict(doc.get("output", {}), path=str(workdir / "run")))
    status = run_command(parse_config(json.dumps(doc)))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}
    return {"status": status, "artifacts": digests}


def changes(old: dict, new: dict) -> list[str]:
    """One line per difference between two golden records: a changed
    machine field, a config added or removed, a changed exit status, and
    each artifact whose digest changed, appeared or went."""
    lines = [f"{key}: {old.get(key)} -> {new[key]}" for key in ("numpy", "cpu") if old.get(key) != new[key]]
    before, after = old.get("configs", {}), new["configs"]
    lines += [f"{name}: removed" for name in sorted(before.keys() - after.keys())]
    for name, got in after.items():
        was = before.get(name)
        if was is None:
            lines.append(f"{name}: added")
            continue
        if was["status"] != got["status"]:
            lines.append(f"{name}: exit status {was['status']} -> {got['status']}")
        for artifact in sorted(was["artifacts"].keys() | got["artifacts"].keys()):
            a, b = was["artifacts"].get(artifact), got["artifacts"].get(artifact)
            if a != b:
                lines.append(f"{name}/{artifact}: {'added' if a is None else 'removed' if b is None else 'changed'}")
    return lines


def main() -> int:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CONFIGS.items():
            (Path(tmp) / name).mkdir()
            results[name] = run_config(doc, Path(tmp) / name)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {**machine(), "configs": results}
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(results)} configs)")
    print("\n".join(changes(old, new)) or "no digest changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workload configs, untimed in-process references and output checks.

Each workload is one JSON config for the lcdirac CLI. The seed jitters only
the datum parameters, inside ranges that keep every audit's smallness
hypothesis satisfied (Gross-Neveu: cone charge below delta = 1/64, so the
pair audit's precondition holds with room to spare), so every seed runs
without failure. The CLI receives nothing but the generated document.

lcdirac is imported lazily: the caller puts the checkout's ``src`` on
sys.path first.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SNAPSHOT_HEADER = "t,x,re_u,im_u,re_v,im_v"
TRACE_HEADER = "t,L0,D0,Q0,cumD0,charge,max_abs_u,max_abs_v"
CONVERGENCE_HEADER = "eps_coarse,eps_fine,field_distance,product_distance"
AUDITS = ["algebraic", "charge", "triangle", "pointwise", "bony", "gronwall"]
EPSILONS = [0.4, 0.2, 0.1, 0.05, 0.025]

# Distances may differ from the in-process reference in the last bits once a
# kernel reorders its arithmetic; anything beyond this is a wrong answer.
DISTANCE_RTOL = 1e-9


class CheckFailed(Exception):
    """An invocation's artifacts are missing, malformed or wrong."""


def _jitter(rng, value, rel):
    return float(value * rng.uniform(1.0 - rel, 1.0 + rel))


def _gross_neveu_datum(rng) -> dict:
    """README datum: two Gaussian pulses, v with a random phase.

    Amplitudes within 10 % and widths within 10 % keep the total charge
    below 0.0112 < delta = 1/64 for the Gross-Neveu constants.
    """
    phase = rng.uniform(0.0, 2.0 * np.pi)
    av = _jitter(rng, 0.055, 0.1)
    return {
        "u0": {"kind": "gaussian_pulse", "amplitude": _jitter(rng, 0.07, 0.1),
               "center": float(-0.5 + rng.uniform(-0.25, 0.25)), "width": _jitter(rng, 0.8, 0.1)},
        "v0": {"kind": "gaussian_pulse", "amplitude": [av * float(np.cos(phase)), av * float(np.sin(phase))],
               "center": float(0.5 + rng.uniform(-0.25, 0.25)), "width": _jitter(rng, 0.9, 0.1)},
    }


def _rough_datum(rng) -> dict:
    """Indicator jump in u and a truncated power singularity in v."""
    return {
        "u0": {"kind": "indicator_jump", "amplitude": _jitter(rng, 0.3, 0.1),
               "center": float(rng.uniform(-0.5, 0.5)), "halfwidth": _jitter(rng, 1.0, 0.2)},
        "v0": {"kind": "power_singularity_truncated", "amplitude": _jitter(rng, 0.2, 0.1),
               "center": float(rng.uniform(-0.5, 0.5)), "halfwidth": _jitter(rng, 1.5, 0.2),
               "exponent": float(rng.uniform(0.2, 0.35)), "cap": 10.0},
    }


GROSS_NEVEU = {"m": 1.0, "alpha": 0.0, "beta": 0.25}
THIRRING = {"m": 1.0, "alpha": 1.0, "beta": 0.0}


def simulate_csv_config(rng, smoke: bool) -> dict:
    return {
        "model": GROSS_NEVEU,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 96 if smoke else 768, "boundary": "zero_inflow"},
        "time": {"T": 0.5 if smoke else 1.0, "record_every": 1},
        "init": _gross_neveu_datum(rng),
        "command": "simulate",
        "output": {"format": "csv"},
    }


def audit_cone_config(rng, smoke: bool) -> dict:
    return {
        "model": GROSS_NEVEU,
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 192 if smoke else 3072, "boundary": "zero_inflow"},
        "time": {"T": 0.5 if smoke else 1.0, "record_every": 1},
        "init": _gross_neveu_datum(rng),
        "domain": {"a": -4.0, "b": 4.0},
        "command": "audit",
        "audit_selection": AUDITS,
        "audit": {"samples": 2000 if smoke else 100_000},
        "output": {"format": "csv"},
    }


def converge_rough_config(rng, smoke: bool) -> dict:
    return {
        "model": THIRRING,
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 512 if smoke else 4096, "boundary": "periodic"},
        "time": {"T": 0.25 if smoke else 0.5, "record_every": 1},
        "init": _rough_datum(rng),
        "mollify": {"epsilons": EPSILONS[:3] if smoke else EPSILONS, "kernel": "bump"},
        "command": "converge",
        "output": {"format": "csv"},
    }


# ---------------------------------------------------------------------------
# Artifact readers


def _read_table(path: Path, header: str, columns: int) -> np.ndarray:
    try:
        with open(path) as fh:
            if fh.readline().rstrip("\n") != header:
                raise CheckFailed(f"{path.name}: header is not {header!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if data.shape[1:] != (columns,):
        raise CheckFailed(f"{path.name}: {data.shape[1:]} columns, expected {columns}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite values")
    return data


def _expect_rows(path: Path, data: np.ndarray, rows: int):
    if data.shape[0] != rows:
        raise CheckFailed(f"{path.name}: {data.shape[0]} rows, expected {rows}")


# ---------------------------------------------------------------------------
# References (untimed, in-process) and checks


def _parse(doc: dict):
    from lcdirac.cli import parse_config

    return parse_config(json.dumps(doc))


def simulate_reference(doc: dict) -> np.ndarray:
    """Rows (t, x, re u, im u, re v, im v) of every recorded level."""
    from lcdirac import SolverConfig, evolve, sample_initial

    cfg = _parse(doc)
    snaps = evolve(sample_initial(cfg.init, cfg.grid), cfg.model,
                   SolverConfig(record_every=cfg.record_every), cfg.T)
    x = cfg.grid.sites()
    return np.concatenate([
        np.column_stack([np.full_like(x, s.t), x, s.u.real, s.u.imag, s.v.real, s.v.imag])
        for s in snaps
    ])


def simulate_check(prefix: Path, expected: np.ndarray):
    snap_path = prefix.with_name(prefix.name + "_snapshots.csv")
    snaps = _read_table(snap_path, SNAPSHOT_HEADER, 6)
    _expect_rows(snap_path, snaps, expected.shape[0])
    if not np.array_equal(snaps, expected):
        bad = int(np.argmax(np.any(snaps != expected, axis=1)))
        raise CheckFailed(f"{snap_path.name}: row {bad + 1} differs from the in-process evolve")
    trace_path = prefix.with_name(prefix.name + "_trace.csv")
    trace = _read_table(trace_path, TRACE_HEADER, 8)
    levels = len(np.unique(expected[:, 0]))
    _expect_rows(trace_path, trace, levels)


def audit_reference(doc: dict) -> list[str]:
    return list(doc["audit_selection"])


def audit_check(prefix: Path, selection: list[str]):
    path = prefix.with_name(prefix.name + "_audits.csv")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    names = [row.get("audit") for row in rows]
    if names != selection:
        raise CheckFailed(f"{path.name}: audits {names}, expected {selection}")
    for row in rows:
        if row.get("passed") != "true":
            raise CheckFailed(f"{path.name}: audit {row['audit']} did not pass")
        for key in ("max_violation", "tolerance_budget"):
            try:
                value = float(row.get(key) or "nan")
            except ValueError:
                value = float("nan")
            if not np.isfinite(value):
                raise CheckFailed(f"{path.name}: audit {row['audit']} has {key}={row.get(key)!r}")


def converge_reference(doc: dict) -> np.ndarray:
    """Rows (eps_coarse, eps_fine, field distance, product distance)."""
    from lcdirac import convergence_study

    cfg = _parse(doc)
    table = convergence_study(cfg.init, cfg.epsilons, cfg.model, cfg.grid, cfg.T, cfg.kernel)
    eps = np.array(table.epsilons)
    return np.column_stack([eps[:-1], eps[1:], table.pair_distances, table.product_distances])


def converge_check(prefix: Path, expected: np.ndarray):
    path = prefix.with_name(prefix.name + "_convergence.csv")
    table = _read_table(path, CONVERGENCE_HEADER, 4)
    _expect_rows(path, table, expected.shape[0])
    if not np.allclose(table, expected, rtol=DISTANCE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(table - expected) / np.abs(expected)))
        raise CheckFailed(f"{path.name}: relative distance error {worst:.3g} > {DISTANCE_RTOL}")


@dataclass(frozen=True)
class Workload:
    config: Callable  # (rng, smoke) -> config document without output path
    reference: Callable  # (document) -> expected value, computed in-process
    check: Callable  # (output prefix, expected) -> None, raises CheckFailed


WORKLOADS = {
    "simulate_csv": Workload(simulate_csv_config, simulate_reference, simulate_check),
    "audit_cone": Workload(audit_cone_config, audit_reference, audit_check),
    "converge_rough": Workload(converge_rough_config, converge_reference, converge_check),
}


def make_config(workload: str, seed: int, prefix: Path, smoke: bool = False) -> dict:
    """The config document of one workload at one seed, writing under prefix."""
    doc = WORKLOADS[workload].config(np.random.default_rng(seed), smoke)
    doc["output"]["path"] = str(prefix)
    return doc

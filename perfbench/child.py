"""Child process of the benchmark: one set-up probe or one traced request.

    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py trace CONFIG SPANS_OUT

``setup`` does what a fresh interpreter must do before it can step: import
lcdirac, parse the config and sample the initial datum. ``trace`` runs the
config in-process through ``lcdirac.cli.parse_config`` and ``run_command``
with every public layer boundary wrapped in a span, writes the spans to
SPANS_OUT when the run ends and exits with run_command's status.

lcdirac is imported from PYTHONPATH, which the benchmark points at the
checkout's ``src``.
"""
from __future__ import annotations

import sys
from pathlib import Path

from tracing import LEVEL_BYTES_PER_SITE, Tracer


def _count_sites(tracer, args, kwargs, result):
    tracer.counts["kernels.step_sites"] += args[0].size


def _count_levels(tracer, args, kwargs, result):
    tracer.counts["solver.stored_levels"] += len(result)
    tracer.counts["solver.stored_bytes"] += len(result) * result[0].grid.n_points * LEVEL_BYTES_PER_SITE


def _count_level_evaluated(tracer, args, kwargs, result):
    # Keyed by snapshot identity, not time: run A and the perturbed run B
    # share every time. Holding the snapshot keeps its id from being reused.
    tracer.distinct["functionals.levels"][id(args[0])] = args[0]


def _count_artifact_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.artifact_bytes"] += len(args[1])  # the CLI writes ASCII only


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["model.algebraic_samples"] += args[0]


def install(tracer: Tracer):
    """Wrap each layer boundary under the name its caller looks it up by.

    ``from .x import y`` binds y in the caller's namespace at import time,
    so a function is patched in every module that calls it by that name.
    """
    from lcdirac import cli, functionals, harness, kernels

    def patch(module, attr, name, on_call=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, on_call))

    for attr in ("snapshots_csv", "trace_csv", "convergence_csv", "reports_csv"):
        patch(cli, attr, f"cli.{attr}")
    patch(cli, "_write", "cli.write", _count_artifact_bytes)
    for module in (cli, harness):
        patch(module, "sample_initial", "fields.sample_initial")
        patch(module, "evolve", "solver.evolve", _count_levels)
    patch(kernels, "step_unforced", "kernels.step_unforced", _count_sites)
    patch(kernels, "q_upper", "kernels.q_upper")
    for module in (cli, functionals):
        patch(module, "trace_base", "functionals.trace_base")
    patch(functionals, "trace_pair", "functionals.trace_pair")
    patch(functionals, "base_functionals", "functionals.base_functionals", _count_level_evaluated)
    patch(functionals, "difference_functionals", "functionals.difference_functionals")
    # charge is a fields helper called once per level; its calls are named
    # after the layer whose work they are: the functionals trace, or the
    # charge audit that lives in the CLI.
    patch(functionals, "charge", "functionals.charge")
    patch(cli, "charge", "cli.charge")
    patch(cli, "triangle_charge_audit", "functionals.audit.triangle")
    patch(cli, "pointwise_audit", "functionals.audit.pointwise")
    patch(cli, "bony_decay_audit", "functionals.audit.bony")
    patch(cli, "gronwall_audit", "functionals.audit.gronwall")
    patch(cli, "check_algebraic_bounds", "model.algebraic", _count_samples)
    patch(cli, "convergence_study", "harness.convergence_study")
    patch(harness, "mollify", "harness.mollify")
    patch(harness, "l2_distance", "fields.l2_distance")


def main(argv: list[str]) -> int:
    mode, config = argv[1], Path(argv[2])
    if mode == "setup":
        import lcdirac
        from lcdirac.cli import parse_config

        cfg = parse_config(config.read_text())
        lcdirac.sample_initial(cfg.init, cfg.grid)
        return 0

    spans_out = Path(argv[3])
    tracer = Tracer()
    rec = tracer.begin("setup.import")
    from lcdirac import cli

    tracer.end(rec)
    install(tracer)
    cfg = tracer.wrap(cli.parse_config, "cli.parse_config")(config.read_text())
    status = tracer.wrap(cli.run_command, "cli.run_command")(cfg)
    tracer.dump(spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is one call of a wrapped function: its name, start and end in
``perf_counter_ns`` units, and the index of the span that was open when it
started (its parent). Spans are appended to a list in start order and
written out as one JSON document when the traced run ends; nothing is
written while the program runs.

A span name is ``<layer>.<function>``. The layer is the lcdirac module
that defines the function, except for the per-level ``charge`` helper,
whose calls are named after the layer that makes them (child.py). A layer's
self time is the sum of its spans' self times, where a span's
self time is its duration minus the part of that interval its child spans
cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Computed cost of one site update of the unforced light-cone step, taken
# from its formula rather than from hardware counters. Bytes: read u and v,
# write u_new and v_new, complex128 each (4 x 16 B), the traffic of a fused
# kernel that keeps its temporaries in registers. Flops: real arithmetic of
# the two stages -- stage values at the old level (|u|^2, |v|^2, the
# Gross-Neveu bilinear, N1, N2, uh, vh: 42) plus the paired u and v updates
# (23 each).
STEP_BYTES_PER_SITE = 64
STEP_FLOPS_PER_SITE = 88

# Bytes one stored time level holds per site: u and v, complex128 each.
LEVEL_BYTES_PER_SITE = 32

ROOT = "cli.run_command"
LAYERS = ("cli", "solver", "kernels", "functionals", "model", "harness", "fields")
AUDITS = ("triangle", "pointwise", "bony", "gronwall")
SERIALIZERS = ("cli.snapshots_csv", "cli.trace_csv", "cli.convergence_csv", "cli.reports_csv")


class Tracer:
    """Records spans and counters for one traced request."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(dict)  # key -> object, counted by key
        self._open = [-1]

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._open[-1]]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        return rec

    def end(self, rec: list):
        rec[2] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, fn, name: str, on_call=None):
        """Return fn recording one span per call.

        on_call(tracer, args, kwargs, result) runs after a call that returned,
        outside the span, to update counters.
        """
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return traced

    def document(self) -> dict:
        counts = dict(self.counts)
        for key, seen in self.distinct.items():
            counts[key] = len(seen)
        return {"spans": self.spans, "counts": counts}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.document(), fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    clipped to it."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced request, in seconds, counts and ratios.

    ``*_s`` metrics are inclusive span time unless their name says self;
    cli.serialize_s is the self time of the CSV serializers.
    """
    spans, counts = doc["spans"], doc["counts"]
    own = self_times(spans)
    total: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    root = next(i for i, s in enumerate(spans) if s[0] == ROOT)
    for i, ((name, start, end, _), mine) in enumerate(zip(spans, own)):
        total[name] += end - start
        self_ns[name] += mine
        calls[name] += 1
        if i > root:  # descendants of run_command start after it
            layer_self[name.split(".", 1)[0]] += mine

    def sec(ns):
        return ns / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    sites = counts.get("kernels.step_sites", 0)
    serialize = sec(sum(self_ns[n] for n in SERIALIZERS))
    artifact_bytes = counts.get("cli.artifact_bytes", 0)
    m = {
        "cli.serialize_s": serialize,
        "cli.write_s": sec(total["cli.write"]),
        "cli.artifact_bytes": artifact_bytes,
        "cli.serialize_mb_per_s": ratio(artifact_bytes / 1e6, serialize),
        "cli.parse_s": sec(total["cli.parse_config"]),
        "fields.sample_initial_s": sec(total["fields.sample_initial"]),
        "setup.import_s": sec(total["setup.import"]),
        "kernels.step_calls": calls["kernels.step_unforced"],
        "kernels.step_s": sec(total["kernels.step_unforced"]),
        "kernels.step_ns_per_site": ratio(total["kernels.step_unforced"], sites),
        "kernels.step_bytes_computed": sites * STEP_BYTES_PER_SITE,
        "kernels.step_flops_computed": sites * STEP_FLOPS_PER_SITE,
        "kernels.q_upper_calls": calls["kernels.q_upper"],
        "kernels.q_upper_s": sec(total["kernels.q_upper"]),
        "solver.evolve_calls": calls["solver.evolve"],
        "solver.evolve_self_s": sec(self_ns["solver.evolve"]),
        "solver.site_updates": sites,
        "solver.site_updates_per_s": ratio(sites, sec(total["solver.evolve"])),
        "solver.stored_levels": counts.get("solver.stored_levels", 0),
        "solver.stored_bytes": counts.get("solver.stored_bytes", 0),
        "functionals.trace_base_calls": calls["functionals.trace_base"],
        "functionals.trace_base_s": sec(total["functionals.trace_base"]),
        "functionals.base_functionals_calls": calls["functionals.base_functionals"],
        "functionals.charge_calls": calls["functionals.charge"],
        "functionals.recompute_ratio": ratio(
            calls["functionals.base_functionals"], counts.get("functionals.levels", 0)
        ),
        "model.algebraic_s": sec(total["model.algebraic"]),
        "model.algebraic_samples_per_s": ratio(
            counts.get("model.algebraic_samples", 0), sec(total["model.algebraic"])
        ),
        "harness.mollify_s": sec(total["harness.mollify"]),
        "harness.distance_s": sec(self_ns["harness.convergence_study"]),
        "fields.l2_distance_s": sec(total["fields.l2_distance"]),
        "trace.coverage": 1.0 - ratio(own[root], spans[root][2] - spans[root][1]),
    }
    for audit in AUDITS:
        m[f"functionals.audit_s.{audit}"] = sec(total[f"functionals.audit.{audit}"])
    for layer in LAYERS:
        m[f"self_s.{layer}"] = sec(layer_self[layer])
    return m


def top_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self time inside run_command."""
    return max(LAYERS, key=lambda layer: metrics[f"self_s.{layer}"])

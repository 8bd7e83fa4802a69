"""Config parsing, subcommand dispatch, and artifact serialization.

The CLI takes a single argument, the path of a JSON config document with a
strict schema (unknown keys are rejected). Exit codes: 0 success and all
requested audits passed; 1 audit failure or solver blow-up (partial
artifacts are still written); 2 configuration or precondition error.
All floating-point output is serialized with 17 significant digits so a
round trip through text is lossless.
"""
from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import kernels
from ._records import record
from .errors import (
    BlowUpError,
    ConfigurationError,
    FrequencyDomainError,
    PreconditionError,
    ResolutionError,
    UsageError,
)
from .fields import (
    ComponentSpec,
    GridSpec,
    InitialDatum,
    SpinorField,
    TriangleDomain,
    charge,
    make_grid,
    sample_initial,
    zero_datum,
)
from .functionals import (  # noqa: F401  (the *_audit names: perfbench/child.py wraps them here)
    AuditPass,
    FunctionalTrace,
    bony_decay_audit,
    gronwall_audit,
    pointwise_audit,
    trace_base,
    triangle_charge_audit,
)
from .harness import ConvergenceTable, convergence_study, uniqueness_probe
from .model import EstimateConstants, ModelParams, check_algebraic_bounds, derive_constants
from .reports import C_TOL, AuditReport
from .solver import SolverConfig, evolve, horizon_steps, thirring_soliton

COMMANDS = ("simulate", "audit", "converge", "unique", "soliton-check")
AUDITS = ("algebraic", "charge", "triangle", "pointwise", "bony", "gronwall")
EVOLVED_AUDITS = AUDITS[1:]  # the audits that need the evolved run
FORMATS = ("csv", "structured-report")
# The artifacts each command writes; the reports (audits, soliton) are .json
# in the structured-report format, every other artifact is .csv.
ARTIFACTS = {
    "simulate": ("trace", "snapshots"),
    "audit": ("audits",),
    "converge": ("convergence",),
    "unique": ("uniqueness",),
    "soliton-check": ("soliton",),
}

# Largest run parse_config accepts, in lattice site updates: (steps + 1) x
# sites x evolutions. An audit at N=3072, T=4 on [-6, 6] is 6.3e6. Only
# simulate holds levels, 32 B per site of each recorded level, so the bound
# also caps them at 3.2 GB.
MAX_SITE_UPDATES = 10**8

# Largest audit.samples parse_config accepts. The key has no effect: the
# algebraic audit evaluates a fixed set of tuples (model.check_algebraic_bounds).
MAX_AUDIT_SAMPLES = 10**7


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Config schema


@record
class RunConfig:
    """A parsed and validated config document, every default filled in."""

    model: ModelParams
    grid: GridSpec
    T: float
    record_every: int
    init: InitialDatum
    constants: EstimateConstants
    c_tol: float
    command: str
    audit_selection: tuple[str, ...]
    out_format: str
    domain: Optional[TriangleDomain]
    epsilons: tuple[float, ...]
    kernel: str
    kernel_b: str
    frequency: float
    audit_c0: Optional[float]
    audit_samples: int  # no effect, see MAX_AUDIT_SAMPLES
    audit_perturbation: float
    artifacts: dict[str, Path]  # the path of every artifact the command writes, by name


class _Section:
    """Strict view over one nested dict: every key must be consumed."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigurationError(f"section {path!r} must be an object")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, default=..., kind=None):
        if key not in self.data:
            if default is ...:
                raise ConfigurationError(f"missing required key '{self.path}{key}'")
            return default
        val = self.data.pop(key)
        # bool is a subclass of int, but true/false is not a count;
        # null is no value of any kind
        if kind is not None and (not isinstance(val, kind) or (kind is int and isinstance(val, bool))):
            raise ConfigurationError(f"key '{self.path}{key}' has wrong type")
        return val

    def sub(self, key: str, required=False) -> "_Section":
        """The nested section at key; an absent optional one is empty, so
        its keys take their defaults."""
        if key not in self.data:
            if required:
                raise ConfigurationError(f"missing required section '{self.path}{key}'")
            return _Section({}, f"{self.path}{key}.")
        return _Section(self.data.pop(key), f"{self.path}{key}.")

    def finish(self):
        if self.data:
            bad = sorted(self.data)[0]
            raise ConfigurationError(f"unknown key '{self.path}{bad}'")


def _as_float(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigurationError(f"key {path!r} must be a number")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigurationError(f"key {path!r} must be finite, got {out!r}")
    return out


def _as_complex(val, path: str) -> complex:
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return complex(_as_float(val, path))
    if isinstance(val, list) and len(val) == 2:
        return complex(_as_float(val[0], path), _as_float(val[1], path))
    raise ConfigurationError(f"key {path!r} must be a number or [re, im] pair")


def _component(sec: _Section) -> ComponentSpec:
    kind = sec.take("kind", kind=str)
    kwargs: dict[str, Any] = {}
    if "amplitude" in sec.data:
        kwargs["amplitude"] = _as_complex(sec.take("amplitude"), sec.path + "amplitude")
    for name in ("center", "width", "halfwidth", "exponent", "cap"):
        if name in sec.data:
            kwargs[name] = _as_float(sec.take(name), sec.path + name)
    if "values" in sec.data:
        raw = sec.take("values", kind=list)
        kwargs["values"] = np.array(
            [_as_complex(z, sec.path + "values") for z in raw], dtype=np.complex128
        )
    sec.finish()
    return ComponentSpec(kind, **kwargs)


def _artifact_paths(command: str, out_path: str, out_format: str) -> dict[str, Path]:
    """The path of every artifact the command writes, by name: output.path,
    then _name and the suffix appended (a dot in output.path is kept)."""
    report = command in ("audit", "soliton-check") and out_format == "structured-report"
    suffix = ".json" if report else ".csv"
    prefix = Path(out_path)
    return {name: prefix.parent / f"{prefix.name}_{name}{suffix}" for name in ARTIFACTS[command]}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document; defaults filled."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config document at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # integer past int's digit limit, deep nesting
        raise ConfigurationError(f"malformed config document: {exc}") from exc
    root = _Section(doc, "")

    msec = root.sub("model", required=True)
    model = ModelParams(
        m=_as_float(msec.take("m"), "model.m"),
        alpha=_as_float(msec.take("alpha"), "model.alpha"),
        beta=_as_float(msec.take("beta"), "model.beta"),
    )
    msec.finish()

    gsec = root.sub("grid", required=True)
    grid = make_grid(
        _as_float(gsec.take("x_min"), "grid.x_min"),
        _as_float(gsec.take("x_max"), "grid.x_max"),
        gsec.take("n_points", kind=int),
        gsec.take("boundary", default="periodic", kind=str),
    )
    gsec.finish()

    tsec = root.sub("time")
    T = _as_float(tsec.take("T", default=1.0), "time.T")
    record_every = tsec.take("record_every", default=1, kind=int)
    tsec.finish()
    if T < 0:
        raise ConfigurationError("time.T must be nonnegative")
    if record_every < 1:
        raise ConfigurationError("time.record_every must be >= 1")

    init = zero_datum()
    if "init" in root.data:
        isec = root.sub("init")
        init = InitialDatum(
            _component(isec.sub("u0", required=True)),
            _component(isec.sub("v0", required=True)),
        )
        isec.finish()

    csec = root.sub("constants")
    overrides = {name: _as_float(csec.take(name), f"constants.{name}")
                 for name in ("delta0", "c_star", "K", "delta") if name in csec.data}
    c_tol = _as_float(csec.take("C_tol", default=C_TOL), "constants.C_tol")
    csec.finish()
    if c_tol < 0:
        raise ConfigurationError("constants.C_tol must be nonnegative")
    constants = derive_constants(model, **overrides)

    command = root.take("command", kind=str)
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}; expected one of {COMMANDS}")

    selection = tuple(root.take("audit_selection", default=list(AUDITS), kind=list))
    for a in selection:
        if a not in AUDITS:
            raise ConfigurationError(f"unknown audit {a!r}; expected subset of {AUDITS}")

    osec = root.sub("output")
    out_path = osec.take("path", default="lcdirac_out", kind=str)
    out_format = osec.take("format", default="csv", kind=str)
    osec.finish()
    if out_format not in FORMATS:
        raise ConfigurationError(f"unknown output format {out_format!r}")

    domain = None
    if "domain" in root.data:
        dsec = root.sub("domain")
        domain = TriangleDomain(_as_float(dsec.take("a"), "domain.a"), _as_float(dsec.take("b"), "domain.b"))
        dsec.finish()

    listed = "mollify" in root.data  # a mollify section must list its epsilons
    esec = root.sub("mollify")
    epsilons = tuple(
        _as_float(e, "mollify.epsilons") for e in (esec.take("epsilons", kind=list) if listed else ())
    )
    kernel = esec.take("kernel", default="bump", kind=str)
    kernel_b = esec.take("kernel_b", default="triangle", kind=str)
    esec.finish()

    frequency = 0.5 * model.m
    if "soliton" in root.data:
        ssec = root.sub("soliton")
        frequency = _as_float(ssec.take("frequency"), "soliton.frequency")
        ssec.finish()

    asec = root.sub("audit")
    audit_c0 = _as_float(asec.take("c0"), "audit.c0") if "c0" in asec.data else None
    audit_samples = asec.take("samples", default=100_000, kind=int)
    audit_pert = _as_float(asec.take("perturbation", default=1e-3), "audit.perturbation")
    asec.finish()
    if audit_samples < 1:
        raise ConfigurationError("audit.samples must be >= 1")
    if audit_samples > MAX_AUDIT_SAMPLES:
        raise ConfigurationError(
            f"audit.samples {audit_samples} exceeds {MAX_AUDIT_SAMPLES:.3g} (MAX_AUDIT_SAMPLES)"
        )

    root.finish()
    if command == "audit":
        runs = any(a in selection for a in EVOLVED_AUDITS) + ("gronwall" in selection)
    else:
        runs = {"simulate": 1, "converge": len(epsilons), "unique": 2 * len(epsilons)}.get(command, 0)
    try:
        steps = T / grid.dt if runs else 0.0
        work = (steps + 1.0) * grid.n_points * max(runs, 1)
    except OverflowError:  # an n_points past the float range
        work = math.inf
    if not work <= MAX_SITE_UPDATES:
        raise ConfigurationError(
            f"run too large: {work:.3g} site updates (steps x sites x evolutions) exceed "
            f"{MAX_SITE_UPDATES:.3g}; lower time.T or grid.n_points"
        )
    if command == "simulate" and domain is not None:
        t_last = horizon_steps(T, grid.dt)[0] * grid.dt
        if t_last > domain.apex_time + 1e-12:
            raise ConfigurationError(
                f"domain apex at t={domain.apex_time} comes before the last recorded level at "
                f"t={t_last}; the trace needs every level inside the cone"
            )
    return RunConfig(
        model=model, grid=grid, T=T, record_every=record_every, init=init,
        constants=constants, c_tol=c_tol, command=command, audit_selection=selection,
        out_format=out_format, domain=domain, epsilons=epsilons,
        kernel=kernel, kernel_b=kernel_b, frequency=frequency, audit_c0=audit_c0,
        audit_samples=audit_samples, audit_perturbation=audit_pert,
        artifacts=_artifact_paths(command, out_path, out_format),
    )


# ---------------------------------------------------------------------------
# Serialization


def _output_dir(path: Path):
    if path.parent.is_dir():
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {str(path.parent)!r}: {exc}") from exc


def _write(path: Path, data):
    """Write an artifact in binary mode: bytes as they are, text encoded as
    UTF-8 (all the CLI writes is ASCII)."""
    _output_dir(path)
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc


def _table_csv(header: Sequence[str], columns: Sequence) -> str:
    """Header line plus one row per index of the columns, all at 17 digits
    (rows are cut to the shortest column, as zip does)."""
    n_rows = min(len(c) for c in columns)
    values = np.column_stack([np.asarray(c, dtype=np.float64)[:n_rows] for c in columns])
    return ",".join(header) + "\n" + kernels.format_rows(values)


def trace_csv(trace: FunctionalTrace) -> str:
    cols = ["t", "L0", "D0", "Q0", "cumD0", "charge", "max_abs_u", "max_abs_v"]
    arrays = [trace.times, trace.L0, trace.D0, trace.Q0, trace.cumD0,
              trace.charge, trace.max_abs_u, trace.max_abs_v]
    if trace.has_pair:
        cols += ["L1", "D1", "Q1", "cumD1"]
        arrays += [trace.L1, trace.D1, trace.Q1, trace.cumD1]
    return _table_csv(cols, arrays)


SNAPSHOTS_HEADER = b"t,x,re_u,im_u,re_v,im_v\n"


def snapshots_csv(snapshots: Sequence[SpinorField]) -> memoryview:
    """The snapshot CSV as ASCII bytes: the header and every level are
    written into one buffer sized for the longest tokens, and the bytes
    written are returned as a view of it.

    The buffer is a NumPy array, left uninitialised, so only the pages the
    text reaches are touched. Each grid has one (n, 6) block with its x
    column filled once; a level fills the other columns and is formatted
    in one call.
    """
    sites = sum(s.grid.n_points for s in snapshots)
    buf = np.empty(len(SNAPSHOTS_HEADER) + 6 * sites * kernels.TOKEN_BYTES, dtype=np.uint8)
    end = len(SNAPSHOTS_HEADER)
    buf[:end] = np.frombuffer(SNAPSHOTS_HEADER, dtype=np.uint8)
    blocks: dict[GridSpec, np.ndarray] = {}
    for s in snapshots:
        block = blocks.get(s.grid)
        if block is None:
            block = blocks[s.grid] = np.empty((s.grid.n_points, 6))
            block[:, 1] = s.grid.sites()
        block[:, 0] = s.t
        block[:, 2], block[:, 3] = s.u.real, s.u.imag
        block[:, 4], block[:, 5] = s.v.real, s.v.imag
        end = kernels.format_rows_into(buf, end, block)
    return memoryview(buf[:end])


def convergence_csv(table: ConvergenceTable) -> str:
    if table.mode == "consecutive":
        coarse, fine = table.epsilons[:-1], table.epsilons[1:]
    else:
        coarse, fine = table.epsilons, table.epsilons
    return _table_csv(
        ["eps_coarse", "eps_fine", "field_distance", "product_distance"],
        [coarse, fine, table.pair_distances, table.product_distances],
    )


def _report_record(name: str, rep: AuditReport, k: EstimateConstants) -> dict:
    """The flat record of one audit report; every record carries the run's
    estimate constants."""
    rec: dict[str, Any] = {
        "audit": name,
        "inequality": rep.inequality,
        "passed": rep.passed,
        "max_violation": rep.max_violation,
        "tolerance_budget": rep.tolerance_budget,
        "witness_time": rep.witness[0] if rep.witness else None,
        "witness_location": rep.witness[1] if rep.witness else None,
    }
    for f in ("c", "delta0", "c_star", "K", "delta"):
        rec[f"constants_{f}"] = getattr(k, f)
    for key, val in rep.info.items():
        rec[f"info_{key}"] = val
    return rec


def _scalar(v, none: str = "null") -> str:
    """One report value as JSON text; none is the text for a missing value."""
    if v is None:
        return none
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return json.dumps(str(v))


def reports_json(records: Sequence[dict]) -> str:
    """Flat record list with floats at 17 significant digits."""
    out = ["["]
    for i, rec in enumerate(records):
        body = ", ".join(f"{json.dumps(k)}: {_scalar(v)}" for k, v in rec.items())
        out.append("  {" + body + "}" + ("," if i + 1 < len(records) else ""))
    out.append("]")
    return "\n".join(out) + "\n"


def reports_csv(records: Sequence[dict]) -> str:
    cols: list[str] = []
    for rec in records:
        for k in rec:
            if k not in cols:
                cols.append(k)
    lines = [",".join(cols)] + [",".join(_scalar(rec.get(k), "") for k in cols) for rec in records]
    return "\n".join(lines) + "\n"


def emit_reports(records: Sequence[dict], fmt: str, path: Path):
    _write(path, reports_json(records) if fmt == "structured-report" else reports_csv(records))


# ---------------------------------------------------------------------------
# Commands


def _check_outputs(cfg: RunConfig):
    """Create the output directory and refuse an artifact path that cannot
    be written (a directory, or a file or directory without write access),
    so that such a config fails before the run, not after it."""
    for path in cfg.artifacts.values():
        _output_dir(path)
        if path.is_dir():
            reason = "is a directory"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise ConfigurationError(f"cannot write {str(path)!r}: {reason}")


def _default_domain(cfg: RunConfig) -> TriangleDomain:
    g = cfg.grid
    return TriangleDomain(g.x_min, g.x_min + (g.n_points - 1) * g.dx)


def _perturbed(f0: SpinorField, rel: float) -> SpinorField:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        u, v = f0.u * (1.0 + rel), f0.v * (1.0 + rel)
    try:
        return SpinorField(f0.grid, f0.t, u, v)
    except ConfigurationError:
        raise ConfigurationError(f"audit.perturbation {rel} overflows the perturbed datum") from None


def _cmd_simulate(cfg: RunConfig) -> int:
    f0 = sample_initial(cfg.init, cfg.grid)
    status = 0
    try:
        snaps = evolve(f0, cfg.model, SolverConfig(record_every=cfg.record_every), cfg.T)
    except BlowUpError as exc:
        snaps = exc.partial
        status = 1
        print(f"blow-up: {exc}", file=sys.stderr)
    # A huge but finite level overflows the functionals without a warning:
    # the trace carries the inf.
    with np.errstate(over="ignore", invalid="ignore"):
        trace = trace_base(snaps, cfg.domain)
    _write(cfg.artifacts["trace"], trace_csv(trace))
    _write(cfg.artifacts["snapshots"], snapshots_csv(snaps))
    return status


def _snap_tau(dom: TriangleDomain, T: float, dt: float) -> float:
    """The triangle audit's tau: the last level evolve reaches by the apex."""
    return horizon_steps(min(T, dom.apex_time), dt)[0] * dt


def _cmd_audit(cfg: RunConfig) -> int:
    """One lockstep pass over run A and, for gronwall, the perturbed run B.

    Every usage and precondition error is raised before the first step. A
    blow-up stops both runs: in A it writes an empty audits file, in B none.
    """
    p, k = cfg.model, cfg.constants
    dom = cfg.domain if cfg.domain is not None else _default_domain(cfg)
    f0 = sample_initial(cfg.init, cfg.grid)
    evolved = [a for a in EVOLVED_AUDITS if a in cfg.audit_selection]
    c0 = None
    if "pointwise" in evolved:
        with np.errstate(over="ignore"):  # a huge datum's charge is inf: pointwise refuses it
            c0 = cfg.audit_c0 if cfg.audit_c0 is not None else charge(f0) + 1.0
    audits = AuditPass(evolved, dom, k, p, T=cfg.T, tau=_snap_tau(dom, cfg.T, cfg.grid.dt),
                       C0=c0, c_tol=cfg.c_tol)
    if evolved:
        runs = [f0]
        if "gronwall" in evolved:
            runs.append(_perturbed(f0, cfg.audit_perturbation))
        try:
            evolve(runs, p, SolverConfig(), cfg.T, observers=[audits])
        except BlowUpError as exc:
            if exc.run > 0:
                exc.label = "the perturbed run B"
            print(f"blow-up: {exc}", file=sys.stderr)
            if exc.run == 0:
                emit_reports([], cfg.out_format, cfg.artifacts["audits"])
            return 1

    records: list[dict] = []
    status = 0
    for name in AUDITS:
        if name not in cfg.audit_selection:
            continue
        if name == "algebraic":
            rep = check_algebraic_bounds(cfg.audit_samples, p, k)
        else:
            rep = audits.report(name)
        records.append(_report_record(name, rep, k))
        if not rep.passed:
            status = 1

    emit_reports(records, cfg.out_format, cfg.artifacts["audits"])
    return status


def _cmd_converge(cfg: RunConfig) -> int:
    if len(cfg.epsilons) < 2:  # one radius has no pair to compare
        raise ConfigurationError("converge needs at least two mollify.epsilons")
    table = convergence_study(cfg.init, cfg.epsilons, cfg.model, cfg.grid, cfg.T, cfg.kernel)
    _write(cfg.artifacts["convergence"], convergence_csv(table))
    return 0


def _cmd_unique(cfg: RunConfig) -> int:
    if not cfg.epsilons:
        raise ConfigurationError("unique needs mollify.epsilons")
    table = uniqueness_probe(
        cfg.init, cfg.kernel, cfg.kernel_b, cfg.epsilons, cfg.model, cfg.grid, cfg.T
    )
    _write(cfg.artifacts["uniqueness"], convergence_csv(table))
    return 0


def _cmd_soliton(cfg: RunConfig) -> int:
    if (cfg.model.alpha, cfg.model.beta) != (1.0, 0.0):
        raise ConfigurationError(
            "soliton-check validates the Thirring standing wave; it needs model.alpha = 1 and "
            "model.beta = 0"
        )
    oracle = thirring_soliton(cfg.model.m, cfg.frequency, cfg.grid)
    coarse, mid, fine = oracle.residuals
    first, second = oracle.residual_orders
    emit_reports(
        [{"residual_coarse": coarse, "residual_mid": mid, "residual_fine": fine,
          "order_first": first, "order_second": second, "accepted": oracle.available}],
        cfg.out_format, cfg.artifacts["soliton"],
    )
    return 0 if oracle.available else 1


def run_command(cfg: RunConfig) -> int:
    handler = {
        "simulate": _cmd_simulate,
        "audit": _cmd_audit,
        "converge": _cmd_converge,
        "unique": _cmd_unique,
        "soliton-check": _cmd_soliton,
    }[cfg.command]
    try:
        return handler(cfg)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, PreconditionError, ResolutionError, FrequencyDomainError,
            UsageError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


USAGE = "usage: python -m lcdirac CONFIG"
HELP = f"""{USAGE}

Light-cone lattice solver and estimate audits for cubic nonlinear Dirac systems.

CONFIG is the path of the JSON run configuration; its "command" says what
to run. Exit status: 0 on success, 1 when an audit or check fails or the
run blows up, 2 on a usage or configuration error."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the config named by the one argument (sys.argv[1:] by default)
    and return the exit status; -h or --help prints the help. Never raises
    SystemExit."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args in (["-h"], ["--help"]):
        print(HELP)
        return 0
    if len(args) != 1:
        print(f"{USAGE}\nlcdirac: error: expected one config path, got {len(args)} arguments", file=sys.stderr)
        return 2
    try:
        text = Path(args[0]).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        _check_outputs(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run_command(cfg)


def entry():
    """Process entry point (``python -m lcdirac`` and the ``lcdirac``
    script): run main(), flush the standard streams and end the process
    with os._exit, skipping the interpreter's teardown of its modules and
    NumPy's objects (about 17 ms). Nothing is lost: every artifact is
    closed before main() returns, lcdirac registers no atexit hook, and
    its one log line reaches stderr at once. A closed stdout or stderr
    exits 2 and prints nothing: a broken pipe out of main() gives 2, and
    a flush that fails turns a 0 into 2."""
    try:
        status = main()
    except BrokenPipeError:
        status = 2
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            status = status or 2
    os._exit(status)


if __name__ == "__main__":
    entry()

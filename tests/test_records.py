"""The record types: construction, defaults, validation, immutability,
equality, hashing and repr of every class built by ``_records.record``."""
import json

import numpy as np
import pytest

import lcdirac as lc
from lcdirac.cli import RunConfig, parse_config
from lcdirac.errors import ConfigurationError, UsageError
from lcdirac.functionals import FunctionalTrace
from lcdirac.harness import ConvergenceTable
from lcdirac.reports import AuditReport
from lcdirac.solver import ManufacturedCase, SolitonOracle, SolverConfig

GRID = lc.GridSpec(-1.0, 1.0, 8)
ZEROS = np.zeros(8, complex)


def _run_config_values():
    doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 64},
        "command": "simulate",
    }
    cfg = parse_config(json.dumps(doc))
    return tuple(getattr(cfg, name) for name in RunConfig.__annotations__)


# Every record class with one value for each of its fields, in field order.
CASES = {
    "GridSpec": lambda: (lc.GridSpec, (-1.0, 1.0, 8, "zero_inflow")),
    "SpinorField": lambda: (lc.SpinorField, (GRID, 0.5, ZEROS, ZEROS)),
    "TriangleDomain": lambda: (lc.TriangleDomain, (-1.0, 1.0)),
    "ComponentSpec": lambda: (lc.ComponentSpec, ("gaussian_pulse", 2.0 + 1.0j, 0.5, 0.25, 1.0, 0.25, 100.0, None)),
    "InitialDatum": lambda: (lc.InitialDatum, (lc.ComponentSpec("uniform"), lc.ComponentSpec("uniform", 0.0))),
    "FunctionalTrace": lambda: (FunctionalTrace, (np.arange(3.0),) * 8 + (None,) * 4),
    "ConvergenceTable": lambda: (ConvergenceTable, ((0.4, 0.2), (1e-3,), (2e-3,), "cross")),
    "ModelParams": lambda: (lc.ModelParams, (1.0, 0.0, 0.25)),
    "EstimateConstants": lambda: (lc.EstimateConstants, (2.0, 0.125, 16.0, 34.0, 0.015625)),
    "AuditReport": lambda: (AuditReport, ("charge", True, 0.0, 1.0, (0.5, 1.0), {"scale": 2.0})),
    "SolverConfig": lambda: (SolverConfig, (None, 3)),
    "ManufacturedCase": lambda: (ManufacturedCase, (np.sin, np.cos, (np.add, np.subtract))),
    "SolitonOracle": lambda: (SolitonOracle, (False, 1.0, 0.5, GRID, (0.4, 0.1, 0.03), (2.0, 1.7), None)),
    "RunConfig": lambda: (RunConfig, _run_config_values()),
}

cases = pytest.mark.parametrize("case", list(CASES))


def build(case):
    cls, values = CASES[case]()
    return cls, dict(zip(cls.__annotations__, values, strict=True))


def test_cases_cover_every_record_class():
    assert len(CASES) == 14
    for case in CASES:
        cls, _ = CASES[case]()
        assert cls.__name__ == case
        assert "__slots__" not in vars(cls)  # SpinorField._evolved fills __dict__


@cases
def test_positional_and_keyword_construction_agree(case):
    cls, fields = build(case)
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    first, *rest = fields
    mixed = cls(fields[first], **{name: fields[name] for name in rest})
    for obj in (by_position, by_keyword, mixed):
        for name, value in fields.items():
            got = getattr(obj, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(got, value)
            else:
                assert got is value or got == value
    assert repr(by_position) == repr(by_keyword) == repr(mixed)


@cases
def test_bad_arguments_raise_type_error(case):
    cls, fields = build(case)
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    if case != "SolverConfig":  # the one record whose every field has a default
        with pytest.raises(TypeError):
            cls()


@cases
def test_fields_are_frozen(case):
    cls, fields = build(case)
    obj = cls(**fields)
    before = repr(obj)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == before


@cases
def test_repr_names_every_field(case):
    cls, fields = build(case)
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    positions = [text.index(f"{name}=") for name in fields]
    assert positions == sorted(positions)


def test_defaults():
    assert SolverConfig() == SolverConfig(None, 1)
    assert lc.GridSpec(-1.0, 1.0, 8).boundary == "periodic"
    spec = lc.ComponentSpec("uniform")
    assert (spec.amplitude, spec.center, spec.width, spec.values) == (1.0 + 0.0j, 0.0, 1.0, None)
    assert lc.SolitonOracle(False, 1.0, 0.5, GRID, (0.4, 0.1, 0.03), (2.0, 1.7)).field is None
    assert ConvergenceTable((0.4, 0.2), (1e-3,), (2e-3,)).mode == "consecutive"


def test_each_audit_report_gets_a_fresh_info_dict():
    a = AuditReport("x", True, 0.0, 1.0)
    b = AuditReport("x", True, 0.0, 1.0)
    assert a.info == {} and b.info == {} and a.info is not b.info
    a.info["k"] = 1.0
    assert b.info == {} and AuditReport("x", True, 0.0, 1.0).info == {}
    assert "info" not in vars(AuditReport)


def test_post_init_normalises():
    rep = AuditReport("x", 1, 0, 1)
    assert (type(rep.passed), type(rep.max_violation), type(rep.tolerance_budget)) == (bool, float, float)
    f = lc.SpinorField(GRID, 0.0, [0.0] * 8, np.zeros(8))
    assert f.u.dtype == np.complex128 and not f.u.flags.writeable


@pytest.mark.parametrize("make, error", [
    (lambda: lc.GridSpec(0.0, 1.0, 1), ConfigurationError),
    (lambda: lc.GridSpec(1.0, 0.0, 8), ConfigurationError),
    (lambda: lc.GridSpec(0.0, 1.0, 8, boundary="reflecting"), ConfigurationError),
    (lambda: lc.SpinorField(GRID, 0.0, np.zeros(7), ZEROS), ConfigurationError),
    (lambda: lc.SpinorField(GRID, 0.0, np.full(8, np.nan), ZEROS), ConfigurationError),
    (lambda: lc.TriangleDomain(1.0, 1.0), ConfigurationError),
    (lambda: lc.ComponentSpec("square"), ConfigurationError),
    (lambda: lc.ComponentSpec("sampled"), ConfigurationError),
    (lambda: lc.ModelParams(-1.0, 0.0, 0.25), ConfigurationError),
    (lambda: lc.ModelParams(1.0, np.inf, 0.25), ConfigurationError),
    (lambda: SolverConfig(record_every=0), ConfigurationError),
    (lambda: AuditReport("x", True, 2.0, 1.0), ValueError),
    (lambda: FunctionalTrace(np.arange(3.0), *(np.arange(2.0),) * 7), UsageError),
    (lambda: ConvergenceTable((0.4, 0.2), (-1.0,), (0.0,)), UsageError),
])
def test_post_init_refusals(make, error):
    with pytest.raises(error):
        make()


def test_equal_values_compare_and_hash_equal():
    assert lc.GridSpec(-1.0, 1.0, 8) == lc.GridSpec(x_min=-1.0, x_max=1.0, n_points=8, boundary="periodic")
    assert hash(lc.GridSpec(-1.0, 1.0, 8)) == hash(lc.GridSpec(-1.0, 1.0, 8, "periodic"))
    assert lc.ModelParams(1.0, 0.0, 0.25) == lc.GROSS_NEVEU
    assert hash(lc.ModelParams(1.0, 0.0, 0.25)) == hash(lc.GROSS_NEVEU)
    assert len({lc.THIRRING, lc.ModelParams(1.0, 1.0, 0.0), lc.GROSS_NEVEU}) == 2
    assert lc.GridSpec(-1.0, 1.0, 8) != lc.GridSpec(-1.0, 1.0, 16)
    assert lc.THIRRING != lc.GROSS_NEVEU
    # another class, even with the same values, is never equal
    assert lc.TriangleDomain(-1.0, 1.0) != (-1.0, 1.0)
    assert lc.ModelParams(1.0, 0.0, 0.25) != lc.EstimateConstants(1.0, 0.0, 0.25, 1.0, 1.0)

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
from lcdirac.cli import main, parse_config, run_command, trace_csv
from lcdirac.errors import ConfigurationError
from lcdirac.functionals import FunctionalTrace

from conftest import SOLITON_MUTANTS, apply_soliton_mutant, child_env, run_lcdirac
from ensembles import random_smooth_datum


def base_doc(**over):
    doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
        "command": "simulate",
    }
    doc.update(over)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(base_doc()))
        assert cfg.command == "simulate"
        assert cfg.T == 1.0 and cfg.record_every == 1
        assert cfg.constants.c == 2.0  # 8 * |beta|
        assert cfg.out_format == "csv"

    def test_unknown_key_named(self):
        doc = base_doc()
        doc["modle"] = {"m": 1.0}
        with pytest.raises(ConfigurationError, match="modle"):
            parse_config(json.dumps(doc))

    def test_unknown_nested_key_named(self):
        doc = base_doc()
        doc["model"]["mass"] = 2.0
        with pytest.raises(ConfigurationError, match=r"model\.mass"):
            parse_config(json.dumps(doc))

    def test_audit_seed_is_an_unknown_key(self):
        # the algebraic audit draws nothing, so there is no seed to give
        doc = base_doc(command="audit", audit_selection=["algebraic"], audit={"seed": 0})
        with pytest.raises(ConfigurationError, match=r"unknown key 'audit\.seed'"):
            parse_config(json.dumps(doc))

    def test_constants_inequality_cited(self):
        doc = base_doc(constants={"K": 1.0, "c_star": 16.0})
        with pytest.raises(ConfigurationError, match=r"-K\+2c_\*<-1"):
            parse_config(json.dumps(doc))

    def test_malformed_document_line(self):
        with pytest.raises(ConfigurationError, match="line"):
            parse_config('{"model": {,}}')

    def test_unknown_command(self):
        with pytest.raises(ConfigurationError, match="command"):
            parse_config(json.dumps(base_doc(command="simulat")))

    def test_unknown_audit(self):
        with pytest.raises(ConfigurationError, match="audit"):
            parse_config(json.dumps(base_doc(audit_selection=["charge", "bogus"])))

    def test_complex_amplitude_forms(self):
        doc = base_doc(
            init={
                "u0": {"kind": "gaussian_pulse", "amplitude": [0.3, 0.4], "width": 1.0},
                "v0": {"kind": "uniform", "amplitude": 0.1},
            }
        )
        cfg = parse_config(json.dumps(doc))
        assert cfg.init.u0.amplitude == 0.3 + 0.4j
        assert cfg.init.v0.amplitude == 0.1 + 0j


    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_number_rejected(self, literal):
        text = json.dumps(base_doc(time={"T": 0.5})).replace("0.5", literal)
        with pytest.raises(ConfigurationError, match=r"time\.T.*finite"):
            parse_config(text)

    def test_non_finite_amplitude_rejected(self):
        doc = base_doc(init={"u0": {"kind": "uniform", "amplitude": 0.5},
                             "v0": {"kind": "uniform", "amplitude": 0.0}})
        with pytest.raises(ConfigurationError, match="amplitude.*finite"):
            parse_config(json.dumps(doc).replace("0.5", "NaN"))

    def test_integer_beyond_float_range_rejected(self):
        text = json.dumps(base_doc(time={"T": 0.5})).replace("0.5", "1" + "0" * 400)
        with pytest.raises(ConfigurationError, match="finite"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section,key",
        [("time", "record_every"), ("grid", "n_points"), ("audit", "samples")],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_for_integer_rejected(self, section, key, flag):
        doc = base_doc()
        doc.setdefault(section, {})[key] = flag
        with pytest.raises(ConfigurationError, match=rf"{section}\.{key}.*wrong type"):
            parse_config(json.dumps(doc))

    def test_work_bound_counts_evolutions(self):
        # N=384 on [-6, 6]: dt = 1/32, so T=6000 is 192001 levels x 384 sites = 7.4e7.
        doc = base_doc(time={"T": 6000.0}, mollify={"epsilons": [0.4, 0.2]})
        assert parse_config(json.dumps(doc)).T == 6000.0
        for over in ({"command": "converge"}, {"command": "audit", "audit_selection": ["charge", "gronwall"]}):
            with pytest.raises(ConfigurationError, match="run too large"):
                parse_config(json.dumps(dict(doc, **over)))
        # the algebraic audit and the soliton check evolve nothing from the config
        for over in ({"command": "audit", "audit_selection": ["algebraic"]}, {"command": "soliton-check"}):
            parse_config(json.dumps(dict(doc, time={"T": 1e300}, **over)))

    @pytest.mark.parametrize("grid", [{"n_points": 10**400}, {"x_min": 0.0, "x_max": 5e-324, "n_points": 4}])
    def test_work_bound_degenerate_grids(self, grid):
        # 10**400 points have no float dx, and the work bound refuses the run;
        # a spacing that underflows to 0 is refused by the grid itself
        match = "run too large" if "x_min" not in grid else "dx=0.0 is not finite and positive"
        with pytest.raises(ConfigurationError, match=match):
            parse_config(json.dumps(base_doc(grid=dict(base_doc()["grid"], **grid))))


class TestSimulate:
    def test_zero_datum_exit_zero(self, tmp_path):
        doc = base_doc(
            time={"T": 1.0},
            output={"path": str(tmp_path / "run"), "format": "csv"},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0
        trace = (tmp_path / "run_trace.csv").read_text().splitlines()
        assert trace[0].startswith("t,L0,D0,Q0,cumD0,charge,max_abs_u,max_abs_v")
        row = trace[1].split(",")
        assert all(float(x) == 0.0 for x in row[1:])
        assert (tmp_path / "run_snapshots.csv").exists()

    def test_trace_roundtrip_17_digits(self, tmp_path, rng):
        doc = base_doc(
            time={"T": 0.5},
            init={
                "u0": {"kind": "gaussian_pulse", "amplitude": 0.731234567890123, "width": 1.1},
                "v0": {"kind": "gaussian_pulse", "amplitude": 0.392837465, "width": 0.9},
            },
            output={"path": str(tmp_path / "run"), "format": "csv"},
        )
        cfg = parse_config(json.dumps(doc))
        assert run_command(cfg) == 0
        # recompute the same trace in memory and compare parsed bytes
        f0 = lc.sample_initial(cfg.init, cfg.grid)
        snaps = lc.evolve(f0, cfg.model, lc.SolverConfig(), 0.5)
        from lcdirac.functionals import trace_base

        tr = trace_base(snaps, None)
        lines = (tmp_path / "run_trace.csv").read_text().splitlines()[1:]
        parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines])
        assert np.array_equal(parsed[:, 1], tr.L0)
        assert np.array_equal(parsed[:, 3], tr.Q0)

    def test_empty_trace_header_only(self):
        empty = FunctionalTrace(*(np.array([]) for _ in range(8)))
        text = trace_csv(empty)
        assert text == "t,L0,D0,Q0,cumD0,charge,max_abs_u,max_abs_v\n"

    def test_pair_trace_columns_serialized(self, rng):
        from lcdirac.functionals import trace_pair

        g = lc.make_grid(-6.0, 6.0, 384, "zero_inflow")
        dom = lc.TriangleDomain(-4.0, 4.0)
        datum = random_smooth_datum(rng, g, 0.005, (-3, 3))
        f0 = lc.sample_initial(datum, g)
        fB0 = lc.SpinorField(g, 0.0, f0.u * 1.001, f0.v * 1.001)
        a = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
        b = lc.evolve(fB0, lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
        header = trace_csv(trace_pair(a, b, dom)).splitlines()[0]
        assert header == "t,L0,D0,Q0,cumD0,charge,max_abs_u,max_abs_v,L1,D1,Q1,cumD1"

    def test_singular_datum_simulates(self, tmp_path):
        doc = base_doc(
            time={"T": 0.5},
            init={
                "u0": {"kind": "power_singularity_truncated", "amplitude": 0.1,
                       "exponent": 0.3, "cap": 40.0, "halfwidth": 1.0},
                "v0": {"kind": "uniform", "amplitude": 0.0},
            },
            output={"path": str(tmp_path / "rough")},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0


class TestAudit:
    def audit_doc(self, tmp_path, **over):
        doc = base_doc(
            command="audit",
            time={"T": 2.0},
            init={
                "u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "center": -0.5, "width": 0.8},
                "v0": {"kind": "gaussian_pulse", "amplitude": 0.055, "center": 0.5, "width": 0.9},
            },
            domain={"a": -4.0, "b": 4.0},
            audit={"samples": 20000},
            output={"path": str(tmp_path / "aud"), "format": "csv"},
        )
        doc.update(over)
        return doc

    def test_full_suite_exit_zero(self, tmp_path):
        doc = self.audit_doc(tmp_path)
        assert run_command(parse_config(json.dumps(doc))) == 0
        text = (tmp_path / "aud_audits.csv").read_text()
        assert text.count("true") >= 6

    def test_bony_smallness_exit_two(self, tmp_path, capsys):
        doc = self.audit_doc(tmp_path, audit_selection=["bony"])
        doc["init"]["u0"]["amplitude"] = 2.0
        doc["init"]["v0"]["amplitude"] = 1.5
        assert run_command(parse_config(json.dumps(doc))) == 2
        assert "smallness" in capsys.readouterr().err

    @pytest.mark.parametrize("time, domain", [
        ({"T": 0.0}, {"a": -4.0, "b": 4.0}),
        ({"T": 2.0}, {"a": 0.0, "b": 0.03125}),  # the apex half a step up
    ], ids=["T_zero", "apex_below_one_step"])
    def test_triangle_over_one_level_has_no_flux(self, tmp_path, time, domain):
        # tau = 0: the edge fluxes' trapezoid over no time is 0, so the
        # balance holds exactly, with v nonzero on the edge x = a
        doc = self.audit_doc(tmp_path, time=time, domain=domain, audit_selection=["triangle"],
                             output={"path": str(tmp_path / "aud"), "format": "structured-report"})
        doc["init"]["v0"] = {"kind": "uniform", "amplitude": 0.05}
        assert run_command(parse_config(json.dumps(doc))) == 0
        [rec] = json.loads((tmp_path / "aud_audits.json").read_text())
        assert rec["info_boundary_flux"] == 0 and rec["max_violation"] == 0
        assert rec["witness_time"] is None and rec["info_interior_final"] == rec["info_interior_initial"]

    def test_structured_report_format(self, tmp_path):
        doc = self.audit_doc(
            tmp_path,
            audit_selection=["algebraic", "charge"],
            output={"path": str(tmp_path / "aud"), "format": "structured-report"},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0
        records = json.loads((tmp_path / "aud_audits.json").read_text())
        assert [r["audit"] for r in records] == ["algebraic", "charge"]
        assert all(r["passed"] for r in records)
        assert all("tolerance_budget" in r for r in records)


    @pytest.mark.parametrize("factor, status", [(0.99, 1), (1.01, 0)])
    def test_c_star_around_the_tight_value(self, tmp_path, factor, status):
        """Gross-Neveu's tight c_star is 3: below it the algebraic record
        fails and names the difference envelope; above it, it passes."""
        doc = self.audit_doc(tmp_path, audit_selection=["algebraic"], constants={"c_star": factor * 3.0})
        done = run_lcdirac(write_cfg(tmp_path, doc))
        assert done.returncode == status, done.stderr
        text = (tmp_path / "aud_audits.csv").read_text()
        assert ('"difference_envelope"' in text) is (status == 1)


    def test_huge_coupling_gets_a_default_K_that_holds(self, tmp_path):
        """model.alpha = 1e16: 2 c_star is past 2^54, where 2 c_star + 2
        rounds to 2 c_star; the default K is accepted and the algebraic
        audit passes."""
        doc = self.audit_doc(tmp_path, model={"m": 1.0, "alpha": 1e16, "beta": 0.0},
                             audit_selection=["algebraic"],
                             output={"path": str(tmp_path / "aud"), "format": "structured-report"})
        assert main([str(write_cfg(tmp_path, doc))]) == 0
        [rec] = json.loads((tmp_path / "aud_audits.json").read_text())
        assert rec["passed"] and rec["constants_c_star"] == 6e16
        assert rec["constants_K"] > 2.0 * rec["constants_c_star"] and -rec["constants_K"] + 1.2e17 < -1.0

    @pytest.mark.parametrize("model, v", [({"m": 1.0, "alpha": 0.0, "beta": 0.25}, "(0.5+0j)"),
                                          ({"m": 1.0, "alpha": 1.0, "beta": -0.2}, "0.5j")],
                             ids=["gross_neveu_phase_0", "phase_pi_over_2"])
    def test_failing_algebraic_record_names_its_whole_witness(self, tmp_path, model, v):
        """c_star = 2.97, below the supremum 3 of both models: the record
        names the bound and all four values of the extremiser's limit, whose
        phase (v = u, or v = i u) tells the two apart; it has no time or
        location. The passing charge record beside it has neither key."""
        doc = self.audit_doc(tmp_path, model=model, audit_selection=["algebraic", "charge"],
                             constants={"c_star": 2.97}, time={"T": 0.125},
                             output={"path": str(tmp_path / "aud"), "format": "structured-report"})
        assert main([str(write_cfg(tmp_path, doc))]) == 1
        algebraic, charge = json.loads((tmp_path / "aud_audits.json").read_text())
        assert not algebraic["passed"] and charge["passed"]
        assert algebraic["witness_time"] is None and algebraic["witness_location"] is None
        witness = {key: algebraic[f"witness_{key}"] for key in ("bound", "u", "v", "u_prime", "v_prime")}
        assert witness == {"bound": "difference_envelope", "u": "(0.5+0j)", "v": v, "u_prime": "(0.5+0j)",
                           "v_prime": v}
        assert not any(key.startswith("witness_") and key not in ("witness_time", "witness_location")
                       for key in charge)


class TestConvergeUnique:
    def test_converge_command(self, tmp_path):
        doc = base_doc(
            command="converge",
            time={"T": 0.25},
            grid={"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
            init={
                "u0": {"kind": "indicator_jump", "amplitude": 1.0, "halfwidth": 1.0},
                "v0": {"kind": "indicator_jump", "amplitude": 0.75, "center": -0.5, "halfwidth": 1.0},
            },
            mollify={"epsilons": [0.25, 0.125]},
            output={"path": str(tmp_path / "conv"), "format": "csv"},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0
        lines = (tmp_path / "conv_convergence.csv").read_text().splitlines()
        assert lines[0] == "eps_coarse,eps_fine,field_distance,product_distance"
        assert len(lines) == 2

    def test_unique_command(self, tmp_path):
        doc = base_doc(
            command="unique",
            time={"T": 0.25},
            init={
                "u0": {"kind": "indicator_jump", "amplitude": 1.0, "halfwidth": 1.0},
                "v0": {"kind": "uniform", "amplitude": 0.0},
            },
            mollify={"epsilons": [0.25, 0.125], "kernel": "bump", "kernel_b": "triangle"},
            output={"path": str(tmp_path / "uni"), "format": "csv"},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0
        lines = (tmp_path / "uni_uniqueness.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_converge_requires_epsilons(self, tmp_path):
        doc = base_doc(command="converge", output={"path": str(tmp_path / "x")})
        assert run_command(parse_config(json.dumps(doc))) == 2

    def test_unique_single_radius_is_valid(self, tmp_path):
        # one radius compares the two kernel families (converge needs two radii)
        doc = base_doc(
            command="unique",
            time={"T": 0.25},
            init={
                "u0": {"kind": "indicator_jump", "amplitude": 1.0, "halfwidth": 1.0},
                "v0": {"kind": "uniform", "amplitude": 0.0},
            },
            mollify={"epsilons": [0.25]},
            output={"path": str(tmp_path / "uni")},
        )
        assert run_command(parse_config(json.dumps(doc))) == 0
        lines = (tmp_path / "uni_uniqueness.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.25,0.25,")


SOLITON_HEADER = "residual_coarse,residual_mid,residual_fine,order_first,order_second,accepted"


def soliton_check(tmp_path, m, frequency):
    """Run soliton-check on [-16, 16]: the exit status and the rows of its CSV."""
    doc = base_doc(
        command="soliton-check",
        model={"m": m, "alpha": 1.0, "beta": 0.0},
        grid={"x_min": -16.0, "x_max": 16.0, "n_points": 512, "boundary": "zero_inflow"},
        soliton={"frequency": frequency},
        output={"path": str(tmp_path / "sol"), "format": "csv"},
    )
    status = run_command(parse_config(json.dumps(doc)))
    return status, (tmp_path / "sol_soliton.csv").read_text().splitlines()


class TestSolitonCheck:
    def test_accepted(self, tmp_path):
        status, lines = soliton_check(tmp_path, 1.0, 0.5)
        assert status == 0
        assert lines[0] == SOLITON_HEADER and len(lines) == 2
        row = lines[1].split(",")
        assert row[-1] == "true" and all(float(o) >= 1.8 for o in row[3:5])

    def test_under_resolved_exit_one(self, tmp_path):
        # the wave at m = 3, omega = 2.9 is too narrow for 256 sites on [-16, 16]: orders 1.65 and 1.89
        status, lines = soliton_check(tmp_path, 3.0, 2.9)
        assert status == 1
        assert lines[0] == SOLITON_HEADER and len(lines) == 2
        row = lines[1].split(",")
        assert row[-1] == "false" and float(row[3]) < 1.8 <= float(row[4])

    @pytest.mark.parametrize("mutant", sorted(SOLITON_MUTANTS))
    def test_wrong_sign_mutant_exit_one(self, tmp_path, monkeypatch, mutant):
        apply_soliton_mutant(monkeypatch, mutant)
        status, lines = soliton_check(tmp_path, 1.0, 0.5)
        assert status == 1
        assert lines[1].endswith(",false")

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.25), (1.0, 0.25), (0.5, 0.0)])
    def test_other_couplings_exit_two_before_any_residual(self, tmp_path, capsys, monkeypatch, alpha, beta):
        # the oracle's residual is the alpha = 1, beta = 0 equation only
        def no_residual(*args, **kwargs):
            raise AssertionError("residual computed")

        monkeypatch.setattr("lcdirac.solver.pde_residual", no_residual)
        doc = base_doc(
            command="soliton-check",
            model={"m": 1.0, "alpha": alpha, "beta": beta},
            output={"path": str(tmp_path / "sol")},
        )
        assert run_command(parse_config(json.dumps(doc))) == 2
        assert "needs model.alpha = 1 and model.beta = 0" in capsys.readouterr().err
        assert not (tmp_path / "sol_soliton.csv").exists()

    def test_window_too_narrow_for_the_trial_grids_exit_two(self, tmp_path, capsys):
        # the config's own 2-site grid has a spacing; the 256- to 1024-site trial grids have none
        doc = base_doc(
            command="soliton-check",
            model={"m": 1.0, "alpha": 1.0, "beta": 0.0},
            grid={"x_min": 0.0, "x_max": 1e-323, "n_points": 2, "boundary": "zero_inflow"},
            output={"path": str(tmp_path / "sol")},
        )
        assert run_command(parse_config(json.dumps(doc))) == 2
        err = capsys.readouterr().err
        assert "soliton window [0.0, 1e-323] is too narrow for the trial grids of 256 to 1024 sites" in err
        assert "n_points" not in err
        assert not (tmp_path / "sol_soliton.csv").exists()

    def test_bad_frequency_exit_two(self, tmp_path):
        doc = base_doc(
            command="soliton-check",
            model={"m": 1.0, "alpha": 1.0, "beta": 0.0},
            soliton={"frequency": 2.0},
            output={"path": str(tmp_path / "sol")},
        )
        assert run_command(parse_config(json.dumps(doc))) == 2


class TestMain:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/cfg.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["a.json", "b.json"], ["--help", "a.json"]])
    def test_not_one_argument_exit_two(self, capsys, argv):
        assert main(argv) == 2  # returned, not raised as SystemExit
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: python -m lcdirac CONFIG\n") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exit_zero(self, capsys, flag):
        assert main([flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: python -m lcdirac CONFIG\n") and "exit status" in out.lower()
        assert err == ""

    def test_module_without_argument_exit_two(self):
        done = run_lcdirac()
        assert done.returncode == 2
        assert done.stderr.startswith("usage: python -m lcdirac CONFIG\n")
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_non_finite_horizon_exit_two(self, tmp_path, capsys, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc(time={"T": 0.5})).replace("0.5", literal))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize("literal", ["9" * 5000, "[" * 100_000])
    def test_undecodable_literal_exit_two(self, tmp_path, capsys, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc(time={"T": 0.5})).replace("0.5", literal))
        assert main([str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unbounded_horizon_refused_before_running(self, tmp_path, capsys):
        doc = base_doc(time={"T": 1e300}, grid={"x_min": -6.0, "x_max": 6.0, "n_points": 64})
        start = time.perf_counter()
        assert main([str(write_cfg(tmp_path, doc))]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "run too large" in err and "Traceback" not in err

    def test_output_under_a_file_refused_before_running(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        doc = base_doc(time={"T": 0.5}, output={"path": str(tmp_path / "afile" / "run")})

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("lcdirac.cli.evolve", no_run)
        assert main([str(write_cfg(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and "Traceback" not in err

    def test_unwritable_artifact_exit_two(self, tmp_path, capsys, monkeypatch):
        """A directory where any artifact goes is refused before the run."""
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("lcdirac.kernels.step_unforced", no_run)
        monkeypatch.setattr("lcdirac.cli.thirring_soliton", no_run)  # soliton-check steps nothing
        jump = {"u0": {"kind": "indicator_jump", "amplitude": 1.0, "halfwidth": 1.0},
                "v0": {"kind": "uniform", "amplitude": 0.0}}
        cases = [
            ({"command": "simulate"}, ["trace.csv", "snapshots.csv"]),
            ({"command": "audit", "audit_selection": ["charge"]}, ["audits.csv"]),
            ({"command": "audit", "audit_selection": ["charge"], "format": "structured-report"}, ["audits.json"]),
            ({"command": "converge", "init": jump, "mollify": {"epsilons": [0.25, 0.125]}}, ["convergence.csv"]),
            ({"command": "unique", "init": jump, "mollify": {"epsilons": [0.25, 0.125]}}, ["uniqueness.csv"]),
            ({"command": "soliton-check", "model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
              "soliton": {"frequency": 0.5}}, ["soliton.csv"]),
            ({"command": "soliton-check", "model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
              "soliton": {"frequency": 0.5}, "format": "structured-report"}, ["soliton.json"]),
        ]
        for k, (over, names) in enumerate(cases):
            for name in names:
                out = tmp_path / f"{k}_{name}"
                over = dict(over)
                output = {"path": str(out / "run"), "format": over.pop("format", "csv")}
                (out / f"run_{name}").mkdir(parents=True)  # a directory where the artifact goes
                doc = base_doc(time={"T": 0.5}, output=output, **over)
                assert main([str(write_cfg(tmp_path, doc))]) == 2, (over, name)
                err = capsys.readouterr().err
                assert f"cannot write {str(out / f'run_{name}')!r}: is a directory" in err, err
                assert "Traceback" not in err

    def test_snapshots_write_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        """The snapshot bytes are written in binary mode; a path that fails
        there (the pre-run check skipped) still exits 2 with the path named."""
        monkeypatch.setattr("lcdirac.cli._check_outputs", lambda cfg: None)
        (tmp_path / "run_snapshots.csv").mkdir()
        doc = base_doc(time={"T": 0.5}, output={"path": str(tmp_path / "run")})
        assert main([str(write_cfg(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {str(tmp_path / 'run_snapshots.csv')!r}" in err, err
        assert "Traceback" not in err
        assert (tmp_path / "run_trace.csv").read_text().startswith("t,L0,")

    def test_negative_c_star_exit_two(self, tmp_path, capsys):
        doc = base_doc(constants={"c_star": -5}, output={"path": str(tmp_path / "run")})
        assert main([str(write_cfg(tmp_path, doc))]) == 2
        assert "configuration error: c_star must be >= 0, got -5.0" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_artifact_without_write_access_exit_two(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "run_snapshots.csv").write_text("")
        monkeypatch.setattr("lcdirac.cli.os.access", lambda path, mode: Path(path).name != "run_snapshots.csv")
        doc = base_doc(time={"T": 0.5}, output={"path": str(tmp_path / "run")})
        assert main([str(write_cfg(tmp_path, doc))]) == 2
        assert "run_snapshots.csv': permission denied" in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

    @pytest.mark.parametrize("command, fmt, names", [
        ("simulate", "csv", ["run.v2_snapshots.csv", "run.v2_trace.csv"]),
        ("audit", "structured-report", ["run.v2_audits.json"]),
    ])
    def test_dotted_output_path_keeps_every_artifact(self, tmp_path, command, fmt, names):
        # the suffix is appended: a dot in the path's last part is not taken for one
        doc = base_doc(command=command, time={"T": 0.5}, audit_selection=["charge"],
                       output={"path": str(tmp_path / "out" / "run.v2"), "format": fmt})
        assert main([str(write_cfg(tmp_path, doc))]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names

    def test_end_to_end(self, tmp_path):
        doc = base_doc(time={"T": 0.5}, output={"path": str(tmp_path / "e2e")})
        assert main([str(write_cfg(tmp_path, doc))]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        doc = base_doc(
            command="audit",
            time={"T": 1.0},
            init={
                "u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "width": 0.8},
                "v0": {"kind": "gaussian_pulse", "amplitude": 0.055, "width": 0.9},
            },
            domain={"a": -4.0, "b": 4.0},
            audit={"samples": 5000},
        )
        outs = []
        for tag in ("one", "two"):
            doc["output"] = {"path": str(tmp_path / tag / "run"), "format": "csv"}
            assert run_command(parse_config(json.dumps(doc))) == 0
            outs.append((tmp_path / tag / "run_audits.csv").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.skipif("compiled" not in kernels.available_backends(),
                    reason=f"compiled kernels not built ({kernels.backend_reason()})")
def test_cli_import_loads_no_subprocess():
    """With the compiled library cached (this process built or loaded it),
    a fresh interpreter imports lcdirac.cli without subprocess: only a
    build imports it, which keeps it out of every run's set-up time. Nor
    does it import anything else NumPy has not loaded but json: no
    dataclasses, logging or argparse, which cost milliseconds each."""
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import lcdirac.cli\n"
            "from lcdirac import kernels\n"
            "added = sorted(set(sys.modules) - before)\n"
            "print(kernels.backend_name(), *(m for m in added if m.split('.')[0] != 'lcdirac'))\n")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    backend, *added = done.stdout.split()
    assert backend == "compiled"
    allowed = {"json", "json.decoder", "json.encoder", "json.scanner", "_json", "__future__"}
    assert set(added) <= allowed, sorted(set(added) - allowed)


def test_algebraic_audit_imports_no_random_module(tmp_path):
    """python -m lcdirac on an audit that runs the algebraic check never
    imports numpy.random: the check is a closed form and draws nothing, and
    the import alone costs an audit process about 15 ms."""
    doc = base_doc(command="audit", audit_selection=["algebraic", "charge"], time={"T": 0.25},
                   output={"path": str(tmp_path / "run")})
    cfg = write_cfg(tmp_path, doc)
    done = run_lcdirac(cfg, options=("-X", "importtime"))
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {"numpy", "lcdirac.model"} <= imported
    assert not {m for m in imported if m == "numpy.random" or m.startswith("numpy.random.")}
    assert (tmp_path / "run_audits.csv").read_text().count('\n"algebraic",') == 1

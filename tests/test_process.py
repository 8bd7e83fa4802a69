"""The CLI as a process: ``python -m lcdirac`` ends through ``cli.entry``,
which flushes the standard streams and skips the interpreter's teardown.

Every test runs a child interpreter (``conftest.run_lcdirac``) without
PYTHONUNBUFFERED, so a stream left unflushed loses its output here.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcdirac.cli import HELP, main

from conftest import child_env, run_lcdirac
from make_golden import CONFIGS, GOLDEN

RECORDED = json.loads(GOLDEN.read_text())["configs"]
ROOT = Path(__file__).parents[1]


def closed_pipe():
    """The write end of a pipe whose reader is already gone: a write to it
    fails with EPIPE (BrokenPipeError)."""
    read, write = os.pipe()
    os.close(read)
    return write


def write_config(workdir, doc):
    """Write doc with its artifacts under workdir; return the config's path."""
    doc = dict(doc)
    doc["output"] = dict(doc.get("output", {}), path=str(workdir / "run"))
    path = workdir / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def digests(workdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.name != "cfg.json"}


def test_help_arrives_whole_through_a_pipe():
    done = run_lcdirac("--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == HELP + "\n"


def test_closed_stdout_exits_two():
    """--help into a pipe nobody reads: exit 2 and nothing on stderr, not the
    interpreter's 120 and its "Exception ignored" line."""
    write = closed_pipe()
    try:
        done = run_lcdirac("--help", stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == ""


def test_closed_stderr_exits_two():
    write = closed_pipe()
    try:
        done = run_lcdirac(stderr=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stdout == ""


@pytest.mark.parametrize("name", [
    "simulate_gross_neveu_zero_inflow_every_3",
    "audit_gross_neveu_zero_inflow_csv",
    "converge_thirring_periodic_rough",
    "unique_gross_neveu_zero_inflow",
    "soliton_check_csv",
])
def test_artifacts_through_the_process_match_golden(tmp_path, name):
    done = run_lcdirac(write_config(tmp_path, CONFIGS[name]))
    want = RECORDED[name]
    assert done.returncode == want["status"], done.stderr
    assert digests(tmp_path) == want["artifacts"]


FAILING = {
    "audit_blow_up": (CONFIGS["audit_blow_up"], 1),
    "unknown_key": (dict(CONFIGS["soliton_check_csv"], bogus=1), 2),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_run_matches_main(tmp_path, capsys, name):
    """A run that exits 1 (a blow-up) or 2 (a configuration error) reports
    the same status and the same stderr as main() run in-process."""
    doc, status = FAILING[name]
    cfg = write_config(tmp_path, doc)
    done = run_lcdirac(cfg)
    assert done.returncode == status
    if name in RECORDED:
        assert digests(tmp_path) == RECORDED[name]["artifacts"]
    capsys.readouterr()
    assert main([str(cfg)]) == status
    out, err = capsys.readouterr()
    assert (done.stdout, done.stderr) == (out, err)
    assert err and "Traceback" not in err


def test_horizon_warning_reaches_stderr(tmp_path):
    doc = dict(CONFIGS["simulate_gross_neveu_zero_inflow_every_3"], time={"T": 0.1})
    done = run_lcdirac(write_config(tmp_path, doc))
    assert done.returncode == 0
    assert done.stderr.startswith("horizon 0.1 is not a step multiple; evolving to ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("module", ["lcdirac", "lcdirac.cli"])
def test_process_skips_exit_hooks(module):
    """The process ends in os._exit once main() returns: an atexit hook
    registered before it never runs, while the help still arrives."""
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: print('atexit hook ran'))\n"
            "sys.argv = ['lcdirac', '--help']\n"
            f"runpy.run_module({module!r}, run_name='__main__', alter_sys=True)\n")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == HELP + "\n"


def test_entry_freezes_the_import_heap_before_main(monkeypatch):
    import gc

    from lcdirac import cli

    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count() > 0) or 0)
    monkeypatch.setattr(os, "_exit", seen.append)
    assert gc.get_freeze_count() == 0
    try:
        cli.entry()
    finally:
        gc.unfreeze()
    assert seen == [True, 0]


def test_script_ends_through_entry():
    text = (ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]\nlcdirac = "lcdirac.cli:entry"\n\n' in text

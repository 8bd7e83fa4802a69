"""Every artifact of the configs in ``make_golden.py`` matches its recorded
sha256 on every kernel backend, and every run its recorded exit status.

A deliberate change of an artifact regenerates ``golden.json`` with
``PYTHONPATH=src python tests/make_golden.py`` and lists the changed digests.
On a machine with another NumPy version or CPU model a mismatch still fails;
its message names both machines.
"""
import json

import pytest

from lcdirac import kernels

from make_golden import CONFIGS, GOLDEN, changes, machine, run_config

RECORDED = json.loads(GOLDEN.read_text())


@pytest.fixture(params=kernels.available_backends())
def on_backend(request):
    before = kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(before)


def test_golden_lists_every_config():
    assert sorted(RECORDED["configs"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden(tmp_path, capsys, on_backend, name):
    got = run_config(CONFIGS[name], tmp_path)
    want = RECORDED["configs"][name]
    if got != want:
        here, there = machine(), {k: RECORDED[k] for k in ("numpy", "cpu")}
        pytest.fail(f"{name} on the {on_backend} backend: got {got}, recorded {want}; "
                    f"recorded on {there}, this machine is {here}")


def test_changes_lists_each_difference():
    old = {"numpy": "2.0", "cpu": "A", "configs": {
        "kept": {"status": 0, "artifacts": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}},
        "gone": {"status": 0, "artifacts": {}}}}
    new = {"numpy": "2.0", "cpu": "B", "configs": {
        "kept": {"status": 1, "artifacts": {"a.csv": "1", "b.csv": "9", "d.csv": "4"}},
        "new": {"status": 0, "artifacts": {}}}}
    assert changes(old, new) == [
        "cpu: A -> B", "gone: removed", "kept: exit status 0 -> 1", "kept/b.csv: changed",
        "kept/c.csv: removed", "kept/d.csv: added", "new: added",
    ]
    assert changes(new, new) == [] and changes({}, new)[:2] == ["numpy: None -> 2.0", "cpu: None -> B"]

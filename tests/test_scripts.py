"""The scripts under scripts/ run against the package as it is.

They call package functions directly, so a signature change in the package
would break them with no other test failing.  Each runs in a subprocess,
except desk_verification, whose case list is cut to (3,1) so that it runs
in well under a second.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize("args", [
    ["census_tables.py", "--max-rho", "4"],
    ["neighborhood_group_audit.py", "-r", "3", "-s", "1"],
    ["neighborhood_group_audit.py", "-r", "4", "-s", "2"],
], ids=lambda a: "-".join(a))
def test_script_exits_zero(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, args[0]),
                           *args[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_desk_verification_writes_passing_report(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "desk_verification", os.path.join(SCRIPTS, "desk_verification.py"))
    desk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk)
    monkeypatch.setattr(desk, "CASES", [(3, 1)])
    monkeypatch.setattr(sys, "argv", ["desk_verification.py",
                                      "--out-dir", str(tmp_path)])
    assert desk.main() == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report_r3_s1.json"]
    data = json.loads((tmp_path / "report_r3_s1.json").read_text())
    assert data["all_pass"] is True
    assert data["case"]["r"] == 3 and data["case"]["sigma"] == 1

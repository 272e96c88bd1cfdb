"""Smoke tests: each script under ``scripts/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,args", [
    ("accuracy_vs_degree.py", ["--n", "40", "--degrees", "8", "16"]),
    ("run_table1.py", ["--seeds", "1", "--samples-per-matvec", "2000",
                       "--output", "{tmp}"]),
], ids=["accuracy_vs_degree", "run_table1"])
def test_script_exits_zero(name, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [arg.format(tmp=tmp_path / "out") for arg in args]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

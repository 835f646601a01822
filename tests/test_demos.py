"""Every demo script runs to completion against the library in src/."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="no forkserver start method on this platform")
def test_sweep_demo_runs_under_the_forkserver_start_method(tmp_path):
    # forkserver is Python 3.14's default on Linux, and each of its workers
    # imports the script, which does its work at import. The sweep's cells
    # fork whatever the default start method, so no worker imports it; with
    # one usable CPU they run in-process, so only 2 or more CPUs check this.
    script = ROOT / "demos" / "05_baselines_and_sweep.py"
    copy = tmp_path / script.name
    copy.write_text("import multiprocessing\n"
                    'multiprocessing.set_start_method("forkserver", force=True)\n'
                    + script.read_text())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(copy)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr

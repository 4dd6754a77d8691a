"""The scripts under scripts/ run against the current library API."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_relatedness_check_runs_one_trial():
    out = _run_script("relatedness_check.py", "--trials", "1")
    assert re.search(r"^trial 0: same-family \S+  disjoint \S+  (WIN|LOSS)$", out, re.M)
    assert re.search(r"^[01]/1 wins \(\d+\.\ds\)$", out, re.M)


def test_ablation_sweep_runs_one_seed():
    out = _run_script("ablation_sweep.py", "--seeds", "1")
    assert re.search(r"^seed   0: related .*non_related .*random ", out, re.M)
    assert re.search(r"^related - random +[+-]\d+\.\d\d points$", out, re.M)
    assert re.search(r"^related - non_related [+-]\d+\.\d\d points$", out, re.M)
    assert re.search(r"^\(1 seeds, \d+s\)$", out, re.M)

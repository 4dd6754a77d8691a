"""The scripts under scripts/ run against the current library API."""

import os
import re
import subprocess
import sys

import pytest

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


def _bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    import bench_pairs

    return bench_pairs


PARENT = [0.70, 0.71, 0.69, 0.72, 0.70, 0.71, 0.70, 0.73, 0.70, 0.71]


def test_bench_pairs_claims_nine_wins_past_the_parent_spread(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    change = [0.60, 0.61, 0.69, 0.62, 0.60, 0.59, 0.60, 0.61, 0.60, 0.62]  # pair 3 ties
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10 and s["claim"]
    assert s["parent"] == pytest.approx((0.70, 0.705, 0.71))
    assert s["change"] == pytest.approx((0.60, 0.605, 0.6175))
    # the same runs read as a higher-is-better metric: the parent wins them
    flipped = bp.summarize(PARENT, change, "higher")
    assert flipped["wins"] == 0 and not flipped["claim"]


def test_bench_pairs_needs_nine_tenths_of_the_pairs(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    change = [0.60, 0.61, 0.75, 0.62, 0.60, 0.59, 0.74, 0.61, 0.60, 0.62]  # two losses
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["claim"]


def test_bench_pairs_needs_medians_apart_by_more_than_the_parent_iqr(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    change = [p - 0.004 for p in PARENT]  # wins every pair, by less than the 0.01 IQR
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["claim"]
    rates = [1.0 / p for p in PARENT]
    higher = bp.summarize(rates, [r * 1.2 for r in rates], "higher")
    assert higher["wins"] == 10 and higher["claim"]
    # nine pairs of ten wins are too few pairs to claim anything
    short = bp.summarize(PARENT[:9], [p - 0.1 for p in PARENT[:9]], "lower")
    assert short["wins"] == 9 and not short["claim"]


def test_bench_pairs_rejects_unpaired_runs(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    with pytest.raises(ValueError, match="same nonzero number"):
        bp.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError, match="better"):
        bp.summarize([1.0], [1.0], "faster")

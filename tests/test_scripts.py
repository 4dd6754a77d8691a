"""The scripts under scripts/ run against the current library API."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import helpers
from taskaffinity import tasks

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
ablation_sweep = helpers.script("ablation_sweep")
bp = helpers.script("bench_pairs")
same_outputs = helpers.script("same_outputs")


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
    for mode in ("related", "non_related", "random"):
        assert re.search(rf"^{mode} +\d+\.\d\d%  target-family share [01]\.\d{{3}}$", out, re.M)
    pairs = re.findall(r"^paired (\S+) - (\S+): [+-]\d+\.\d\d \+/- n/a points \(95%\)$", out, re.M)
    assert pairs == [("related", "non_related"), ("related", "random"), ("non_related", "random")]
    assert re.search(r"^related - random +[+-]\d+\.\d\d points$", out, re.M)
    assert re.search(r"^related - non_related [+-]\d+\.\d\d points$", out, re.M)
    assert re.search(r"^\(1 seeds, \d+s\)$", out, re.M)


def test_paired_difference_by_hand():
    # differences 0.1, 0.2, 0.6: mean 0.3, sd(ddof=1) sqrt(0.07)
    diff, half = ablation_sweep.paired_difference([0.7, 0.8, 0.9], [0.6, 0.6, 0.3])
    assert diff == pytest.approx(0.3)
    assert half == pytest.approx(1.96 * 0.07**0.5 / 3**0.5)


def test_paired_difference_of_one_seed_has_no_interval():
    assert ablation_sweep.paired_difference([0.7], [0.5]) == (pytest.approx(0.2), None)


def test_paired_difference_rejects_unpaired_runs():
    # one seed against two would broadcast if the lengths went unchecked
    for a, b in (([0.7, 0.8], [0.5]), ([0.7], [0.5, 0.6]), ([], [])):
        with pytest.raises(ValueError, match="same nonzero length"):
            ablation_sweep.paired_difference(a, b)


PARENT = [0.70, 0.71, 0.69, 0.72, 0.70, 0.71, 0.70, 0.73, 0.70, 0.71]


def test_bench_pairs_claims_nine_wins_past_the_parent_spread():
    change = [0.60, 0.61, 0.69, 0.62, 0.60, 0.59, 0.60, 0.61, 0.60, 0.62]  # pair 3 ties
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10 and s["claim"]
    assert s["parent"] == pytest.approx((0.70, 0.705, 0.71))
    assert s["change"] == pytest.approx((0.60, 0.605, 0.6175))
    # the same runs read as a higher-is-better metric: the parent wins them
    flipped = bp.summarize(PARENT, change, "higher")
    assert flipped["wins"] == 0 and not flipped["claim"]


def test_bench_pairs_needs_nine_tenths_of_the_pairs():
    change = [0.60, 0.61, 0.75, 0.62, 0.60, 0.59, 0.74, 0.61, 0.60, 0.62]  # two losses
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["claim"]


def test_bench_pairs_needs_medians_apart_by_more_than_the_parent_iqr():
    change = [p - 0.004 for p in PARENT]  # wins every pair, by less than the 0.01 IQR
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["claim"]
    rates = [1.0 / p for p in PARENT]
    higher = bp.summarize(rates, [r * 1.2 for r in rates], "higher")
    assert higher["wins"] == 10 and higher["claim"]
    # nine pairs of ten wins are too few pairs to claim anything
    short = bp.summarize(PARENT[:9], [p - 0.1 for p in PARENT[:9]], "lower")
    assert short["wins"] == 9 and not short["claim"]


def test_bench_pairs_reports_the_median_change_relative_to_the_parent():
    change = [p * 0.9 for p in PARENT]
    assert bp.summarize(PARENT, change, "lower")["rel_change"] == pytest.approx(-0.1)
    assert bp.summarize(PARENT, change, "higher")["rel_change"] == pytest.approx(-0.1)
    assert bp.summarize([0.0, 0.0], [1.0, 1.0], "lower")["rel_change"] is None


def test_bench_pairs_rejects_unpaired_runs():
    with pytest.raises(ValueError, match="same nonzero number"):
        bp.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError, match="better"):
        bp.summarize([1.0], [1.0], "faster")


def _perfbench_stdout(finetune_s, eval_s="0.011 (Baseline 0.09)"):
    """The closing lines of a perfbench/run.py ablation run."""
    return (
        "result_s is the median of 3 results; an item is one episode fine-tuned or evaluated\n"
        "phase split, median per result: whole_train_s 0.052 (Baseline 0.07), rank_s 0.514 "
        f"(Baseline 1.23), finetune_s {finetune_s} (Baseline 1.28), eval_s {eval_s}\n"
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'
    )


def test_bench_pairs_reads_the_phase_split_line():
    assert bp.phase_split(_perfbench_stdout(0.263)) == {
        "whole_train_s": 0.052, "rank_s": 0.514, "finetune_s": 0.263, "eval_s": 0.011}
    assert bp.phase_split(_perfbench_stdout(0.263, eval_s="0.02"))["eval_s"] == 0.02
    # theorem1 prints no phase split; every phase the line names is kept, in its order
    assert bp.phase_split('{"correct": true}\n') == {}
    split = bp.phase_split("phase split, median per result: load_s 1.0, rank_s 0.5")
    assert list(split.items()) == [("load_s", 1.0), ("rank_s", 0.5)]


def test_bench_pairs_pairs_the_rank_workload_total():
    # rank's line names one phase, with no Baseline figure
    def stdout(total_s):
        return f"phase split, median per result: tas_total_s {total_s}\n" + '{"correct": true}\n'

    parent = [bp.phase_split(stdout(p)) for p in PARENT]
    change = [bp.phase_split(stdout(round(p - 0.1, 3))) for p in PARENT]
    assert parent[0] == {"tas_total_s": PARENT[0]}
    assert bp.phase_report(parent, change) == [
        "  tas_total_s    parent 0.705 s, change 0.605 s (-14.2%); change better in 10 of 10 pairs",
    ]


def test_bench_pairs_reports_each_phase_paired():
    parent = [bp.phase_split(_perfbench_stdout(p)) for p in PARENT]
    change = [bp.phase_split(_perfbench_stdout(round(p - 0.1, 3))) for p in PARENT]
    change[2]["finetune_s"] = 0.75  # the change loses pair 3
    del parent[5]["eval_s"]  # a phase one run lacks is not reported
    assert bp.phase_report(parent, change) == [
        "  whole_train_s  parent 0.052 s, change 0.052 s (+0.0%); change better in 0 of 10 pairs",
        "  rank_s         parent 0.514 s, change 0.514 s (+0.0%); change better in 0 of 10 pairs",
        "  finetune_s     parent 0.705 s, change 0.61 s (-13.5%); change better in 9 of 10 pairs",
    ]


def test_bench_pairs_reports_page_faults_and_system_time_paired():
    # getrusage readings around each run, 100 results a run: the change
    # loses pair 3 on system time and wins every pair on faults
    class Usage:
        def __init__(self, ru_minflt, ru_stime):
            self.ru_minflt, self.ru_stime = ru_minflt, ru_stime

    start = Usage(50_000, 2.0)
    parent = [bp.usage(start, Usage(50_000 + 930_000 + 1000 * i, 2.5 + 0.01 * i), 100)
              for i in range(10)]
    change = [bp.usage(start, Usage(50_000 + 11_800 + 10 * i, 3.0 if i == 2 else 2.05), 100)
              for i in range(10)]
    assert parent[0] == pytest.approx({"minor_faults": 930_000, "faults/result": 9300,
                                       "system_s": 0.5, "sys_s/result": 0.005})
    assert bp.phase_report(parent, change, bp.USAGE) == [
        "  minor_faults   parent 934500, change 11845 (-98.7%); change better in 10 of 10 pairs",
        "  faults/result  parent 9345, change 118 (-98.7%); change better in 10 of 10 pairs",
        "  system_s       parent 0.545 s, change 0.05 s (-90.8%); change better in 9 of 10 pairs",
        "  sys_s/result   parent 0.00545 s, change 0.0005 s (-90.8%); change better in 9 of 10 "
        "pairs",
    ]


def test_same_outputs_reports_the_repo_identical_to_itself(tmp_path):
    # the shipped fewshot config, cut to four source tasks, three meta-steps
    # and ten evaluation episodes
    with open(os.path.join(ROOT, "configs", "fewshot.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    pipe = doc["pipeline"]
    pipe.update(s_count=4, top_r=2, n_eval_episodes=10)
    pipe["finetune_schedule"]["epochs"] = 3
    config = tmp_path / "small.json"
    config.write_text(json.dumps(doc))
    # --config leaves theorem1 and synth on the checkout's own configs: a
    # checkout of this src/ whose configs/theorem1.json runs 3,000 steps of
    # 5 seeds, beside the shipped configs/synth.json
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "src").symlink_to(os.path.abspath(os.path.join(ROOT, "src")))
    shutil.copy(os.path.join(ROOT, "configs", "synth.json"), checkout / "configs")
    with open(os.path.join(ROOT, "configs", "theorem1.json"), encoding="utf-8") as fh:
        theorem_doc = json.load(fh)
    theorem_doc["sgd"]["total_steps"] = 3000
    theorem_doc["n_seeds"] = 5
    (checkout / "configs" / "theorem1.json").write_text(json.dumps(theorem_doc))
    out = _run_script("same_outputs.py", str(checkout), str(checkout), "--config", str(config))
    # tas writes 3 files in each of 7 runs (one keeping the Fisher
    # diagonals, one on the CSV pair), fewshot 4 in each of 4 (one at an
    # off-default shape), theorem1 2 in each of 2 and synth 1 in each of 2
    assert out == "identical: 43 files of 15 runs, timings dropped\n"


def test_same_outputs_verbose_run_writes_the_fisher_diagonals(tmp_path, monkeypatch):
    # the one run whose scores.json keeps every task's two diagonals
    with open(os.path.join(ROOT, "configs", "tas.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["pipeline"].update(s_count=4, top_r=2)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(doc))
    verbose = [run for run in same_outputs.RUNS if run[3] == "verbose"]
    assert verbose == [("tas", None, None, "verbose")]
    monkeypatch.setattr(same_outputs, "RUNS", verbose)
    same_outputs.run_all(ROOT, str(config), str(tmp_path / "out"))
    with open(tmp_path / "out" / "tas-verbose" / "scores.json", encoding="utf-8") as fh:
        rows = json.load(fh)["scores"]
    assert len(rows) == 4
    assert all(len(row["fisher"][side]["entries"]) > 0 for row in rows for side in ("f_aa", "f_ab"))
    assert "verbose_fisher" not in config.read_text()  # the given config is left as it was


def test_same_outputs_csv_run_ranks_classes_of_unequal_sizes(tmp_path, monkeypatch):
    # the pair is the same bytes at every write, in the config's shape, and
    # its training classes differ in size, so the tasks' row counts differ
    with open(os.path.join(ROOT, "configs", "tas.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["pipeline"].update(s_count=4, top_r=2)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(doc))
    pairs = []
    for root in (tmp_path / "a", tmp_path / "b"):
        root.mkdir()
        data = same_outputs.write_csv_pair(str(config), str(root))
        pairs.append([open(data[key], "rb").read() for key in ("train_csv", "test_csv")])
    assert pairs[0] == pairs[1]
    train, test = tasks.load_csv(data["train_csv"]), tasks.load_csv(data["test_csv"])
    assert [train.class_index[c].size for c in train.class_ids] == list(
        same_outputs.CSV_TRAIN_SIZES)
    assert len(test.class_ids) == doc["pipeline"]["n_test"] and train.dim == test.dim == 16
    csv_runs = [run for run in same_outputs.RUNS if run[3] == "csv"]
    assert csv_runs == [("tas", None, None, "csv")]
    monkeypatch.setattr(same_outputs, "RUNS", csv_runs)
    same_outputs.run_all(ROOT, str(config), str(tmp_path / "out"), data)
    with open(tmp_path / "out" / "tas-csv" / "scores.json", encoding="utf-8") as fh:
        assert len(json.load(fh)["scores"]) == 4
    assert "train_csv" not in config.read_text()  # the given config is left as it was


def _outputs(root, accuracy=0.5, total_s=1.0, csv="class_id,count\n0,2\n1,1\n"):
    run = root / "fewshot-random"
    run.mkdir(parents=True)
    report = {"scores": [{"task_id": 3, "score": 0.25}], "fewshot_accuracy_mean": accuracy,
              "timings": {"total_s": total_s}}
    (run / "report.json").write_text(json.dumps(report))
    (run / "label_freq.csv").write_text(csv)
    return root


def test_same_outputs_names_the_first_doctored_key_or_line(tmp_path):
    parent = _outputs(tmp_path / "parent")
    assert same_outputs.compare(parent, _outputs(tmp_path / "timed", total_s=9.0)) == (2, None)
    doctored = _outputs(tmp_path / "doctored", accuracy=0.5000000000000001)
    assert same_outputs.compare(parent, doctored) == (
        1, "fewshot-random/report.json: $.fewshot_accuracy_mean")
    csv = _outputs(tmp_path / "csv", csv="class_id,count\n0,2\n1,2\n")
    assert same_outputs.compare(parent, csv) == (0, "fewshot-random/label_freq.csv: line 3")
    extra = _outputs(tmp_path / "extra")
    (extra / "fewshot-random" / "scores.json").write_text("{}")
    assert same_outputs.compare(parent, extra) == (
        2, "fewshot-random/scores.json: written by one side only")
    assert same_outputs.first_difference({"a": [1, 2]}, {"a": [1, 2.0]}) == "$.a[1]"
    assert same_outputs.first_difference([1], [1, 2]) == "$ (length 1 against 2)"

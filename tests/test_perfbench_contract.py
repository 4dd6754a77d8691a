"""What the benchmark's tracer (perfbench/spans.py, perfbench/perlayer.py)
needs from the package, checked by installing it in process.

The tracer wraps public functions by module attribute and reads what some of
them are given or return, so these names and shapes are part of the
package's contract: `nnet.Batch` and `nnet.Network` are classes with a
`__post_init__`; `pipeline.rank_all_sources` is the one ranking call, whose
span is `pipeline.rank.s`; and `pipeline.build_eps_approx` is public, runs
once per source task inside that call and returns `(network, record)` with
`.reached_target` and `.epochs_used`.  A traced `rank` run that breaks one
of them still exits 0, but its health check reads no epsilon records.

The workloads' readers are part of it too: `Ablation.output` reads
`pipeline.ablation_comparison`'s reports (`score.value`, accuracies, label
sets, timings), and `Theorem1` runs the theorem1 command and reads its
`report.json`; the tracer reads `theorem.noisy_sgd`'s `cfg.total_steps`
from its second positional argument.
"""

import dataclasses
import math
import os

import numpy as np

import helpers
from taskaffinity import cli, fisher, matching, nnet, pipeline, tasks, theorem

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_tracer_health_check_sees_every_source_task(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import perlayer
    import spans

    tracer = spans.Tracer()
    tracer.install({"cli": cli, "pipeline": pipeline, "nnet": nnet, "fisher": fisher,
                    "matching": matching, "tasks": tasks, "theorem": theorem})
    try:
        health = perlayer.health_check(tracer, str(tmp_path))
    finally:
        tracer.uninstall()
    assert health["errors"] == [], health["message"]  # 191 of 200 targets reached

    a = tracer.arrays()
    mine = a["result"] == perlayer.HEALTH_ID

    def span_ids(name):
        return np.flatnonzero(mine & (a["name_id"] == tracer.name_ids[name]))

    # pipeline.rank.s reads the one ranking call, which builds every task's
    # epsilon-approximation; the health check reads each one's record
    rank = span_ids(perlayer.SPAN_OF["pipeline.rank"])
    assert rank.size == 1
    built = span_ids("pipeline.build_eps_approx")
    assert built.size == perlayer.HEALTH_TASKS

    def ancestors(i):
        while a["parent"][i] >= 0:
            i = a["parent"][i]
            yield i

    assert all(rank[0] in ancestors(i) for i in built)
    records = [r for r in tracer.eps_records if r[0] == perlayer.HEALTH_ID]
    assert len(records) == perlayer.HEALTH_TASKS
    for counter in spans.COUNTED_CLASSES:
        assert tracer.counters.get((counter, perlayer.HEALTH_ID), 0) > 0
    assert nnet.Batch.__post_init__.__qualname__ == "Batch.__post_init__"  # uninstalled


def test_ablation_workload_reads_its_reports(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    train, test, spec, cfg = workloads.ablation_setting(0)
    small = dataclasses.replace(  # the workload's warm-up size
        cfg,
        s_count=4,
        finetune_schedule=dataclasses.replace(cfg.finetune_schedule, epochs=10),
        n_eval_episodes=10,
    )
    out = workloads.Ablation().output(
        {"reports": pipeline.ablation_comparison(train, test, spec, small)}
    )
    assert len(out["task_ids"]) == len(out["scores"]) == 4
    assert all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in out["scores"])
    assert sorted(out["accuracy"]) == sorted(out["label_sets"]) == sorted(pipeline.ABLATION_MODES)
    assert all(0.0 <= acc <= 1.0 for acc in out["accuracy"].values())
    assert all(labels for labels in out["label_sets"].values())
    assert sorted(out["phases"]) == ["eval_s", "finetune_s", "rank_s", "whole_train_s"]
    assert all(t > 0.0 for t in out["phases"].values())
    assert workloads.Ablation().check(out, out) == []


def test_ablation_workload_setting_is_the_sweep_setting(monkeypatch):
    # perfbench keeps its own copy of the criterion-7 setting; it must not drift
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    sweep = helpers.script("ablation_sweep")
    for k in (0, 1):
        got, want = workloads.ablation_setting(k), sweep.setting(4242, k)
        assert got[2:] == want[2:]  # spec, cfg
        for a, b in zip(got[:2], want[:2]):  # train, test
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)


def test_theorem1_workload_runs_and_reads_its_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads

    w = workloads.Theorem1()
    w.total_steps = 200
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "pipeline": pipeline, "nnet": nnet, "fisher": fisher,
                    "matching": matching, "tasks": tasks, "theorem": theorem})
    try:
        out = w.output(w.run(0, str(tmp_path)))
    finally:
        tracer.uninstall()
    assert isinstance(out["passed"], bool)
    assert out["exit_code"] == (0 if out["passed"] else 1)
    assert math.isfinite(out["final_gap_median"]) and out["final_gap_median"] >= 0.0
    assert out["phases"]["total_s"] > 0.0
    assert [steps for _, steps in tracer.sgd_steps] == [200]
    a = tracer.arrays()
    scoring = a["name_id"] == tracer.name_ids["theorem.tas_trajectory"]
    assert scoring.sum() == 1 and a["self"][scoring].sum() > 0.0

"""End-to-end acceptance gate.

One test per numbered criterion.  Each runs its protocol at the stated
tolerance and time budget, records a single PASS/FAIL line through the
conftest registry (replayed in the terminal summary), and then asserts.
The multi-seed protocols use frozen constants that were tuned and then
re-validated on untouched seeds; nothing here adapts to what it measures.
"""

import json
import math
import os
import time

import numpy as np

import helpers
from conftest import record_criterion
from taskaffinity import cli, fisher, matching, nnet, pipeline, tasks, theorem
from taskaffinity.seeding import derive_seed


# ---------------------------------------------------------------------------
# 1. affinity-score axioms against an independent trace-form oracle


def _unit_diag(rng, n):
    v = rng.random(n) ** 2 + 1e-12
    return fisher.normalize_unit_trace(fisher.FisherDiagonal(v))


def test_criterion_1_affinity_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(1, 0))
    low, high = math.inf, -math.inf
    worst_self = worst_oracle = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        fa, fb = _unit_diag(rng, n), _unit_diag(rng, n)
        s = fisher.tas(fa, fb).value
        low, high = min(low, s), max(high, s)
        worst_self = max(worst_self, abs(fisher.tas(fa, fa).value))
        a, b = fa.entries, fb.entries
        oracle = math.sqrt(max(float(np.sum(a + b - 2.0 * np.sqrt(a * b))), 0.0) / 2.0)
        worst_oracle = max(worst_oracle, abs(s - oracle))
    elapsed = time.perf_counter() - t0
    ok = (
        0.0 <= low
        and high <= 1.0 + 1e-12
        and worst_self <= 1e-12
        and worst_oracle <= 1e-12
        and elapsed < 1.0
    )
    record_criterion(
        1,
        ok,
        f"1000 pairs in [{low:.3f}, {high:.3f}], self-score <= {worst_self:.1e}, "
        f"oracle dev <= {worst_oracle:.1e}, {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. backprop vs central finite differences on random generic networks


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(100):
        net, batch = helpers.draw_generic_case(rng)
        worst = max(worst, helpers.fd_worst_relative_error(net, batch))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    record_criterion(2, ok, f"100 networks, max relative error {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. assignment solver vs exhaustive search


def test_criterion_3_matching_is_exactly_optimal():
    t0 = time.perf_counter()
    bad = 0
    for n in range(2, 8):
        rng = np.random.default_rng(derive_seed(31, n))
        for _ in range(200):
            cost = rng.random((n, n)) * 10.0
            got = matching.hungarian(cost)
            want = matching.brute_force_assignment(cost)
            if sorted(got.mapping) != list(range(n)) or got.total_cost != want.total_cost:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    record_criterion(
        3, ok, f"1200 matrices (n=2..7), {1200 - bad}/1200 equal exhaustive search, {elapsed:.1f}s"
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. end-to-end score is bitwise invariant under class relabeling


def test_criterion_4_label_permutation_invariance():
    t0 = time.perf_counter()
    scfg = tasks.SyntheticConfig(4, 6, 40, 16, 6.0, 1.5, 0.8, seed=derive_seed(505, 9))
    train, test = tasks.family_holdout(scfg, 0, 4)
    spec = nnet.NetworkSpec((16, 32, 8), 20, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=4, top_r=1, m_way=3, k_shot=5, q_query=5, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 32, (20,), 0.1, seed=derive_seed(505, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(505, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 10, 4, seed=derive_seed(505, 4)),
        n_eval_episodes=10, softmax_temperature=1.0, master_seed=505,
    )
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    target = pipeline.view_target(tasks.build_target_task(test), test, whole, cfg)
    ids = [6, 7, 8, 9]
    source = tasks.task_from_classes(train, ids, 0, derive_seed(505, 1))
    base = pipeline.mtas(source, target, train, whole, cfg).score.value

    rng = np.random.default_rng(derive_seed(505, 8))
    perms = set()
    while len(perms) < 20:
        perms.add(tuple(int(j) for j in rng.permutation(len(ids))))
    exact = 0
    for perm in sorted(perms):
        lut = {ids[k]: ids[perm[k]] for k in range(len(ids))}
        new_labels = np.array([lut.get(int(v), int(v)) for v in train.labels])
        relabeled = tasks.Dataset.from_arrays(train.features, new_labels)
        score = pipeline.mtas(source, target, relabeled, whole, cfg).score.value
        exact += score == base
    elapsed = time.perf_counter() - t0
    ok = exact == 20 and elapsed < 120.0
    record_criterion(
        4, ok, f"{exact}/20 relabelings bitwise identical (score {base!r}), {elapsed:.1f}s"
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. affinity along averaged noisy SGD converges to its value at the optimum


def test_criterion_5_averaged_sgd_affinity_converges():
    t0 = time.perf_counter()
    problem, a_query, b_support = theorem.make_logistic_fixture(10, 200, 200, 0.1, 42)
    theta_star = theorem.solve_optimum(problem, tol=1e-10)
    schedule = theorem.StepSchedule("polynomial", 0.1, 0.6)
    cfg = theorem.NoisySGDConfig(schedule, 0.1, 100_000, 7)
    series = []
    for traj in theorem.noisy_sgd(problem, cfg, [derive_seed(7, 15, i) for i in range(20)]):
        traj.theta_star = theta_star
        series.append(theorem.tas_trajectory(traj, a_query, b_support, problem))
    verdict = theorem.convergence_check(series, 1e-2)
    elapsed = time.perf_counter() - t0
    ok = verdict.passed and elapsed < 120.0
    trend = ", ".join(f"{x:.2e}" for x in verdict.trend)
    record_criterion(
        5,
        ok,
        f"20 seeds, final median gap {verdict.final_gap_median:.2e} (tol 1e-2), "
        f"trend [{trend}], {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. same-family sources score lower than disjoint-family sources


def test_criterion_6_same_family_scores_lower():
    t0 = time.perf_counter()
    wins = 0
    for trial in range(10):
        m = derive_seed(2024, trial)
        scfg = tasks.SyntheticConfig(4, 6, 40, 16, 6.0, 1.5, 0.8, seed=derive_seed(m, 9))
        train, test = tasks.family_holdout(scfg, 0, 3)
        spec = nnet.NetworkSpec((16, 32, 8), 21, "relu")
        cfg = pipeline.PipelineConfig(
            s_count=10, n_test=3, top_r=2, m_way=3, k_shot=5, q_query=5, epsilon=0.2,
            whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 32, (20,), 0.1, seed=derive_seed(m, 0)),
            approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
            finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 10, 4, seed=derive_seed(m, 4)),
            n_eval_episodes=100, softmax_temperature=1.0, master_seed=m,
        )
        whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
        target = pipeline.view_target(tasks.build_target_task(test), test, whole, cfg)
        same = tasks.task_from_classes(train, [0, 1, 2], 100, derive_seed(m, 1, 0))
        disj = tasks.task_from_classes(train, [12, 13, 14], 101, derive_seed(m, 1, 1))
        s_same = pipeline.mtas(same, target, train, whole, cfg).score.value
        s_disj = pipeline.mtas(disj, target, train, whole, cfg).score.value
        wins += s_same < s_disj
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 300.0
    record_criterion(6, ok, f"{wins}/10 trials same-family < disjoint-family, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. fine-tuning on the selected related set beats random and non-related
# 8. the 200-task score distribution has genuine spread (shares 7's run)


_ABLATION_CACHE: dict = {}


def _ablation_setting(s: int):
    m = derive_seed(4242, s)
    scfg = tasks.SyntheticConfig(8, 6, 40, 16, 6.0, 2.0, 0.7, seed=derive_seed(m, 9))
    train, test = tasks.family_holdout(scfg, 0, 3)
    spec = nnet.NetworkSpec((16, 32, 8), 45, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=200, n_test=3, top_r=3, m_way=3, k_shot=5, q_query=10, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 6, 32, seed=derive_seed(m, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 600, 4, seed=derive_seed(m, 4)),
        n_eval_episodes=300, softmax_temperature=4.0, master_seed=m,
    )
    return train, test, spec, cfg


def test_criterion_7_related_set_wins_the_ablation():
    t0 = time.perf_counter()
    n_seeds = 40
    acc = {mode: [] for mode in pipeline.ABLATION_MODES}
    for s in range(n_seeds):
        train, test, spec, cfg = _ablation_setting(s)
        reports = pipeline.ablation_comparison(train, test, spec, cfg)
        for mode, rep in reports.items():
            acc[mode].append(rep.fewshot_accuracy_mean)
        if s == 0:
            _ABLATION_CACHE["ranked"] = list(reports["related"].scores)
    means = {mode: 100.0 * float(np.mean(v)) for mode, v in acc.items()}
    d_rand = means["related"] - means["random"]
    d_non = means["related"] - means["non_related"]
    elapsed = time.perf_counter() - t0
    ok = d_rand >= 3.0 and d_non >= 3.0 and elapsed < 900.0
    record_criterion(
        7,
        ok,
        f"{n_seeds} seeds: related {means['related']:.1f}% vs random {means['random']:.1f}% "
        f"({d_rand:+.1f}) vs non-related {means['non_related']:.1f}% ({d_non:+.1f}), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_score_distribution_has_spread():
    ranked = _ABLATION_CACHE.get("ranked")
    note = "reusing the first ablation seed"
    if ranked is None:  # running standalone: rebuild that seed's ranking only
        train, test, spec, cfg = _ablation_setting(0)
        whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
        source_tasks, target = pipeline.prepare_tasks(train, test, cfg)
        ranked = pipeline.sort_ranked(
            pipeline.rank_all_sources(source_tasks, target, train, test, whole, cfg)
        )
        note = "standalone rebuild of the first ablation seed"
    values = np.array([r.score.value for r in ranked])
    _, counts = pipeline.tas_histogram(ranked)
    occupied = int(sum(c > 0 for c in counts))
    std = float(values.std())
    ok = values.size == 200 and std > 0.0 and occupied >= 3
    record_criterion(
        8, ok, f"200 scores, std {std:.3f}, {occupied}/{len(counts)} bins occupied ({note})"
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. reruns with identical config and seed are byte-identical


def _synth_doc():
    return {
        "synthetic": {
            "n_families": 3, "classes_per_family": 2, "samples_per_class": 12,
            "input_dim": 6, "family_spread": 5.0, "class_spread": 2.5,
            "noise_sigma": 0.15, "seed": derive_seed(1005, 9),
        }
    }


def _pipeline_doc():
    return {
        "data": {**_synth_doc(), "target_family": 2, "n_test_classes": 2},
        "network": {"layer_widths": [6, 16, 8], "activation": "relu"},
        "pipeline": {
            "s_count": 4, "n_test": 2, "top_r": 2, "m_way": 2, "k_shot": 3,
            "q_query": 3, "epsilon": 0.3,
            "whole_schedule": {"learning_rate": 0.05, "momentum": 0.9, "epochs": 30,
                               "batch_size": 16, "seed": derive_seed(1005, 0)},
            "approx_schedule": {"learning_rate": 0.05, "momentum": 0.9, "epochs": 10,
                                "batch_size": 8, "seed": derive_seed(1005, 3)},
            "finetune_schedule": {"learning_rate": 0.02, "momentum": 0.9, "epochs": 4,
                                  "batch_size": 2, "seed": derive_seed(1005, 4)},
            "n_eval_episodes": 6, "softmax_temperature": 2.0, "master_seed": 1005,
        },
    }


def _theorem_doc():
    return {
        "fixture": {"dim": 4, "n_support": 40, "n_query": 30, "l2_lambda": 0.2,
                    "data_seed": 3},
        "sgd": {"schedule": {"kind": "constant", "eta0": 0.2},
                "noise_sigma": 0.1, "total_steps": 300, "seed": 11},
        "n_seeds": 5, "abs_tol": 0.05,
    }


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfgs = {}
    for name, doc in (
        ("synth", _synth_doc()), ("pipe", _pipeline_doc()), ("theorem", _theorem_doc())
    ):
        cfgs[name] = str(tmp_path / f"{name}.json")
        with open(cfgs[name], "w") as fh:
            json.dump(doc, fh)

    commands = [
        (["synth", "--config", cfgs["synth"], "--seed", "5"], ["dataset.csv"]),
        (["tas", "--config", cfgs["pipe"]], ["scores.json", "tas_hist.csv", "label_freq.csv"]),
        (
            ["fewshot", "--config", cfgs["pipe"], "--ablation", "random", "--seed", "3"],
            ["report.json", "scores.json", "tas_hist.csv", "label_freq.csv"],
        ),
        (["theorem1", "--config", cfgs["theorem"]], ["report.json", "theorem1_series.csv"]),
    ]
    checked = 0
    mismatched = []
    for k, (argv, files) in enumerate(commands):
        out_a, out_b = str(tmp_path / f"a{k}"), str(tmp_path / f"b{k}")
        code_a = cli.main(argv + ["--out", out_a])
        code_b = cli.main(argv + ["--out", out_b])
        if code_a != code_b:
            mismatched.append(f"{argv[0]}:exit")
        for name in files:
            with open(os.path.join(out_a, name), "rb") as fh:
                raw_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                raw_b = fh.read()
            if name.endswith(".json"):
                da, db = json.loads(raw_a), json.loads(raw_b)
                da.pop("timings", None), db.pop("timings", None)
                same = da == db
            else:
                same = raw_a == raw_b
            checked += 1
            if not same:
                mismatched.append(f"{argv[0]}:{name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    detail = (
        f"4 commands rerun, {checked} output files identical modulo timings, {elapsed:.1f}s"
        if ok
        else f"mismatches: {', '.join(mismatched)}"
    )
    record_criterion(9, ok, detail)
    assert ok

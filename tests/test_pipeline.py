"""Three-phase pipeline: affinity scoring, selection, episodic fine-tuning."""

import json
import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest

import helpers
from taskaffinity import cli, fisher, matching, nnet, pipeline, tasks
from taskaffinity.seeding import derive_seed


# ---------------------------------------------------------------------------
# shared tiny setting: 3 families x 2 classes, last family held out


@pytest.fixture(scope="module")
def tiny():
    scfg = tasks.SyntheticConfig(3, 2, 12, 6, 5.0, 2.5, 0.15, seed=derive_seed(1005, 9))
    data = tasks.make_synthetic(scfg)
    train, test = tasks.split_classes(data, [4, 5])
    spec = nnet.NetworkSpec((6, 16, 8), len(train.class_ids), "relu")
    cfg = pipeline.PipelineConfig(
        s_count=4, n_test=2, top_r=2, m_way=2, k_shot=3, q_query=3, epsilon=0.3,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 16, seed=derive_seed(1005, 0)),
        approx_schedule=nnet.TrainSchedule(0.05, 0.9, 10, 8, seed=derive_seed(1005, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 4, 2, seed=derive_seed(1005, 4)),
        n_eval_episodes=6, softmax_temperature=2.0, master_seed=1005,
    )
    return train, test, spec, cfg


def sampled_sources(train, cfg):
    """The source tasks rank_all_sources samples for cfg."""
    seed = derive_seed(cfg.master_seed, pipeline._STREAM_TASKS)
    return tasks.sample_source_tasks(train, cfg.s_count, cfg.n_test, seed)


@pytest.fixture(scope="module")
def tiny_run(tiny):
    train, test, spec, cfg = tiny
    return pipeline.ablation_comparison(train, test, spec, cfg, ("related",))["related"]


# ---------------------------------------------------------------------------
# config


def test_pipeline_config_validation(tiny):
    _, _, _, cfg = tiny
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(cfg, s_count=0)
    with pytest.raises(ValueError):
        replace(cfg, top_r=5)  # > s_count
    with pytest.raises(ValueError):
        replace(cfg, top_r=0)
    with pytest.raises(ValueError):
        replace(cfg, epsilon=0.0)
    with pytest.raises(ValueError):
        replace(cfg, epsilon=1.0)
    with pytest.raises(ValueError):
        replace(cfg, n_eval_episodes=0)
    with pytest.raises(ValueError):
        replace(cfg, softmax_temperature=0.0)
    with pytest.raises(ValueError):
        replace(cfg, m_way=0)


# ---------------------------------------------------------------------------
# phase 1


def test_whole_train_batch_compresses_labels_to_slots():
    data = tasks.Dataset.from_arrays(
        np.zeros((6, 2)), np.array([5, 9, 5, 7, 9, 7])
    )
    batch = tasks.batch_of(data, range(data.n), data.class_ids)
    np.testing.assert_array_equal(batch.labels, [0, 2, 0, 1, 2, 1])
    np.testing.assert_array_equal(batch.features, data.features)


def test_train_whole_classifier_fits_and_is_deterministic(tiny):
    train, _, spec, cfg = tiny
    a = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    b = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    assert np.array_equal(a.params, b.params)
    acc = nnet.evaluate(a, tasks.batch_of(train, range(train.n), train.class_ids))
    assert acc > 0.9, f"whole classifier underfits its own training set: {acc}"


def test_train_whole_classifier_skips_the_debug_loss_below_debug(tiny, monkeypatch):
    # the final-loss line is a full forward pass; it runs only when logged
    train, _, spec, cfg = tiny
    expected = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)

    def never(*args):
        raise AssertionError("nnet.loss evaluated for a debug line nobody sees")

    monkeypatch.setattr(nnet, "loss", never)
    assert not pipeline.log.isEnabledFor(logging.DEBUG)
    net = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    assert np.array_equal(net.params, expected.params)


def test_train_whole_classifier_head_mismatch(tiny):
    train, _, _, cfg = tiny
    bad = nnet.NetworkSpec((6, 8, 4), 7, "relu")
    with pytest.raises(ValueError, match="head_classes"):
        pipeline.train_whole_classifier(train, bad, cfg.whole_schedule)


# ---------------------------------------------------------------------------
# phase 2: epsilon-approximation


def _approx_inputs(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    task = tasks.task_from_classes(train, [0, 1], 0, seed=derive_seed(1005, 1, 0))
    sup = tasks.batch_of(train, task.support_rows, task.class_ids)
    qry = tasks.batch_of(train, task.query_rows, task.class_ids)
    return whole, sup, qry, cfg


def test_build_eps_approx_reaches_target_on_easy_task(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    net, record = pipeline.build_eps_approx(whole, sup, qry, cfg, head_seed=1, train_seed=2)
    assert record.reached_target
    assert record.achieved_epsilon <= cfg.epsilon
    assert 1 <= record.epochs_used <= cfg.approx_schedule.epochs
    assert net.spec.head_classes == cfg.n_test


def test_build_eps_approx_loose_target_stops_after_one_epoch(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    from dataclasses import replace
    loose = replace(cfg, epsilon=0.99)
    _, record = pipeline.build_eps_approx(whole, sup, qry, loose, head_seed=1, train_seed=2)
    assert record.epochs_used == 1
    assert record.reached_target


def test_build_eps_approx_zero_epochs_keeps_encoder(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    from dataclasses import replace
    frozen = replace(cfg, approx_schedule=replace(cfg.approx_schedule, epochs=0))
    net, record = pipeline.build_eps_approx(whole, sup, qry, frozen, head_seed=3, train_seed=4)
    assert record.epochs_used == 0
    sl = nnet.encoder_slice(whole.spec)
    assert np.array_equal(net.params[sl], whole.params[sl])


def test_mtas_requires_matching_class_counts(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    view = pipeline.view_target(test, whole, cfg)
    bad = tasks.task_from_classes(train, [0, 1, 2], 0, seed=5)
    with pytest.raises(ValueError, match="source must have n_test"):
        pipeline.mtas(bad, view, train, whole, cfg)
    with pytest.raises(ValueError, match="target must have n_test"):
        pipeline.view_target(test, whole, replace(cfg, n_test=3))


def test_view_target_covers_every_test_row(tiny):
    # the target task is the whole test set, each row labelled by its
    # class's slot among the ascending test class ids
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    view = pipeline.view_target(test, whole, cfg)
    np.testing.assert_array_equal(view.batch.features, test.features)
    np.testing.assert_array_equal(
        view.batch.labels, np.searchsorted(test.class_ids, test.labels)
    )
    assert view.centroids.shape == (cfg.n_test, whole.spec.layer_widths[-1])


def test_mtas_rejects_source_class_without_rows(tiny, monkeypatch):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    rows = train.class_index[0]
    empty_class = tasks.TaskSpec(0, (0, 1), tuple(rows[:6]), tuple(rows[6:]))

    def never(*args, **kwargs):
        raise AssertionError("epsilon-approximation training started")

    monkeypatch.setattr(pipeline, "build_eps_approx", never)
    with pytest.raises(ValueError, match=r"classes \[1\] have no rows"):
        view = pipeline.view_target(test, whole, cfg)
        pipeline.mtas(empty_class, view, train, whole, cfg)


def test_mtas_overflowing_fisher_names_the_task_and_epochs(tiny, monkeypatch):
    # a diverged approximation can keep finite parameters and still overflow
    # in its Fisher diagonal; the error names the task and its epoch count
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    source_tasks = sampled_sources(train, cfg)
    view = pipeline.view_target(test, whole, cfg)
    build = pipeline.build_eps_approx

    def diverged(*args, **kwargs):
        net, record = build(*args, **kwargs)
        return nnet.Network(net.spec, net.params * 1e120), record

    monkeypatch.setattr(pipeline, "build_eps_approx", diverged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check reports, not numpy
        with pytest.raises(ValueError, match=(
            r"^source task 1 Fisher diagonal after \d+ eps-approximation epochs: "
            r"entries must be finite"
        )):
            pipeline.mtas(source_tasks[1], view, train, whole, cfg)


def test_mtas_labels_follow_assignment(monkeypatch):
    # each source row's label is the target slot its class was matched to,
    # the class's slot being its index in source.class_ids
    scfg = tasks.SyntheticConfig(4, 6, 40, 16, 6.0, 1.5, 0.8, seed=derive_seed(707, 9))
    train, test = tasks.family_holdout(scfg, 0, 3)
    spec = nnet.NetworkSpec((16, 32, 8), 21, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=8, n_test=3, top_r=1, m_way=3, k_shot=5, q_query=5, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 10, 32, seed=derive_seed(707, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 3, 16, seed=derive_seed(707, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 1, 1, seed=derive_seed(707, 4)),
        n_eval_episodes=1, softmax_temperature=1.0, master_seed=707,
    )
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    source_tasks = sampled_sources(train, cfg)
    view = pipeline.view_target(test, whole, cfg)
    seen = []
    build = pipeline.build_eps_approx

    def spy(whole, sup, qry, *args, **kwargs):
        seen.append((sup, qry))
        return build(whole, sup, qry, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_eps_approx", spy)
    mappings = set()
    for source in source_tasks:
        ranked = pipeline.mtas(source, view, train, whole, cfg)
        assert ranked.class_ids == source.class_ids
        mapping = ranked.assignment.mapping
        mappings.add(mapping)
        sup, qry = seen.pop()
        for batch, rows in ((sup, source.support_rows), (qry, source.query_rows)):
            want = [mapping[source.class_ids.index(train.labels[r])] for r in rows]
            np.testing.assert_array_equal(batch.labels, want)
            np.testing.assert_array_equal(batch.features, train.features[list(rows)])
    assert len(mappings) > 1, "every task got the same mapping; the check is too weak"


def test_mtas_deterministic_and_diagnostics_agree(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    source_tasks = sampled_sources(train, cfg)
    view = pipeline.view_target(test, whole, cfg)
    a = pipeline.mtas(source_tasks[0], view, train, whole, cfg)
    b = pipeline.mtas(source_tasks[0], view, train, whole, cfg)
    assert a == b
    assert a.f_aa is None and a.f_ab is None
    assert 0.0 <= a.score.value <= 1.0 + 1e-12
    verbose_cfg = replace(cfg, verbose_fisher=True)
    ranked = pipeline.rank_all_sources(train, test, whole, verbose_cfg)
    assert sorted(r.task_id for r in ranked) == list(range(cfg.s_count))
    first = next(r for r in ranked if r.task_id == 0)
    assert replace(first, f_aa=None, f_ab=None) == a
    for r in ranked:
        # the kept unit-trace diagonals give back the very same score
        assert not (r.f_aa.flags.writeable or r.f_ab.flags.writeable)
        assert fisher.tas(r.f_aa, r.f_ab) == r.score.value


def test_every_ranked_task_keeps_its_eps_record(tiny, monkeypatch):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    records = []
    build = pipeline.build_eps_approx

    def spy(*args, **kwargs):
        net, record = build(*args, **kwargs)
        records.append(record)
        return net, record

    monkeypatch.setattr(pipeline, "build_eps_approx", spy)
    ranked = pipeline.rank_all_sources(train, test, whole, cfg)
    assert len(records) == cfg.s_count  # one per source task, in task_id order
    for r in ranked:
        assert r.record is records[r.task_id]
        assert r.f_aa is None and r.f_ab is None


def test_rank_all_sources_builds_the_target_once(tiny, monkeypatch):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    want = pipeline.rank_all_sources(train, test, whole, cfg)
    gathered = []
    batch_of = tasks.batch_of

    def spy(data, rows, class_ids):
        gathered.append(data is test)
        return batch_of(data, rows, class_ids)

    monkeypatch.setattr(tasks, "batch_of", spy)
    assert pipeline.rank_all_sources(train, test, whole, cfg) == want
    # the target's rows are gathered once, then each source task's rows
    assert gathered == [True] + [False] * cfg.s_count


def test_mtas_self_task_scores_low():
    # a source task made of the target's own classes, scored against them,
    # with a tight eps-approximation: the two Fisher diagonals see the same
    # distribution, so the score should sit near zero (frozen: 0.0399)
    scfg = tasks.SyntheticConfig(4, 6, 40, 16, 6.0, 3.0, 0.2, seed=derive_seed(606, 9))
    data = tasks.make_synthetic(scfg)
    spec = nnet.NetworkSpec((16, 32, 8), 24, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=3, top_r=1, m_way=3, k_shot=5, q_query=5, epsilon=0.02,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 32, (20,), 0.1, seed=derive_seed(606, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 300, 16, seed=derive_seed(606, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 10, 4, seed=derive_seed(606, 4)),
        n_eval_episodes=10, softmax_temperature=1.0, master_seed=606,
    )
    whole = pipeline.train_whole_classifier(data, spec, cfg.whole_schedule)
    ids = [6, 7, 8]
    source = tasks.task_from_classes(data, ids, 0, derive_seed(606, 1))
    _, test_data = tasks.split_classes(data, ids)
    target = pipeline.view_target(test_data, whole, cfg)
    ranked = pipeline.mtas(source, target, data, whole, cfg)
    assert ranked.record.reached_target, "eps-approximation must genuinely reach its target"
    assert ranked.record.achieved_epsilon <= cfg.epsilon
    assert ranked.score.value < 0.05


def test_mtas_bitwise_invariant_under_class_relabeling():
    # permute which class id each group of rows carries; the task keeps the
    # same physical rows, so the score must not move by a single bit
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
    target = pipeline.view_target(test, whole, cfg)
    ids = [6, 7, 8, 9]
    source = tasks.task_from_classes(train, ids, 0, derive_seed(505, 1))
    base = pipeline.mtas(source, target, train, whole, cfg).score.value

    rng = np.random.default_rng(derive_seed(505, 8))
    seen = set()
    while len(seen) < 3:
        seen.add(tuple(int(j) for j in rng.permutation(len(ids))))
    for perm in sorted(seen):
        lut = {ids[k]: ids[perm[k]] for k in range(len(ids))}
        new_labels = np.array([lut.get(int(v), int(v)) for v in train.labels])
        relabeled = tasks.Dataset.from_arrays(train.features, new_labels)
        score = pipeline.mtas(source, target, relabeled, whole, cfg).score.value
        assert score == base, f"perm {perm}: {score!r} != {base!r}"


def test_mtas_same_family_beats_disjoint_family():
    # tasks drawn from the target's own family should score lower (more
    # related) than tasks from a disjoint family; 3 frozen trials
    for trial in range(3):
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
        target = pipeline.view_target(test, whole, cfg)
        same = tasks.task_from_classes(train, [0, 1, 2], 100, derive_seed(m, 1, 0))
        disj = tasks.task_from_classes(train, [12, 13, 14], 101, derive_seed(m, 1, 1))
        s_same = pipeline.mtas(same, target, train, whole, cfg).score.value
        s_disj = pipeline.mtas(disj, target, train, whole, cfg).score.value
        assert s_same < s_disj, f"trial {trial}: {s_same:.4f} !< {s_disj:.4f}"


def test_mtas_is_directional():
    # the score runs through the SOURCE task's approximation network, so
    # swapping the roles of two class triples moves the number (frozen gap 0.074)
    scfg = tasks.SyntheticConfig(4, 6, 40, 16, 6.0, 1.5, 0.8, seed=777)
    data = tasks.make_synthetic(scfg)
    spec = nnet.NetworkSpec((16, 32, 8), 24, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=3, top_r=1, m_way=3, k_shot=5, q_query=5, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 32, (20,), 0.1, seed=101),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=303),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 10, 4, seed=404),
        n_eval_episodes=10, softmax_temperature=1.0, master_seed=505,
    )
    whole = pipeline.train_whole_classifier(data, spec, cfg.whole_schedule)
    ids_a, ids_b = [0, 1, 2], [6, 7, 8]
    task_a = tasks.task_from_classes(data, ids_a, 0, derive_seed(606, 0))
    task_b = tasks.task_from_classes(data, ids_b, 1, derive_seed(606, 1))
    _, sub_a = tasks.split_classes(data, ids_a)
    _, sub_b = tasks.split_classes(data, ids_b)
    view_a = pipeline.view_target(sub_a, whole, cfg)
    view_b = pipeline.view_target(sub_b, whole, cfg)
    s_ab = pipeline.mtas(task_a, view_b, data, whole, cfg).score.value
    s_ba = pipeline.mtas(task_b, view_a, data, whole, cfg).score.value
    assert abs(s_ab - s_ba) > 0.01
    assert 0.0 <= s_ab <= 1.0 and 0.0 <= s_ba <= 1.0


# ---------------------------------------------------------------------------
# ranking / selection


def _rt(task_id, value, class_ids=(0, 1)):
    return pipeline.RankedTask(
        task_id, fisher.AffinityScore(value), matching.Assignment((0, 1), 0.0), class_ids,
        pipeline.EpsApproxRecord(0.0, 1, True),
    )


def _rank_with_scores(tiny, monkeypatch, values):
    """Task ids in rank_all_sources order, with mtas scoring task i as
    values[i] and the source tasks sampled in descending task_id order, so
    only the sort can put them in order."""
    train, test, _, cfg = tiny
    sample = tasks.sample_source_tasks
    monkeypatch.setattr(tasks, "sample_source_tasks", lambda *a: sample(*a)[::-1])
    monkeypatch.setattr(pipeline, "view_target", lambda *a: None)
    monkeypatch.setattr(pipeline, "mtas", lambda src, *a: _rt(src.task_id, values[src.task_id]))
    return [r.task_id for r in pipeline.rank_all_sources(train, test, None, cfg)]


def test_rank_sources_lowest_scores_win(tiny, monkeypatch):
    assert _rank_with_scores(tiny, monkeypatch, [0.3, 0.1, 0.2, 0.4])[:2] == [1, 2]


def test_rank_sources_tie_breaks_by_task_id(tiny, monkeypatch):
    assert _rank_with_scores(tiny, monkeypatch, [0.5, 0.2, 0.5, 0.5]) == [1, 0, 2, 3]


def test_related_training_set_unions_and_dedupes(tiny):
    train, _, _, _ = tiny
    selected = [_rt(0, 0.1, (0, 1)), _rt(1, 0.2, (1, 2))]
    rel = pipeline.related_training_set(selected, train)
    assert rel.label_set == (0, 1, 2)
    expect_rows = np.flatnonzero(np.isin(train.labels, [0, 1, 2]))
    np.testing.assert_array_equal(np.array(rel.row_indices), expect_rows)


def test_label_frequency_counts_memberships():
    freq = pipeline.label_frequency([_rt(0, 0.1, (1, 2)), _rt(1, 0.2, (0, 1))])
    assert freq == {0: 1, 1: 2, 2: 1}
    assert list(freq) == [0, 1, 2]


def test_tas_histogram_counts_sum_to_task_count():
    ranked = [_rt(i, v) for i, v in enumerate([0.05, 0.05, 0.33, 0.61, 0.99, 1.0])]
    edges, counts = pipeline.tas_histogram(ranked)
    assert len(edges) == pipeline.HISTOGRAM_BINS + 1
    assert len(counts) == pipeline.HISTOGRAM_BINS
    assert sum(counts) == 6
    assert counts[1] == 2  # both 0.05 values sit in the right-open bin [0.05, 0.1)
    # degenerate: all identical scores occupy exactly one bin
    edges, counts = pipeline.tas_histogram([_rt(i, 0.5) for i in range(7)])
    assert sum(counts) == 7
    assert max(counts) == 7


# ---------------------------------------------------------------------------
# phase 3: episodic loss and fine-tuning


def _toy_stack(rng, dim=4, m=2, k=2, q=3, n_ep=2):
    """Support (E, m*k, dim) and query (E, m*q, dim) features, rows grouped by slot."""
    return rng.standard_normal((n_ep, m * k, dim)), rng.standard_normal((n_ep, m * q, dim))


def test_episode_loss_matches_manual_computation():
    rng = np.random.default_rng(70)
    spec = nnet.NetworkSpec((4, 5, 3), 2, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count) * 0.6)
    m, k, q = 2, 2, 3
    xs, xq = _toy_stack(rng, m=m, k=k, q=q)
    tau = 1.7
    losses, _ = nnet._episode_grads(spec, net.params, xs, xq, k, tau)
    assert losses.shape == (2,)

    y = np.repeat(np.arange(m), q)
    for e in range(2):
        es = nnet.encode(net, xs[e])
        eq = nnet.encode(net, xq[e])
        total = 0.0
        for i in range(m * q):
            d2 = []
            for c in range(m):
                cent = es[c * k : (c + 1) * k].mean(axis=0)
                d2.append(float(np.sum((eq[i] - cent) ** 2)))
            logits = -np.array(d2) / tau
            p = np.exp(logits - logits.max())
            p /= p.sum()
            total += -np.log(p[y[i]])
        assert losses[e] == pytest.approx(total / (m * q), rel=1e-12)


def test_episode_grad_matches_central_differences():
    rng = np.random.default_rng(71)
    spec = nnet.NetworkSpec((3, 4, 3), 2, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count) * 0.5)
    k = 2
    xs, xq = _toy_stack(rng, dim=3, k=k)
    tau = 2.0
    losses, g = nnet._episode_grads(spec, net.params, xs, xq, k, tau)
    assert np.all(np.isfinite(losses)) and np.all(losses > 0)
    assert np.all(g[:, nnet.encoder_slice(spec).stop :] == 0.0)
    h = 1e-6
    p = net.params.copy()
    for i in range(p.shape[0]):
        p[i] += h
        lp, _ = nnet._episode_grads(spec, p, xs, xq, k, tau)
        p[i] -= 2 * h
        lm, _ = nnet._episode_grads(spec, p, xs, xq, k, tau)
        p[i] += h
        for e in range(2):
            fd = (lp[e] - lm[e]) / (2 * h)
            assert abs(g[e, i] - fd) / max(1.0, abs(g[e, i]), abs(fd)) < 1e-6, f"param {i}"


def test_episode_accuracy_perfect_and_tied():
    # identity-like encoder: relu(x @ [I]) with nonnegative clusters
    spec = nnet.NetworkSpec((2, 2), 2, activation="relu")
    params = np.zeros(spec.param_count)
    params[:4] = np.eye(2).ravel()
    net = nnet.Network(spec, params)
    sup = np.array([[[5.0, 0.0], [5.0, 1.0], [0.0, 5.0], [1.0, 5.0]]])  # slots 0, 0, 1, 1
    qry = np.array([[[4.0, 0.5], [0.5, 4.0]]])  # slots 0, 1

    def accuracy(n):
        return nnet.nearest_centroid(nnet.encode(n, sup), nnet.encode(n, qry), 2, 1.0)[3][0]

    assert accuracy(net) == 1.0
    # all-zero params collapse every embedding; ties resolve to class 0
    zero = nnet.Network(spec, np.zeros(spec.param_count))
    assert accuracy(zero) == 0.5  # only the label-0 query counts


@pytest.fixture(scope="module")
def overlapping():
    # the criterion-7 data: classes overlap, so the episodic loss and its
    # gradient stay far from zero and every meta-step moves the encoder
    m = derive_seed(4242, 0)
    scfg = tasks.SyntheticConfig(8, 6, 40, 16, 6.0, 2.0, 0.7, seed=derive_seed(m, 9))
    train, test = tasks.family_holdout(scfg, 0, 3)
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=3, top_r=1, m_way=3, k_shot=5, q_query=10, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 6, 32, seed=derive_seed(m, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 20, 4, seed=derive_seed(m, 4)),
        n_eval_episodes=300, softmax_temperature=4.0, master_seed=m,
    )
    labels = (0, 1, 2, 6, 7, 8)
    rows = np.flatnonzero(np.isin(train.labels, labels))
    return train, test, cfg, pipeline.RelatedSet(labels, tuple(int(r) for r in rows))


@pytest.mark.parametrize("batch_size", [1, 3, 4])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_phase_3_equals_serial_oracle_bitwise(overlapping, activation, batch_size):
    train, test, cfg, related = overlapping
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), activation)
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, batch_size=batch_size))
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    tuned, history = pipeline.episodic_finetune(whole, related, train, cfg)
    ref, ref_history = helpers.serial_episodic_finetune(whole, related, train, cfg)
    assert np.mean(history) > 0.05  # a live loss, not a vacuous comparison
    assert np.array_equal(tuned.params, ref.params)
    assert history == ref_history
    for n_eval in (1, 7, 51):  # 51 spans two evaluation stacks
        ev = replace(cfg, n_eval_episodes=n_eval)
        assert pipeline.evaluate_fewshot(tuned, test, ev) == helpers.serial_evaluate_fewshot(
            tuned, test, ev
        )


def test_episodic_finetune_restricted_to_related_labels(tiny):
    # rows of the excluded class are poisoned: touching them during episodic
    # fine-tuning would turn the parameters non-finite
    train, _, spec, cfg = tiny
    feats = train.features.copy()
    excluded = train.class_index[3]
    feats[excluded] = np.inf
    poisoned = tasks.Dataset.from_arrays(feats, train.labels)
    related = pipeline.RelatedSet(
        (0, 1, 2), tuple(int(r) for r in np.flatnonzero(train.labels < 3))
    )
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    tuned, history = pipeline.episodic_finetune(whole, related, poisoned, cfg)
    assert np.all(np.isfinite(tuned.params))
    assert len(history) == cfg.finetune_schedule.epochs
    assert all(np.isfinite(h) for h in history)


@pytest.mark.parametrize("meta_steps", [1, 7])
def test_episodic_finetune_builds_one_network_and_draws_per_meta_step(
    overlapping, monkeypatch, meta_steps
):
    train, _, cfg, related = overlapping
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, epochs=meta_steps))
    built, drawn = [], []

    def counted(obj, post_init=nnet.Network.__post_init__):
        built.append(obj)
        post_init(obj)

    def draw(data, classes, m_way, k_shot, q_query, seeds, original=tasks.draw_episodes):
        drawn.append(len(seeds))
        return original(data, classes, m_way, k_shot, q_query, seeds)

    monkeypatch.setattr(nnet.Network, "__post_init__", counted)
    monkeypatch.setattr(tasks, "draw_episodes", draw)
    tuned, history = pipeline.episodic_finetune(whole, related, train, cfg)
    assert built == [tuned]
    assert drawn == [cfg.finetune_schedule.batch_size] * meta_steps
    assert len(history) == meta_steps


def test_episodic_finetune_copies_no_dataset(overlapping, monkeypatch):
    train, _, cfg, related = overlapping
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    whole = nnet.init_network(spec, 0)
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, epochs=2))
    built = []
    from_arrays = tasks.Dataset.from_arrays
    monkeypatch.setattr(
        tasks.Dataset, "from_arrays", staticmethod(lambda *a: built.append(a) or from_arrays(*a))
    )
    pipeline.episodic_finetune(whole, related, train, cfg)
    assert built == []


def test_phase_3_and_evaluation_raise_the_preflight_error(tiny, monkeypatch):
    # class 1 keeps 5 rows where an episode needs k_shot + q_query = 6, so
    # only 1 of each two-class set qualifies for m_way = 2
    train, test, spec, cfg = tiny

    def shorten(data, cid):
        keep = [data.class_index[c][: 5 if c == cid else None] for c in data.class_ids]
        rows = np.concatenate(keep)
        return tasks.Dataset.from_arrays(data.features[rows], data.labels[rows])

    def message(call, *args):
        with pytest.raises(ValueError, match="^insufficient samples") as exc:
            call(*args)
        return str(exc.value)

    short_train, short_test = shorten(train, 1), shorten(test, 5)
    related = pipeline._related_set(short_train, (0, 1))
    monkeypatch.setattr(pipeline, "_pick_ablation_set", lambda *a: related)
    whole = nnet.init_network(spec, 0)

    preflight = message(pipeline.ablation_comparison, short_train, test, spec, cfg, ("related",))
    assert preflight == (
        "insufficient samples: only 1 training classes of the related set have >= 6 rows "
        "(k_shot + q_query), need m_way=2"
    )
    assert message(pipeline.episodic_finetune, whole, related, short_train, cfg) == preflight

    preflight = message(pipeline.ablation_comparison, train, short_test, spec, cfg, ("related",))
    assert preflight == (
        "insufficient samples: only 1 test classes have >= 6 rows (k_shot + q_query), need m_way=2"
    )
    assert message(pipeline.evaluate_fewshot, whole, short_test, cfg) == preflight


def test_episodic_finetune_deterministic(tiny):
    train, _, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    related = pipeline.RelatedSet(
        (0, 1), tuple(int(r) for r in np.flatnonzero(train.labels < 2))
    )
    a, ha = pipeline.episodic_finetune(whole, related, train, cfg)
    b, hb = pipeline.episodic_finetune(whole, related, train, cfg)
    assert np.array_equal(a.params, b.params)
    assert ha == hb


def test_episodic_finetune_improves_fewshot_on_target_family():
    # encoder tuned on the target family's training classes should beat the
    # untuned encoder on held-out classes of that family (frozen positive gaps)
    for s in range(3):
        ms = derive_seed(808, s)
        scfg = tasks.SyntheticConfig(8, 6, 40, 16, 6.0, 2.0, 0.7, seed=derive_seed(ms, 9))
        train, test = tasks.family_holdout(scfg, 0, 3)
        spec = nnet.NetworkSpec((16, 32, 8), 45, "relu")
        cfg = pipeline.PipelineConfig(
            s_count=1, n_test=3, top_r=1, m_way=3, k_shot=5, q_query=10, epsilon=0.2,
            whole_schedule=nnet.TrainSchedule(0.05, 0.9, 6, 32, (), 1.0, seed=derive_seed(ms, 0)),
            approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(ms, 3)),
            finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 300, 4, seed=derive_seed(ms, 4)),
            n_eval_episodes=100, softmax_temperature=4.0, master_seed=ms,
        )
        whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
        related = pipeline.RelatedSet(
            (0, 1, 2), tuple(int(r) for r in np.flatnonzero(np.isin(train.labels, [0, 1, 2])))
        )
        tuned, _ = pipeline.episodic_finetune(whole, related, train, cfg)
        pre, _ = pipeline.evaluate_fewshot(whole, test, cfg)
        post, _ = pipeline.evaluate_fewshot(tuned, test, cfg)
        assert post > pre, f"seed {s}: fine-tuning hurt ({pre:.4f} -> {post:.4f})"


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_fewshot_perfect_on_separated_clusters():
    # distance-preserving encoder: relu(x @ [I | -I]) splits each coordinate
    # into its positive and negative part
    scfg = tasks.SyntheticConfig(5, 1, 12, 6, 6.0, 0.0, 0.01, seed=derive_seed(909, 9))
    data = tasks.make_synthetic(scfg)
    d = 6
    spec = nnet.NetworkSpec((d, 2 * d), 2, activation="relu")
    params = np.zeros(spec.param_count)
    w = np.zeros((d, 2 * d))
    w[:, :d] = np.eye(d)
    w[:, d:] = -np.eye(d)
    params[: d * 2 * d] = w.ravel()
    net = nnet.Network(spec, params)
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=3, top_r=1, m_way=3, k_shot=3, q_query=3, epsilon=0.5,
        whole_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        approx_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        finetune_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        n_eval_episodes=8, softmax_temperature=1.0, master_seed=909,
    )
    mean, ci = pipeline.evaluate_fewshot(net, data, cfg)
    assert mean == 1.0
    assert ci == 0.0


def test_evaluate_fewshot_untrained_sits_at_chance():
    # random features, random net: 5-way accuracy lands near 1/5 (frozen 0.196)
    rng = np.random.default_rng(99)
    data = tasks.Dataset.from_arrays(
        rng.standard_normal((600, 12)), np.repeat(np.arange(6), 100)
    )
    net = nnet.init_network(nnet.NetworkSpec((12, 16, 8), 6, "relu"), 5)
    cfg = pipeline.PipelineConfig(
        s_count=1, n_test=5, top_r=1, m_way=5, k_shot=5, q_query=5, epsilon=0.5,
        whole_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        approx_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        finetune_schedule=nnet.TrainSchedule(0.1, 0.0, 1, 8, seed=0),
        n_eval_episodes=500, softmax_temperature=1.0, master_seed=1234,
    )
    mean, ci = pipeline.evaluate_fewshot(net, data, cfg)
    assert abs(mean - 0.2) < 0.05
    assert 0 < ci < 0.02
    again, _ = pipeline.evaluate_fewshot(net, data, cfg)
    assert again == mean


def test_evaluate_fewshot_single_episode_has_zero_ci(tiny):
    train, test, spec, cfg = tiny
    from dataclasses import replace
    one = replace(cfg, n_eval_episodes=1)
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    _, ci = pipeline.evaluate_fewshot(whole, test, one)
    assert ci == 0.0


# ---------------------------------------------------------------------------
# full runs and reports


def test_run_full_report_structure(tiny, tiny_run):
    train, test, spec, cfg = tiny
    rep = tiny_run
    assert rep.ablation_mode == "related"
    assert len(rep.scores) == cfg.s_count
    values = [r.score.value for r in rep.scores]
    assert values == sorted(values)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
    assert sum(rep.tas_histogram[1]) == cfg.s_count
    assert 0.0 <= rep.fewshot_accuracy_mean <= 1.0
    assert rep.fewshot_ci95 >= 0.0
    assert set(rep.label_frequency) <= set(train.class_ids)
    assert set(rep.selected_labels.label_set) <= set(train.class_ids)
    rows = np.array(rep.selected_labels.row_indices)
    np.testing.assert_array_equal(
        np.sort(np.unique(train.labels[rows])), np.array(rep.selected_labels.label_set)
    )
    for key in ("whole_train_s", "rank_s", "finetune_s", "eval_s"):
        assert rep.timings[key] >= 0.0


def test_ablation_comparison_matches_individual_runs(tiny):
    train, test, spec, cfg = tiny
    combined = pipeline.ablation_comparison(train, test, spec, cfg)
    assert list(combined) == list(pipeline.ABLATION_MODES)
    for mode in pipeline.ABLATION_MODES:
        single = pipeline.ablation_comparison(train, test, spec, cfg, (mode,))
        assert list(single) == [mode]
        single = single[mode]
        assert combined[mode].ablation_mode == single.ablation_mode == mode
        assert combined[mode].scores == single.scores
        assert combined[mode].selected_labels == single.selected_labels
        assert combined[mode].fewshot_accuracy_mean == single.fewshot_accuracy_mean
        assert combined[mode].fewshot_ci95 == single.fewshot_ci95
        assert combined[mode].label_frequency == single.label_frequency
        assert combined[mode].tas_histogram == single.tas_histogram


@pytest.mark.parametrize(
    "change,train_rows,modes,match",
    [
        ({}, None, ("related", "shuffled"), "unknown ablation mode 'shuffled'"),
        ({"q_query": 60}, None, ("related",), "insufficient samples"),
        ({"n_test": 3}, None, pipeline.ABLATION_MODES, "n_test=3"),
        # the test split still holds 12 rows per class, phase 3 needs 6
        ({}, 5, ("related",), "only 0 training classes have >= 6 rows"),
    ],
    ids=["unknown_mode", "oversized_episodes", "wrong_n_test", "short_training_classes"],
)
def test_ablation_bad_inputs_fail_before_phase_1(
    tiny, monkeypatch, change, train_rows, modes, match
):
    train, test, spec, cfg = tiny
    if train_rows is not None:
        rows = np.concatenate([train.class_index[c][:train_rows] for c in train.class_ids])
        train = tasks.Dataset.from_arrays(train.features[rows], train.labels[rows])

    def never(*args):
        raise AssertionError("whole-classifier training started")

    monkeypatch.setattr(pipeline, "train_whole_classifier", never)
    with pytest.raises(ValueError, match=match):
        pipeline.ablation_comparison(train, test, spec, replace(cfg, **change), modes)


def test_ablation_short_mode_set_fails_before_any_fine_tune(tiny, monkeypatch):
    # a one-class random set cannot hold an m_way = 2 episode: the run stops
    # after ranking, naming the mode, before related is fine-tuned
    train, test, spec, cfg = tiny
    pick = pipeline._pick_ablation_set

    def short_random(mode, ordered, train, cfg):
        chosen = pick(mode, ordered, train, cfg)
        if mode != "random":
            return chosen
        return pipeline._related_set(train, chosen.label_set[:1])

    calls = []
    finetune = pipeline.episodic_finetune
    monkeypatch.setattr(pipeline, "_pick_ablation_set", short_random)
    monkeypatch.setattr(pipeline, "episodic_finetune", lambda *a: calls.append(a) or finetune(*a))
    with pytest.raises(ValueError, match=(
        r"^insufficient samples: only 1 training classes of the random set have >= 6 rows"
    )):
        pipeline.ablation_comparison(train, test, spec, cfg)
    assert calls == []


def test_ablation_random_mode_is_deterministic_and_sized(tiny):
    train, test, spec, cfg = tiny
    a = pipeline.ablation_comparison(train, test, spec, cfg, ("random",))["random"]
    b = pipeline.ablation_comparison(train, test, spec, cfg, ("random", "related"))
    assert a.selected_labels == b["random"].selected_labels
    assert len(a.selected_labels.label_set) == len(b["related"].selected_labels.label_set)


def test_ablation_modes_coincide_when_every_task_uses_all_classes():
    # train split has exactly n_test classes, so every source task, the
    # non-related tail and the random draw all cover the same label set
    scfg = tasks.SyntheticConfig(6, 1, 12, 6, 5.0, 1.0, 0.4, seed=derive_seed(1002, 9))
    data = tasks.make_synthetic(scfg)
    train, test = tasks.split_classes(data, [3, 4, 5])
    spec = nnet.NetworkSpec((6, 8, 4), 3, "relu")
    cfg = pipeline.PipelineConfig(
        s_count=3, n_test=3, top_r=1, m_way=3, k_shot=3, q_query=3, epsilon=0.3,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 8, 16, seed=derive_seed(1002, 0)),
        approx_schedule=nnet.TrainSchedule(0.05, 0.9, 3, 8, seed=derive_seed(1002, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 3, 2, seed=derive_seed(1002, 4)),
        n_eval_episodes=5, softmax_temperature=2.0, master_seed=1002,
    )
    combined = pipeline.ablation_comparison(train, test, spec, cfg)
    ref = combined["related"]
    assert ref.selected_labels.label_set == (0, 1, 2)
    for mode in ("non_related", "random"):
        assert combined[mode].selected_labels == ref.selected_labels
        assert combined[mode].fewshot_accuracy_mean == ref.fewshot_accuracy_mean
        assert combined[mode].scores == ref.scores


def test_report_doc_round_trip(tiny_run):
    doc = cli.report_to_doc(tiny_run)
    wire = json.loads(json.dumps(doc, sort_keys=True))
    assert wire == doc
    # every field of the report, and nothing else, is in its JSON form
    assert wire == {
        "ablation_mode": tiny_run.ablation_mode,
        "scores": [cli.score_row(r) for r in tiny_run.scores],
        "selected_labels": {
            "label_set": list(tiny_run.selected_labels.label_set),
            "row_indices": list(tiny_run.selected_labels.row_indices),
        },
        "tas_histogram": {
            "edges": list(tiny_run.tas_histogram[0]),
            "counts": list(tiny_run.tas_histogram[1]),
        },
        "label_frequency": {str(k): v for k, v in tiny_run.label_frequency.items()},
        "fewshot_accuracy_mean": tiny_run.fewshot_accuracy_mean,
        "fewshot_ci95": tiny_run.fewshot_ci95,
        "timings": tiny_run.timings,
    }

"""Three-phase pipeline: affinity scoring, selection, episodic fine-tuning."""

import json
import os
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import helpers
from taskaffinity import cli, config as cfgmod, fisher, matching, nnet, pipeline, tasks
from taskaffinity.seeding import derive_seed

ablation_sweep = helpers.script("ablation_sweep")
relatedness_check = helpers.script("relatedness_check")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


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
    with pytest.raises(ValueError, match="^m_way must be >= 2: an episode tells"):
        replace(cfg, m_way=1)


# ---------------------------------------------------------------------------
# phase 1


def test_whole_train_batch_compresses_labels_to_slots():
    data = tasks.Dataset.from_arrays(
        np.zeros((6, 2)), np.array([5, 9, 5, 7, 9, 7])
    )
    batch = tasks.batch_of(data)
    np.testing.assert_array_equal(batch.labels, [0, 2, 0, 1, 2, 1])
    np.testing.assert_array_equal(batch.features, data.features)


def test_train_whole_classifier_fits_and_is_deterministic(tiny):
    train, _, spec, cfg = tiny
    a = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    b = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    assert np.array_equal(a.params, b.params)
    acc = helpers.accuracy(a, tasks.batch_of(train))
    assert acc > 0.9, f"whole classifier underfits its own training set: {acc}"


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
    (task,) = helpers.task_records(
        tasks.task_from_classes(train, [0, 1], 0, seed=derive_seed(1005, 1, 0)))
    sup = helpers.slot_batch(train, task.support_rows, task.class_ids)
    qry = helpers.slot_batch(train, task.query_rows, task.class_ids)
    return whole, sup, qry, cfg


def _eps_approx(whole, sup, qry, cfg, head_seed, train_seed):
    """pipeline.build_eps_approx of one task, its batches' rows the only rows,
    trained alone in the pool."""
    rows = np.arange(sup.n + qry.n)
    job = nnet.PoolJob(0, head_seed, train_seed, rows[: sup.n], sup.labels, rows[sup.n :],
                       qry.labels)
    features = np.concatenate([sup.features, qry.features])
    (slot,) = nnet.train_pool(whole, cfg.n_test, features, [job], cfg.approx_schedule,
                              1.0 - cfg.epsilon, 1)
    return pipeline.build_eps_approx(slot, cfg)


def test_build_eps_approx_reaches_target_on_easy_task(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    net, record = _eps_approx(whole, sup, qry, cfg, head_seed=1, train_seed=2)
    ref, ref_record = helpers.serial_eps_approx(whole, sup, qry, cfg, head_seed=1, train_seed=2)
    assert (record, net.spec) == (ref_record, ref.spec) and np.array_equal(net.params, ref.params)
    assert record.reached_target
    assert record.achieved_epsilon <= cfg.epsilon
    assert 1 <= record.epochs_used <= cfg.approx_schedule.epochs
    assert net.spec.head_classes == cfg.n_test


def test_build_eps_approx_loose_target_stops_after_one_epoch(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    from dataclasses import replace
    loose = replace(cfg, epsilon=0.99)
    _, record = _eps_approx(whole, sup, qry, loose, head_seed=1, train_seed=2)
    assert record.epochs_used == 1
    assert record.reached_target


def test_build_eps_approx_zero_epochs_keeps_encoder(tiny):
    whole, sup, qry, cfg = _approx_inputs(tiny)
    from dataclasses import replace
    frozen = replace(cfg, approx_schedule=replace(cfg.approx_schedule, epochs=0))
    net, record = _eps_approx(whole, sup, qry, frozen, head_seed=3, train_seed=4)
    assert record.epochs_used == 0
    sl = nnet.encoder_slice(whole.spec)
    assert np.array_equal(net.params[sl], whole.params[sl])


def test_mtas_requires_matching_class_counts(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    view = pipeline.view_target(test, whole, cfg)
    bad = tasks.task_from_classes(train, [0, 1, 2], 0, seed=5)
    with pytest.raises(ValueError, match="source must have n_test"):
        pipeline.rank_all_sources(bad, view, train, whole, cfg)
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
    # bad source rows, or a non-finite centroid, fail in the matching block,
    # before any task's epsilon-approximation starts
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    view = pipeline.view_target(test, whole, cfg)
    sources = helpers.sampled_sources(train, cfg)[::-1]  # list index != task_id
    rows = train.class_index[0]
    empty_class = helpers.TaskSpec(9, (0, 1), tuple(rows[:6]), tuple(rows[6:]))

    def never(*args, **kwargs):
        raise AssertionError("epsilon-approximation training started")

    monkeypatch.setattr(pipeline, "build_eps_approx", never)
    with pytest.raises(ValueError, match=r"^source task 9 matching: "):
        pipeline.rank_all_sources(helpers.block_of(sources[:2] + [empty_class]), view, train,
                                  whole, cfg)

    # one training row embeds to NaN: the first task holding it is named
    poisoned = train.features[train.class_index[sources[-1].class_ids[0]][0]]
    named = next(s for s in sources if sources[-1].class_ids[0] in s.class_ids)
    assert named.task_id != sources.index(named)
    encode = nnet.encode

    def nan_row(net, x):
        out = encode(net, x)
        out[(x == poisoned).all(axis=1)] = np.nan
        return out

    monkeypatch.setattr(nnet, "encode", nan_row)
    with pytest.raises(ValueError, match=(
        rf"^source task {named.task_id} matching: cost matrix {sources.index(named)}: "
        r"cost entries must be finite$"
    )):
        pipeline.rank_all_sources(helpers.block_of(sources), view, train, whole, cfg)


def test_mtas_overflowing_fisher_names_the_task_and_epochs(tiny, monkeypatch):
    # a diverged approximation can keep finite parameters and still overflow
    # in its Fisher diagonal; the error names the task and its epoch count
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    source_tasks = helpers.sampled_sources(train, cfg)
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
            pipeline.rank_all_sources(helpers.block_of(source_tasks[1:2]), view, train, whole,
                                      cfg)


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
    source_tasks = helpers.sampled_sources(train, cfg)
    view = pipeline.view_target(test, whole, cfg)
    seen = {}
    build = pipeline.build_eps_approx

    def spy(slot, *args, **kwargs):
        # the task's rows as the pool trained and scored them; tasks leave in
        # the pool's order, so each is keyed by its index in source_tasks
        assert slot.job.key not in seen
        seen[slot.job.key] = ((slot.job.support_rows, slot.job.support_labels),
                              (slot.job.query_rows, slot.job.query_labels))
        return build(slot, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_eps_approx", spy)
    block = helpers.block_of(source_tasks)
    ranked = {r.task_id: r for r in pipeline.rank_all_sources(block, view, train, whole, cfg)}
    assert sorted(seen) == list(range(len(source_tasks)))
    mappings = set()
    for i, source in enumerate(source_tasks):
        assert ranked[source.task_id].class_ids == source.class_ids
        mapping = ranked[source.task_id].assignment.mapping
        mappings.add(mapping)
        for (rows, labels), want_rows in zip(seen[i], (source.support_rows, source.query_rows)):
            want = [mapping[source.class_ids.index(train.labels[r])] for r in want_rows]
            np.testing.assert_array_equal(labels, want)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(train.features[rows], train.features[list(want_rows)])
    assert len(mappings) > 1, "every task got the same mapping; the check is too weak"


def test_mtas_deterministic_and_diagnostics_agree(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    source_tasks = helpers.sampled_sources(train, cfg)
    view = pipeline.view_target(test, whole, cfg)
    first = helpers.block_of(source_tasks[:1])
    (a,) = pipeline.rank_all_sources(first, view, train, whole, cfg)
    (b,) = pipeline.rank_all_sources(first, view, train, whole, cfg)
    assert a == b
    assert a.f_aa is None and a.f_ab is None
    assert 0.0 <= a.score.value <= 1.0 + 1e-12
    verbose_cfg = replace(cfg, verbose_fisher=True)
    ranked = helpers.rank(train, test, whole, verbose_cfg)
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
    sources = helpers.sampled_sources(train, cfg)

    def spy(slot, *args, **kwargs):
        net, record = build(slot, *args, **kwargs)
        records.append((sources[slot.job.key].task_id, record))
        return net, record

    monkeypatch.setattr(pipeline, "build_eps_approx", spy)
    ranked = helpers.rank(train, test, whole, cfg)
    # one per source task, in the order tasks leave the pool
    assert sorted(task_id for task_id, _ in records) == list(range(cfg.s_count))
    records = dict(records)
    for r in ranked:
        assert r.record is records[r.task_id]
        assert r.f_aa is None and r.f_ab is None


def test_ranked_task_traces_are_the_raw_fisher_sums(tiny, monkeypatch):
    train, test, spec, cfg = tiny
    cfg = replace(cfg, s_count=12)  # two chunks
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    sources = helpers.sampled_sources(train, cfg)
    chunks, diags = [], []
    diag, mtas = nnet.fisher_diag, pipeline.mtas

    def spy_diag(*args):
        out = diag(*args)
        diags.append(out.copy())
        return out

    def spy_mtas(slots, *args):
        chunks.append([sources[slot.job.key].task_id for slot in slots])
        return mtas(slots, *args)

    monkeypatch.setattr(nnet, "fisher_diag", spy_diag)
    monkeypatch.setattr(pipeline, "mtas", spy_mtas)
    ranked = helpers.rank(train, test, whole, cfg)
    assert [len(c) for c in chunks] == [pipeline.SCORE_CHUNK, cfg.s_count - pipeline.SCORE_CHUNK]
    assert len(diags) == 2 * len(chunks)  # source query, then target, per chunk
    rows = {task_id: (c, j) for c, chunk in enumerate(chunks) for j, task_id in enumerate(chunk)}
    for r in ranked:
        c, j = rows[r.task_id]
        raw_aa, raw_ab = diags[2 * c][j], diags[2 * c + 1][j]
        assert (r.trace_aa, r.trace_ab) == (float(raw_aa.sum()), float(raw_ab.sum()))
        assert r.trace_aa > 0 and r.trace_ab > 0
        # the score is the one the unit-trace diagonals of those sums give
        assert r.score.value == fisher.tas(fisher.unit_trace(raw_aa), fisher.unit_trace(raw_ab))


def test_rank_all_sources_builds_the_target_once(tiny, monkeypatch):
    # the target's rows are gathered once; the source tasks' rows are
    # chunks of one encode of the training set, matched by one hungarian call
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    want = helpers.rank(train, test, whole, cfg)
    calls = {"batch_of": [], "encode": 0, "hungarian": 0}
    batch_of, encode, hungarian = tasks.batch_of, nnet.encode, matching.hungarian

    def spy_batch_of(data):
        calls["batch_of"].append(data is test)
        return batch_of(data)

    def spy_encode(net, x):
        calls["encode"] += 1
        return encode(net, x)

    def spy_hungarian(cost):
        calls["hungarian"] += 1
        return hungarian(cost)

    monkeypatch.setattr(tasks, "batch_of", spy_batch_of)
    monkeypatch.setattr(nnet, "encode", spy_encode)
    monkeypatch.setattr(matching, "hungarian", spy_hungarian)
    monkeypatch.setattr(pipeline, "ENCODE_CHUNK", 10)
    assert helpers.rank(train, test, whole, cfg) == want
    # one encode for the target's rows, one per 10-row chunk of the training set
    n_chunks = len(range(0, train.n, 10))
    assert calls == {"batch_of": [True], "encode": 1 + n_chunks, "hungarian": 1}


@pytest.fixture(scope="module")
def tas_json():
    """configs/tas.json's data, its whole network trained, its pipeline with
    verbose_fisher on so the diagonals are compared too, its source tasks and
    target side, and the serial oracle's ranking and epsilon-approximation
    parameters by task id."""
    with open(os.path.join(ROOT, "configs", "tas.json")) as fh:
        job = cfgmod.parse(cfgmod.PipelineJob, json.load(fh))
    train, test = tasks.family_holdout(
        job.data.synthetic, job.data.target_family, job.data.n_test_classes
    )
    spec = nnet.NetworkSpec(job.layer_widths, len(train.class_ids), job.activation)
    whole = pipeline.train_whole_classifier(train, spec, job.pipeline.whole_schedule)
    cfg = replace(job.pipeline, verbose_fisher=True)
    sources = helpers.sampled_sources(train, cfg)
    target = pipeline.view_target(test, whole, cfg)
    params = {}
    ranked = helpers.serial_rank(sources, target, train, whole, cfg, params)
    return train, test, whole, cfg, sources, ranked, params


@pytest.mark.parametrize("setting", ["tiny", "tas_json"])
def test_rank_all_sources_equals_serial_oracle_bitwise(tiny, setting, request):
    if setting == "tiny":
        train, test, spec, cfg = tiny
        cfg = replace(cfg, verbose_fisher=True)
        whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
        sources = helpers.sampled_sources(train, cfg)
        want = helpers.serial_rank(sources, pipeline.view_target(test, whole, cfg), train, whole,
                                   cfg)
    else:
        train, test, whole, cfg, sources, want, _ = request.getfixturevalue("tas_json")
    target = pipeline.view_target(test, whole, cfg)
    got = pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    assert len(got) == cfg.s_count
    assert helpers.ranked_fields(got) == helpers.ranked_fields(want)


def _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, slots, want=None):
    """rank_all_sources with slots pool slots gives the serial oracle's
    scores, records, diagonals and epsilon-approximation parameters bit for
    bit (want: the oracle's ranking and parameters by task id, if computed
    already); returns the ranking."""
    monkeypatch.setattr(pipeline, "POOL_SLOTS", slots)
    got_params, build = {}, pipeline.build_eps_approx

    def spy(slot, *args):
        net, record = build(slot, *args)
        got_params[sources[slot.job.key].task_id] = net.params
        return net, record

    monkeypatch.setattr(pipeline, "build_eps_approx", spy)
    target = pipeline.view_target(test, whole, cfg)
    got = pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    if want is None:
        want_params = {}
        want = helpers.serial_rank(sources, target, train, whole, cfg, want_params), want_params
    assert helpers.ranked_fields(got) == helpers.ranked_fields(want[0])
    assert sorted(got_params) == sorted(want[1]) == sorted(s.task_id for s in sources)
    for task_id, params in want[1].items():
        assert np.array_equal(got_params[task_id], params), task_id
    return got


@pytest.mark.parametrize("slots", [1, 3, pipeline.POOL_SLOTS])
def test_pool_equals_serial_eps_approx_on_tas_json_bitwise(tas_json, monkeypatch, slots):
    train, test, whole, cfg, sources, want, want_params = tas_json
    got = _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, slots,
                                 (want, want_params))
    assert sum(not r.record.reached_target for r in got) == 9  # misses run all 30 epochs
    assert {r.record.epochs_used for r in got if not r.record.reached_target} == {30}


def _tiny_sources(tiny):
    """Twelve source tasks of the tiny setting, its test set, training set,
    whole network and config, with verbose_fisher on."""
    train, test, spec, cfg = tiny
    cfg = replace(cfg, s_count=12, verbose_fisher=True)
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    return helpers.sampled_sources(train, cfg), test, train, whole, cfg


def test_pool_groups_tasks_of_unequal_row_counts_bitwise(tiny, monkeypatch):
    # every third task one support row short, the next one query row short:
    # three pools, each refilled through two slots
    sources, test, train, whole, cfg = _tiny_sources(tiny)
    sources = [
        s if i % 3 == 0
        else replace(s, support_rows=s.support_rows[:-1]) if i % 3 == 1
        else replace(s, query_rows=s.query_rows[:-1])
        for i, s in enumerate(sources)
    ]
    shapes = {(len(s.support_rows), len(s.query_rows)) for s in sources}
    assert len(shapes) == 3 and len({n for n, _ in shapes}) == 2
    _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, 2)


def test_pool_with_zero_epochs_scores_the_fresh_heads_bitwise(tiny, monkeypatch):
    sources, test, train, whole, cfg = _tiny_sources(tiny)
    cfg = replace(cfg, approx_schedule=replace(cfg.approx_schedule, epochs=0))
    got = _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, 3)
    assert {r.record.epochs_used for r in got} == {0}


def test_pool_rows_at_different_epochs_keep_their_own_learning_rates(tiny, monkeypatch):
    sources, test, train, whole, cfg = _tiny_sources(tiny)
    cfg = replace(cfg, epsilon=0.05, approx_schedule=replace(
        cfg.approx_schedule, epochs=10, lr_decay_epochs=(1, 3), lr_decay_factor=0.5))
    rates, descend = [], nnet._descend

    def spy(params, velocity, g, lr, *args):
        rates.append(np.unique(lr).size)
        return descend(params, velocity, g, lr, *args)

    monkeypatch.setattr(nnet, "_descend", spy)
    got = _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, 3)
    assert max(rates) > 1  # some pass stepped rows at different learning rates
    assert len({r.record.epochs_used for r in got}) > 1


@pytest.mark.parametrize("picked,slots,failing,named", [
    # task 3's Fisher diagonal fails after one epoch, before task 1's
    # approximation overflows in its second epoch; alone in one slot, task 1
    # fails before task 3 enters
    ((1, 3), 2, [1, 0],
     "source task 1 eps-approximation: training left non-finite parameters in epoch 1"),
    ((1, 3), 1, [0],
     "source task 1 eps-approximation: training left non-finite parameters in epoch 1"),
    # tasks 3 and 5 fail first; task 2's Fisher diagonal fails after ten epochs
    ((2, 3, 5), 3, [1, 2, 0], "source task 2 Fisher diagonal after 10 eps-approximation "
                              "epochs: entries must be finite and nonnegative"),
])
def test_pool_failures_name_the_first_failing_task(tiny, monkeypatch, picked, slots, failing,
                                                   named):
    sources, test, train, whole, cfg = _tiny_sources(tiny)
    cfg = replace(cfg, epsilon=0.01,
                  approx_schedule=replace(cfg.approx_schedule, learning_rate=1e40))
    sources = [sources[i] for i in picked]
    target = pipeline.view_target(test, whole, cfg)
    with pytest.raises(ValueError) as serial:
        helpers.serial_rank(sources, target, train, whole, cfg)
    assert str(serial.value) == named
    events, job, mtas = [], nnet.PoolJob, pipeline.mtas

    def entering(key, *args):
        events.append(("enter", key))
        return job(key, *args)

    def leaving(slots, *args):
        scored, errors = mtas(slots, *args)
        events.extend(("failed", slot.job.key) for slot in slots if slot.job.key in errors)
        return scored, errors

    monkeypatch.setattr(nnet, "PoolJob", entering)
    monkeypatch.setattr(pipeline, "mtas", leaving)
    monkeypatch.setattr(pipeline, "POOL_SLOTS", slots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the checks report, not numpy
        with pytest.raises(ValueError) as pooled:
            pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    assert str(pooled.value) == named
    assert [key for kind, key in events if kind == "failed"] == failing
    for i, (kind, key) in enumerate(events):  # no later task enters after a failure
        if kind == "enter":
            assert all(key < k for what, k in events[:i] if what == "failed")


def _chunks_spy(monkeypatch, sources):
    """Spies on pipeline.mtas: the list it returns gets, per call, the
    indices in sources of the chunk's tasks, in the order they left the pool."""
    chunks, mtas = [], pipeline.mtas

    def spy(slots, *args):
        chunks.append([slot.job.key for slot in slots])
        return mtas(slots, *args)

    monkeypatch.setattr(pipeline, "mtas", spy)
    return chunks


@pytest.mark.parametrize("verbose", [True, False])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 200])
def test_chunked_ranking_equals_serial_oracle_bitwise(tas_json, monkeypatch, n, verbose):
    train, test, whole, cfg, sources, want, _ = tas_json
    cfg, sources = replace(cfg, verbose_fisher=verbose), sources[:n]
    ids = {s.task_id for s in sources}
    want = [r if verbose else replace(r, f_aa=None, f_ab=None) for r in want if r.task_id in ids]
    chunks = _chunks_spy(monkeypatch, sources)
    target = pipeline.view_target(test, whole, cfg)
    got = pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    assert helpers.ranked_fields(got) == helpers.ranked_fields(want)
    full, rest = divmod(n, pipeline.SCORE_CHUNK)  # one pool: chunks of 8, then the rest
    assert [len(c) for c in chunks] == [pipeline.SCORE_CHUNK] * full + [rest] * (rest > 0)
    assert sorted(k for c in chunks for k in c) == list(range(n))


def test_no_fisher_pass_stacks_more_than_a_score_chunk(tas_json, monkeypatch):
    # the memory bound: at most SCORE_CHUNK networks per Fisher pass, and
    # the target's rows given once, not copied per network
    train, test, whole, cfg, sources, _, _ = tas_json
    calls, diag = [], nnet.fisher_diag

    def spy(spec, params, features, labels, work=None):
        calls.append((params.shape[0], features.ndim, labels.ndim))
        return diag(spec, params, features, labels, work)

    monkeypatch.setattr(nnet, "fisher_diag", spy)
    target = pipeline.view_target(test, whole, cfg)
    pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    chunks = -(-len(sources) // pipeline.SCORE_CHUNK)
    assert len(calls) == 2 * chunks
    assert max(size for size, _, _ in calls) == pipeline.SCORE_CHUNK
    assert calls[0::2] == [(size, 3, 2) for size, _, _ in calls[0::2]]  # source query rows
    assert calls[1::2] == [(size, 2, 1) for size, _, _ in calls[1::2]]  # the shared target


def test_tasks_of_different_row_counts_never_share_a_chunk(tiny, monkeypatch):
    # 27 tasks in three pools of nine: full, one support row short, one query
    # row short; the first two pools share their query row count, and each
    # pool's chunks end with it
    sources, test, train, whole, cfg = _tiny_sources(tiny)
    sources = helpers.sampled_sources(train, replace(cfg, s_count=27))
    sources = [
        s if i % 3 == 0
        else replace(s, support_rows=s.support_rows[:-1]) if i % 3 == 1
        else replace(s, query_rows=s.query_rows[:-1])
        for i, s in enumerate(sources)
    ]
    chunks = _chunks_spy(monkeypatch, sources)
    _assert_pool_is_serial(monkeypatch, sources, test, train, whole, cfg, 3)
    assert [len(c) for c in chunks] == [pipeline.SCORE_CHUNK, 1] * 3
    for c in chunks:
        assert len({(len(sources[k].support_rows), len(sources[k].query_rows)) for k in c}) == 1


def _poison_fisher(monkeypatch, params, target_rows, poison):
    """Makes nnet.fisher_diag degenerate for each (task_id, side) in poison,
    for the pipeline and the serial oracle alike: on the source query side
    ("aa") one negative entry, on the target side ("ab") all zeros.  Each
    network is known by its parameters, params by task id; the target side
    by its target_rows feature rows."""
    task_of = {p.tobytes(): task_id for task_id, p in params.items()}
    diag = nnet.fisher_diag

    def spy(spec, stack, features, labels, work=None):
        out = diag(spec, stack, features, labels, work)
        side = "ab" if features.shape[-2] == target_rows else "aa"
        for k, p in enumerate(stack):
            if (task_of[p.tobytes()], side) in poison:
                out[k, : 1 if side == "aa" else None] = -1.0 if side == "aa" else 0.0
        return out

    monkeypatch.setattr(nnet, "fisher_diag", spy)


@pytest.mark.parametrize("late,early", [
    (("aa",), ("aa",)),  # two tasks failing on the source side
    (("aa",), ("ab",)),  # source side beside target side, either way round
    (("ab",), ("aa",)),
    (("ab",), ("aa", "ab")),  # a task failing on both sides names its source side
])
def test_fisher_failures_in_one_chunk_name_the_first_task_in_sources_order(
        tas_json, monkeypatch, late, early):
    # two tasks of the first chunk fail, the one later in sources order
    # leaving the pool first: the error is the earlier one's, as serially
    train, test, whole, cfg, sources, _, params = tas_json
    sources = sources[:9]
    chunks = _chunks_spy(monkeypatch, sources)
    target = pipeline.view_target(test, whole, cfg)
    pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    first = chunks[0]
    hi, lo = next((a, b) for i, a in enumerate(first) for b in first[i + 1 :] if a > b)
    assert test.n not in {len(s.query_rows) for s in sources}
    poison = {(sources[hi].task_id, side) for side in late}
    poison |= {(sources[lo].task_id, side) for side in early}
    _poison_fisher(monkeypatch, params, test.n, poison)
    with pytest.raises(ValueError) as serial:
        helpers.serial_rank(sources, target, train, whole, cfg)
    reason = ("entries must be finite and nonnegative" if early[0] == "aa"
              else "cannot normalize an all-zero Fisher diagonal")
    assert str(serial.value).startswith(f"source task {sources[lo].task_id} Fisher diagonal after ")
    assert str(serial.value).endswith(f" eps-approximation epochs: {reason}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as chunked:
            pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    assert str(chunked.value) == str(serial.value)


def test_a_fisher_failure_stops_later_tasks_entering_once_its_chunk_is_scored(
        tas_json, monkeypatch):
    # 40 tasks share one pool of POOL_SLOTS; the first task to leave fails on
    # its source side, so once the first chunk is scored no task enters and
    # the pool drains without the rest of the sources
    train, test, whole, cfg, sources, _, params = tas_json
    sources, target = sources[:40], pipeline.view_target(test, whole, cfg)
    assert len({(len(s.support_rows), len(s.query_rows)) for s in sources}) == 1
    chunks = _chunks_spy(monkeypatch, sources)
    pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    bad, clean = chunks[0][0], len(chunks)
    _poison_fisher(monkeypatch, params, test.n, {(sources[bad].task_id, "aa")})
    events, job, mtas = [], nnet.PoolJob, pipeline.mtas

    def entering(key, *args):
        events.append(("enter", key))
        return job(key, *args)

    def leaving(slots, *args):
        scored, errors = mtas(slots, *args)
        events.extend(("failed", key) for key in errors)
        return scored, errors

    monkeypatch.setattr(nnet, "PoolJob", entering)
    monkeypatch.setattr(pipeline, "mtas", leaving)
    with pytest.raises(ValueError) as exc:
        pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    assert str(exc.value).startswith(f"source task {sources[bad].task_id} Fisher diagonal after ")
    assert chunks[clean] == chunks[0]  # the poisoned run leaves in the same order
    failed = events.index(("failed", bad))
    entered = [key for kind, key in events if kind == "enter"]
    assert entered == list(range(len(entered))) and len(entered) < len(sources)
    assert all(kind != "enter" for kind, _ in events[failed:])


def test_mtas_through_one_held_work_dict_equals_the_allocating_path(tas_json, monkeypatch):
    # one dict through a chunk, then through the same chunk with a
    # degenerate Fisher row, which takes mtas's np.delete retry: the same
    # scores, diagonals and error as scoring without a dict
    train, test, whole, cfg, sources, _, params = tas_json
    sources, target = sources[:pipeline.SCORE_CHUNK], pipeline.view_target(test, whole, cfg)
    block = helpers.block_of(sources)
    groups = tasks.task_slots(train, block)
    assignments = pipeline._match_sources(block, groups, target, train, whole, cfg)
    (slots,) = pipeline._approximations(block, groups, assignments, train, whole, cfg, {})
    args, work = (block, assignments, target, train, cfg), {}
    for poison in (set(), {(sources[slots[3].job.key].task_id, "aa")}):
        _poison_fisher(monkeypatch, params, test.n, poison)
        got, got_errors = pipeline.mtas(slots, *args, work)
        want, want_errors = pipeline.mtas(slots, *args)
        assert helpers.ranked_fields(got) == helpers.ranked_fields(want)
        assert len(got) == len(slots) - len(poison)
        assert {k: str(e) for k, e in got_errors.items()} == {
            k: str(e) for k, e in want_errors.items()}
    assert list(got_errors) == [slots[3].job.key]
    assert str(got_errors[slots[3].job.key]).startswith(
        f"source task {sources[slots[3].job.key].task_id} Fisher diagonal after ")


def _spy_fisher_work(monkeypatch):
    """Spies on nnet.fisher_diag.  The list it returns gets, per call, the id
    of its work dict, its stack size and feature shape, and how many buffers
    work held before and after it; the dict maps (dict id, key) to a weak
    reference to work's buffer under key, which must stay the same buffer."""
    calls, refs, diag = [], {}, nnet.fisher_diag

    def spy(spec, params, features, labels, work=None):
        before = len(work)
        out = diag(spec, params, features, labels, work)
        calls.append((id(work), params.shape[0], features.shape, before, len(work)))
        for key, buf in work.items():
            assert refs.setdefault((id(work), key), weakref.ref(buf))() is buf
        return out

    monkeypatch.setattr(nnet, "fisher_diag", spy)
    return calls, refs


def test_a_ranking_holds_each_fisher_buffer_once_per_chunk_shape(tiny, monkeypatch):
    # one dict per rank_all_sources call: a pass makes buffers only when its
    # (chunk, rows) shape is new to the ranking, and none outlives the call
    train, test, spec, cfg = tiny
    cfg = replace(cfg, s_count=20)  # chunks of 8, 8 and 4
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    sources, target = helpers.sampled_sources(train, cfg), pipeline.view_target(test, whole, cfg)
    calls, refs = _spy_fisher_work(monkeypatch)
    for _ in range(2):  # and nothing grows across rankings
        pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
        assert len({work for work, *_ in calls}) == 1
        assert [size for _, size, *_ in calls] == [8, 8, 8, 8, 4, 4]
        seen = set()
        for _, size, shape, before, after in calls:
            assert (after > before) == ((size, shape) not in seen)
            seen.add((size, shape))
        assert refs and all(ref() is None for ref in refs.values())
        calls.clear()
        refs.clear()


def test_ablation_holds_no_fisher_buffer_once_it_returns(monkeypatch):
    # one ranking for the three modes, and its buffers die with it
    train, test, spec, cfg = _short_ablation_setting()
    calls, refs = _spy_fisher_work(monkeypatch)
    pipeline.ablation_comparison(train, test, spec, cfg)
    assert calls and len({work for work, *_ in calls}) == 1
    assert refs and all(ref() is None for ref in refs.values())


def test_task_scored_alone_equals_it_scored_in_a_block(tiny):
    train, test, spec, cfg = tiny
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    target = pipeline.view_target(test, whole, cfg)
    cfg = replace(cfg, s_count=40, verbose_fisher=True)
    sources = helpers.sampled_sources(train, cfg)  # more tasks than one MATCH_CHUNK
    ranked = pipeline.rank_all_sources(helpers.block_of(sources), target, train, whole, cfg)
    block = {r.task_id: r for r in ranked}
    for source in (sources[0], sources[17], sources[-1]):
        alone = pipeline.rank_all_sources(helpers.block_of([source]), target, train, whole, cfg)
        assert helpers.ranked_fields(alone) == helpers.ranked_fields([block[source.task_id]])


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
    (ranked,) = pipeline.rank_all_sources(source, target, data, whole, cfg)
    assert ranked.record.reached_target, "eps-approximation must genuinely reach its target"
    assert ranked.record.achieved_epsilon <= cfg.epsilon
    assert ranked.score.value < 0.05


def test_mtas_same_family_beats_disjoint_family():
    # tasks drawn from the target's own family should score lower (more
    # related) than tasks from a disjoint family; criterion 6's first 3 trials
    for k in range(3):
        s_same, s_disj = relatedness_check.trial(2024, k)
        assert s_same < s_disj, f"trial {k}: {s_same:.4f} !< {s_disj:.4f}"


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
    s_ab = pipeline.rank_all_sources(task_a, view_b, data, whole, cfg)[0].score.value
    s_ba = pipeline.rank_all_sources(task_b, view_a, data, whole, cfg)[0].score.value
    assert abs(s_ab - s_ba) > 0.01
    assert 0.0 <= s_ab <= 1.0 and 0.0 <= s_ba <= 1.0


# ---------------------------------------------------------------------------
# ranking / selection


def _rt(task_id, value, class_ids=(0, 1), reached=True):
    return pipeline.RankedTask(
        task_id, fisher.AffinityScore(value), matching.Assignment((0, 1), 0.0), class_ids,
        pipeline.EpsApproxRecord(0.0, 1, reached), 1.0, 1.0,
    )


def _rank_with_scores(tiny, monkeypatch, values):
    """Task ids in rank_all_sources order, with mtas scoring task i as
    values[i] and the source tasks given in descending task_id order, so
    only the sort can put them in order."""
    train, _, _, cfg = tiny
    sources = helpers.sampled_sources(train, cfg)[::-1]
    monkeypatch.setattr(pipeline, "_match_sources", lambda sources, *a: [None] * len(sources))
    monkeypatch.setattr(pipeline, "_approximations", lambda sources, *a: [[
        nnet.PoolExit(nnet.PoolJob(i, 0, 0, *[np.empty(0)] * 4), None, None, 0, 0.0)
        for i in range(len(sources))]])
    monkeypatch.setattr(pipeline, "mtas", lambda slots, sources, *a: ([
        _rt(int(sources.task_ids[s.job.key]), values[sources.task_ids[s.job.key]]) for s in slots],
        {}))
    ranked = pipeline.rank_all_sources(helpers.block_of(sources), None, train, None, cfg)
    return [r.task_id for r in ranked]


def test_rank_sources_lowest_scores_win(tiny, monkeypatch):
    assert _rank_with_scores(tiny, monkeypatch, [0.3, 0.1, 0.2, 0.4])[:2] == [1, 2]


def test_rank_sources_tie_breaks_by_task_id(tiny, monkeypatch):
    assert _rank_with_scores(tiny, monkeypatch, [0.5, 0.2, 0.5, 0.5]) == [1, 0, 2, 3]


def test_select_labels_unions_and_dedupes(tiny):
    # top_r = 2: related unions the first two tasks' classes, non_related the last two
    train, _, _, cfg = tiny
    ordered = [_rt(0, 0.1, (0, 1)), _rt(1, 0.2, (1, 2)), _rt(2, 0.3, (2, 3)), _rt(3, 0.4, (0, 3))]
    for mode, expect in (("related", (0, 1, 2)), ("non_related", (0, 2, 3))):
        rel = pipeline.select_labels(mode, ordered, train, cfg)
        assert rel.label_set == expect
        expect_rows = np.flatnonzero(np.isin(train.labels, expect))
        np.testing.assert_array_equal(np.array(rel.row_indices), expect_rows)


def test_label_frequency_counts_memberships():
    ordered = [_rt(0, 0.1, (1, 2)), _rt(1, 0.2, (0, 1)), _rt(2, 0.3, (3, 4))]
    freq = cli._label_frequency(ordered, 2)  # task 2 is outside the top 2
    assert freq == {0: 1, 1: 2, 2: 1}
    assert list(freq) == [0, 1, 2]


def test_tas_histogram_counts_sum_to_task_count():
    ranked = [_rt(i, v) for i, v in enumerate([0.05, 0.05, 0.33, 0.61, 0.99, 1.0])]
    edges, counts = cli.tas_histogram(ranked)
    assert len(edges) == cli.HISTOGRAM_BINS + 1
    assert len(counts) == cli.HISTOGRAM_BINS
    assert sum(counts) == 6
    assert counts[1] == 2  # both 0.05 values sit in the right-open bin [0.05, 0.1)
    # degenerate: all identical scores occupy exactly one bin
    edges, counts = cli.tas_histogram([_rt(i, 0.5) for i in range(7)])
    assert sum(counts) == 7
    assert max(counts) == 7


def test_health_counts_eps_misses_and_extreme_scores():
    ranked = [
        _rt(0, 0.0), _rt(1, 0.25, reached=False), _rt(2, 0.5),
        _rt(3, 1.0, reached=False), _rt(4, 1.0 - 1e-16), _rt(5, 1e-300),
    ]
    assert cli._health(ranked) == {"source_tasks": 6, "eps_reached": 4, "extreme_scores": 2}
    assert cli._health([]) == {"source_tasks": 0, "eps_reached": 0, "extreme_scores": 0}


# ---------------------------------------------------------------------------
# phase 3: episodic loss and fine-tuning


def _toy_stack(rng, dim=4, m=2, k=2, q=3, n_ep=2):
    """Support (E, m*k, dim) and query (E, m*q, dim) features, rows grouped by slot."""
    return rng.standard_normal((n_ep, m * k, dim)), rng.standard_normal((n_ep, m * q, dim))


def _episode_grads(spec, params, xs, xq, k, tau):
    """nnet._episode_grads on fresh encoder views and buffers, its gradients copied out."""
    encoder = nnet._unpack(spec, params)[:-1]
    buffers = nnet._episode_buffers(spec, xs)
    losses, g = nnet._episode_grads(spec, encoder, xs, xq, k, tau, buffers)
    return losses, g.copy()


def test_episode_loss_matches_manual_computation():
    rng = np.random.default_rng(70)
    spec = nnet.NetworkSpec((4, 5, 3), 2, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count) * 0.6)
    m, k, q = 2, 2, 3
    xs, xq = _toy_stack(rng, m=m, k=k, q=q)
    tau = 1.7
    losses, _ = _episode_grads(spec, net.params, xs, xq, k, tau)
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
    losses, g = _episode_grads(spec, net.params, xs, xq, k, tau)
    assert np.all(np.isfinite(losses)) and np.all(losses > 0)
    assert np.all(g[:, nnet.encoder_slice(spec).stop :] == 0.0)
    h = 1e-6
    p = net.params.copy()
    for i in range(p.shape[0]):
        p[i] += h
        lp, _ = _episode_grads(spec, p, xs, xq, k, tau)
        p[i] -= 2 * h
        lm, _ = _episode_grads(spec, p, xs, xq, k, tau)
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
        return nnet.centroid_accuracy(nnet.encode(n, sup), nnet.encode(n, qry), 2)[0]

    assert accuracy(net) == 1.0
    # all-zero params collapse every embedding; ties resolve to class 0
    zero = nnet.Network(spec, np.zeros(spec.param_count))
    assert accuracy(zero) == 0.5  # only the label-0 query counts


def _finetune(whole, related, train, cfg):
    """pipeline.episodic_finetune of one related set: its network and losses."""
    return pipeline.episodic_finetune(whole, {"related": related}, train, cfg)["related"]


@pytest.fixture(scope="module")
def overlapping():
    # the criterion-7 data: classes overlap, so the episodic loss and its
    # gradient stay far from zero and every meta-step moves the encoder
    train, test, _, cfg = ablation_sweep.setting(4242, 0)
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, epochs=20))
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
    tuned, history = _finetune(whole, related, train, cfg)
    ref, ref_history = helpers.serial_episodic_finetune(whole, related, train, cfg)
    assert np.mean(history) > 0.05  # a live loss, not a vacuous comparison
    assert np.array_equal(tuned.params, ref.params)
    assert history == ref_history
    for n_eval in (1, 7, 51):  # 51 spans two evaluation stacks
        ev = replace(cfg, n_eval_episodes=n_eval)
        assert pipeline.evaluate_fewshot([tuned], test, ev) == [
            helpers.serial_evaluate_fewshot(tuned, test, ev)
        ]


def _overlapping_whole(train, cfg):
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    return pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)


@pytest.mark.parametrize("n_eval", [1, 7, 51])  # 51 spans two evaluation stacks
def test_evaluate_fewshot_of_several_networks_equals_each_alone_bitwise(overlapping, n_eval):
    # one draw and one gather per stack serve every network; the tuned
    # network is listed twice, so its second pass reads gathers already encoded
    train, test, cfg, related = overlapping
    whole = _overlapping_whole(train, cfg)
    tuned, _ = _finetune(whole, related, train, cfg)
    nets = [tuned, whole, tuned, nnet.init_network(whole.spec, 3)]
    ev = replace(cfg, n_eval_episodes=n_eval)
    got = pipeline.evaluate_fewshot(nets, test, ev)
    assert got == [helpers.serial_evaluate_fewshot(net, test, ev) for net in nets]
    assert n_eval == 1 or len(set(got)) == 3  # the distinct networks score apart


def _three_sets(train):
    """Three label sets of the criterion-7 data, one per ablation mode."""
    picked = {"related": (0, 1, 2, 6, 7, 8), "non_related": (20, 21, 22, 30, 31),
              "random": (1, 9, 12, 13, 14, 40)}
    return {mode: pipeline.RelatedSet(ids, tuple(int(r) for r in np.flatnonzero(
        np.isin(train.labels, ids)))) for mode, ids in picked.items()}


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_lockstep_modes_equal_three_serial_runs_bitwise(overlapping, monkeypatch, activation):
    # every meta-step's stacked episodes are recorded as pipeline feeds them,
    # then each mode's slice is replayed through the one-network loop
    train, _, cfg, _ = overlapping
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, epochs=8,
                                                 lr_decay_epochs=(5,), lr_decay_factor=0.5))
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), activation)
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    fed = []

    def recording(net, copies, episodes, *rest, original=nnet.train_episodic):
        return original(net, copies, (fed.append(item) or item for item in episodes), *rest)

    monkeypatch.setattr(nnet, "train_episodic", recording)
    sets = _three_sets(train)
    tuned = pipeline.episodic_finetune(whole, sets, train, cfg)
    assert list(tuned) == list(sets) and len(fed) == 8
    for i, mode in enumerate(sets):
        replay = iter([(xs[i], xq[i]) for xs, xq in fed])
        ref, ref_history = helpers.serial_train_episodic(
            whole, replay, cfg.finetune_schedule, cfg.k_shot, cfg.softmax_temperature)
        net, history = tuned[mode]
        assert np.array_equal(net.params, ref.params)
        assert history == ref_history
        assert min(history) > 0.05  # a live loss
    assert tuned["related"][1] != tuned["random"][1]


def test_lockstep_non_finite_names_the_earliest_failing_mode(overlapping):
    # at learning rate 50 every mode diverges: related and random in
    # meta-step 6, non_related in meta-step 5
    train, _, cfg, _ = overlapping
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, learning_rate=50.0,
                                                 epochs=8))
    whole = _overlapping_whole(train, cfg)
    sets = _three_sets(train)

    def error(chosen):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ValueError) as exc:
                pipeline.episodic_finetune(whole, chosen, train, cfg)
        return str(exc.value)

    alone = {mode: error({mode: chosen}).removeprefix("phase-3 fine-tune: ")
             for mode, chosen in sets.items()}
    prefix = "training left non-finite parameters in meta-step "
    steps = {mode: int(msg.removeprefix(prefix)) for mode, msg in alone.items()}
    assert steps == {"related": 6, "non_related": 5, "random": 6}
    assert error(sets) == "phase-3 fine-tune of the non_related set: " + alone["non_related"]
    # a tie at the earliest meta-step goes to the mode listed first
    tied = {mode: sets[mode] for mode in ("random", "related")}
    assert error(tied) == "phase-3 fine-tune of the random set: " + alone["random"]


def test_finetune_builds_row_indices_a_chunk_of_meta_steps_at_a_time(overlapping, monkeypatch):
    # 20 meta-steps in chunks of 6: each mode's index block spans at most 6
    # meta-steps' episodes, the blocks cover every meta-step once, and the
    # networks and losses are those of one chunk spanning the whole run
    train, _, cfg, _ = overlapping
    whole, sets = _overlapping_whole(train, cfg), _three_sets(train)
    size = cfg.finetune_schedule.batch_size
    spans = []

    def spy(table, picks, positions, k_shot, original=tasks.episode_rows):
        spans.append(len(picks))
        return original(table, picks, positions, k_shot)

    monkeypatch.setattr(tasks, "episode_rows", spy)
    monkeypatch.setattr(pipeline, "FINETUNE_CHUNK", 6)
    chunked = pipeline.episodic_finetune(whole, sets, train, cfg)
    assert spans == [6 * size] * 9 + [2 * size] * 3  # three modes per chunk
    monkeypatch.setattr(pipeline, "FINETUNE_CHUNK", cfg.finetune_schedule.epochs)
    once = pipeline.episodic_finetune(whole, sets, train, cfg)
    for mode in sets:
        assert chunked[mode][0].params.tobytes() == once[mode][0].params.tobytes()
        assert chunked[mode][1] == once[mode][1]


def test_episodic_finetune_restricted_to_related_labels(overlapping):
    # rows of the classes outside the related set are poisoned: touching them
    # during episodic fine-tuning would turn the parameters non-finite
    train, _, cfg, related = overlapping
    feats = train.features.copy()
    feats[~np.isin(train.labels, related.label_set)] = np.inf
    poisoned = tasks.Dataset.from_arrays(feats, train.labels)
    whole = _overlapping_whole(train, cfg)
    tuned, history = _finetune(whole, related, poisoned, cfg)
    assert np.all(np.isfinite(tuned.params))
    assert len(history) == cfg.finetune_schedule.epochs
    assert all(np.isfinite(h) and h > 0.0 for h in history)  # a live loss
    assert not np.array_equal(tuned.params, whole.params)


def _spy_draws(monkeypatch):
    """Each tasks.draw_positions call from now on, as (episodes, row counts)."""
    drawn = []

    def draw(counts, m_way, size, seeds, original=tasks.draw_positions):
        drawn.append((len(seeds), tuple(counts)))
        return original(counts, m_way, size, seeds)

    monkeypatch.setattr(tasks, "draw_positions", draw)
    return drawn


def test_int_seeded_generators_do_not_grow_with_tasks_or_meta_steps(tiny, monkeypatch):
    # every source task's and episode's Generator comes from one
    # seeding.generators pass, so no call site hashes one int seed a time
    train, test, spec, cfg = tiny
    seeded = []

    def default_rng(seed=None, original=np.random.default_rng):
        if isinstance(seed, (int, np.integer)):
            seeded.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)

    def int_seeded(**change):
        seeded.clear()
        pipeline.ablation_comparison(train, test, spec, replace(cfg, **change))
        return len(seeded)

    fine = cfg.finetune_schedule
    assert int_seeded(s_count=4) == int_seeded(s_count=40) > 0
    assert (int_seeded(finetune_schedule=replace(fine, epochs=2))
            == int_seeded(finetune_schedule=replace(fine, epochs=20)))


@pytest.mark.parametrize("meta_steps", [1, 7])
def test_episodic_finetune_builds_one_network_and_draws_per_meta_step(
    overlapping, monkeypatch, meta_steps
):
    # the episode positions are drawn once for the whole run; their row
    # indices are built per chunk of FINETUNE_CHUNK meta-steps, here one
    train, _, cfg, related = overlapping
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    cfg = replace(cfg, finetune_schedule=replace(cfg.finetune_schedule, epochs=meta_steps))
    batch_size = cfg.finetune_schedule.batch_size
    built, gathered = [], []

    def counted(obj, post_init=nnet.Network.__post_init__):
        built.append(obj)
        post_init(obj)

    def gather(table, picks, positions, k_shot, original=tasks.episode_rows):
        gathered.append(len(picks))
        return original(table, picks, positions, k_shot)

    monkeypatch.setattr(nnet.Network, "__post_init__", counted)
    drawn = _spy_draws(monkeypatch)
    monkeypatch.setattr(tasks, "episode_rows", gather)
    tuned, history = _finetune(whole, related, train, cfg)
    assert built == [tuned]
    assert drawn == [(meta_steps * batch_size, (40,) * len(related.label_set))]
    assert gathered == [meta_steps * batch_size]
    assert len(history) == meta_steps


def test_ablation_draws_once_per_distinct_row_counts(monkeypatch):
    # criterion-7 seed 0: related and random both fine-tune over 9 classes of
    # 40 rows, non_related over 7, and every mode evaluates on the same episodes
    train, test, spec, cfg = ablation_sweep.setting(4242, 0)
    drawn = _spy_draws(monkeypatch)
    reports = pipeline.ablation_comparison(train, test, spec, cfg)
    sizes = {m: len(r.selected_labels.label_set) for m, r in reports.items()}
    assert sizes == {"related": 9, "non_related": 7, "random": 9}
    episodes = cfg.finetune_schedule.epochs * cfg.finetune_schedule.batch_size
    # the modes fine-tune in lockstep, so both fine-tuning draws come first
    assert drawn == [(episodes, (40,) * 9), (episodes, (40,) * 7), (cfg.n_eval_episodes, (40,) * 3)]


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
    _finetune(whole, related, train, cfg)
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
    rows = np.flatnonzero(short_train.labels < 2)
    related = pipeline.RelatedSet((0, 1), tuple(int(r) for r in rows))
    monkeypatch.setattr(pipeline, "select_labels", lambda *a: related)
    whole = nnet.init_network(spec, 0)

    preflight = message(pipeline.ablation_comparison, short_train, test, spec, cfg, ("related",))
    assert preflight == (
        "insufficient samples: only 1 training classes of the related set have >= 6 rows "
        "(k_shot + q_query), need m_way=2"
    )
    assert message(_finetune, whole, related, short_train, cfg) == preflight

    preflight = message(pipeline.ablation_comparison, train, short_test, spec, cfg, ("related",))
    assert preflight == (
        "insufficient samples: only 1 test classes have >= 6 rows (k_shot + q_query), need m_way=2"
    )
    assert message(pipeline.evaluate_fewshot, [whole], short_test, cfg) == preflight


def test_episodic_finetune_deterministic(overlapping):
    # the loss is live, so the two runs compare moved networks, not two
    # untouched copies of the whole network
    train, _, cfg, related = overlapping
    whole = _overlapping_whole(train, cfg)
    a, ha = _finetune(whole, related, train, cfg)
    b, hb = _finetune(whole, related, train, cfg)
    assert min(ha) > 0.0
    assert not np.array_equal(a.params, whole.params)
    assert np.array_equal(a.params, b.params)
    assert ha == hb


def test_episodic_finetune_improves_fewshot_on_target_family():
    # encoder tuned on the target family's training classes should beat the
    # untuned encoder on held-out classes of that family (frozen positive gaps)
    for s in range(3):
        train, test, spec, cfg = ablation_sweep.setting(808, s)
        cfg = replace(
            cfg,
            finetune_schedule=replace(cfg.finetune_schedule, epochs=300),
            n_eval_episodes=100,
        )
        whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
        related = pipeline.RelatedSet(
            (0, 1, 2), tuple(int(r) for r in np.flatnonzero(np.isin(train.labels, [0, 1, 2])))
        )
        tuned, _ = _finetune(whole, related, train, cfg)
        (pre, _), (post, _) = pipeline.evaluate_fewshot([whole, tuned], test, cfg)
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
    [(mean, ci)] = pipeline.evaluate_fewshot([net], data, cfg)
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
    [(mean, ci)] = pipeline.evaluate_fewshot([net], data, cfg)
    assert abs(mean - 0.2) < 0.05
    assert 0 < ci < 0.02
    [(again, _)] = pipeline.evaluate_fewshot([net], data, cfg)
    assert again == mean


def test_evaluate_fewshot_single_episode_has_zero_ci(tiny):
    train, test, spec, cfg = tiny
    from dataclasses import replace
    one = replace(cfg, n_eval_episodes=1)
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    [(_, ci)] = pipeline.evaluate_fewshot([whole], test, one)
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
    doc = cli.report_to_doc(rep, cfg.top_r)
    assert sum(doc["tas_histogram"]["counts"]) == cfg.s_count
    assert 0.0 <= rep.fewshot_accuracy_mean <= 1.0
    assert rep.fewshot_ci95 >= 0.0
    assert {int(k) for k in doc["label_frequency"]} <= set(train.class_ids)
    assert set(rep.selected_labels.label_set) <= set(train.class_ids)
    rows = np.array(rep.selected_labels.row_indices)
    np.testing.assert_array_equal(
        np.sort(np.unique(train.labels[rows])), np.array(rep.selected_labels.label_set)
    )
    for key in ("whole_train_s", "rank_s", "finetune_s", "eval_s"):
        assert rep.timings[key] >= 0.0


def _short_ablation_setting():
    """Criterion-7 seed 0 with four source tasks, five meta-steps and 30
    evaluation episodes: phase 3 moves the network at a small cost."""
    train, test, spec, cfg = ablation_sweep.setting(4242, 0)
    return train, test, spec, replace(cfg, s_count=4, top_r=2, n_eval_episodes=30,
                                      finetune_schedule=replace(cfg.finetune_schedule, epochs=5))


def test_ablation_comparison_matches_individual_runs():
    train, test, spec, cfg = _short_ablation_setting()
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
        assert combined[mode].finetune_loss == single.finetune_loss
        assert min(single.finetune_loss) > 0.0  # a live loss
        docs = [cli.report_to_doc(r, cfg.top_r) for r in (combined[mode], single)]
        for key in ("label_frequency", "tas_histogram"):
            assert docs[0][key] == docs[1][key]


@pytest.mark.parametrize(
    "change,train_rows,modes,match",
    [
        ({}, None, ("related", "shuffled"), "unknown ablation mode 'shuffled'"),
        ({}, None, (), "no ablation mode given"),
        ({"q_query": 60}, None, ("related",), "insufficient samples"),
        ({"n_test": 3}, None, pipeline.ABLATION_MODES, "n_test=3"),
        # the test split still holds 12 rows per class, phase 3 needs 6
        ({}, 5, ("related",), "only 0 training classes have >= 6 rows"),
    ],
    ids=["unknown_mode", "no_mode", "oversized_episodes", "wrong_n_test",
         "short_training_classes"],
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
    pick = pipeline.select_labels

    def short_random(mode, ordered, train, cfg):
        chosen = pick(mode, ordered, train, cfg)
        if mode != "random":
            return chosen
        one = chosen.label_set[:1]
        rows = np.flatnonzero(np.isin(train.labels, one))
        return pipeline.RelatedSet(one, tuple(int(r) for r in rows))

    calls = []
    finetune = nnet.train_episodic
    monkeypatch.setattr(pipeline, "select_labels", short_random)
    monkeypatch.setattr(nnet, "train_episodic", lambda *a: calls.append(a) or finetune(*a))
    with pytest.raises(ValueError, match=(
        r"^insufficient samples: only 1 training classes of the random set have >= 6 rows"
    )):
        pipeline.ablation_comparison(train, test, spec, cfg)
    assert calls == []


def _report_fields(report):
    """Everything a report holds but its timings."""
    return replace(report, timings={})


def test_ablation_shares_fine_tuning_draws_by_row_counts_not_class_counts(monkeypatch):
    # CSV-shaped data: classes 1 and 6 keep 20 of their 40 rows.  Each mode
    # fine-tunes on three classes; related and random have 40, 20 and 40
    # rows, non_related 20, 40 and 40, so keying the draws by the class count
    # would gather past class 1's rows
    train, test, spec, cfg = _short_ablation_setting()
    keep = [train.class_index[c][: 20 if c in (1, 6) else None] for c in train.class_ids]
    rows = np.concatenate(keep)
    short = tasks.Dataset.from_arrays(train.features[rows], train.labels[rows])
    picked = {"related": (0, 1, 2), "non_related": (1, 2, 7), "random": (2, 6, 7)}

    def fixed(mode, ordered, train, cfg):
        ids = picked[mode]
        return pipeline.RelatedSet(
            ids, tuple(int(r) for r in np.flatnonzero(np.isin(train.labels, ids)))
        )

    monkeypatch.setattr(pipeline, "select_labels", fixed)
    drawn = _spy_draws(monkeypatch)
    combined = pipeline.ablation_comparison(short, test, spec, cfg)
    episodes = cfg.finetune_schedule.epochs * cfg.finetune_schedule.batch_size
    assert [d for d in drawn if d[0] == episodes] == [(episodes, (40, 20, 40)),
                                                      (episodes, (20, 40, 40))]
    for mode in pipeline.ABLATION_MODES:
        alone = pipeline.ablation_comparison(short, test, spec, cfg, (mode,))[mode]
        assert _report_fields(combined[mode]) == _report_fields(alone)
    assert min(combined["related"].finetune_loss) > 0.05  # a live loss
    assert combined["related"].finetune_loss != combined["random"].finetune_loss


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


def test_report_doc_round_trip(tiny, tiny_run):
    top_r = tiny[3].top_r
    doc = cli.report_to_doc(tiny_run, top_r)
    edges, counts = cli.tas_histogram(tiny_run.scores)
    freq = cli._label_frequency(tiny_run.scores, top_r)
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
        "tas_histogram": {"edges": list(edges), "counts": list(counts)},
        "label_frequency": {str(k): v for k, v in freq.items()},
        "health": cli._health(tiny_run.scores),
        "fewshot_accuracy_mean": tiny_run.fewshot_accuracy_mean,
        "fewshot_ci95": tiny_run.fewshot_ci95,
        "finetune_loss": list(tiny_run.finetune_loss),
        "timings": tiny_run.timings,
    }


def test_the_scalars_that_reach_json_are_python_types(tiny_run):
    # an np.float64 accuracy would make reached_target an np.bool_ and the
    # health sums np.int64, which json cannot write
    records = [r.record for r in tiny_run.scores]
    assert {(type(r.achieved_epsilon), type(r.epochs_used)) for r in records} == {(float, int)}
    assert {type(r.reached_target) for r in records} == {bool}
    assert [type(v) for v in cli._health(tiny_run.scores).values()] == [int] * 3

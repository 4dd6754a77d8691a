"""Synthetic benchmark, CSV interchange, and task/episode sampling."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from taskaffinity import config as cfgmod, pipeline, tasks
from taskaffinity.seeding import derive_seed, seed_grid

import helpers

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def small_cfg(**kw):
    base = dict(
        n_families=3, classes_per_family=2, samples_per_class=10,
        input_dim=5, family_spread=4.0, class_spread=1.0, noise_sigma=0.3, seed=0,
    )
    base.update(kw)
    return tasks.SyntheticConfig(**base)


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_from_arrays_indexes_classes():
    x = np.arange(12.0).reshape(6, 2)
    y = np.array([4, 0, 4, 0, 4, 0])
    data = tasks.Dataset.from_arrays(x, y)
    assert data.n == 6 and data.dim == 2
    assert data.class_ids == [0, 4]
    np.testing.assert_array_equal(data.class_index[4], [0, 2, 4])
    np.testing.assert_array_equal(data.class_index[0], [1, 3, 5])


def test_dataset_validation():
    with pytest.raises(ValueError):
        tasks.Dataset.from_arrays(np.zeros((2, 2)), np.array([0, 1]))  # singletons
    with pytest.raises(ValueError):
        tasks.Dataset.from_arrays(np.zeros((2, 2)), np.array([-1, -1]))
    with pytest.raises(ValueError):
        tasks.Dataset.from_arrays(np.zeros((3, 2)), np.array([0, 0]))
    with pytest.raises(ValueError):
        tasks.Dataset.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_task_spec_validation():
    with pytest.raises(ValueError):
        helpers.TaskSpec(0, (1,), (), (2,))
    with pytest.raises(ValueError):
        helpers.TaskSpec(0, (1,), (2, 3), (3,))


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_counts_and_label_layout():
    cfg = small_cfg()
    data = tasks.make_synthetic(cfg)
    assert data.n == cfg.n_classes * cfg.samples_per_class
    assert data.dim == cfg.input_dim
    assert data.class_ids == list(range(cfg.n_classes))
    for cid in data.class_ids:
        assert data.class_index[cid].size == cfg.samples_per_class


def test_synthetic_zero_noise_collapses_classes_to_means():
    data = tasks.make_synthetic(small_cfg(noise_sigma=0.0))
    for cid in data.class_ids:
        rows = data.features[data.class_index[cid]]
        np.testing.assert_array_equal(rows, np.tile(rows[0], (rows.shape[0], 1)))
        # class mean sits within class_spread of the family sphere radius
        r = np.linalg.norm(rows[0])
        assert 3.0 - 1e-9 <= r <= 5.0 + 1e-9


def test_synthetic_deterministic_and_seed_sensitive():
    a = tasks.make_synthetic(small_cfg(seed=5))
    b = tasks.make_synthetic(small_cfg(seed=5))
    c = tasks.make_synthetic(small_cfg(seed=6))
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_same_family_closer_than_cross_family():
    # within-family class-mean gaps are capped at twice class_spread (both
    # means perturb the shared family mean by exactly class_spread); across
    # families only the average separation is guaranteed -- two family means
    # can land near each other on the sphere by chance
    for seed in range(20):
        cfg = small_cfg(noise_sigma=0.0, seed=100 + seed)
        data = tasks.make_synthetic(cfg)
        means = {cid: data.features[data.class_index[cid][0]] for cid in data.class_ids}
        within, across = [], []
        for a in data.class_ids:
            for b in data.class_ids:
                if a < b:
                    d = np.linalg.norm(means[a] - means[b])
                    fam_a = tasks.family_of(a, cfg.classes_per_family)
                    fam_b = tasks.family_of(b, cfg.classes_per_family)
                    (within if fam_a == fam_b else across).append(d)
        assert max(within) <= 2 * cfg.class_spread + 1e-9
        assert np.mean(within) < np.mean(across)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        small_cfg(class_spread=4.0)  # not < family_spread
    with pytest.raises(ValueError):
        small_cfg(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_cfg(samples_per_class=1)
    with pytest.raises(ValueError):
        small_cfg(n_families=0)


# ---------------------------------------------------------------------------
# CSV


def test_csv_two_row_layout():
    data = tasks.Dataset.from_arrays(
        np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([7, 7])
    )
    lines = tasks.csv_text(data).splitlines()
    assert lines[0] == "f0,f1,label"
    assert lines[1] == "1.5,-2.0,7"
    assert lines[2] == "0.25,3.0,7"


def test_csv_round_trip_bit_exact(tmp_path):
    data = tasks.make_synthetic(small_cfg(seed=9))
    path = str(tmp_path / "round.csv")
    with open(path, "w") as fh:
        fh.write(tasks.csv_text(data))
    back = tasks.load_csv(path)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.labels, data.labels)


def test_csv_errors_name_the_line(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("f0,f1,label\n1.0,2.0,0\n1.0,oops,0\n")
    with pytest.raises(ValueError, match="line 3"):
        tasks.load_csv(path)
    with open(path, "w") as fh:
        fh.write("f0,f1,label\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        tasks.load_csv(path)
    with open(path, "w") as fh:
        fh.write("x,y,label\n")
    with pytest.raises(ValueError, match="header"):
        tasks.load_csv(path)


# ---------------------------------------------------------------------------
# task construction


def test_task_from_classes_split_sizes_and_disjointness():
    data = tasks.make_synthetic(small_cfg(samples_per_class=40))
    (spec,) = helpers.task_records(tasks.task_from_classes(data, [1, 3], task_id=5, seed=11))
    assert spec.task_id == 5
    assert spec.class_ids == (1, 3)
    assert len(spec.support_rows) == 56  # 28 of each 40-row class
    assert len(spec.query_rows) == 24
    assert not set(spec.support_rows) & set(spec.query_rows)
    covered = np.sort(np.array(spec.support_rows + spec.query_rows))
    expect = np.sort(np.concatenate([data.class_index[1], data.class_index[3]]))
    np.testing.assert_array_equal(covered, expect)
    # per-class balance
    sup_labels = data.labels[list(spec.support_rows)]
    assert np.sum(sup_labels == 1) == 28 and np.sum(sup_labels == 3) == 28


def test_task_from_classes_deterministic_rows_sorted():
    data = tasks.make_synthetic(small_cfg())
    (a,) = helpers.task_records(tasks.task_from_classes(data, [0, 2], 0, seed=3))
    (b,) = helpers.task_records(tasks.task_from_classes(data, [2, 0], 0, seed=3))
    assert a == b
    assert list(a.support_rows) == sorted(a.support_rows)
    (c,) = helpers.task_records(tasks.task_from_classes(data, [0, 2], 0, seed=4))
    assert a != c


def test_task_from_classes_unknown_class():
    data = tasks.make_synthetic(small_cfg())
    with pytest.raises(ValueError):
        tasks.task_from_classes(data, [0, 99], 0, seed=0)
    with pytest.raises(ValueError, match=r"^a task needs one or more distinct class ids, got \[\]$"):
        tasks.task_from_classes(data, [], 0, seed=0)


def test_task_from_classes_rejects_repeated_class_ids():
    data = tasks.make_synthetic(small_cfg())
    for ids in ([1, 1], [2, 0, 2]):
        with pytest.raises(ValueError, match=r"^a task needs one or more distinct class ids, got "):
            tasks.task_from_classes(data, ids, 0, seed=0)


def test_sample_source_tasks_all_classes_when_n_test_is_everything():
    data = tasks.make_synthetic(small_cfg())
    (spec,) = helpers.task_records(tasks.sample_source_tasks(data, 1, len(data.class_ids), seed=2))
    assert spec.class_ids == tuple(data.class_ids)


def test_sample_source_tasks_deterministic_and_prefix_stable():
    data = tasks.make_synthetic(small_cfg())
    a = helpers.task_records(tasks.sample_source_tasks(data, 6, 3, seed=10))
    b = helpers.task_records(tasks.sample_source_tasks(data, 6, 3, seed=10))
    assert a == b
    # adding more tasks never changes the earlier ones
    c = helpers.task_records(tasks.sample_source_tasks(data, 9, 3, seed=10))
    assert c[:6] == a
    assert [t.task_id for t in a] == list(range(6))


def test_sample_source_tasks_uniform_class_usage():
    data = tasks.make_synthetic(small_cfg())
    specs = helpers.task_records(tasks.sample_source_tasks(data, 2000, 2, seed=77))
    counts = np.zeros(len(data.class_ids))
    for t in specs:
        for cid in t.class_ids:
            counts[cid] += 1
    # 4000 class draws over 6 classes; chi-square goodness of fit
    _, p = stats.chisquare(counts)
    assert p > 0.001, f"class usage skewed: {counts.tolist()} (p={p:.2e})"


def test_sample_source_tasks_errors():
    data = tasks.make_synthetic(small_cfg())
    with pytest.raises(ValueError):
        tasks.sample_source_tasks(data, 3, 99, seed=0)
    with pytest.raises(ValueError):
        tasks.sample_source_tasks(data, 0, 2, seed=0)


def test_batch_of_picks_rows():
    # every row of the dataset, labelled by its class's slot among the
    # ascending class ids
    data = tasks.make_synthetic(small_cfg())
    rows = [data.class_index[2][0], data.class_index[0][1], data.class_index[2][1],
            data.class_index[0][0]]
    b = tasks.batch_of(tasks.Dataset.from_arrays(data.features[rows], data.labels[rows]))
    np.testing.assert_array_equal(b.features, data.features[rows])
    np.testing.assert_array_equal(b.labels, [1, 0, 1, 0])


def test_task_slots_label_each_task_as_batch_of_does():
    data = tasks.make_synthetic(small_cfg())
    specs = [helpers.task_records(tasks.task_from_classes(data, ids, i, seed=i))[0]
             for i, ids in enumerate([[0, 2], [1, 3], [3, 0]])]
    block = helpers.block_of(specs)
    groups = tasks.task_slots(data, block)
    lo = 0
    for i, spec in enumerate(specs):
        want = helpers.slot_batch(data, spec.support_rows + spec.query_rows, spec.class_ids)
        hi = lo + len(want.labels)
        np.testing.assert_array_equal(data.features[block.rows[lo:hi]], want.features)
        np.testing.assert_array_equal(groups[lo:hi], i * 2 + want.labels)
        lo = hi
    assert lo == len(block.rows) == len(groups)


def test_task_slots_name_the_first_task_holding_a_row_of_another_class():
    data = tasks.make_synthetic(small_cfg())
    (good,) = helpers.task_records(tasks.task_from_classes(data, [0, 1], 0, seed=1))
    rows = tuple(data.class_index[0].tolist())
    stray = int(data.class_index[1][0])
    unknown = helpers.TaskSpec(2, (0, 2), rows[:3], (stray,))
    later = helpers.TaskSpec(3, (2, 3), good.support_rows, good.query_rows)
    with pytest.raises(ValueError, match=(
            rf"^source task 2: row {stray} has label 1, not one of its classes$")):
        tasks.task_slots(data, helpers.block_of([good, unknown, later]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 15), min_size=2, max_size=6), st.integers(1, 6),
       st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_sampled_block_splits_each_class_and_task_slots_search_its_class_ids(
        sizes, n_test, s_count, seed):
    # classes of unequal sizes, with ids apart and rows scattered, so that
    # a slot is neither a class id nor a row's position
    n_test = min(n_test, len(sizes))
    ids = np.arange(len(sizes)) * 3
    labels = np.random.default_rng(len(sizes)).permutation(np.repeat(ids, sizes))
    data = tasks.Dataset.from_arrays(np.zeros((labels.size, 1)), labels)
    block = tasks.sample_source_tasks(data, s_count, n_test, seed)
    groups = tasks.task_slots(data, block)
    assert len(block) == s_count and block.class_ids.shape == (s_count, n_test)
    assert not any(a.flags.writeable for a in vars(block).values())
    assert block.starts[0] == 0 and block.starts[-1] == len(block.rows) == len(groups)
    for i, class_ids in enumerate(block.class_ids):
        lo, hi = block.starts[i], block.starts[i + 1]
        sup, qry = block.rows[lo : lo + block.n_support[i]], block.rows[lo + block.n_support[i] : hi]
        assert np.all(np.diff(class_ids) > 0)
        assert np.all(np.diff(sup) > 0) and np.all(np.diff(qry) > 0)
        assert np.intersect1d(sup, qry).size == 0
        np.testing.assert_array_equal(np.sort(block.rows[lo:hi]),
                                      np.flatnonzero(np.isin(labels, class_ids)))
        for c in class_ids:
            size = data.class_index[c].size
            n_sup = max(1, min(size - 1, int(round(tasks.SUPPORT_FRACTION * size))))
            assert np.count_nonzero(labels[sup] == c) == n_sup
            assert np.count_nonzero(labels[qry] == c) == size - n_sup
        np.testing.assert_array_equal(
            groups[lo:hi], i * n_test + np.searchsorted(class_ids, labels[block.rows[lo:hi]]))


# ---------------------------------------------------------------------------
# episodes


def draw(data, m_way, k_shot, q_query, seeds):
    """Support and query rows of one episode per seed over every class of
    data that holds an episode."""
    classes = tasks.episode_classes(data, data.class_ids, m_way, k_shot, q_query, "classes")
    counts = [data.class_index[c].size for c in classes]
    picks, positions = tasks.draw_positions(counts, m_way, k_shot + q_query, seeds)
    return tasks.episode_rows(tasks.row_table(data, classes), picks, positions, k_shot)


def _uneven(sizes, seed=5):
    """A CSV-shaped dataset: class c holds sizes[c] rows."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    features = np.random.default_rng(seed).standard_normal((labels.size, 3))
    return tasks.Dataset.from_arrays(features, labels)


def _slot_classes(data, rows, m_way):
    """Each slot's class id, checking every row of a slot carries it."""
    labels = data.labels[rows].reshape(m_way, -1)
    assert np.all(labels == labels[:, :1])
    return labels[:, 0]


def test_sample_episode_shapes_and_reindexed_labels():
    data = tasks.make_synthetic(small_cfg(samples_per_class=12))
    sup, qry = draw(data, m_way=3, k_shot=4, q_query=5, seeds=[8])
    assert sup.shape == (1, 12) and qry.shape == (1, 15)
    # rows come grouped by slot, the slots in ascending class id order, so
    # the labels are np.repeat(np.arange(3), 4) and np.repeat(np.arange(3), 5)
    classes = _slot_classes(data, sup[0], 3)
    assert np.all(np.diff(classes) > 0)
    np.testing.assert_array_equal(_slot_classes(data, qry[0], 3), classes)


def test_sample_episode_support_query_disjoint_rows():
    data = tasks.make_synthetic(small_cfg(samples_per_class=12, noise_sigma=0.5))
    sup, qry = draw(data, 2, 3, 3, seeds=[1])
    assert not set(sup[0].tolist()) & set(qry[0].tolist())
    assert len(set(sup[0].tolist())) == 6 and len(set(qry[0].tolist())) == 6
    sup_f = {tuple(row) for row in data.features[sup[0]]}
    qry_f = {tuple(row) for row in data.features[qry[0]]}
    assert not sup_f & qry_f  # continuous features collide with probability 0


def test_sample_episode_minimal_and_deterministic():
    data = tasks.make_synthetic(small_cfg())
    sup, qry = draw(data, 1, 1, 1, seeds=[0])
    assert sup.shape == (1, 1) and qry.shape == (1, 1)
    a = draw(data, 2, 2, 2, seeds=[42])
    b = draw(data, 2, 2, 2, seeds=[42])
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    # a stack of seeds draws each episode as that seed alone does
    both = draw(data, 2, 2, 2, seeds=[7, 42])
    np.testing.assert_array_equal(both[0][1], a[0][0])
    np.testing.assert_array_equal(both[1][1], a[1][0])


def test_sample_episode_insufficient_rows():
    data = tasks.make_synthetic(small_cfg(samples_per_class=4))
    with pytest.raises(ValueError, match=(
        r"^insufficient samples: only 0 test classes have >= 6 rows "
        r"\(k_shot \+ q_query\), need m_way=2$"
    )):
        tasks.episode_classes(data, data.class_ids, 2, 3, 3, "test classes")
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            tasks.episode_classes(data, data.class_ids, *bad, "classes")


def test_episode_classes_keeps_the_classes_that_hold_an_episode_ascending():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(5), [3, 9, 5, 8, 6])
    data = tasks.Dataset.from_arrays(rng.standard_normal((labels.size, 2)), labels)
    assert tasks.episode_classes(data, [4, 0, 3, 1], 2, 3, 3, "classes") == [1, 3, 4]
    assert tasks.episode_classes(data, [4, 0, 3, 1], 3, 3, 3, "classes") == [1, 3, 4]
    with pytest.raises(ValueError, match="only 3 picked classes have >= 6 rows"):
        tasks.episode_classes(data, [4, 0, 3, 1], 4, 3, 3, "picked classes")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sample_episode_never_leaks_support_into_query(seed):
    data = tasks.make_synthetic(small_cfg(samples_per_class=8, seed=3))
    sup, qry = draw(data, 2, 3, 3, seeds=[seed])
    sup_f = {tuple(row) for row in data.features[sup[0]]}
    for row in data.features[qry[0]]:
        assert tuple(row) not in sup_f


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_draw_episodes_returns_the_serial_sampler_rows(seed, m_way, k_shot, q_query):
    # uneven class sizes, so eligibility and the permutation lengths vary
    data = _uneven([3, 9, 5, 8, 6])
    eligible = sum(data.class_index[c].size >= k_shot + q_query for c in data.class_ids)
    if eligible < m_way:
        with pytest.raises(ValueError, match="insufficient"):
            draw(data, m_way, k_shot, q_query, seeds=[seed])
        with pytest.raises(ValueError, match="insufficient"):
            helpers.sample_episode(data, m_way, k_shot, q_query, seed)
        return
    sup, qry = draw(data, m_way, k_shot, q_query, seeds=[seed])
    ep = helpers.sample_episode(data, m_way, k_shot, q_query, seed)
    np.testing.assert_array_equal(data.features[sup[0]], ep.support.features)
    np.testing.assert_array_equal(data.features[qry[0]], ep.query.features)
    np.testing.assert_array_equal(ep.support.labels, np.repeat(np.arange(m_way), k_shot))
    np.testing.assert_array_equal(ep.query.labels, np.repeat(np.arange(m_way), q_query))


def test_a_stack_of_draws_over_uneven_classes_is_the_serial_sampler_row_for_row():
    data = _uneven([7, 40, 12, 9, 23, 16])
    seeds = [derive_seed(3, i) for i in range(200)]
    sup, qry = draw(data, 3, 2, 5, seeds)
    for e, seed in enumerate(seeds):
        ep = helpers.sample_episode(data, 3, 2, 5, seed)
        np.testing.assert_array_equal(data.features[sup[e]], ep.support.features)
        np.testing.assert_array_equal(data.features[qry[e]], ep.query.features)


def test_draws_never_reach_the_row_table_padding():
    sizes = [7, 40, 12, 9, 23, 16]
    data = _uneven(sizes)
    classes = data.class_ids
    table = tasks.row_table(data, classes)
    assert table.shape == (6, 40)
    for i, c in enumerate(classes):
        np.testing.assert_array_equal(table[i, : sizes[i]], data.class_index[c])
        assert np.all(table[i, sizes[i] :] == data.n)  # indexes no row
    picks, positions = tasks.draw_positions(sizes, 4, 7, range(500))
    assert np.all(np.diff(picks.astype(int), axis=1) > 0)
    assert np.all(positions < np.asarray(sizes)[picks][:, :, None])
    sup, qry = tasks.episode_rows(table, picks, positions, 3)
    rows = np.concatenate([sup.reshape(500, 4, 3), qry.reshape(500, 4, 4)], axis=2)
    assert np.all(rows < data.n)
    # every slot's rows are distinct rows of its picked class
    slot_class = np.asarray(classes)[picks][:, :, None]
    np.testing.assert_array_equal(data.labels[rows], np.broadcast_to(slot_class, rows.shape))
    assert all(len(set(slot)) == 7 for slot in rows.reshape(-1, 7).tolist())


@pytest.mark.parametrize("counts", [[40] * 9, [40, 33, 40, 27, 40, 35]])
def test_draw_positions_is_the_per_episode_default_rng_loop_bitwise(counts):
    seeds = seed_grid(4242, (4,), range(60), range(4))
    for m_way, size in ((3, 15), (1, 1), (6, 27)):
        got = tasks.draw_positions(counts, m_way, size, seeds)
        want = helpers.serial_draw_positions(counts, m_way, size, seeds)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_sample_source_tasks_is_the_per_task_default_rng_loop_on_tas_json():
    with open(os.path.join(ROOT, "configs", "tas.json")) as fh:
        job = cfgmod.parse_pipeline(json.load(fh))
    data = job.data
    train, _ = tasks.family_holdout(data.synthetic, data.target_family, data.n_test_classes)
    cfg = job.pipeline
    seed = derive_seed(cfg.master_seed, pipeline._STREAM_TASKS)
    got = tasks.sample_source_tasks(train, cfg.s_count, cfg.n_test, seed)
    want = helpers.serial_sample_source_tasks(train, cfg.s_count, cfg.n_test, seed)
    assert helpers.task_records(got) == want
    assert len(got) == cfg.s_count == 200


def test_draw_positions_takes_the_smallest_unsigned_dtype():
    picks, positions = tasks.draw_positions([300, 2], 2, 2, [1, 2])
    assert picks.dtype == np.uint8 and positions.dtype == np.uint16
    assert positions[:, 1].max() < 2  # the 2-row class sits in slot 1


# ---------------------------------------------------------------------------
# splits


def test_split_classes_partitions():
    data = tasks.make_synthetic(small_cfg())
    train, test = tasks.split_classes(data, [5, 0])
    assert test.class_ids == [0, 5]
    assert train.class_ids == [1, 2, 3, 4]
    # each split keeps its rows in their original order
    is_test = np.isin(data.labels, [0, 5])
    np.testing.assert_array_equal(test.features, data.features[is_test])
    np.testing.assert_array_equal(test.labels, data.labels[is_test])
    np.testing.assert_array_equal(train.features, data.features[~is_test])
    np.testing.assert_array_equal(train.labels, data.labels[~is_test])
    for test_ids in (list(range(6)), [99]):
        with pytest.raises(ValueError, match="both splits need at least one class"):
            tasks.split_classes(data, test_ids)


def test_family_holdout_takes_last_classes_of_family():
    cfg = small_cfg(classes_per_family=3)  # families {0,1,2}, {3,4,5}, {6,7,8}
    train, test = tasks.family_holdout(cfg, target_family=1, n_holdout=2)
    assert test.class_ids == [4, 5]
    assert train.class_ids == [0, 1, 2, 3, 6, 7, 8]
    # same generation as make_synthetic on the full config
    full = tasks.make_synthetic(cfg)
    np.testing.assert_array_equal(test.features, full.features[np.isin(full.labels, [4, 5])])


def test_family_holdout_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        tasks.family_holdout(cfg, target_family=3, n_holdout=1)
    with pytest.raises(ValueError):
        tasks.family_holdout(cfg, target_family=0, n_holdout=5)


def test_derive_seed_keys_task_stream():
    # documented wiring: task i of sample_source_tasks depends only on (seed, i)
    data = tasks.make_synthetic(small_cfg())
    full = tasks.sample_source_tasks(data, 5, 2, seed=13)
    i3 = derive_seed(13, 3)
    rng = np.random.default_rng(i3)
    picked = rng.choice(len(data.class_ids), size=2, replace=False)
    ids = [data.class_ids[int(k)] for k in picked]
    rebuilt = tasks.task_from_classes(data, ids, 3, derive_seed(i3, 1))
    assert helpers.task_records(rebuilt) == helpers.task_records(full)[3:4]

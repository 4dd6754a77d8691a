"""Synthetic benchmark, CSV interchange, and task/episode sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from taskaffinity import tasks
from taskaffinity.seeding import derive_seed

import helpers


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
        tasks.TaskSpec(0, (1,), (), (2,))
    with pytest.raises(ValueError):
        tasks.TaskSpec(0, (1,), (2, 3), (3,))


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
    spec = tasks.task_from_classes(data, [1, 3], task_id=5, seed=11)
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
    a = tasks.task_from_classes(data, [0, 2], 0, seed=3)
    b = tasks.task_from_classes(data, [2, 0], 0, seed=3)
    assert a == b
    assert list(a.support_rows) == sorted(a.support_rows)
    c = tasks.task_from_classes(data, [0, 2], 0, seed=4)
    assert a != c


def test_task_from_classes_unknown_class():
    data = tasks.make_synthetic(small_cfg())
    with pytest.raises(ValueError):
        tasks.task_from_classes(data, [0, 99], 0, seed=0)


def test_sample_source_tasks_all_classes_when_n_test_is_everything():
    data = tasks.make_synthetic(small_cfg())
    (spec,) = tasks.sample_source_tasks(data, 1, len(data.class_ids), seed=2)
    assert spec.class_ids == tuple(data.class_ids)


def test_sample_source_tasks_deterministic_and_prefix_stable():
    data = tasks.make_synthetic(small_cfg())
    a = tasks.sample_source_tasks(data, 6, 3, seed=10)
    b = tasks.sample_source_tasks(data, 6, 3, seed=10)
    assert a == b
    # adding more tasks never changes the earlier ones
    c = tasks.sample_source_tasks(data, 9, 3, seed=10)
    assert c[:6] == a
    assert [t.task_id for t in a] == list(range(6))


def test_sample_source_tasks_uniform_class_usage():
    data = tasks.make_synthetic(small_cfg())
    specs = tasks.sample_source_tasks(data, 2000, 2, seed=77)
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
    data = tasks.make_synthetic(small_cfg())
    rows = [data.class_index[2][0], data.class_index[0][1], data.class_index[2][1]]
    b = tasks.batch_of(data, rows, [0, 2])
    np.testing.assert_array_equal(b.features, data.features[rows])
    np.testing.assert_array_equal(b.labels, [1, 0, 1])


def test_batch_of_rejects_bad_class_ids():
    data = tasks.make_synthetic(small_cfg())
    rows = [data.class_index[0][0], data.class_index[2][0]]
    with pytest.raises(ValueError, match=r"row labels \[2\] are not in class_ids"):
        tasks.batch_of(data, rows, [0, 1])
    with pytest.raises(ValueError, match=r"classes \[1\] have no rows"):
        tasks.batch_of(data, rows, [0, 1, 2])
    with pytest.raises(ValueError, match="strictly ascending"):
        tasks.batch_of(data, rows, [2, 0])


# ---------------------------------------------------------------------------
# episodes


def draw(data, m_way, k_shot, q_query, seeds):
    """draw_episodes over every class of data that holds an episode."""
    classes = tasks.episode_classes(data, data.class_ids, m_way, k_shot, q_query, "classes")
    return tasks.draw_episodes(data, classes, m_way, k_shot, q_query, seeds)


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
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(5), [3, 9, 5, 8, 6])
    data = tasks.Dataset.from_arrays(rng.standard_normal((labels.size, 3)), labels)
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
    assert rebuilt == full[3]

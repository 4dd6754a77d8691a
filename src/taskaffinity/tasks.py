"""Datasets, the synthetic family benchmark, and task/episode sampling.

The synthetic generator plants ground-truth relatedness: families sit on a
sphere of radius family_spread, classes perturb their family mean by a vector
of norm class_spread (< family_spread), and samples add isotropic Gaussian
noise.  Class id // classes_per_family recovers the family, which is what
the relatedness and ablation experiments key on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import Batch
from .seeding import derive_seed, generators, seed_grid

SUPPORT_FRACTION = 0.7


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with integer class labels and a per-class row index."""

    features: np.ndarray
    labels: np.ndarray
    class_index: dict[int, np.ndarray]

    @staticmethod
    def from_arrays(features: np.ndarray, labels: np.ndarray) -> "Dataset":
        f = np.ascontiguousarray(features, dtype=np.float64)
        y = np.ascontiguousarray(labels, dtype=np.int64)
        if f.ndim != 2 or y.ndim != 1 or f.shape[0] != y.shape[0]:
            raise ValueError("features must be (n, d) aligned with 1-D labels")
        if f.shape[0] < 1:
            raise ValueError("dataset is empty")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative")
        index: dict[int, np.ndarray] = {}
        for cid in np.unique(y):
            rows = np.flatnonzero(y == cid)
            if rows.size < 2:
                raise ValueError(f"class {int(cid)} has fewer than 2 samples")
            rows.setflags(write=False)
            index[int(cid)] = rows
        f.setflags(write=False)
        y.setflags(write=False)
        return Dataset(f, y, index)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.class_index)


@dataclass(frozen=True, eq=False)
class TaskBlock:
    """Source tasks as read-only arrays.  Task i has id task_ids[i], the n
    ascending class ids class_ids[i], and the rows rows[starts[i]:starts[i+1]]:
    its n_support[i] support rows, then its query rows, each part ascending."""

    task_ids: np.ndarray
    class_ids: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    n_support: np.ndarray

    def __len__(self) -> int:
        return len(self.task_ids)


@dataclass(frozen=True)
class SyntheticConfig:
    n_families: int
    classes_per_family: int
    samples_per_class: int
    input_dim: int
    family_spread: float
    class_spread: float
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if min(self.n_families, self.classes_per_family, self.input_dim) < 1:
            raise ValueError("counts and dims must be positive")
        if self.samples_per_class < 2:
            raise ValueError("need at least 2 samples per class")
        if not 0 <= self.class_spread < self.family_spread:
            raise ValueError("class_spread must be < family_spread and nonnegative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    @property
    def n_classes(self) -> int:
        return self.n_families * self.classes_per_family


def family_of(class_id: int, classes_per_family: int) -> int:
    return class_id // classes_per_family


def _random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


# Class means within a family spread along a family-specific subspace of this
# dimension, not in full space.  Telling family members apart then requires
# features specific to that family, so fine-tuning on a family's classes is
# genuinely what helps with its held-out classes (the causal link the ablation
# acceptance run relies upon); fine-tuning elsewhere amplifies other families'
# directions instead.  Two dimensions, so that a family's few training classes
# can span its whole subspace and transfer to the held-out ones is complete.
_FAMILY_SUBSPACE_DIM = 2


def make_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Sample the family benchmark; bitwise reproducible for a given config.

    Family means sit on a sphere of radius family_spread.  Each class mean is
    its family mean plus a perturbation of norm exactly class_spread, drawn
    inside that family's private low-dimensional subspace.  Samples add
    isotropic Gaussian noise in full space.
    """
    rng = np.random.default_rng(cfg.seed)
    sub_dim = min(_FAMILY_SUBSPACE_DIM, cfg.input_dim)
    features = []
    labels = []
    for fam in range(cfg.n_families):
        fam_mean = _random_direction(rng, cfg.input_dim) * cfg.family_spread
        basis, _ = np.linalg.qr(rng.standard_normal((cfg.input_dim, sub_dim)))
        for k in range(cfg.classes_per_family):
            cid = fam * cfg.classes_per_family + k
            class_mean = fam_mean + basis @ _random_direction(rng, sub_dim) * cfg.class_spread
            noise = rng.standard_normal((cfg.samples_per_class, cfg.input_dim))
            features.append(class_mean + cfg.noise_sigma * noise)
            labels.append(np.full(cfg.samples_per_class, cid, dtype=np.int64))
    return Dataset.from_arrays(np.concatenate(features), np.concatenate(labels))


# ---------------------------------------------------------------------------
# CSV interchange


def csv_text(data: Dataset) -> str:
    """Header f0,...,f{d-1},label then one row per sample; floats round-trip exactly."""
    lines = [",".join([f"f{j}" for j in range(data.dim)] + ["label"])]
    for i in range(data.n):
        cells = [repr(float(x)) for x in data.features[i]]
        cells.append(str(int(data.labels[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split(",")
    if header[-1] != "label" or header[:-1] != [f"f{j}" for j in range(len(header) - 1)]:
        raise ValueError("header must be f0,...,f{d-1},label")
    d = len(header) - 1
    feats = np.empty((len(lines) - 1, d))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ValueError(f"line {ln}: expected {d + 1} cells, got {len(cells)}")
        try:
            feats[ln - 2] = [float(c) for c in cells[:-1]]
            labels[ln - 2] = int(cells[-1])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"line {bad[0] + 2}: features must be finite")
    return Dataset.from_arrays(feats, labels)


# ---------------------------------------------------------------------------
# task construction


def batch_of(data: Dataset) -> Batch:
    """Every row of data, each label replaced by its class slot: the class's
    index among data's ascending class ids."""
    return Batch(data.features, np.searchsorted(data.class_ids, data.labels))


def task_slots(data: Dataset, block: TaskBlock) -> np.ndarray:
    """Each of block's rows' group under data's labels: its task's index
    times n plus its slot, the index of its label among the task's n class
    ids.  A row whose label is not one of its task's classes is an error
    naming the task."""
    ids = np.array(data.class_ids)
    task = np.repeat(np.arange(len(block)), np.diff(block.starts))
    dense = np.searchsorted(ids, block.class_ids).clip(max=ids.size - 1)
    t, j = np.nonzero(ids[dense] == block.class_ids)  # each task's classes that data has
    lookup = np.full((len(block), ids.size), -1, np.intp)  # slot by dense class index
    lookup[t, dense[t, j]] = j
    slots = lookup[task, np.searchsorted(ids, data.labels[block.rows])]
    if np.any(slots < 0):
        r = int(np.argmin(slots >= 0))
        raise ValueError(f"source task {block.task_ids[task[r]]}: row {block.rows[r]} has "
                         f"label {data.labels[block.rows[r]]}, not one of its classes")
    return task * block.class_ids.shape[1] + slots


def _split(data: Dataset, ids: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """The support and query rows, each ascending, of a task over the
    ascending class ids: each class's rows split 70/30 by one permutation."""
    support, query = [], []
    for cid in ids:
        if cid not in data.class_index:
            raise ValueError(f"class {cid} not in dataset")
        rows = data.class_index[cid]
        order = rows[rng.permutation(rows.size)]
        n_sup = max(1, min(rows.size - 1, int(round(SUPPORT_FRACTION * rows.size))))
        support.append(order[:n_sup])
        query.append(order[n_sup:])
    return [np.sort(np.concatenate(support)), np.sort(np.concatenate(query))]


def _block(task_ids, class_ids, splits) -> TaskBlock:
    """The read-only block of the tasks of the given ids, class ids and splits."""
    parts = [part for split in splits for part in split]
    arrays = (np.array(task_ids, np.int64), np.array(class_ids, np.int64), np.concatenate(parts),
              np.cumsum([0, *map(len, parts)])[::2], np.array([len(s) for s, _ in splits]))
    for a in arrays:
        a.setflags(write=False)
    return TaskBlock(*arrays)


def task_from_classes(data: Dataset, class_ids, task_id: int,
                      seed: int | np.random.Generator) -> TaskBlock:
    """The block of one task over the given distinct classes, with a per-class
    70/30 support/query split drawn from seed, a seed or a Generator made
    from one."""
    ids = sorted(int(c) for c in class_ids)
    if not ids or len(set(ids)) < len(ids):
        raise ValueError(f"a task needs one or more distinct class ids, got {ids}")
    return _block([task_id], [ids], [_split(data, ids, np.random.default_rng(seed))])


def sample_source_tasks(train: Dataset, s_count: int, n_test: int, seed: int) -> TaskBlock:
    """s_count tasks of n_test distinct classes each, classes uniform without replacement.

    Task i is driven entirely by derive_seed(seed, i), so tasks are
    independent and the block is reproducible regardless of evaluation order.
    """
    all_ids = train.class_ids
    if n_test > len(all_ids):
        raise ValueError(f"n_test={n_test} exceeds the {len(all_ids)} available classes")
    if s_count < 1:
        raise ValueError("s_count must be >= 1")
    seeds = np.array(seed_grid(seed, (), range(s_count)), np.uint64)
    class_ids, splits = [], []
    for rng, split in zip(generators(seeds), generators(derive_seed(seeds, 1))):
        picked = rng.choice(len(all_ids), size=n_test, replace=False)
        class_ids.append(sorted(all_ids[k] for k in picked.tolist()))
        splits.append(_split(train, class_ids[-1], split))
    return _block(range(s_count), class_ids, splits)


def episode_classes(
    data: Dataset, class_ids, m_way: int, k_shot: int, q_query: int, what: str
) -> list[int]:
    """Those of data's given class ids, ascending, that hold an episode's
    k_shot + q_query rows: the classes an episode may take.  It is an error
    if fewer than m_way qualify; what names the classes in that error."""
    if min(m_way, k_shot, q_query) < 1:
        raise ValueError("m_way, k_shot and q_query must be positive")
    need = k_shot + q_query
    eligible = sorted(int(c) for c in class_ids if data.class_index[c].size >= need)
    if len(eligible) < m_way:
        raise ValueError(
            f"insufficient samples: only {len(eligible)} {what} have >= {need} rows "
            f"(k_shot + q_query), need m_way={m_way}"
        )
    return eligible


def draw_positions(counts, m_way: int, size: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Where one episode per seed sits among classes of the given row counts:
    the positions of its m_way classes, ascending (E, m_way), and of the
    size rows it takes from each, in slot order (E, m_way, size), both in
    the smallest unsigned dtype that holds them.  The draw depends on
    nothing but counts, m_way, size and the seeds; episode_rows turns it
    into rows.  Episode e draws from the Generator of seeds[e]."""
    n_ep = len(seeds)
    picks = np.empty((n_ep, m_way), np.min_scalar_type(len(counts) - 1))
    positions = np.empty((n_ep, m_way, size), np.min_scalar_type(max(counts) - 1))
    for e, rng in enumerate(generators(seeds)):
        picked = sorted(rng.choice(len(counts), size=m_way, replace=False).tolist())
        picks[e] = picked
        for slot, k in enumerate(picked):
            positions[e, slot] = rng.permutation(counts[k])[:size]
    return picks, positions


def row_table(data: Dataset, classes: list[int]) -> np.ndarray:
    """(len(classes), most rows) table whose row i holds the rows of
    classes[i], padded with data.n, which indexes no row."""
    counts = [data.class_index[c].size for c in classes]
    table = np.full((len(classes), max(counts)), data.n, dtype=np.intp)
    for i, c in enumerate(classes):
        table[i, : counts[i]] = data.class_index[c]
    return table


def episode_rows(
    table: np.ndarray, picks: np.ndarray, positions: np.ndarray, k_shot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of drawn episodes: support (E, m_way * k_shot) and query
    (E, m_way * q_query), the first k_shot of each slot's rows and the rest.

    picks and positions are a draw_positions draw over the classes of
    table's rows, which episode_classes has checked.  The picked classes,
    ascending, take slots 0..m_way-1 and the rows are grouped by slot, so the
    labels are np.repeat(np.arange(m_way), k_shot) and
    np.repeat(np.arange(m_way), q_query).
    """
    rows = table[picks[:, :, None], positions]
    n_ep = rows.shape[0]
    return rows[:, :, :k_shot].reshape(n_ep, -1), rows[:, :, k_shot:].reshape(n_ep, -1)


def split_classes(data: Dataset, test_class_ids) -> tuple[Dataset, Dataset]:
    """Partition by class id into (train, test) datasets."""
    is_test = np.isin(data.labels, [int(c) for c in test_class_ids])
    if is_test.all() or not is_test.any():
        raise ValueError("both splits need at least one class")
    return (
        Dataset.from_arrays(data.features[~is_test], data.labels[~is_test]),
        Dataset.from_arrays(data.features[is_test], data.labels[is_test]),
    )


def family_holdout(
    cfg: SyntheticConfig, target_family: int, n_holdout: int
) -> tuple[Dataset, Dataset]:
    """Generate the benchmark and hold out the last n_holdout classes of one
    family as the test split; everything else trains."""
    if not 0 <= target_family < cfg.n_families:
        raise ValueError(f"target_family must be in [0, {cfg.n_families})")
    if not 1 <= n_holdout <= cfg.classes_per_family:
        raise ValueError("n_holdout must be in [1, classes_per_family]")
    data = make_synthetic(cfg)
    fam_ids = [
        cid for cid in range(cfg.n_classes)
        if family_of(cid, cfg.classes_per_family) == target_family
    ]
    return split_classes(data, fam_ids[-n_holdout:])

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
from .seeding import derive_seed

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


@dataclass(frozen=True)
class TaskSpec:
    """A source task carved out of a dataset by row indices, with disjoint
    support and query splits."""

    task_id: int
    class_ids: tuple[int, ...]
    support_rows: tuple[int, ...]
    query_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_ids", tuple(int(c) for c in self.class_ids))
        object.__setattr__(self, "support_rows", tuple(int(r) for r in self.support_rows))
        object.__setattr__(self, "query_rows", tuple(int(r) for r in self.query_rows))
        if len(self.support_rows) == 0:
            raise ValueError("support_rows must be nonempty")
        if set(self.support_rows) & set(self.query_rows):
            raise ValueError("support and query must be disjoint")


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


def batch_of(data: Dataset, rows, class_ids) -> Batch:
    """The given rows with each label replaced by its class slot.

    A class's slot is its index in class_ids, which must be strictly
    ascending; every row's label must be one of them and every class must
    have at least one row.
    """
    ids = np.asarray(class_ids, dtype=np.int64)
    idx = np.asarray(rows, dtype=np.int64)
    labels = data.labels[idx]
    present = np.unique(labels)
    if not np.array_equal(present, ids):
        unknown = np.setdiff1d(present, ids)
        if unknown.size:
            raise ValueError(f"row labels {unknown.tolist()} are not in class_ids")
        missing = np.setdiff1d(ids, present)
        if missing.size:
            raise ValueError(f"classes {missing.tolist()} have no rows")
        raise ValueError("class_ids must be strictly ascending")
    return Batch(data.features[idx], np.searchsorted(ids, labels))


def task_from_classes(data: Dataset, class_ids, task_id: int, seed: int) -> TaskSpec:
    """Task over the given classes with a per-class seeded 70/30 support/query split."""
    rng = np.random.default_rng(seed)
    ids = sorted(int(c) for c in class_ids)
    support: list[int] = []
    query: list[int] = []
    for cid in ids:
        if cid not in data.class_index:
            raise ValueError(f"class {cid} not in dataset")
        rows = data.class_index[cid]
        order = rows[rng.permutation(rows.size)]
        n_sup = int(round(SUPPORT_FRACTION * rows.size))
        n_sup = max(1, min(rows.size - 1, n_sup))
        support.extend(int(r) for r in order[:n_sup])
        query.extend(int(r) for r in order[n_sup:])
    return TaskSpec(task_id, tuple(ids), tuple(sorted(support)), tuple(sorted(query)))


def sample_source_tasks(train: Dataset, s_count: int, n_test: int, seed: int) -> list[TaskSpec]:
    """s_count tasks of n_test distinct classes each, classes uniform without replacement.

    Task i is driven entirely by derive_seed(seed, i), so tasks are
    independent and the list is reproducible regardless of evaluation order.
    """
    all_ids = train.class_ids
    if n_test > len(all_ids):
        raise ValueError(f"n_test={n_test} exceeds the {len(all_ids)} available classes")
    if s_count < 1:
        raise ValueError("s_count must be >= 1")
    tasks = []
    for i in range(s_count):
        task_seed = derive_seed(seed, i)
        rng = np.random.default_rng(task_seed)
        picked = rng.choice(len(all_ids), size=n_test, replace=False)
        ids = [all_ids[int(k)] for k in picked]
        tasks.append(task_from_classes(train, ids, i, derive_seed(task_seed, 1)))
    return tasks


def episode_classes(
    data: Dataset, class_ids, m_way: int, k_shot: int, q_query: int, what: str
) -> list[int]:
    """Those of data's given class ids, ascending, that hold an episode's
    k_shot + q_query rows: the classes draw_episodes may pick.  It is an error if fewer than
    m_way qualify; what names the classes in that error."""
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


def draw_episodes(
    data: Dataset, classes: list[int], m_way: int, k_shot: int, q_query: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of one episode per seed: support (E, m_way * k_shot) and
    disjoint query (E, m_way * q_query) rows of m_way of the given classes,
    which episode_classes has checked.

    The chosen classes, sorted ascending, take slots 0..m_way-1 and the rows
    are grouped by slot, so the labels are np.repeat(np.arange(m_way), k_shot)
    and np.repeat(np.arange(m_way), q_query).
    """
    n_ep = len(seeds)
    support = np.empty((n_ep, m_way, k_shot), dtype=np.int64)
    query = np.empty((n_ep, m_way, q_query), dtype=np.int64)
    for e, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        picked = sorted(int(k) for k in rng.choice(len(classes), size=m_way, replace=False))
        for slot, k in enumerate(picked):
            rows = data.class_index[classes[k]]
            order = rows[rng.permutation(rows.size)[: k_shot + q_query]]
            support[e, slot] = order[:k_shot]
            query[e, slot] = order[k_shot:]
    return support.reshape(n_ep, m_way * k_shot), query.reshape(n_ep, m_way * q_query)


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

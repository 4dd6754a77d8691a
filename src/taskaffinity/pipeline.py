"""Three-phase few-shot pipeline driven by task affinity.

Phase 1 trains one whole-classification network over every training class.
Phase 2 scores each candidate source task against the target: centroids are
matched by the Hungarian algorithm, source labels are rewritten into target
slots, a small clone network is fine-tuned into an epsilon-approximation of
the source task, and the affinity score is the distance between its Fisher
diagonal on source query data and on target support data.  Lowest scores
win.  Phase 3 fine-tunes the encoder episodically, sampling m-way k-shot
episodes only from rows whose labels appear in the selected related tasks,
with a soft nearest-centroid head; evaluation uses hard nearest-centroid
episodes with a normal-approximation confidence interval.

Every random stream derives from the master seed and structural indices
(task index, step index), never from label values; relabeling task classes
by a permutation therefore reproduces scores bitwise.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import fisher, matching, nnet, tasks
from .seeding import derive_seed

log = logging.getLogger(__name__)

HISTOGRAM_BINS = 20

# substream tags under the master seed
_STREAM_TASKS = 1
_STREAM_HEAD = 2
_STREAM_APPROX_TRAIN = 3
_STREAM_FINETUNE = 4
_STREAM_EVAL = 5
_STREAM_ABLATION = 6

ABLATION_MODES = ("related", "non_related", "random")


@dataclass(frozen=True)
class PipelineConfig:
    s_count: int
    n_test: int
    top_r: int
    m_way: int
    k_shot: int
    q_query: int
    epsilon: float
    whole_schedule: nnet.TrainSchedule
    approx_schedule: nnet.TrainSchedule
    finetune_schedule: nnet.TrainSchedule
    n_eval_episodes: int
    softmax_temperature: float
    master_seed: int
    verbose_fisher: bool = False  # keep each task's Fisher diagonals on its RankedTask

    def __post_init__(self) -> None:
        if self.s_count < 1:
            raise ValueError("s_count must be >= 1")
        if not 1 <= self.top_r <= self.s_count:
            raise ValueError("top_r must be in [1, s_count]")
        if min(self.n_test, self.m_way, self.k_shot, self.q_query) < 1:
            raise ValueError("n_test, m_way, k_shot, q_query must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.n_eval_episodes < 1:
            raise ValueError("n_eval_episodes must be >= 1")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax_temperature must be positive")


@dataclass(frozen=True)
class EpsApproxRecord:
    """What the epsilon-approximation fine-tune actually achieved."""

    achieved_epsilon: float
    epochs_used: int
    reached_target: bool


@dataclass(frozen=True)
class RankedTask:
    """One source task's score, class ids and epsilon-approximation record.
    With verbose_fisher, f_aa and f_ab are its two unit-trace Fisher
    diagonals (on source query and on target support) as read-only arrays;
    otherwise None.  Equality leaves them out: they follow from the rest."""

    task_id: int
    score: fisher.AffinityScore
    assignment: matching.Assignment
    class_ids: tuple[int, ...]
    record: EpsApproxRecord
    f_aa: np.ndarray | None = field(default=None, compare=False)
    f_ab: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TargetView:
    """Every test row labelled by class slot, and the class centroids under
    the whole-classification encoder: the target side of every source task's
    score."""

    batch: nnet.Batch
    centroids: np.ndarray


@dataclass(frozen=True)
class RelatedSet:
    """Union of class labels from selected tasks plus every training row carrying them."""

    label_set: tuple[int, ...]
    row_indices: tuple[int, ...]


@dataclass(frozen=True)
class RunReport:
    scores: tuple[RankedTask, ...]
    selected_labels: RelatedSet
    tas_histogram: tuple[tuple[float, ...], tuple[int, ...]]  # (bin edges, counts)
    label_frequency: dict[int, int]
    fewshot_accuracy_mean: float
    fewshot_ci95: float
    timings: dict[str, float]
    ablation_mode: str = "related"


# ---------------------------------------------------------------------------
# phase 1


def train_whole_classifier(
    train: tasks.Dataset, spec: nnet.NetworkSpec, schedule: nnet.TrainSchedule
) -> nnet.Network:
    """Whole-classification training over every training class at once."""
    n_classes = len(train.class_ids)
    if spec.head_classes != n_classes:
        raise ValueError(
            f"head_classes={spec.head_classes} but the training set has {n_classes} classes"
        )
    net = nnet.init_network(spec, derive_seed(schedule.seed, 0))
    batch = tasks.batch_of(train, range(train.n), train.class_ids)
    try:
        for net in nnet.train(net, batch, schedule):
            pass
    except ValueError as exc:
        raise ValueError(f"whole classifier: {exc}") from None
    if log.isEnabledFor(logging.DEBUG):  # the loss is a full forward pass
        log.debug("whole classifier trained, final loss %.4f", nnet.loss(net, batch))
    return net


# ---------------------------------------------------------------------------
# phase 2: affinity scoring


def build_eps_approx(
    whole: nnet.Network,
    remapped_support: nnet.Batch,
    remapped_query: nnet.Batch,
    cfg: PipelineConfig,
    head_seed: int,
    train_seed: int,
) -> tuple[nnet.Network, EpsApproxRecord]:
    """Clone the encoder, attach a fresh n_test-way head, fine-tune on the
    remapped support until query accuracy reaches 1 - epsilon or the epoch
    budget runs out.  Budget exhaustion is not an error; the record says what
    was reached."""
    net = nnet.replace_head(whole, cfg.n_test, head_seed)
    sched = replace(cfg.approx_schedule, seed=train_seed)
    target_acc = 1.0 - cfg.epsilon
    accs: list[float] = []
    for net in nnet.train(net, remapped_support, sched):
        accs.append(nnet.evaluate(net, remapped_query))
        if accs[-1] >= target_acc:
            break
    final_acc = accs[-1] if accs else nnet.evaluate(net, remapped_query)
    record = EpsApproxRecord(
        achieved_epsilon=1.0 - final_acc,
        epochs_used=len(accs),
        reached_target=final_acc >= target_acc,
    )
    return net, record


def view_target(test: tasks.Dataset, whole: nnet.Network, cfg: PipelineConfig) -> TargetView:
    """The target side of mtas, built once for all source tasks: the target
    task is the whole test set."""
    if len(test.class_ids) != cfg.n_test:
        raise ValueError("target must have n_test classes")
    tgt = tasks.batch_of(test, range(test.n), test.class_ids)
    cents = matching.class_centroids(nnet.encode(whole, tgt.features), tgt.labels, cfg.n_test)
    return TargetView(tgt, cents)


def mtas(
    source: tasks.TaskSpec,
    target: TargetView,
    train_data: tasks.Dataset,
    whole: nnet.Network,
    cfg: PipelineConfig,
) -> RankedTask:
    """Affinity score of one source task against the target task, whose side
    view_target has built under the same whole network and config.

    With cfg.verbose_fisher the result also keeps the two Fisher diagonals.
    """
    if len(source.class_ids) != cfg.n_test:
        raise ValueError("source must have n_test classes")

    # 1. the source rows labelled by class slot, and their class centroids
    #    under the whole-classification encoder
    src = tasks.batch_of(train_data, source.support_rows + source.query_rows, source.class_ids)
    src_cent = matching.class_centroids(nnet.encode(whole, src.features), src.labels, cfg.n_test)

    # 2. minimum-cost matching of source slots onto target slots
    assignment = matching.hungarian(matching.cost_matrix(src_cent, target.centroids))

    # 3. rewrite source labels into matched target slots
    labels = np.asarray(assignment.mapping)[src.labels]
    k = len(source.support_rows)
    sup = nnet.Batch(src.features[:k], labels[:k])
    qry = nnet.Batch(src.features[k:], labels[k:])

    # 4. epsilon-approximation network for the source task, and 5. its
    #    unit-trace Fisher diagonals on source query and target support.  A
    #    diverged approximation overflows; the checks, not numpy, report it.
    seed = cfg.approx_schedule.seed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            approx, record = build_eps_approx(
                whole, sup, qry, cfg,
                head_seed=derive_seed(seed, _STREAM_HEAD, source.task_id),
                train_seed=derive_seed(seed, _STREAM_APPROX_TRAIN, source.task_id),
            )
        except ValueError as exc:
            raise ValueError(f"source task {source.task_id} eps-approximation: {exc}") from None
        try:
            f_aa = fisher.unit_trace(fisher.empirical_fisher_diag(approx, qry))
            f_ab = fisher.unit_trace(fisher.empirical_fisher_diag(approx, target.batch))
        except ValueError as exc:
            raise ValueError(
                f"source task {source.task_id} Fisher diagonal after "
                f"{record.epochs_used} eps-approximation epochs: {exc}"
            ) from None
    log.debug(
        "task %d eps-approx: achieved_eps=%.3f epochs=%d reached=%s",
        source.task_id, record.achieved_epsilon, record.epochs_used, record.reached_target,
    )

    # 6. the score
    score = fisher.AffinityScore(float(fisher.tas(f_aa, f_ab)))
    if not cfg.verbose_fisher:
        return RankedTask(source.task_id, score, assignment, source.class_ids, record)
    f_aa.setflags(write=False)
    f_ab.setflags(write=False)
    return RankedTask(source.task_id, score, assignment, source.class_ids, record, f_aa, f_ab)


def rank_all_sources(
    train: tasks.Dataset, test: tasks.Dataset, whole: nnet.Network, cfg: PipelineConfig
) -> list[RankedTask]:
    """Sample the s_count source tasks (seeded from the master seed), score
    each against the whole test set, and order them by ascending score, ties
    by task_id."""
    sources = tasks.sample_source_tasks(
        train, cfg.s_count, cfg.n_test, derive_seed(cfg.master_seed, _STREAM_TASKS)
    )
    view = view_target(test, whole, cfg)
    ranked = [mtas(source, view, train, whole, cfg) for source in sources]
    return sorted(ranked, key=lambda r: (r.score.value, r.task_id))


def related_training_set(selected: list[RankedTask], train: tasks.Dataset) -> RelatedSet:
    """Union of the selected tasks' class labels, with every training row carrying them."""
    return _related_set(train, {cid for r in selected for cid in r.class_ids})


def _related_set(train: tasks.Dataset, ids) -> RelatedSet:
    """The class ids in ascending order, with every training row carrying one."""
    label_set = tuple(sorted(ids))
    rows = np.flatnonzero(np.isin(train.labels, label_set))
    return RelatedSet(label_set, tuple(int(r) for r in rows))


# ---------------------------------------------------------------------------
# phase 3: episodic fine-tuning with a soft nearest-centroid head


def episodic_finetune(
    whole: nnet.Network, related: RelatedSet, train: tasks.Dataset, cfg: PipelineConfig
) -> tuple[nnet.Network, list[float]]:
    """Encoder-only episodic fine-tuning restricted to the related rows.

    Each meta-update averages the loss gradient of finetune_schedule.batch_size
    episodes, drawn from the training rows of the related classes only, one
    meta-step at a time; finetune_schedule.epochs counts meta-updates.
    Returns the network and each meta-update's mean loss.
    """
    classes = tasks.episode_classes(
        train, related.label_set, cfg.m_way, cfg.k_shot, cfg.q_query,
        "training classes of the related set",
    )
    sched = cfg.finetune_schedule

    def episodes():
        for step in range(sched.epochs):
            seeds = [
                derive_seed(sched.seed, _STREAM_FINETUNE, step, j) for j in range(sched.batch_size)
            ]
            sup, qry = tasks.draw_episodes(
                train, classes, cfg.m_way, cfg.k_shot, cfg.q_query, seeds
            )
            yield train.features[sup], train.features[qry]

    try:
        tuned, history = nnet.train_episodic(
            whole, episodes(), sched, cfg.k_shot, cfg.softmax_temperature
        )
    except ValueError as exc:
        raise ValueError(f"phase-3 fine-tune: {exc}") from None
    log.debug("episodic fine-tune done, final loss %.4f", history[-1] if history else np.nan)
    return tuned, history


EVAL_CHUNK = 50  # evaluation episodes per stack; bounds the memory one stack holds


def evaluate_fewshot(
    net: nnet.Network, test: tasks.Dataset, cfg: PipelineConfig
) -> tuple[float, float]:
    """Mean hard nearest-centroid accuracy over fresh episodes, with 1.96*sd/sqrt(n)."""
    classes = tasks.episode_classes(
        test, test.class_ids, cfg.m_way, cfg.k_shot, cfg.q_query, "test classes"
    )
    n = cfg.n_eval_episodes
    accs = np.empty(n)
    for lo in range(0, n, EVAL_CHUNK):
        stop = min(lo + EVAL_CHUNK, n)
        seeds = [derive_seed(cfg.master_seed, _STREAM_EVAL, i) for i in range(lo, stop)]
        sup, qry = tasks.draw_episodes(test, classes, cfg.m_way, cfg.k_shot, cfg.q_query, seeds)
        es = nnet.encode(net, test.features[sup])
        eq = nnet.encode(net, test.features[qry])
        accs[lo:stop] = nnet.nearest_centroid(es, eq, cfg.k_shot, cfg.softmax_temperature)[3]
    mean = float(np.mean(accs))
    if n < 2:
        return mean, 0.0
    sd = float(np.std(accs, ddof=1))
    return mean, 1.96 * sd / np.sqrt(n)


# ---------------------------------------------------------------------------
# full runs


def tas_histogram(ranked: list[RankedTask]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Fixed 20-bin histogram of scores over [0, 1]; counts sum to the task count."""
    vals = np.clip([r.score.value for r in ranked], 0.0, 1.0)
    counts, edges = np.histogram(vals, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


def label_frequency(selected: list[RankedTask]) -> dict[int, int]:
    """How many selected tasks contain each class label."""
    return dict(sorted(Counter(cid for r in selected for cid in r.class_ids).items()))


def _pick_ablation_set(
    mode: str, ordered: list[RankedTask], train: tasks.Dataset, cfg: PipelineConfig
) -> RelatedSet:
    related = related_training_set(ordered[: cfg.top_r], train)
    if mode == "related":
        return related
    if mode == "non_related":
        return related_training_set(ordered[-cfg.top_r :], train)
    # random
    rng = np.random.default_rng(derive_seed(cfg.master_seed, _STREAM_ABLATION))
    all_ids = train.class_ids
    size = min(len(related.label_set), len(all_ids))
    picked = rng.choice(len(all_ids), size=size, replace=False)
    return _related_set(train, (all_ids[int(k)] for k in picked))


def phases_1_2(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
) -> tuple[nnet.Network, list[RankedTask], dict[str, float]]:
    """Whole-classification training plus the full affinity ranking.

    Returns the whole network, the scores ordered by rank_all_sources, and the
    whole_train_s / rank_s timings.  The target task is every test class, so
    a test set without exactly n_test classes, or not spec.input_dim columns
    wide, is rejected before training starts.
    """
    if len(test.class_ids) != cfg.n_test:
        raise ValueError(
            f"n_test={cfg.n_test} but the test set has {len(test.class_ids)} classes"
        )
    if test.dim != spec.input_dim:
        raise ValueError(f"input_dim={spec.input_dim} but the test set has {test.dim} columns")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    whole = train_whole_classifier(train, spec, cfg.whole_schedule)
    timings["whole_train_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ordered = rank_all_sources(train, test, whole, cfg)
    timings["rank_s"] = time.perf_counter() - t0
    return whole, ordered, timings


def ablation_comparison(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
    modes: tuple[str, ...] = ABLATION_MODES,
) -> dict[str, RunReport]:
    """Phases 1-2 once, then phase 3 and evaluation for each mode, in order.

    related fine-tunes on the labels of the top_r lowest-score tasks,
    non_related on those of the top_r highest-score tasks, random on a drawn
    label set the size of the related one.  Seeds and budgets are shared, so
    a mode's report does not depend on which other modes run.  Unknown modes,
    and test or training sets with fewer than m_way classes that hold an
    episode's k_shot + q_query rows, fail before any training; so does, after
    ranking and before any fine-tuning, a mode's set with too few such classes.
    """
    for mode in modes:
        if mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    episode = (cfg.m_way, cfg.k_shot, cfg.q_query)
    for split, data in (("test", test), ("training", train)):
        tasks.episode_classes(data, data.class_ids, *episode, f"{split} classes")
    whole, ordered, shared = phases_1_2(train, test, spec, cfg)
    sets = {mode: _pick_ablation_set(mode, ordered, train, cfg) for mode in modes}
    for mode, chosen in sets.items():
        what = f"training classes of the {mode} set"
        tasks.episode_classes(train, chosen.label_set, *episode, what)
    reports: dict[str, RunReport] = {}
    for mode, chosen in sets.items():
        timings = dict(shared)

        t0 = time.perf_counter()
        tuned, _ = episodic_finetune(whole, chosen, train, cfg)
        timings["finetune_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        acc_mean, ci95 = evaluate_fewshot(tuned, test, cfg)
        timings["eval_s"] = time.perf_counter() - t0

        reports[mode] = RunReport(
            scores=tuple(ordered),
            selected_labels=chosen,
            tas_histogram=tas_histogram(ordered),
            label_frequency=label_frequency(ordered[: cfg.top_r]),
            fewshot_accuracy_mean=acc_mean,
            fewshot_ci95=ci95,
            timings=timings,
            ablation_mode=mode,
        )
    return reports

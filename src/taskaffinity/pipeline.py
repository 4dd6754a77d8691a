"""Three-phase few-shot pipeline driven by task affinity.

Phase 1 trains one whole-classification network over every training class.
Phase 2 scores each candidate source task against the target: centroids are
matched by the Hungarian algorithm, source labels are rewritten into target
slots, a small clone network is fine-tuned into an epsilon-approximation of
the source task, and the affinity score is the distance between its Fisher
diagonal on source query data and on target support data.  Lowest scores
win.  The epsilon-approximations train in a rolling pool of POOL_SLOTS
tasks (nnet.train_pool), each task scored as it leaves; every number is the
one a task trained alone gets, and only the order of the per-task debug
lines follows the order tasks leave the pool (still deterministic).  Phase 3
fine-tunes the encoder episodically, sampling m-way k-shot episodes only
from rows whose labels appear in the selected related tasks, with a soft
nearest-centroid head; evaluation uses hard nearest-centroid episodes with a
normal-approximation confidence interval.

Every random stream derives from the master seed and structural indices
(task index, step index), never from label values; relabeling task classes
by a permutation therefore reproduces scores bitwise.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import fisher, matching, nnet, tasks
from .seeding import derive_seed, seed_grid

log = logging.getLogger(__name__)

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
        if self.n_test < 2:
            raise ValueError("n_test must be >= 2: a target task has at least two classes")
        if min(self.m_way, self.k_shot, self.q_query) < 1:
            raise ValueError("m_way, k_shot, q_query must be positive")
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
    trace_aa and trace_ab are the traces of its two Fisher diagonals (on
    source query and on target support) before unit-trace scaling.  With
    verbose_fisher, f_aa and f_ab are the two unit-trace diagonals as
    read-only arrays; otherwise None.  Equality leaves the diagonals out:
    they follow from the rest."""

    task_id: int
    score: fisher.AffinityScore
    assignment: matching.Assignment
    class_ids: tuple[int, ...]
    record: EpsApproxRecord
    trace_aa: float
    trace_ab: float
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
    fewshot_accuracy_mean: float
    fewshot_ci95: float
    finetune_loss: tuple[float, ...]  # phase 3's mean episode loss per meta-step
    # whole_train_s, rank_s, finetune_s, eval_s; finetune_s is the lockstep
    # fine-tune's wall time over the number of modes: their sum is phase 3's
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
        net = nnet.train(net, batch, schedule)
    except ValueError as exc:
        raise ValueError(f"whole classifier: {exc}") from None
    if log.isEnabledFor(logging.DEBUG):  # the loss is a full forward pass
        log.debug("whole classifier trained, final loss %.4f", nnet.loss(net, batch))
    return net


# ---------------------------------------------------------------------------
# phase 2: affinity scoring


def build_eps_approx(
    slot: nnet.PoolExit, cfg: PipelineConfig
) -> tuple[nnet.Network, EpsApproxRecord]:
    """One source task's epsilon-approximation network and record, from its
    slot as it left the pool (see _approximations): the whole network's
    encoder under a fresh n_test-way head, fine-tuned on the remapped support
    until query accuracy reached 1 - epsilon or the epoch budget ran out.
    Budget exhaustion is not an error; the record says what was reached.  A
    fine-tune that left non-finite parameters raises its error here."""
    if slot.error is not None:
        raise slot.error
    record = EpsApproxRecord(
        achieved_epsilon=1.0 - slot.accuracy,
        epochs_used=slot.epochs,
        reached_target=slot.accuracy >= 1.0 - cfg.epsilon,
    )
    return nnet.Network(slot.spec, slot.params), record


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
    assignment: matching.Assignment,
    slot: nnet.PoolExit,
    target: TargetView,
    train: tasks.Dataset,
    cfg: PipelineConfig,
) -> RankedTask:
    """Affinity score of one source task, its class slots matched onto the
    target's by assignment and its epsilon-approximation trained in slot
    (see _approximations), against the target task, whose side view_target
    has built under the same whole network and config.

    With cfg.verbose_fisher the result also keeps the two Fisher diagonals.
    """
    # the epsilon-approximation network, and its unit-trace Fisher diagonals
    # on source query and target support.  A diverged approximation
    # overflows; the checks, not numpy, report it.
    qry = nnet.Batch(train.features[slot.job.query_rows], slot.job.query_labels)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            approx, record = build_eps_approx(slot, cfg)
        except ValueError as exc:
            raise ValueError(f"source task {source.task_id} eps-approximation: {exc}") from None
        try:
            raw_aa = fisher.empirical_fisher_diag(approx, qry)
            f_aa = fisher.unit_trace(raw_aa)
            raw_ab = fisher.empirical_fisher_diag(approx, target.batch)
            f_ab = fisher.unit_trace(raw_ab)
        except ValueError as exc:
            raise ValueError(
                f"source task {source.task_id} Fisher diagonal after "
                f"{record.epochs_used} eps-approximation epochs: {exc}"
            ) from None
    log.debug(
        "task %d eps-approx: achieved_eps=%.3f epochs=%d reached=%s",
        source.task_id, record.achieved_epsilon, record.epochs_used, record.reached_target,
    )

    score = fisher.AffinityScore(float(fisher.tas(f_aa, f_ab)))
    head = (source.task_id, score, assignment, source.class_ids, record,
            float(raw_aa.sum()), float(raw_ab.sum()))
    if not cfg.verbose_fisher:
        return RankedTask(*head)
    f_aa.setflags(write=False)
    f_ab.setflags(write=False)
    return RankedTask(*head, f_aa, f_ab)


ENCODE_CHUNK = 128  # training rows per encode call when matching the source tasks
MATCH_CHUNK = 16  # source tasks whose rows are gathered at once; bounds that memory
POOL_SLOTS = 16  # source tasks whose epsilon-approximations train at once; bounds that memory


def _match_sources(sources, target, train, whole, cfg) -> list[matching.Assignment]:
    """Each source task's matching of its class centroids onto the target's.
    The encoder is frozen, so a task's embeddings are rows of one encode of
    the training set, averaged per class slot, support rows then query rows.
    A task without n_test classes, or whose rows do not fill them, fails
    here, before any training."""
    n = cfg.n_test
    if any(len(s.class_ids) != n for s in sources):
        raise ValueError("source must have n_test classes")
    if not sources:
        return []
    emb = np.concatenate([nnet.encode(whole, train.features[lo : lo + ENCODE_CHUNK])
                          for lo in range(0, train.n, ENCODE_CHUNK)])
    cents = []
    for lo in range(0, len(sources), MATCH_CHUNK):
        block = sources[lo : lo + MATCH_CHUNK]
        rows, groups = tasks.task_slots(train, block)
        cents.append(matching.class_centroids(emb[rows], groups, len(block) * n))
    cents = np.concatenate(cents).reshape(len(sources), n, -1)
    try:
        return matching.hungarian(matching.cost_matrix(cents, target.centroids))
    except matching.CostError as exc:
        raise ValueError(f"source task {sources[exc.index].task_id} matching: {exc}") from None


def _approximations(sources, assignments, train, whole, cfg, failed: dict):
    """Each source task's epsilon-approximation slot, as the task leaves
    nnet.train_pool: tasks of equal support and query row counts share one
    pool, entering it in sources order with the head and minibatch seeds of
    their task ids, their rows labelled by the target slots their classes
    matched.  No task after the first index in failed enters."""
    seed = cfg.approx_schedule.seed
    shapes = [(len(s.support_rows), len(s.query_rows)) for s in sources]

    def jobs(shape):
        for i, (source, assignment) in enumerate(zip(sources, assignments)):
            if failed and i > min(failed):
                return
            if shapes[i] != shape:
                continue
            rows = np.array(source.support_rows + source.query_rows)
            slots = np.searchsorted(source.class_ids, train.labels[rows])
            labels, k = np.asarray(assignment.mapping)[slots], shape[0]
            yield nnet.PoolJob(i, derive_seed(seed, _STREAM_HEAD, source.task_id),
                               derive_seed(seed, _STREAM_APPROX_TRAIN, source.task_id),
                               rows[:k], labels[:k], rows[k:], labels[k:])

    for shape in dict.fromkeys(shapes):
        yield from nnet.train_pool(whole, cfg.n_test, train.features, jobs(shape),
                                   cfg.approx_schedule, 1.0 - cfg.epsilon, POOL_SLOTS)


def rank_all_sources(
    sources: list[tasks.TaskSpec], target: TargetView, train: tasks.Dataset,
    whole: nnet.Network, cfg: PipelineConfig,
) -> list[RankedTask]:
    """Score the source tasks against the target view in three stages: match
    them all at once (_match_sources), score each with mtas as its
    epsilon-approximation leaves the pool (_approximations), and order them
    by ascending score, ties by task_id.  When tasks fail, the error is the
    first failing task's in sources order, as if they ran one by one."""
    assignments = _match_sources(sources, target, train, whole, cfg)
    ranked, failed = [], {}
    for slot in _approximations(sources, assignments, train, whole, cfg, failed):
        i = slot.job.key
        try:
            ranked.append(mtas(sources[i], assignments[i], slot, target, train, cfg))
        except ValueError as exc:
            failed[i] = exc
    if failed:
        raise failed[min(failed)]
    return sorted(ranked, key=lambda r: (r.score.value, r.task_id))


def select_labels(
    mode: str, ordered: list[RankedTask], train: tasks.Dataset, cfg: PipelineConfig
) -> RelatedSet:
    """The label set a run fine-tunes on, ascending, with every training row
    carrying one.  related takes the classes of the top_r lowest-score tasks
    in ordered, non_related those of the top_r highest, random a seeded draw
    of training classes as many as the related set holds."""
    top = ordered[-cfg.top_r :] if mode == "non_related" else ordered[: cfg.top_r]
    ids = {cid for r in top for cid in r.class_ids}
    if mode == "random":
        rng = np.random.default_rng(derive_seed(cfg.master_seed, _STREAM_ABLATION))
        all_ids = train.class_ids
        picked = rng.choice(len(all_ids), size=len(ids), replace=False)
        ids = {all_ids[int(k)] for k in picked}
    label_set = tuple(sorted(ids))
    rows = np.flatnonzero(np.isin(train.labels, label_set))
    return RelatedSet(label_set, tuple(int(r) for r in rows))


# ---------------------------------------------------------------------------
# phase 3: episodic fine-tuning with a soft nearest-centroid head


def _positions(draws: dict | None, data: tasks.Dataset, classes: list[int],
               cfg: PipelineConfig, seed: int, stream: int, *axes):
    """The tasks.draw_positions draw over classes, one episode per
    derive_seed(seed, stream, *cell) of the axes' grid.  Given draws, one
    dict per config and stream, it keeps each draw under its classes' row
    counts, the only thing a draw depends on besides the seeds, and hands it
    out again for classes of the same row counts."""
    draws = {} if draws is None else draws
    counts = tuple(data.class_index[c].size for c in classes)
    if counts not in draws:
        seeds = seed_grid(seed, (stream,), *axes)
        draws[counts] = tasks.draw_positions(counts, cfg.m_way, cfg.k_shot + cfg.q_query, seeds)
    return draws[counts]


def episodic_finetune(
    whole: nnet.Network, sets: dict[str, RelatedSet], train: tasks.Dataset, cfg: PipelineConfig,
) -> dict[str, tuple[nnet.Network, list[float]]]:
    """Encoder-only episodic fine-tuning of one copy of whole per mode of
    sets, each restricted to its set's rows, all in lockstep.

    Each meta-update averages, per mode, the loss gradient of
    finetune_schedule.batch_size episodes drawn from the training rows of
    its set's classes only; finetune_schedule.epochs counts meta-updates.
    Every episode is drawn before the first meta-update, one draw per
    distinct row counts of the modes' classes (see _positions), and each
    meta-update gathers every mode's rows, then their features once per
    side.  Returns each mode's network and each of its meta-updates' mean
    loss, which do not depend on the other modes.
    """
    sched, draws, plans = cfg.finetune_schedule, {}, []
    for mode, chosen in sets.items():
        classes = tasks.episode_classes(
            train, chosen.label_set, cfg.m_way, cfg.k_shot, cfg.q_query,
            f"training classes of the {mode} set",
        )
        plans.append((tasks.row_table(train, classes), *_positions(
            draws, train, classes, cfg, sched.seed, _STREAM_FINETUNE,
            range(sched.epochs), range(sched.batch_size))))

    def episodes():
        for lo in range(0, sched.epochs * sched.batch_size, sched.batch_size):
            hi = lo + sched.batch_size
            sup, qry = zip(*(tasks.episode_rows(table, picks[lo:hi], positions[lo:hi], cfg.k_shot)
                             for table, picks, positions in plans))
            yield train.features[np.stack(sup)], train.features[np.stack(qry)]

    try:
        tuned, histories = nnet.train_episodic(
            whole, len(sets), episodes(), sched, cfg.k_shot, cfg.softmax_temperature
        )
    except nnet.NonFiniteError as exc:
        where = f" of the {list(sets)[exc.row]} set" if len(sets) > 1 else ""
        raise ValueError(f"phase-3 fine-tune{where}: {exc}") from None
    return dict(zip(sets, zip(tuned, histories)))


EVAL_CHUNK = 50  # evaluation episodes per stack; bounds the memory one stack holds


def evaluate_fewshot(
    net: nnet.Network, test: tasks.Dataset, cfg: PipelineConfig, draws: dict | None = None
) -> tuple[float, float]:
    """Mean hard nearest-centroid accuracy over fresh episodes, with
    1.96*sd/sqrt(n).  The episodes are drawn at once, or taken from draws
    (see _positions)."""
    classes = tasks.episode_classes(
        test, test.class_ids, cfg.m_way, cfg.k_shot, cfg.q_query, "test classes"
    )
    n = cfg.n_eval_episodes
    table = tasks.row_table(test, classes)
    picks, positions = _positions(
        draws, test, classes, cfg, cfg.master_seed, _STREAM_EVAL, range(n)
    )
    accs = np.empty(n)
    for lo in range(0, n, EVAL_CHUNK):
        stop = min(lo + EVAL_CHUNK, n)
        sup, qry = tasks.episode_rows(table, picks[lo:stop], positions[lo:stop], cfg.k_shot)
        es = nnet.encode(net, test.features[sup])
        eq = nnet.encode(net, test.features[qry])
        accs[lo:stop] = nnet.centroid_accuracy(es, eq, cfg.k_shot)
    mean = float(np.mean(accs))
    if n < 2:
        return mean, 0.0
    sd = float(np.std(accs, ddof=1))
    return mean, 1.96 * sd / np.sqrt(n)


# ---------------------------------------------------------------------------
# full runs


def phases_1_2(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
) -> tuple[nnet.Network, list[RankedTask], dict[str, float]]:
    """Whole-classification training plus the full affinity ranking.

    Returns the whole network, the scores of s_count sampled source tasks
    ordered by rank_all_sources, and the whole_train_s / rank_s timings.  The
    target task is every test class, so a test set without exactly n_test
    classes is rejected before training starts; so is a training or test set
    not spec.input_dim columns wide.
    """
    if len(test.class_ids) != cfg.n_test:
        raise ValueError(
            f"n_test={cfg.n_test} but the test set has {len(test.class_ids)} classes"
        )
    for split, data in (("training", train), ("test", test)):
        if data.dim != spec.input_dim:
            raise ValueError(
                f"input_dim={spec.input_dim} but the {split} set has {data.dim} columns"
            )
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    whole = train_whole_classifier(train, spec, cfg.whole_schedule)
    timings["whole_train_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    seed = derive_seed(cfg.master_seed, _STREAM_TASKS)
    sources = tasks.sample_source_tasks(train, cfg.s_count, cfg.n_test, seed)
    ordered = rank_all_sources(sources, view_target(test, whole, cfg), train, whole, cfg)
    timings["rank_s"] = time.perf_counter() - t0
    return whole, ordered, timings


def ablation_comparison(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
    modes: tuple[str, ...] = ABLATION_MODES,
) -> dict[str, RunReport]:
    """Phases 1-2 once, phase 3 for every mode in lockstep, then each mode's
    evaluation, in order.

    Each mode fine-tunes on the label set select_labels picks for it.  Seeds
    and budgets are shared, so a mode's report does not depend on which
    other modes run; modes whose eligible classes have the same row counts
    share one fine-tuning draw, and all share one evaluation draw.  No mode,
    unknown modes, and test or training sets with fewer than m_way classes
    that hold an episode's k_shot + q_query rows fail before any training; so
    does, after ranking and before any fine-tuning, a mode's set with too few
    such classes.
    """
    if not modes:
        raise ValueError(f"no ablation mode given; expected some of {ABLATION_MODES}")
    for mode in modes:
        if mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    episode = (cfg.m_way, cfg.k_shot, cfg.q_query)
    for split, data in (("test", test), ("training", train)):
        tasks.episode_classes(data, data.class_ids, *episode, f"{split} classes")
    whole, ordered, shared = phases_1_2(train, test, spec, cfg)
    sets = {mode: select_labels(mode, ordered, train, cfg) for mode in modes}
    t0 = time.perf_counter()
    tuned = episodic_finetune(whole, sets, train, cfg)
    shared["finetune_s"] = (time.perf_counter() - t0) / len(sets)
    eval_draws: dict = {}
    reports: dict[str, RunReport] = {}
    for mode, chosen in sets.items():
        timings = dict(shared)
        net, losses = tuned[mode]
        t0 = time.perf_counter()
        acc_mean, ci95 = evaluate_fewshot(net, test, cfg, eval_draws)
        timings["eval_s"] = time.perf_counter() - t0

        reports[mode] = RunReport(
            scores=tuple(ordered),
            selected_labels=chosen,
            fewshot_accuracy_mean=acc_mean,
            fewshot_ci95=ci95,
            finetune_loss=tuple(losses),
            timings=timings,
            ablation_mode=mode,
        )
    return reports

"""Three-phase few-shot pipeline driven by task affinity.

Phase 1 trains one whole-classification network over every training class.
Phase 2 scores each candidate source task against the target: centroids are
matched by the Hungarian algorithm, source labels are rewritten into target
slots (tasks.task_slots finds each row's slot once), a small clone network
is fine-tuned into an epsilon-approximation of the source task, and the
affinity score is the distance between its Fisher diagonal on source query
data and on target support data.  Lowest scores win.  The
epsilon-approximations train in a rolling pool of POOL_SLOTS tasks
(nnet.train_pool) and are scored in chunks of up to SCORE_CHUNK as they
leave it, each chunk's Fisher diagonals in one stacked pass per side; every
number and every error is the one a task scored alone gets, and only the
order of the per-task debug lines follows the order tasks leave the pool
(still deterministic).  Phase 3 fine-tunes the encoder episodically,
sampling m-way k-shot episodes only from rows whose labels appear in the
selected related tasks, with a soft nearest-centroid head; evaluation uses
hard nearest-centroid episodes with a normal-approximation confidence
interval.

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
from .seeding import derive_seed, generators, seed_grid

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
        if self.m_way < 2:
            raise ValueError("m_way must be >= 2: an episode tells at least two classes apart")
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
    # whole_train_s, rank_s, finetune_s, eval_s; finetune_s and eval_s are the
    # lockstep fine-tune's and the one evaluation call's wall times over the
    # number of modes: each stage's sum over the modes is its wall time
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
    try:
        net = nnet.train(net, tasks.batch_of(train), schedule)
    except ValueError as exc:
        raise ValueError(f"whole classifier: {exc}") from None
    log.debug("whole classifier trained")
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
    tgt = tasks.batch_of(test)
    cents = matching.class_centroids(nnet.encode(whole, tgt.features), tgt.labels, cfg.n_test)
    return TargetView(tgt, cents)


def mtas(slots: list[nnet.PoolExit], sources: tasks.TaskBlock,
         assignments: list[matching.Assignment], target: TargetView, train: tasks.Dataset,
         cfg: PipelineConfig, work: dict | None = None,
         ) -> tuple[list[RankedTask], dict[int, ValueError]]:
    """Affinity scores of a chunk of source tasks against the target task.  A
    slot is a task's epsilon-approximation as it left the pool (see
    _approximations), all of one query row count, and slot.job.key the
    task's index in sources and in assignments, which matched its class
    slots onto the target's; view_target built the target's side under the
    same whole network and config.  Each side's Fisher diagonals are one
    stacked pass, through work's buffers if given (see nnet.fisher_diag).
    Returns the scored tasks in slot order and, by index in sources, the
    error each failing task raises scored alone.  With cfg.verbose_fisher
    each result keeps its two unit-trace diagonals."""
    ranked, errors = [], {}
    built = []  # (slot, network, record) of each task that has a network
    # a diverged approximation overflows; the checks, not numpy, report it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for slot in slots:
            try:
                built.append((slot, *build_eps_approx(slot, cfg)))
            except ValueError as exc:
                task_id = sources.task_ids[slot.job.key]
                errors[slot.job.key] = ValueError(f"source task {task_id} eps-approximation: {exc}")
        if not built:
            return ranked, errors
        spec, params = built[0][1].spec, np.stack([net.params for _, net, _ in built])
        rows = np.stack([slot.job.query_rows for slot, _, _ in built])
        labels = np.stack([slot.job.query_labels for slot, _, _ in built])
        raw_aa = nnet.fisher_diag(spec, params, train.features[rows], labels, work)
        raw_ab = nnet.fisher_diag(spec, params, target.batch.features, target.batch.labels, work)
        while True:  # unit_trace names the first degenerate row, source side first
            try:
                f_aa, f_ab = fisher.unit_trace(raw_aa), fisher.unit_trace(raw_ab)
                break
            except fisher.DegenerateFisherError as exc:
                slot, _, record = built.pop(exc.row[0])
                errors[slot.job.key] = ValueError(
                    f"source task {sources.task_ids[slot.job.key]} Fisher diagonal after "
                    f"{record.epochs_used} eps-approximation epochs: {exc.reason}")
                raw_aa, raw_ab = (np.delete(raw, exc.row[0], axis=0) for raw in (raw_aa, raw_ab))

    scores, traces_aa, traces_ab = fisher.tas(f_aa, f_ab), raw_aa.sum(axis=-1), raw_ab.sum(axis=-1)
    f_aa.setflags(write=False)
    f_ab.setflags(write=False)
    for j, (slot, _, record) in enumerate(built):
        i, task_id = slot.job.key, int(sources.task_ids[slot.job.key])
        log.debug("task %d eps-approx: achieved_eps=%.3f epochs=%d reached=%s",
                  task_id, record.achieved_epsilon, record.epochs_used, record.reached_target)
        kept = (f_aa[j], f_ab[j]) if cfg.verbose_fisher else ()
        ranked.append(RankedTask(task_id, fisher.AffinityScore(float(scores[j])), assignments[i],
                                 tuple(sources.class_ids[i].tolist()), record,
                                 float(traces_aa[j]), float(traces_ab[j]), *kept))
    return ranked, errors

ENCODE_CHUNK = 128  # training rows per encode call when matching the source tasks
POOL_SLOTS = 16  # source tasks whose epsilon-approximations train at once; bounds that memory
SCORE_CHUNK = 8  # source tasks whose Fisher diagonals are taken at once; bounds that memory:
# a chunk's held Fisher buffers take about 1.7 MB for both sides at the shipped shapes


def _match_sources(sources, groups, target, train, whole, cfg) -> list[matching.Assignment]:
    """Each source task's matching of its class centroids onto the target's.
    The encoder is frozen, so a task's embeddings are rows of one encode of
    the training set, averaged per group (see tasks.task_slots), support
    rows then query rows.  Tasks without n_test classes, or a task whose
    rows leave a class empty, fail here, before any training."""
    n = cfg.n_test
    if sources.class_ids.shape[1] != n:
        raise ValueError("source must have n_test classes")
    emb = np.concatenate([nnet.encode(whole, train.features[lo : lo + ENCODE_CHUNK])
                          for lo in range(0, train.n, ENCODE_CHUNK)])
    cents = matching.class_centroids(emb, groups, len(sources) * n, sources.rows)
    cents = cents.reshape(len(sources), n, -1)
    try:
        return matching.hungarian(matching.cost_matrix(cents, target.centroids))
    except matching.CostError as exc:
        raise ValueError(f"source task {sources.task_ids[exc.index]} matching: {exc}") from None


def _approximations(sources, groups, assignments, train, whole, cfg, failed: dict):
    """The source tasks' epsilon-approximation slots, in chunks of up to
    SCORE_CHUNK as the tasks leave nnet.train_pool: tasks of equal support
    and query row counts share one pool, entering it in sources order with
    the head and minibatch Generators of their task ids, made as they enter,
    their rows labelled by the target slots their groups matched.  A chunk
    ends early with its pool, and with a task that failed its fine-tune, so
    that the failure stops later tasks entering at once.  No task after the
    first index in failed enters."""
    seed, starts, rows = cfg.approx_schedule.seed, sources.starts, sources.rows
    labels = np.array([a.mapping for a in assignments]).ravel()[groups]
    shapes = list(zip(sources.n_support.tolist(), (np.diff(starts) - sources.n_support).tolist()))

    def jobs(shape):
        picked = [i for i in range(len(sources)) if shapes[i] == shape]
        ids = sources.task_ids[picked].tolist()
        for i, head, order in zip(picked, generators(seed_grid(seed, (_STREAM_HEAD,), ids)),
                                  generators(seed_grid(seed, (_STREAM_APPROX_TRAIN,), ids))):
            if failed and i > min(failed):
                return
            lo, mid, hi = starts[i], starts[i] + shape[0], starts[i + 1]
            yield nnet.PoolJob(i, head, order, rows[lo:mid], labels[lo:mid], rows[mid:hi],
                               labels[mid:hi])

    for shape in dict.fromkeys(shapes):
        chunk = []
        for slot in nnet.train_pool(whole, cfg.n_test, train.features, jobs(shape),
                                    cfg.approx_schedule, 1.0 - cfg.epsilon, POOL_SLOTS):
            chunk.append(slot)
            if len(chunk) == SCORE_CHUNK or slot.error is not None:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def rank_all_sources(
    sources: tasks.TaskBlock, target: TargetView, train: tasks.Dataset,
    whole: nnet.Network, cfg: PipelineConfig,
) -> list[RankedTask]:
    """Score the source tasks against the target view in three stages: match
    them all at once (_match_sources), score them with mtas in chunks as
    their epsilon-approximations leave the pool (_approximations), and order
    them by ascending score, ties by task_id.  When tasks fail, the error is
    the first failing task's in sources order, as if they ran one by one."""
    groups = tasks.task_slots(train, sources)
    assignments = _match_sources(sources, groups, target, train, whole, cfg)
    ranked, failed, work = [], {}, {}  # work: the Fisher passes' buffers, for this call only
    for slots in _approximations(sources, groups, assignments, train, whole, cfg, failed):
        scored, errors = mtas(slots, sources, assignments, target, train, cfg, work)
        ranked += scored
        failed.update(errors)
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


def episodic_finetune(
    whole: nnet.Network, sets: dict[str, RelatedSet], train: tasks.Dataset, cfg: PipelineConfig,
) -> dict[str, tuple[nnet.Network, list[float]]]:
    """Encoder-only episodic fine-tuning of one copy of whole per mode of
    sets, each restricted to its set's rows, all in lockstep.

    Each meta-update averages, per mode, the loss gradient of
    finetune_schedule.batch_size episodes drawn from the training rows of
    its set's classes only; finetune_schedule.epochs counts meta-updates.
    Every episode is drawn before the first meta-update, one
    tasks.draw_positions draw per distinct row counts of the modes' classes
    (all a draw depends on besides the seeds), made row indices
    FINETUNE_CHUNK meta-updates at a time; each meta-update gathers every
    mode's features once per side.  Returns each mode's network and
    each of its meta-updates' mean loss, which do not depend on the others.
    """
    sched, draws, plans = cfg.finetune_schedule, {}, []
    seeds = seed_grid(sched.seed, (_STREAM_FINETUNE,), range(sched.epochs), range(sched.batch_size))
    for mode, chosen in sets.items():
        table, counts = tasks.episode_table(
            train, chosen.label_set, cfg.m_way, cfg.k_shot, cfg.q_query,
            f"training classes of the {mode} set",
        )
        if counts not in draws:
            draws[counts] = tasks.draw_positions(counts, cfg.m_way, cfg.k_shot + cfg.q_query, seeds)
        plans.append((table, *draws[counts]))

    def episodes():
        size = sched.batch_size
        for lo in range(0, sched.epochs * size, FINETUNE_CHUNK * size):
            hi = lo + FINETUNE_CHUNK * size  # the last chunk's slices stop short
            rows = [tasks.episode_rows(table, picks[lo:hi], positions[lo:hi], cfg.k_shot)
                    for table, picks, positions in plans]
            sup, qry = map(np.stack, zip(*rows))  # each (modes, episodes, rows)
            for at in range(0, sup.shape[1], size):  # one gather per side and meta-step
                yield train.features[sup[:, at : at + size]], train.features[qry[:, at : at + size]]

    try:
        tuned, histories = nnet.train_episodic(
            whole, len(sets), episodes(), sched, cfg.k_shot, cfg.softmax_temperature
        )
    except nnet.NonFiniteError as exc:
        where = f" of the {list(sets)[exc.row]} set" if len(sets) > 1 else ""
        raise ValueError(f"phase-3 fine-tune{where}: {exc}") from None
    return dict(zip(sets, zip(tuned, histories)))


EVAL_CHUNK = 50  # evaluation episodes per stack; bounds the memory one stack holds
FINETUNE_CHUNK = 32  # meta-steps whose episode rows are built at once; bounds the index block


def evaluate_fewshot(
    nets: list[nnet.Network], test: tasks.Dataset, cfg: PipelineConfig
) -> list[tuple[float, float]]:
    """Each network's mean hard nearest-centroid accuracy over one draw of
    fresh episodes, with 1.96*sd/sqrt(n).  Each EVAL_CHUNK of episodes has
    its row indices and features gathered once, then encoded by each network."""
    table, counts = tasks.episode_table(
        test, test.class_ids, cfg.m_way, cfg.k_shot, cfg.q_query, "test classes"
    )
    n = cfg.n_eval_episodes
    picks, positions = tasks.draw_positions(counts, cfg.m_way, cfg.k_shot + cfg.q_query,
                                            seed_grid(cfg.master_seed, (_STREAM_EVAL,), range(n)))
    accs = np.empty((len(nets), n))
    for lo in range(0, n, EVAL_CHUNK):
        stop = min(lo + EVAL_CHUNK, n)
        sup, qry = tasks.episode_rows(table, picks[lo:stop], positions[lo:stop], cfg.k_shot)
        xs, xq = test.features[sup], test.features[qry]
        for acc, net in zip(accs, nets):
            acc[lo:stop] = nnet.centroid_accuracy(nnet.encode(net, xs), nnet.encode(net, xq),
                                                  cfg.k_shot)
    if n < 2:
        return [(float(np.mean(acc)), 0.0) for acc in accs]
    return [(float(np.mean(acc)), 1.96 * float(np.std(acc, ddof=1)) / np.sqrt(n)) for acc in accs]


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
    classes is rejected before training starts; so are a training set of
    fewer classes and a training or test set not spec.input_dim columns wide.
    """
    if len(test.class_ids) != cfg.n_test:
        raise ValueError(
            f"n_test={cfg.n_test} but the test set has {len(test.class_ids)} classes"
        )
    if cfg.n_test > len(train.class_ids):
        raise ValueError(f"n_test={cfg.n_test} exceeds the {len(train.class_ids)} "
                         "training classes")
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
    """Phases 1-2 once, phase 3 for every mode in lockstep, then every mode's
    evaluation in one call.

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
        tasks.episode_table(data, data.class_ids, *episode, f"{split} classes")
    whole, ordered, shared = phases_1_2(train, test, spec, cfg)
    sets = {mode: select_labels(mode, ordered, train, cfg) for mode in modes}
    t0 = time.perf_counter()
    tuned = episodic_finetune(whole, sets, train, cfg)
    shared["finetune_s"] = (time.perf_counter() - t0) / len(sets)
    t0 = time.perf_counter()
    evals = evaluate_fewshot([net for net, _ in tuned.values()], test, cfg)
    shared["eval_s"] = (time.perf_counter() - t0) / len(sets)
    reports: dict[str, RunReport] = {}
    for (mode, chosen), (acc_mean, ci95) in zip(sets.items(), evals):
        reports[mode] = RunReport(
            scores=tuple(ordered),
            selected_labels=chosen,
            fewshot_accuracy_mean=acc_mean,
            fewshot_ci95=ci95,
            finetune_loss=tuple(tuned[mode][1]),
            timings=dict(shared),
            ablation_mode=mode,
        )
    return reports

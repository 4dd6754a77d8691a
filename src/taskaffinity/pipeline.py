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
from dataclasses import dataclass, replace

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
    verbose_fisher: bool = False  # keep each task's diagnostics on its RankedTask

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
class RankedTask:
    """One source task's score.  With verbose_fisher, diagnostics holds the
    JSON form of its epsilon-approximation record and both unit-trace Fisher
    diagonals (keys f_aa, f_ab, achieved_epsilon, approx_epochs,
    reached_target); otherwise it is None."""

    task_id: int
    score: fisher.AffinityScore
    assignment: matching.Assignment
    diagnostics: dict | None = None


@dataclass(frozen=True)
class TargetView:
    """The target task's support rows labelled by class slot, and their class
    centroids under the whole-classification encoder: the target side of
    every source task's score."""

    batch: nnet.Batch
    centroids: np.ndarray


@dataclass(frozen=True)
class RelatedSet:
    """Union of class labels from selected tasks plus every training row carrying them."""

    label_set: tuple[int, ...]
    row_indices: tuple[int, ...]


@dataclass(frozen=True)
class EpsApproxRecord:
    """What the epsilon-approximation fine-tune actually achieved."""

    achieved_epsilon: float
    epochs_used: int
    reached_target: bool


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
    trained, history = nnet.train(net, batch, schedule)
    log.debug("whole classifier trained, final loss %.4f", history[-1] if history else np.nan)
    return trained


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
    seen: list[float] = []

    def stop(current: nnet.Network, epoch: int, history: list[float]) -> bool:
        acc = nnet.evaluate(current, remapped_query)
        seen.append(acc)
        return acc >= target_acc

    trained, _ = nnet.train(net, remapped_support, sched, stop_fn=stop)
    final_acc = seen[-1] if seen else nnet.evaluate(trained, remapped_query)
    record = EpsApproxRecord(
        achieved_epsilon=1.0 - final_acc,
        epochs_used=len(seen),
        reached_target=final_acc >= target_acc,
    )
    return trained, record


def view_target(
    target: tasks.TaskSpec, test_data: tasks.Dataset, whole: nnet.Network, cfg: PipelineConfig
) -> TargetView:
    """The target side of mtas, built once for all source tasks."""
    if len(target.class_ids) != cfg.n_test:
        raise ValueError("target must have n_test classes")
    tgt = tasks.batch_of(test_data, target.support_rows, target.class_ids)
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

    With cfg.verbose_fisher the result also carries the task's diagnostics.
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

    # 4. epsilon-approximation network for the source task
    approx, record = build_eps_approx(
        whole,
        sup,
        qry,
        cfg,
        head_seed=derive_seed(cfg.approx_schedule.seed, _STREAM_HEAD, source.task_id),
        train_seed=derive_seed(cfg.approx_schedule.seed, _STREAM_APPROX_TRAIN, source.task_id),
    )
    log.debug(
        "task %d eps-approx: achieved_eps=%.3f epochs=%d reached=%s",
        source.task_id, record.achieved_epsilon, record.epochs_used, record.reached_target,
    )

    # 5. unit-trace Fisher diagonals on source query and target support
    f_aa = fisher.normalize_unit_trace(fisher.empirical_fisher_diag(approx, qry))
    f_ab = fisher.normalize_unit_trace(fisher.empirical_fisher_diag(approx, target.batch))

    # 6. the score
    diagnostics = None
    if cfg.verbose_fisher:
        diagnostics = {
            "f_aa": fisher.to_doc(f_aa),
            "f_ab": fisher.to_doc(f_ab),
            "achieved_epsilon": record.achieved_epsilon,
            "approx_epochs": record.epochs_used,
            "reached_target": record.reached_target,
        }
    return RankedTask(source.task_id, fisher.tas(f_aa, f_ab), assignment, diagnostics)


def prepare_tasks(
    train: tasks.Dataset, test: tasks.Dataset, cfg: PipelineConfig
) -> tuple[list[tasks.TaskSpec], tasks.TaskSpec]:
    """Source tasks (seeded from the master seed) and the target task."""
    source_tasks = tasks.sample_source_tasks(
        train, cfg.s_count, cfg.n_test, derive_seed(cfg.master_seed, _STREAM_TASKS)
    )
    return source_tasks, tasks.build_target_task(test)


def rank_all_sources(
    source_tasks: list[tasks.TaskSpec],
    target: tasks.TaskSpec,
    train_data: tasks.Dataset,
    test_data: tasks.Dataset,
    whole: nnet.Network,
    cfg: PipelineConfig,
) -> list[RankedTask]:
    """Score every source task, in ascending task_id order."""
    view = view_target(target, test_data, whole, cfg)
    results = [mtas(t, view, train_data, whole, cfg) for t in source_tasks]
    return sorted(results, key=lambda r: r.task_id)


def sort_ranked(ranked: list[RankedTask]) -> list[RankedTask]:
    """Ascending by score; ties broken by task_id for a deterministic order."""
    return sorted(ranked, key=lambda r: (r.score.value, r.task_id))


def related_training_set(
    selected: list[RankedTask], source_tasks: list[tasks.TaskSpec], train: tasks.Dataset
) -> RelatedSet:
    """Union of the selected tasks' class labels, with every training row carrying them."""
    by_id = {t.task_id: t for t in source_tasks}
    labels: set[int] = set()
    for r in selected:
        labels.update(by_id[r.task_id].class_ids)
    label_set = tuple(sorted(labels))
    rows = np.flatnonzero(np.isin(train.labels, label_set))
    return RelatedSet(label_set, tuple(int(r) for r in rows))


# ---------------------------------------------------------------------------
# phase 3: episodic fine-tuning with a soft nearest-centroid head


def nearest_centroid(
    es: np.ndarray, eq: np.ndarray, k_shot: int, temperature: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nearest-centroid head on a stack of episodes: each one's cross-entropy
    of softmax(-||query - centroid||^2 / temperature), its gradients on es
    (E, m * k_shot, d) and eq (E, m * q, d), whose rows are grouped by class
    slot, and its hard accuracy, where distance ties go to the lowest class.
    """
    m = es.shape[1] // k_shot
    nq = eq.shape[1]
    y = np.repeat(np.arange(m), nq // m)
    rows = np.arange(nq)
    cents = es.reshape(es.shape[0], m, k_shot, -1).mean(axis=2)
    diff = eq[:, :, None, :] - cents[:, None, :, :]
    d2 = np.sum(diff * diff, axis=3)
    acc = np.mean(np.argmin(d2, axis=2) == y, axis=1)
    logits = -d2 / temperature
    zmax = logits.max(axis=2, keepdims=True)
    lse = zmax[..., 0] + np.log(np.sum(np.exp(logits - zmax), axis=2))
    losses = np.mean(lse - logits[:, rows, y], axis=1)

    dlogits = nnet.softmax(logits)
    dlogits[:, rows, y] -= 1.0
    dlogits /= nq
    dd = -dlogits / temperature
    g_query = 2.0 * (dd.sum(axis=2, keepdims=True) * eq - dd @ cents)
    g_cent = -2.0 * (dd.swapaxes(1, 2) @ eq - dd.sum(axis=1)[:, :, None] * cents)
    g_support = np.repeat(g_cent, k_shot, axis=1) / k_shot
    return losses, g_support, g_query, acc


def episode_loss_grad(
    net: nnet.Network, support: np.ndarray, query: np.ndarray, k_shot: int, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """nearest_centroid's losses (E,) for stacked support and query features,
    and their gradients on the flat vector (E, P), through one encoder pass
    per stack whose activations the pullbacks reuse."""
    fwd_s = nnet.encoder_forward(net, support)
    fwd_q = nnet.encoder_forward(net, query)
    losses, g_s, g_q, _ = nearest_centroid(fwd_s[1][-1], fwd_q[1][-1], k_shot, temperature)
    grads = nnet.encoder_pullback(net, fwd_s, g_s)
    grads += nnet.encoder_pullback(net, fwd_q, g_q)
    return losses, grads


def episodic_finetune(
    whole: nnet.Network,
    related: RelatedSet,
    train: tasks.Dataset,
    cfg: PipelineConfig,
) -> tuple[nnet.Network, list[float]]:
    """Encoder-only episodic fine-tuning restricted to the related rows.

    Each meta-update averages the loss gradient of finetune_schedule.batch_size
    episodes, which run as one stack; finetune_schedule.epochs counts
    meta-updates.  Episodes are sampled exclusively from the related subset of
    the training data.  A meta-step that leaves a non-finite loss or
    parameter raises ValueError.
    """
    sub, _ = tasks.subset_by_classes(train, related.label_set)
    sched = cfg.finetune_schedule
    params = whole.params.copy()
    velocity = np.zeros_like(params)
    lr = sched.learning_rate
    decay_at = set(sched.lr_decay_epochs)
    history: list[float] = []
    for step in range(sched.epochs):
        if step in decay_at:
            lr *= sched.lr_decay_factor
        current = nnet.Network(whole.spec, params)
        seeds = [
            derive_seed(sched.seed, _STREAM_FINETUNE, step, j) for j in range(sched.batch_size)
        ]
        sup, qry = tasks.draw_episodes(sub, cfg.m_way, cfg.k_shot, cfg.q_query, seeds)
        losses, per_episode = episode_loss_grad(
            current, sub.features[sup], sub.features[qry], cfg.k_shot, cfg.softmax_temperature
        )
        # episode by episode, in seed order, so the sum is the serial loop's
        total_grad = np.zeros_like(params)
        for g in per_episode:
            total_grad += g
        velocity = sched.momentum * velocity + total_grad / sched.batch_size
        params = params - lr * velocity
        history.append(float(np.mean(losses)))
        if not (np.isfinite(history[-1]) and np.all(np.isfinite(params))):
            raise ValueError(f"phase-3 meta-step {step} left a non-finite loss or parameters")
    log.debug("episodic fine-tune done, final loss %.4f", history[-1] if history else np.nan)
    return nnet.Network(whole.spec, params), history


EVAL_CHUNK = 50  # evaluation episodes per stack; bounds the memory one stack holds


def evaluate_fewshot(
    net: nnet.Network, test: tasks.Dataset, cfg: PipelineConfig
) -> tuple[float, float]:
    """Mean hard nearest-centroid accuracy over fresh episodes, with 1.96*sd/sqrt(n)."""
    n = cfg.n_eval_episodes
    accs = np.empty(n)
    for lo in range(0, n, EVAL_CHUNK):
        stop = min(lo + EVAL_CHUNK, n)
        seeds = [derive_seed(cfg.master_seed, _STREAM_EVAL, i) for i in range(lo, stop)]
        sup, qry = tasks.draw_episodes(test, cfg.m_way, cfg.k_shot, cfg.q_query, seeds)
        es = nnet.encode(net, test.features[sup])
        eq = nnet.encode(net, test.features[qry])
        accs[lo:stop] = nearest_centroid(es, eq, cfg.k_shot, cfg.softmax_temperature)[3]
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


def label_frequency(selected: list[RankedTask], source_tasks: list[tasks.TaskSpec]) -> dict[int, int]:
    """How many selected tasks contain each class label."""
    by_id = {t.task_id: t for t in source_tasks}
    freq: dict[int, int] = {}
    for r in selected:
        for cid in by_id[r.task_id].class_ids:
            freq[cid] = freq.get(cid, 0) + 1
    return dict(sorted(freq.items()))


def _pick_ablation_set(
    mode: str,
    ordered: list[RankedTask],
    source_tasks: list[tasks.TaskSpec],
    train: tasks.Dataset,
    cfg: PipelineConfig,
) -> RelatedSet:
    related = related_training_set(ordered[: cfg.top_r], source_tasks, train)
    if mode == "related":
        return related
    if mode == "non_related":
        return related_training_set(ordered[-cfg.top_r :], source_tasks, train)
    if mode == "random":
        rng = np.random.default_rng(derive_seed(cfg.master_seed, _STREAM_ABLATION))
        size = len(related.label_set)
        all_ids = train.class_ids
        picked = rng.choice(len(all_ids), size=min(size, len(all_ids)), replace=False)
        ids = tuple(sorted(all_ids[int(k)] for k in picked))
        rows = np.flatnonzero(np.isin(train.labels, ids))
        return RelatedSet(ids, tuple(int(r) for r in rows))
    raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")


def _check_episode_sizes(test: tasks.Dataset, cfg: PipelineConfig) -> None:
    """Fail before any training if evaluation could not sample an episode."""
    need = cfg.k_shot + cfg.q_query
    eligible = len(tasks.episode_classes(test, need))
    if eligible < cfg.m_way:
        raise ValueError(
            f"insufficient samples: only {eligible} test classes have >= {need} rows "
            f"(k_shot + q_query), need m_way={cfg.m_way}"
        )


def phases_1_2(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
) -> tuple[nnet.Network, list[tasks.TaskSpec], list[RankedTask], dict[str, float]]:
    """Whole-classification training plus the full affinity ranking.

    Returns the whole network, the source tasks, the scores sorted by
    sort_ranked, and the whole_train_s / rank_s timings.  The target task is
    every test class, so a test set without exactly n_test classes is
    rejected before training starts.
    """
    if len(test.class_ids) != cfg.n_test:
        raise ValueError(
            f"n_test={cfg.n_test} but the test set has {len(test.class_ids)} classes"
        )
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    whole = train_whole_classifier(train, spec, cfg.whole_schedule)
    timings["whole_train_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    source_tasks, target = prepare_tasks(train, test, cfg)
    ranked = rank_all_sources(source_tasks, target, train, test, whole, cfg)
    ordered = sort_ranked(ranked)
    timings["rank_s"] = time.perf_counter() - t0
    return whole, source_tasks, ordered, timings


def _phase_3_report(
    whole: nnet.Network,
    source_tasks: list[tasks.TaskSpec],
    ordered: list[RankedTask],
    train: tasks.Dataset,
    test: tasks.Dataset,
    cfg: PipelineConfig,
    mode: str,
    timings_shared: dict[str, float],
) -> RunReport:
    """Fine-tune on the mode's label set, evaluate, and assemble the report."""
    timings = dict(timings_shared)
    chosen = _pick_ablation_set(mode, ordered, source_tasks, train, cfg)

    t0 = time.perf_counter()
    tuned, _ = episodic_finetune(whole, chosen, train, cfg)
    timings["finetune_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    acc_mean, ci95 = evaluate_fewshot(tuned, test, cfg)
    timings["eval_s"] = time.perf_counter() - t0

    return RunReport(
        scores=tuple(ordered),
        selected_labels=chosen,
        tas_histogram=tas_histogram(ordered),
        label_frequency=label_frequency(ordered[: cfg.top_r], source_tasks),
        fewshot_accuracy_mean=acc_mean,
        fewshot_ci95=ci95,
        timings=timings,
        ablation_mode=mode,
    )


def ablation_run(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
    mode: str = "related",
) -> RunReport:
    """Full three-phase run with the fine-tuning label set chosen by mode.

    related: union of the top_r lowest-score tasks.  non_related: union of
    the top_r highest-score tasks.  random: a uniformly drawn label set of
    the same size as the related one.  Seeds and budgets are identical across
    modes, so when the label sets coincide the runs are bitwise identical.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    _check_episode_sizes(test, cfg)
    whole, source_tasks, ordered, timings = phases_1_2(train, test, spec, cfg)
    return _phase_3_report(whole, source_tasks, ordered, train, test, cfg, mode, timings)


def ablation_comparison(
    train: tasks.Dataset,
    test: tasks.Dataset,
    spec: nnet.NetworkSpec,
    cfg: PipelineConfig,
) -> dict[str, RunReport]:
    """Reports for all three ablation modes off one shared phase-1/2 pass.

    Identical to calling ablation_run per mode (everything is seeded, so the
    shared phases would come out bitwise-equal anyway) but trains and ranks
    only once, which is what makes multi-seed mode comparisons affordable.
    """
    _check_episode_sizes(test, cfg)
    whole, source_tasks, ordered, timings = phases_1_2(train, test, spec, cfg)
    return {
        mode: _phase_3_report(whole, source_tasks, ordered, train, test, cfg, mode, timings)
        for mode in ABLATION_MODES
    }


# ---------------------------------------------------------------------------
# report serialization


def score_row(r: RankedTask) -> dict:
    """The JSON row of one score; the diagnostics go under "fisher" when kept."""
    row = {
        "task_id": r.task_id,
        "score": r.score.value,
        "mapping": list(r.assignment.mapping),
        "total_cost": r.assignment.total_cost,
    }
    if r.diagnostics is not None:
        row["fisher"] = r.diagnostics
    return row


def report_to_doc(report: RunReport) -> dict:
    """The report as JSON; its score rows leave out the diagnostics, which
    scores.json carries."""
    edges, counts = report.tas_histogram
    return {
        "ablation_mode": report.ablation_mode,
        "scores": [score_row(replace(r, diagnostics=None)) for r in report.scores],
        "selected_labels": {
            "label_set": list(report.selected_labels.label_set),
            "row_indices": list(report.selected_labels.row_indices),
        },
        "tas_histogram": {"edges": list(edges), "counts": list(counts)},
        "label_frequency": {str(k): v for k, v in report.label_frequency.items()},
        "fewshot_accuracy_mean": report.fewshot_accuracy_mean,
        "fewshot_ci95": report.fewshot_ci95,
        "timings": dict(report.timings),
    }


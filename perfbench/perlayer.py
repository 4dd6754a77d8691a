"""Per-layer metrics derived from a traced run.

Times and counts are per traced result, so runs with different result
counts compare.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import os

import numpy as np

from spans import COUNTED_CLASSES
from workloads import HEALTH_REACHED, HEALTH_TASKS, TAS_CONFIG, quiet_cli

# (metric, unit, better).  The comment after each group names the end-to-end
# metric and workload it should move; perfbench/README.md gives the reasons.
METRICS = [
    # result_s and items_per_s on rank
    ("pipeline.rank.s", "s", "lower"),
    ("pipeline.mtas.calls", "count", "lower"),
    ("pipeline.mtas.s", "s", "lower"),
    ("pipeline.build_eps_approx.s", "s", "lower"),
    # useful work of the epsilon-approximation fine-tunes
    ("pipeline.eps_reached_ratio", "ratio", "higher"),
    ("pipeline.approx_epochs", "epochs", "lower"),
    # result_s on rank and ablation
    ("pipeline.whole_train.s", "s", "lower"),
    # result_s on ablation
    ("pipeline.finetune.s", "s", "lower"),
    ("pipeline.eval.s", "s", "lower"),
    ("pipeline.episode_loss_grad.calls", "count", "lower"),
    ("pipeline.episode_loss_grad.self_s", "s", "lower"),
    # rank
    ("nnet.grad.calls", "count", "lower"),
    ("nnet.grad.self_s", "s", "lower"),
    ("nnet.train.self_s", "s", "lower"),
    ("nnet.loss.calls", "count", "lower"),
    ("nnet.evaluate.calls", "count", "lower"),
    ("nnet.per_sample_grads.self_s", "s", "lower"),
    ("fisher.empirical_fisher_diag.calls", "count", "lower"),
    ("fisher.empirical_fisher_diag.self_s", "s", "lower"),
    # peak_rss_mb (computed n*P*8, largest per call)
    ("fisher.grad_bytes", "bytes", "lower"),
    # ablation
    ("nnet.encode.self_s", "s", "lower"),
    ("nnet.encoder_pullback.self_s", "s", "lower"),
    # rank and ablation
    ("nnet.batch_objects", "count", "lower"),
    ("nnet.network_objects", "count", "lower"),
    # rank
    ("matching.hungarian.calls", "count", "lower"),
    ("matching.hungarian.self_s", "s", "lower"),
    ("matching.class_centroids.self_s", "s", "lower"),
    ("matching.remap_labels.self_s", "s", "lower"),
    # ablation (episodes) and rank (batches)
    ("tasks.sample_episode.calls", "count", "lower"),
    ("tasks.sample_episode.self_s", "s", "lower"),
    ("tasks.batch_of.calls", "count", "lower"),
    # result_s, data generation
    ("tasks.family_holdout.self_s", "s", "lower"),
    # theorem1
    ("theorem.noisy_sgd.self_s", "s", "lower"),
    ("theorem.sgd_steps", "count", "lower"),
    ("theorem.step_us", "us", "lower"),
    ("theorem.tas_trajectory.self_s", "s", "lower"),
    ("theorem.solve_optimum.self_s", "s", "lower"),
    # rank and theorem1: config parsing, serialization, atomic writes
    ("cli.main.self_s", "s", "lower"),
    # the tracer itself
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# metric prefix -> traced function, where the two names differ
SPAN_OF = {
    "pipeline.rank": "pipeline.rank_all_sources",
    "pipeline.whole_train": "pipeline.train_whole_classifier",
    "pipeline.finetune": "pipeline.episodic_finetune",
    "pipeline.eval": "pipeline.evaluate_fewshot",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, plain, traced, traced_wall: float) -> tuple[dict, list[str]]:
    """Every metric in METRICS from the spans of the traced results, and the
    traced functions the package no longer defines (their metrics read 0).

    plain and traced are the same results run untraced and then traced."""
    a = tracer.arrays()
    mine = a["result"] >= 0
    n = len(traced)

    def pick(span: str) -> np.ndarray:
        return mine & (a["name_id"] == tracer.name_ids.get(span, -1))

    eps = [(ok, ep) for rid, ok, ep in tracer.eps_records if rid >= 0]
    steps = sum(s for rid, s in tracer.sgd_steps if rid >= 0)
    sgd_self = float(a["self"][pick("theorem.noisy_sgd")].sum())
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    roots = mine & (a["parent"] < 0)
    derived = {
        "pipeline.eps_reached_ratio": _ratio(sum(ok for ok, _ in eps), len(eps)),
        "pipeline.approx_epochs": _ratio(sum(ep for _, ep in eps), len(eps)),
        "fisher.grad_bytes": max((b for rid, b in tracer.grad_bytes if rid >= 0), default=0),
        "theorem.sgd_steps": steps / n,
        "theorem.step_us": _ratio(sgd_self, steps) * 1e6,
        "trace.overhead_frac": _ratio(traced_s - plain_s, plain_s),
        "trace.coverage": _ratio(float(a["dur"][roots].sum()), traced_wall),
    }
    for counter in COUNTED_CLASSES:
        derived[counter] = sum(v for (c, rid), v in tracer.counters.items()
                               if c == counter and rid >= 0) / n

    out, missing = {}, []
    for metric, unit, _ in METRICS:
        if metric in derived:
            value = float(derived[metric])
        else:
            prefix, kind = metric.rsplit(".", 1)
            span = SPAN_OF.get(prefix, prefix)
            if span not in tracer.name_ids:
                missing.append(span)
            sel = pick(span)
            if kind == "calls":
                value = float(sel.sum()) / n
            elif kind == "s":
                value = float(a["dur"][sel].sum()) / n
            else:  # self_s
                value = float(a["self"][sel].sum()) / n
        out[metric] = {"value": value, "unit": unit}
    return out, sorted(set(missing))


HEALTH_ID = -2


def health_check(tracer, workdir: str) -> dict:
    """Traced `tas` on the unmodified configs/tas.json: the tracer must see
    the ROADMAP Baseline's 9 of 200 epsilon-approximation misses."""
    tracer.result_id = HEALTH_ID
    try:
        rc = quiet_cli(["tas", "--config", TAS_CONFIG, "--out", os.path.join(workdir, "health")])
    finally:
        tracer.result_id = -1
    seen = [ok for rid, ok, _ in tracer.eps_records if rid == HEALTH_ID]
    reached = sum(seen)
    msg = (f"pipeline.eps_reached_ratio = {_ratio(reached, len(seen)):.3f} "
           f"({len(seen) - reached}/{len(seen)} misses; ROADMAP Baseline "
           f"{HEALTH_TASKS - HEALTH_REACHED}/{HEALTH_TASKS})")
    errors = []
    if rc != 0:
        errors.append(f"health check: taskaffinity tas exited {rc}")
    if (reached, len(seen)) != (HEALTH_REACHED, HEALTH_TASKS):
        errors.append("health check: " + msg)
    return {"message": msg, "errors": errors}

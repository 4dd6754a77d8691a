"""Command-line entry points (synth, tas, fewshot, theorem1) and every output format.

All commands take --config (JSON, strictly validated), write their artifacts
under --out atomically (temp file + rename, so readers never see partial
files), and derive every random stream from seeds in the config; --seed
re-derives them all from one master value.  Nothing reads the wall clock
except the timing fields, which deterministic-output comparisons exclude.
--log-level sends the package's log records at or above that level to
stderr; it changes no output file.  tas and fewshot log one warning when
source tasks miss their epsilon-approximation target or score exactly 0 or 1,
from the same counts they write under "health".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict

import numpy as np

from . import config as cfgmod
from . import pipeline, tasks, theorem
from .nnet import NetworkSpec
from .seeding import derive_seed

log = logging.getLogger(__name__)

HISTOGRAM_BINS = 20

# each command's job class and help line
COMMANDS = {
    "synth": (cfgmod.SynthJob, "generate a synthetic family-benchmark CSV"),
    "tas": (cfgmod.PipelineJob, "rank source tasks by affinity against the target"),
    "fewshot": (cfgmod.PipelineJob, "full pipeline: rank, fine-tune on related labels, evaluate"),
    "theorem1": (cfgmod.TheoremJob, "averaged noisy-SGD affinity convergence harness"),
}


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run_id(command: str, echo: dict) -> str:
    blob = json.dumps({"command": command, "config": echo}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_data(src: cfgmod.DataSource) -> tuple[tasks.Dataset, tasks.Dataset]:
    if src.synthetic is not None:
        return tasks.family_holdout(src.synthetic, src.target_family, src.n_test_classes)
    splits = []
    for path in (src.train_csv, src.test_csv):
        try:
            splits.append(tasks.load_csv(path))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return splits[0], splits[1]


def score_row(r: pipeline.RankedTask, with_fisher: bool = True) -> dict:
    """The JSON row of one score, with its epsilon-approximation record and
    its two raw Fisher traces.  When the task kept its Fisher diagonals
    (verbose_fisher), with_fisher adds them under "fisher"."""
    row = {
        "task_id": r.task_id,
        "score": r.score.value,
        "mapping": list(r.assignment.mapping),
        "total_cost": r.assignment.total_cost,
        "achieved_epsilon": r.record.achieved_epsilon,
        "approx_epochs": r.record.epochs_used,
        "reached_target": r.record.reached_target,
        "fisher_trace_aa": r.trace_aa,
        "fisher_trace_ab": r.trace_ab,
    }
    if with_fisher and r.f_aa is not None:
        row["fisher"] = {
            "f_aa": {"entries": r.f_aa.tolist(), "normalized": True},
            "f_ab": {"entries": r.f_ab.tolist(), "normalized": True},
        }
    return row


def _label_set_doc(chosen: pipeline.RelatedSet) -> dict:
    return {"label_set": list(chosen.label_set), "row_indices": list(chosen.row_indices)}


def tas_histogram(
    ranked: Sequence[pipeline.RankedTask],
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """(bin edges, counts) of the scores over 20 fixed bins on [0, 1]."""
    vals = np.clip([r.score.value for r in ranked], 0.0, 1.0)
    counts, edges = np.histogram(vals, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


def _label_frequency(ordered: Sequence[pipeline.RankedTask], top_r: int) -> dict[int, int]:
    """How many of the top_r lowest-score tasks hold each class, by class id."""
    return dict(sorted(Counter(cid for r in ordered[:top_r] for cid in r.class_ids).items()))


def _health(ranked: Sequence[pipeline.RankedTask]) -> dict[str, int]:
    """Counts that say whether a ranking can be trusted: the source tasks
    scored, how many reached their 1 - epsilon target, and how many scores
    are exactly 0 or 1."""
    return {
        "source_tasks": len(ranked),
        "eps_reached": sum(r.record.reached_target for r in ranked),
        "extreme_scores": sum(r.score.value in (0.0, 1.0) for r in ranked),
    }


def report_to_doc(report: pipeline.RunReport, top_r: int) -> dict:
    """The report as JSON, with the score histogram, the label frequency of
    its top_r tasks and the ranking's health counts; its score rows leave out
    the Fisher blocks, which scores.json carries."""
    edges, counts = tas_histogram(report.scores)
    freq = _label_frequency(report.scores, top_r)
    return {
        "ablation_mode": report.ablation_mode,
        "scores": [score_row(r, with_fisher=False) for r in report.scores],
        "selected_labels": _label_set_doc(report.selected_labels),
        "tas_histogram": {"edges": list(edges), "counts": list(counts)},
        "label_frequency": {str(k): v for k, v in freq.items()},
        "health": _health(report.scores),
        "fewshot_accuracy_mean": report.fewshot_accuracy_mean,
        "fewshot_ci95": report.fewshot_ci95,
        "finetune_loss": list(report.finetune_loss),
        "timings": dict(report.timings),
    }


def _write_ranking(
    out: str,
    run_id: str,
    echo: dict,
    ordered: Sequence[pipeline.RankedTask],
    selected: pipeline.RelatedSet,
    top_r: int,
    timings: dict[str, float] | None = None,
) -> None:
    """scores.json (with the health counts), tas_hist.csv and label_freq.csv
    (of the top_r tasks) of a run."""
    doc = {
        "run_id": run_id,
        "config": echo,
        "scores": [score_row(r) for r in ordered],
        "selected": _label_set_doc(selected),
        "health": _health(ordered),
    }
    if timings is not None:
        doc["timings"] = timings
    _write_json(os.path.join(out, "scores.json"), doc)
    edges, counts = tas_histogram(ordered)
    hist = ["bin_lo,bin_hi,count"]
    hist += [f"{lo!r},{hi!r},{c}" for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    _atomic_write(os.path.join(out, "tas_hist.csv"), "\n".join(hist) + "\n")
    freq = ["class_id,count"]
    freq += [f"{cid},{n}" for cid, n in _label_frequency(ordered, top_r).items()]
    _atomic_write(os.path.join(out, "label_freq.csv"), "\n".join(freq) + "\n")


def _warn_degenerate(ordered: Sequence[pipeline.RankedTask]) -> None:
    """One warning line for the source tasks that missed their 1 - epsilon
    target and the scores that are exactly 0 or 1, when there are any."""
    counts = _health(ordered)
    missed = counts["source_tasks"] - counts["eps_reached"]
    extreme = counts["extreme_scores"]
    if missed or extreme:
        log.warning(
            "%d of %d source tasks missed the 1 - epsilon target%s (--log-level debug lists them)",
            missed, len(ordered), f"; {extreme} scores are exactly 0 or 1" if extreme else "",
        )


def _echo(job: cfgmod.PipelineJob | cfgmod.TheoremJob) -> dict:
    """The config echo of a tas, fewshot or theorem1 job: one flat dict, a
    pipeline job's settings beside its data and network fields."""
    echo = asdict(job)
    echo.update(echo.pop("pipeline", {}))
    return echo


def _setup(job: cfgmod.PipelineJob):
    """Data, network spec and pipeline config of a tas or fewshot job."""
    train, test = _load_data(job.data)
    spec = NetworkSpec(job.layer_widths, len(train.class_ids), job.activation)
    return train, test, spec, job.pipeline


def cmd_synth(job: cfgmod.SynthJob, out: str) -> int:
    data = tasks.make_synthetic(job.synthetic)
    path = os.path.join(out, job.filename)
    _atomic_write(path, tasks.csv_text(data))
    print(f"wrote {path} ({data.n} rows, {len(data.class_ids)} classes)")
    return 0


def cmd_tas(job: cfgmod.PipelineJob, out: str, echo: dict, run_id: str) -> int:
    t0 = time.perf_counter()
    train, test, spec, cfg = _setup(job)
    _, ordered, _ = pipeline.phases_1_2(train, test, spec, cfg)
    _warn_degenerate(ordered)
    _write_ranking(
        out, run_id, echo, ordered,
        pipeline.select_labels("related", ordered, train, cfg), cfg.top_r,
        timings={"total_s": time.perf_counter() - t0},
    )
    print(f"wrote scores.json tas_hist.csv label_freq.csv (run {run_id})")
    return 0


def cmd_fewshot(job: cfgmod.PipelineJob, out: str, echo: dict, run_id: str) -> int:
    ablation = echo["ablation"]
    train, test, spec, cfg = _setup(job)
    report = pipeline.ablation_comparison(train, test, spec, cfg, (ablation,))[ablation]
    _warn_degenerate(report.scores)
    report_doc = report_to_doc(report, cfg.top_r)
    report_doc["run_id"] = run_id
    report_doc["config"] = echo
    _write_json(os.path.join(out, "report.json"), report_doc)
    _write_ranking(out, run_id, echo, report.scores, report.selected_labels, cfg.top_r)
    print(
        f"wrote report.json scores.json tas_hist.csv label_freq.csv "
        f"(run {run_id}, mode {report.ablation_mode}, "
        f"accuracy {report.fewshot_accuracy_mean:.4f} +/- {report.fewshot_ci95:.4f})"
    )
    return 0


def cmd_theorem1(job: cfgmod.TheoremJob, out: str, echo: dict, run_id: str) -> int:
    t0 = time.perf_counter()
    problem, a_query, b_support = theorem.make_logistic_fixture(
        job.dim, job.n_support, job.n_query, job.l2_lambda, job.data_seed
    )
    theta_star = theorem.solve_optimum(problem, tol=job.optimum_tol)
    seeds = [derive_seed(job.sgd.seed, i) for i in range(job.n_seeds)]
    times, bars = theorem.noisy_sgd(problem, job.sgd, seeds)
    values, s_star = theorem.tas_trajectory(times, bars, theta_star, a_query, b_support)
    gaps = abs(values - s_star)
    verdict = theorem.convergence_check(times, gaps, job.abs_tol)

    lines = ["seed,t,s_t,gap"]
    for i, (run_values, run_gaps) in enumerate(zip(values.tolist(), gaps.tolist())):
        for t, v, g in zip(times.tolist(), run_values, run_gaps):
            lines.append(f"{i},{t},{v!r},{g!r}")
    _atomic_write(os.path.join(out, "theorem1_series.csv"), "\n".join(lines) + "\n")
    _write_json(
        os.path.join(out, "report.json"),
        {
            "run_id": run_id,
            "config": echo,
            **asdict(verdict),
            "s_star": s_star,
            "timings": {"total_s": time.perf_counter() - t0},
        },
    )
    status = "passed" if verdict.passed else "FAILED"
    print(
        f"wrote theorem1_series.csv report.json (run {run_id}, {status}, "
        f"final median gap {verdict.final_gap_median:.3e})"
    )
    return 0 if verdict.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskaffinity",
        description="Fisher-diagonal task affinity scoring and few-shot fine-tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="re-derive all embedded seeds")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                       default="warning", help="log records at this level and above go to stderr")
        if name == "fewshot":
            p.add_argument(
                "--ablation",
                choices=pipeline.ABLATION_MODES,
                default="related",
                help="label-set choice for fine-tuning",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:  # as config seeds; exits 2
        parser.error(f"argument --seed: must be an integer in [0, 2**64), got {args.seed}")
    # the package logger reports to stderr for this command only
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        doc = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        job = cfgmod.parse(COMMANDS[args.command][0], doc, args.seed)
        if args.command == "synth":
            return cmd_synth(job, args.out)
        echo = _echo(job)
        if args.command == "fewshot":
            echo["ablation"] = args.ablation
        run = (job, args.out, echo, _run_id(args.command, echo))
        if args.command == "tas":
            return cmd_tas(*run)
        return cmd_fewshot(*run) if args.command == "fewshot" else cmd_theorem1(*run)
    # ValueError covers cfgmod.ConfigError and json.JSONDecodeError
    except (ValueError, OSError, theorem.DivergenceError, theorem.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())

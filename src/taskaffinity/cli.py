"""Command-line entry points: synth, tas, fewshot, theorem1.

All commands take --config (JSON, strictly validated), write their artifacts
under --out atomically (temp file + rename, so readers never see partial
files), and derive every random stream from seeds in the config; --seed
re-derives them all from one master value.  Nothing reads the wall clock
except the timing fields, which deterministic-output comparisons exclude.
--log-level sends the package's log records at or above that level to
stderr; it changes no output file.
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
from dataclasses import asdict

from . import config as cfgmod
from . import pipeline, tasks, theorem
from .nnet import NetworkSpec
from .seeding import derive_seed


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
    assert src.train_csv is not None and src.test_csv is not None
    return tasks.load_csv(src.train_csv), tasks.load_csv(src.test_csv)


def _hist_csv(edges: tuple[float, ...], counts: tuple[int, ...]) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{lo!r},{hi!r},{c}")
    return "\n".join(lines) + "\n"


def _label_freq_csv(freq: dict[int, int]) -> str:
    lines = ["class_id,count"]
    for cid in sorted(freq):
        lines.append(f"{cid},{freq[cid]}")
    return "\n".join(lines) + "\n"


def _scores_doc(
    ordered: list[pipeline.RankedTask], related: pipeline.RelatedSet, run_id: str, echo: dict
) -> dict:
    return {
        "run_id": run_id,
        "config": echo,
        "scores": [pipeline.score_row(r) for r in ordered],
        "selected": {
            "label_set": list(related.label_set),
            "row_indices": list(related.row_indices),
        },
    }


def _echo(job: cfgmod.PipelineJob) -> dict:
    """The config echo of a tas or fewshot job: one flat dict, the pipeline
    settings beside the data and network fields."""
    echo = asdict(job)
    echo.update(echo.pop("pipeline"))
    return echo


def _setup(job: cfgmod.PipelineJob):
    """Data, network spec and pipeline config of a tas or fewshot job."""
    train, test = _load_data(job.data)
    spec = NetworkSpec(job.layer_widths, len(train.class_ids), job.activation)
    return train, test, spec, job.pipeline


def cmd_synth(doc: dict, out: str, seed: int | None) -> int:
    job = cfgmod.parse_synth(doc)
    if seed is not None:
        job = cfgmod.override_synth_seed(job, seed)
    data = tasks.make_synthetic(job.synthetic)
    path = os.path.join(out, job.filename)
    _atomic_write(path, tasks.csv_text(data))
    print(f"wrote {path} ({data.n} rows, {len(data.class_ids)} classes)")
    return 0


def cmd_tas(doc: dict, out: str, seed: int | None) -> int:
    job = cfgmod.parse_pipeline(doc)
    if seed is not None:
        job = cfgmod.override_pipeline_seeds(job, seed)
    echo = _echo(job)
    run_id = _run_id("tas", echo)
    t0 = time.perf_counter()
    train, test, spec, cfg = _setup(job)
    _, source_tasks, ordered, _ = pipeline.phases_1_2(train, test, spec, cfg)
    related = pipeline.related_training_set(ordered[: cfg.top_r], source_tasks, train)
    doc_out = _scores_doc(ordered, related, run_id, echo)
    doc_out["timings"] = {"total_s": time.perf_counter() - t0}
    _write_json(os.path.join(out, "scores.json"), doc_out)
    edges, counts = pipeline.tas_histogram(ordered)
    _atomic_write(os.path.join(out, "tas_hist.csv"), _hist_csv(edges, counts))
    freq = pipeline.label_frequency(ordered[: cfg.top_r], source_tasks)
    _atomic_write(os.path.join(out, "label_freq.csv"), _label_freq_csv(freq))
    print(f"wrote scores.json tas_hist.csv label_freq.csv (run {run_id})")
    return 0


def cmd_fewshot(doc: dict, out: str, seed: int | None, ablation: str) -> int:
    job = cfgmod.parse_pipeline(doc)
    if seed is not None:
        job = cfgmod.override_pipeline_seeds(job, seed)
    echo = _echo(job)
    echo["ablation"] = ablation
    run_id = _run_id("fewshot", echo)
    train, test, spec, cfg = _setup(job)
    report = pipeline.ablation_run(train, test, spec, cfg, mode=ablation)
    report_doc = pipeline.report_to_doc(report)
    report_doc["run_id"] = run_id
    report_doc["config"] = echo
    _write_json(os.path.join(out, "report.json"), report_doc)
    _write_json(
        os.path.join(out, "scores.json"),
        _scores_doc(list(report.scores), report.selected_labels, run_id, echo),
    )
    edges, counts = report.tas_histogram
    _atomic_write(os.path.join(out, "tas_hist.csv"), _hist_csv(edges, counts))
    _atomic_write(os.path.join(out, "label_freq.csv"), _label_freq_csv(report.label_frequency))
    print(
        f"wrote report.json scores.json tas_hist.csv label_freq.csv "
        f"(run {run_id}, mode {report.ablation_mode}, "
        f"accuracy {report.fewshot_accuracy_mean:.4f} +/- {report.fewshot_ci95:.4f})"
    )
    return 0


def cmd_theorem1(doc: dict, out: str, seed: int | None) -> int:
    job = cfgmod.parse_theorem(doc)
    if seed is not None:
        job = cfgmod.override_theorem_seeds(job, seed)
    echo = asdict(job)
    run_id = _run_id("theorem1", echo)
    t0 = time.perf_counter()
    problem, a_query, b_support = theorem.make_logistic_fixture(
        job.dim, job.n_support, job.n_query, job.l2_lambda, job.data_seed
    )
    theta_star = theorem.solve_optimum(problem, tol=job.optimum_tol)
    seeds = [derive_seed(job.sgd.seed, i) for i in range(job.n_seeds)]
    series = [
        theorem.tas_trajectory(traj, theta_star, a_query, b_support, problem)
        for traj in theorem.noisy_sgd(problem, job.sgd, seeds)
    ]
    verdict = theorem.convergence_check(series, job.abs_tol)

    lines = ["seed,t,s_t,gap"]
    for i, s in enumerate(series):
        for t, v in zip(s.times, s.values):
            lines.append(f"{i},{int(t)},{float(v)!r},{float(abs(v - s.s_star))!r}")
    _atomic_write(os.path.join(out, "theorem1_series.csv"), "\n".join(lines) + "\n")
    _write_json(
        os.path.join(out, "report.json"),
        {
            "run_id": run_id,
            "config": echo,
            "passed": verdict.passed,
            "final_gap_median": verdict.final_gap_median,
            "trend": list(verdict.trend),
            "abs_tol": verdict.abs_tol,
            "n_seeds": verdict.n_seeds,
            "s_star": series[0].s_star,
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
    for name, helptext in [
        ("synth", "generate a synthetic family-benchmark CSV"),
        ("tas", "rank source tasks by affinity against the target"),
        ("fewshot", "full pipeline: rank, fine-tune on related labels, evaluate"),
        ("theorem1", "averaged noisy-SGD affinity convergence harness"),
    ]:
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
    args = _build_parser().parse_args(argv)
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
        if args.command == "synth":
            return cmd_synth(doc, args.out, args.seed)
        if args.command == "tas":
            return cmd_tas(doc, args.out, args.seed)
        if args.command == "fewshot":
            return cmd_fewshot(doc, args.out, args.seed, args.ablation)
        return cmd_theorem1(doc, args.out, args.seed)
    except (
        cfgmod.ConfigError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        theorem.DivergenceError,
        theorem.SolverError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())

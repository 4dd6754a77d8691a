"""Strict JSON config parsing for the command-line entry points.

Documents are validated before any computation: unknown keys are rejected,
required keys must be present, and scalar types are checked.  A single
--seed override re-derives every embedded seed from one master value so a
run can be repointed coherently from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from .nnet import TrainSchedule
from .seeding import derive_seed
from .tasks import SyntheticConfig
from .theorem import MIN_SEEDS, NoisySGDConfig, StepSchedule


class ConfigError(ValueError):
    pass


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _take(doc: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"missing key {_ctx(path, key)!r}")
        return default
    val = doc.pop(key)
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    wrong_type = kind is not None and not isinstance(val, kind)
    bool_where_number = isinstance(val, bool) and kind is not bool
    if wrong_type or bool_where_number:
        raise ConfigError(f"{_ctx(path, key)!r} must be {getattr(kind, '__name__', kind)}")
    return val


def _done(doc: dict, path: str) -> None:
    if doc:
        raise ConfigError(f"unknown keys in {path or 'config'}: {sorted(doc)}")


def _int_list(doc: dict, key: str, path: str, required: bool = True, default=()) -> tuple:
    raw = _take(doc, key, path, list, required, list(default))
    if any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
        raise ConfigError(f"{_ctx(path, key)!r} must be a list of integers")
    return tuple(raw)


def _parse_schedule(doc: Any, path: str) -> TrainSchedule:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    d = dict(doc)
    sched = TrainSchedule(
        learning_rate=_take(d, "learning_rate", path, float),
        momentum=_take(d, "momentum", path, float),
        epochs=_take(d, "epochs", path, int),
        batch_size=_take(d, "batch_size", path, int),
        lr_decay_epochs=_int_list(d, "lr_decay_epochs", path, required=False),
        lr_decay_factor=_take(d, "lr_decay_factor", path, float, required=False, default=1.0),
        seed=_take(d, "seed", path, int),
    )
    _done(d, path)
    return sched


def _parse_synthetic(doc: Any, path: str) -> SyntheticConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    d = dict(doc)
    cfg = SyntheticConfig(
        n_families=_take(d, "n_families", path, int),
        classes_per_family=_take(d, "classes_per_family", path, int),
        samples_per_class=_take(d, "samples_per_class", path, int),
        input_dim=_take(d, "input_dim", path, int),
        family_spread=_take(d, "family_spread", path, float),
        class_spread=_take(d, "class_spread", path, float),
        noise_sigma=_take(d, "noise_sigma", path, float),
        seed=_take(d, "seed", path, int),
    )
    _done(d, path)
    return cfg


@dataclass(frozen=True)
class SynthJob:
    synthetic: SyntheticConfig
    filename: str = "dataset.csv"


@dataclass(frozen=True)
class DataSource:
    """Either a synthetic family benchmark with a held-out target family, or CSVs."""

    synthetic: Optional[SyntheticConfig] = None
    target_family: int = 0
    n_test_classes: int = 0
    train_csv: Optional[str] = None
    test_csv: Optional[str] = None


@dataclass(frozen=True)
class PipelineJob:
    data: DataSource
    layer_widths: tuple[int, ...]
    activation: str
    s_count: int
    n_test: int
    top_r: int
    m_way: int
    k_shot: int
    q_query: int
    epsilon: float
    whole_schedule: TrainSchedule
    approx_schedule: TrainSchedule
    finetune_schedule: TrainSchedule
    n_eval_episodes: int
    softmax_temperature: float
    master_seed: int
    verbose_fisher: bool = False


@dataclass(frozen=True)
class TheoremJob:
    dim: int
    n_support: int
    n_query: int
    l2_lambda: float
    data_seed: int
    sgd: NoisySGDConfig
    n_seeds: int
    abs_tol: float
    optimum_tol: float = 1e-10


def parse_synth(doc: Any) -> SynthJob:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    d = dict(doc)
    job = SynthJob(
        synthetic=_parse_synthetic(_take(d, "synthetic", "", dict), "synthetic"),
        filename=_take(d, "filename", "", str, required=False, default="dataset.csv"),
    )
    _done(d, "")
    return job


def _parse_data(doc: Any) -> DataSource:
    if not isinstance(doc, dict):
        raise ConfigError("data must be an object")
    d = dict(doc)
    if "synthetic" in d:
        src = DataSource(
            synthetic=_parse_synthetic(_take(d, "synthetic", "data", dict), "data.synthetic"),
            target_family=_take(d, "target_family", "data", int),
            n_test_classes=_take(d, "n_test_classes", "data", int),
        )
    else:
        src = DataSource(
            train_csv=_take(d, "train_csv", "data", str),
            test_csv=_take(d, "test_csv", "data", str),
        )
    _done(d, "data")
    return src


def parse_pipeline(doc: Any) -> PipelineJob:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    d = dict(doc)
    data = _parse_data(_take(d, "data", "", dict))
    net = _take(d, "network", "", dict)
    nd = dict(net)
    widths = _int_list(nd, "layer_widths", "network")
    activation = _take(nd, "activation", "network", str, required=False, default="relu")
    _done(nd, "network")
    pl = _take(d, "pipeline", "", dict)
    pd = dict(pl)
    job = PipelineJob(
        data=data,
        layer_widths=widths,
        activation=activation,
        s_count=_take(pd, "s_count", "pipeline", int),
        n_test=_take(pd, "n_test", "pipeline", int),
        top_r=_take(pd, "top_r", "pipeline", int),
        m_way=_take(pd, "m_way", "pipeline", int),
        k_shot=_take(pd, "k_shot", "pipeline", int),
        q_query=_take(pd, "q_query", "pipeline", int),
        epsilon=_take(pd, "epsilon", "pipeline", float),
        whole_schedule=_parse_schedule(_take(pd, "whole_schedule", "pipeline", dict), "pipeline.whole_schedule"),
        approx_schedule=_parse_schedule(_take(pd, "approx_schedule", "pipeline", dict), "pipeline.approx_schedule"),
        finetune_schedule=_parse_schedule(_take(pd, "finetune_schedule", "pipeline", dict), "pipeline.finetune_schedule"),
        n_eval_episodes=_take(pd, "n_eval_episodes", "pipeline", int),
        softmax_temperature=_take(pd, "softmax_temperature", "pipeline", float),
        master_seed=_take(pd, "master_seed", "pipeline", int),
        verbose_fisher=_take(pd, "verbose_fisher", "pipeline", bool, required=False, default=False),
    )
    _done(pd, "pipeline")
    _done(d, "")
    return job


def parse_theorem(doc: Any) -> TheoremJob:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    d = dict(doc)
    fx = _take(d, "fixture", "", dict)
    fd = dict(fx)
    sg = _take(d, "sgd", "", dict)
    sd = dict(sg)
    sc = _take(sd, "schedule", "sgd", dict)
    scd = dict(sc)
    schedule = StepSchedule(
        kind=_take(scd, "kind", "sgd.schedule", str),
        eta0=_take(scd, "eta0", "sgd.schedule", float),
        exponent=_take(scd, "exponent", "sgd.schedule", float, required=False, default=0.75),
    )
    _done(scd, "sgd.schedule")
    sgd = NoisySGDConfig(
        step_schedule=schedule,
        noise_sigma=_take(sd, "noise_sigma", "sgd", float),
        total_steps=_take(sd, "total_steps", "sgd", int),
        seed=_take(sd, "seed", "sgd", int),
    )
    _done(sd, "sgd")
    job = TheoremJob(
        dim=_take(fd, "dim", "fixture", int),
        n_support=_take(fd, "n_support", "fixture", int),
        n_query=_take(fd, "n_query", "fixture", int),
        l2_lambda=_take(fd, "l2_lambda", "fixture", float),
        data_seed=_take(fd, "data_seed", "fixture", int),
        sgd=sgd,
        n_seeds=_take(d, "n_seeds", "", int),
        abs_tol=_take(d, "abs_tol", "", float),
        optimum_tol=_take(d, "optimum_tol", "", float, required=False, default=1e-10),
    )
    _done(fd, "fixture")
    _done(d, "")
    if job.n_seeds < MIN_SEEDS:
        raise ConfigError(f"n_seeds must be >= {MIN_SEEDS}")
    return job


# ---------------------------------------------------------------------------
# coherent --seed override: re-derive every embedded seed from one master


def override_synth_seed(job: SynthJob, master: int) -> SynthJob:
    return replace(job, synthetic=replace(job.synthetic, seed=derive_seed(master, 10)))


def override_pipeline_seeds(job: PipelineJob, master: int) -> PipelineJob:
    data = job.data
    if data.synthetic is not None:
        data = replace(data, synthetic=replace(data.synthetic, seed=derive_seed(master, 10)))
    return replace(
        job,
        data=data,
        master_seed=derive_seed(master, 11),
        whole_schedule=replace(job.whole_schedule, seed=derive_seed(master, 12)),
        approx_schedule=replace(job.approx_schedule, seed=derive_seed(master, 13)),
        finetune_schedule=replace(job.finetune_schedule, seed=derive_seed(master, 14)),
    )


def override_theorem_seeds(job: TheoremJob, master: int) -> TheoremJob:
    return replace(
        job,
        data_seed=derive_seed(master, 15),
        sgd=replace(job.sgd, seed=derive_seed(master, 16)),
    )

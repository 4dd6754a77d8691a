"""Strict JSON config parsing for the command-line entry points.

The schema is the job dataclasses: a key is a field, typed by its annotation
and optional exactly when the field has a default.  Documents are validated
before any computation, and unknown keys are rejected.  Every float is
finite, and every key named seed or ending in _seed is an integer in
[0, 2**64).  A single --seed override re-derives every embedded seed from
one master value so a run can be repointed coherently from the command line.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Any, Iterable, Optional, get_type_hints

from .nnet import NetworkSpec
from .pipeline import PipelineConfig
from .seeding import derive_seed
from .tasks import SyntheticConfig
from .theorem import MIN_SEEDS, NoisySGDConfig, StepSchedule


class ConfigError(ValueError):
    pass


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _take(doc: dict, key: str, path: str, kind, default=MISSING):
    if key not in doc:
        if default is MISSING:
            raise ConfigError(f"missing key {_ctx(path, key)!r}")
        return default
    val = doc.pop(key)
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    wrong_type = not isinstance(val, kind)
    bool_where_number = isinstance(val, bool) and kind is not bool
    if wrong_type or bool_where_number:
        raise ConfigError(f"{_ctx(path, key)!r} must be {getattr(kind, '__name__', kind)}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, not {val} (key {_ctx(path, key)!r})")
    if (key == "seed" or key.endswith("_seed")) and not 0 <= val < 2**64:
        raise ConfigError(f"{_ctx(path, key)!r} must be an integer in [0, 2**64)")
    return val


def _done(doc: dict, path: str) -> None:
    if doc:
        raise ConfigError(f"unknown keys in {path or 'config'}: {sorted(doc)}")


def _fields(cls, d: dict, path: str, names: Iterable[str]) -> dict:
    """The named fields of dataclass cls, taken from d by their type hints.

    A field with a default is an optional key; a dataclass field is a nested
    object and a tuple[int, ...] field a list of integers.
    """
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name not in names:
            continue
        kind = hints[f.name]
        if is_dataclass(kind):
            out[f.name] = _parse(kind, _take(d, f.name, path, dict), _ctx(path, f.name))
        elif kind == tuple[int, ...]:
            raw = _take(d, f.name, path, list, f.default)
            if any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
                raise ConfigError(f"{_ctx(path, f.name)!r} must be a list of integers")
            out[f.name] = tuple(raw)
        else:
            out[f.name] = _take(d, f.name, path, kind, f.default)
    return out


def _parse(cls, doc: dict, path: str):
    """An instance of dataclass cls from the object doc, whose keys are its fields."""
    d = dict(doc)
    obj = cls(**_fields(cls, d, path, [f.name for f in fields(cls)]))
    _done(d, path)
    return obj


def _object(doc: Any) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return dict(doc)


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
    pipeline: PipelineConfig
    layer_widths: tuple[int, ...]  # with activation, the JSON's "network" object
    activation: str = NetworkSpec.activation


@dataclass(frozen=True)
class TheoremJob:
    dim: int  # dim .. data_seed are the JSON's "fixture" object
    n_support: int
    n_query: int
    l2_lambda: float
    data_seed: int
    sgd: NoisySGDConfig
    n_seeds: int
    abs_tol: float
    optimum_tol: float = 1e-10


def parse_synth(doc: Any) -> SynthJob:
    return _parse(SynthJob, _object(doc), "")


def _parse_data(doc: dict) -> DataSource:
    d = dict(doc)
    if "synthetic" in d:
        synthetic = _take(d, "synthetic", "data", dict)
        src = DataSource(
            synthetic=_parse(SyntheticConfig, synthetic, "data.synthetic"),
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
    d = _object(doc)
    data = _parse_data(_take(d, "data", "", dict))
    nd = dict(_take(d, "network", "", dict))
    network = _fields(PipelineJob, nd, "network", ("layer_widths", "activation"))
    _done(nd, "network")
    job = PipelineJob(data, **_fields(PipelineJob, d, "", ("pipeline",)), **network)
    _done(d, "")
    return job


def parse_theorem(doc: Any) -> TheoremJob:
    d = _object(doc)
    fd = dict(_take(d, "fixture", "", dict))
    sd = dict(_take(d, "sgd", "", dict))
    schedule = _parse(StepSchedule, _take(sd, "schedule", "sgd", dict), "sgd.schedule")
    sgd = NoisySGDConfig(
        schedule, **_fields(NoisySGDConfig, sd, "sgd", ("noise_sigma", "total_steps", "seed"))
    )
    _done(sd, "sgd")
    fixture = ("dim", "n_support", "n_query", "l2_lambda", "data_seed")
    job = TheoremJob(
        sgd=sgd,
        **_fields(TheoremJob, fd, "fixture", fixture),
        **_fields(TheoremJob, d, "", ("n_seeds", "abs_tol", "optimum_tol")),
    )
    _done(fd, "fixture")
    _done(d, "")
    if job.n_seeds < MIN_SEEDS:
        raise ConfigError(f"n_seeds must be >= {MIN_SEEDS}")
    for key in ("abs_tol", "optimum_tol"):
        if not 0 < getattr(job, key) < math.inf:  # NaN fails too
            raise ConfigError(f"{key} must be positive and finite")
    return job


# ---------------------------------------------------------------------------
# coherent --seed override: re-derive every embedded seed from one master


def override_synth_seed(job: SynthJob, master: int) -> SynthJob:
    return replace(job, synthetic=replace(job.synthetic, seed=derive_seed(master, 10)))


def override_pipeline_seeds(job: PipelineJob, master: int) -> PipelineJob:
    data = job.data
    if data.synthetic is not None:
        data = replace(data, synthetic=replace(data.synthetic, seed=derive_seed(master, 10)))
    cfg = job.pipeline
    return replace(
        job,
        data=data,
        pipeline=replace(
            cfg,
            master_seed=derive_seed(master, 11),
            whole_schedule=replace(cfg.whole_schedule, seed=derive_seed(master, 12)),
            approx_schedule=replace(cfg.approx_schedule, seed=derive_seed(master, 13)),
            finetune_schedule=replace(cfg.finetune_schedule, seed=derive_seed(master, 14)),
        ),
    )


def override_theorem_seeds(job: TheoremJob, master: int) -> TheoremJob:
    return replace(
        job,
        data_seed=derive_seed(master, 15),
        sgd=replace(job.sgd, seed=derive_seed(master, 16)),
    )

"""Strict JSON config parsing for the command-line entry points.

The schema is the job dataclasses: a key is a field, typed by its annotation
and optional exactly when the field has a default; a field's metadata may
rename its key ("key") or place it in a nested object ("in").  Documents are
validated before any computation, and every object rejects unknown keys.
Every float is finite, and every key named seed or ending in _seed is an
integer in [0, 2**64).  A single --seed override re-derives every embedded
seed from one master value so a run can be repointed coherently from the
command line.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Any, Optional, get_type_hints

from .nnet import NetworkSpec
from .pipeline import PipelineConfig
from .seeding import derive_seed
from .tasks import SyntheticConfig
from .theorem import MIN_SEEDS, NoisySGDConfig


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


def _fields(cls, d: dict, path: str) -> dict:
    """Every field of dataclass cls, taken from d by its type hint.

    A field with a default is an optional key; a dataclass field is a nested
    object (DataSource's through _parse_data) and a tuple[int, ...] field a
    list of integers.
    """
    hints = get_type_hints(cls)
    out, objects = {}, {}
    for f in fields(cls):
        src, where, key, kind = d, path, f.metadata.get("key", f.name), hints[f.name]
        if "in" in f.metadata:
            where = _ctx(path, f.metadata["in"])
            if where not in objects:
                objects[where] = dict(_take(d, f.metadata["in"], path, dict))
            src = objects[where]
        if is_dataclass(kind):
            parse = _parse_data if kind is DataSource else _parse
            out[f.name] = parse(kind, _take(src, key, where, dict), _ctx(where, key))
        elif kind == tuple[int, ...]:
            raw = _take(src, key, where, list, f.default)
            if any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
                raise ConfigError(f"{_ctx(where, key)!r} must be a list of integers")
            out[f.name] = tuple(raw)
        else:
            out[f.name] = _take(src, key, where, kind, f.default)
    for where, rest in objects.items():
        _done(rest, where)
    return out


def _parse(cls, doc: dict, path: str):
    """An instance of dataclass cls from the object doc, whose keys are its fields."""
    d = dict(doc)
    obj = cls(**_fields(cls, d, path))
    _done(d, path)
    return obj


def _object(doc: Any) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return dict(doc)


@dataclass(frozen=True)
class SynthJob:
    synthetic: SyntheticConfig
    filename: str = "dataset.csv"  # written in the --out directory

    def __post_init__(self) -> None:
        if self.filename in ("", ".", "..") or os.path.basename(self.filename) != self.filename:
            raise ConfigError(f"'filename' must be a plain file name, not {self.filename!r}")


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
    layer_widths: tuple[int, ...] = field(metadata={"in": "network"})
    activation: str = field(default=NetworkSpec.activation, metadata={"in": "network"})


@dataclass(frozen=True)
class TheoremJob:
    dim: int = field(metadata={"in": "fixture"})
    n_support: int = field(metadata={"in": "fixture"})
    n_query: int = field(metadata={"in": "fixture"})
    l2_lambda: float = field(metadata={"in": "fixture"})
    data_seed: int = field(metadata={"in": "fixture"})
    sgd: NoisySGDConfig
    n_seeds: int
    abs_tol: float
    optimum_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_seeds < MIN_SEEDS:
            raise ConfigError(f"n_seeds must be >= {MIN_SEEDS}")
        for key in ("abs_tol", "optimum_tol"):
            if not 0 < getattr(self, key) < math.inf:  # NaN fails too
                raise ConfigError(f"{key} must be positive and finite")


def parse_synth(doc: Any) -> SynthJob:
    return _parse(SynthJob, _object(doc), "")


def _parse_data(cls, doc: dict, path: str) -> DataSource:
    d = dict(doc)
    if "synthetic" in d:
        synthetic = _take(d, "synthetic", path, dict)
        src = cls(
            synthetic=_parse(SyntheticConfig, synthetic, _ctx(path, "synthetic")),
            target_family=_take(d, "target_family", path, int),
            n_test_classes=_take(d, "n_test_classes", path, int),
        )
    else:
        src = cls(train_csv=_take(d, "train_csv", path, str),
                  test_csv=_take(d, "test_csv", path, str))
    _done(d, path)
    return src


def parse_pipeline(doc: Any) -> PipelineJob:
    return _parse(PipelineJob, _object(doc), "")


def parse_theorem(doc: Any) -> TheoremJob:
    return _parse(TheoremJob, _object(doc), "")


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

"""Config parsing, seed overrides, and end-to-end command-line runs."""

import json
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

import helpers
from taskaffinity import cli, config as cfgmod, fisher, matching, pipeline, tasks, theorem
from taskaffinity.seeding import derive_seed


def synth_block(seed=None):
    return {
        "n_families": 3, "classes_per_family": 2, "samples_per_class": 12,
        "input_dim": 6, "family_spread": 5.0, "class_spread": 2.5,
        "noise_sigma": 0.15, "seed": derive_seed(1005, 9) if seed is None else seed,
    }


def pipeline_doc():
    return {
        "data": {"synthetic": synth_block(), "target_family": 2, "n_test_classes": 2},
        "network": {"layer_widths": [6, 16, 8], "activation": "relu"},
        "pipeline": {
            "s_count": 4, "n_test": 2, "top_r": 2, "m_way": 2, "k_shot": 3,
            "q_query": 3, "epsilon": 0.3,
            "whole_schedule": {"learning_rate": 0.05, "momentum": 0.9, "epochs": 30,
                               "batch_size": 16, "seed": derive_seed(1005, 0)},
            "approx_schedule": {"learning_rate": 0.05, "momentum": 0.9, "epochs": 10,
                                "batch_size": 8, "seed": derive_seed(1005, 3)},
            "finetune_schedule": {"learning_rate": 0.02, "momentum": 0.9, "epochs": 4,
                                  "batch_size": 2, "seed": derive_seed(1005, 4)},
            "n_eval_episodes": 6, "softmax_temperature": 2.0, "master_seed": 1005,
        },
    }


def theorem_doc(noise=0.0, total_steps=300, abs_tol=0.05):
    return {
        "fixture": {"dim": 4, "n_support": 40, "n_query": 30, "l2_lambda": 0.2,
                    "data_seed": 3},
        "sgd": {"schedule": {"kind": "constant", "eta0": 0.2},
                "noise_sigma": noise, "total_steps": total_steps, "seed": 11},
        "n_seeds": 5, "abs_tol": abs_tol,
    }


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped_config(name):
    with open(os.path.join(ROOT, "configs", name)) as fh:
        return json.load(fh)


def delete_key(doc, path):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    del doc[last]


def write_config(tmp_path, doc, name="cfg.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# parsing


def test_parse_pipeline_valid_doc():
    job = cfgmod.parse_pipeline(pipeline_doc())
    assert job.layer_widths == (6, 16, 8)
    assert job.activation == "relu"
    assert job.data.synthetic.n_families == 3
    assert job.data.target_family == 2
    assert job.pipeline.whole_schedule.epochs == 30
    assert job.pipeline.verbose_fisher is False
    assert job.pipeline.master_seed == 1005
    assert job.pipeline.approx_schedule.lr_decay_epochs == ()
    assert job.pipeline.approx_schedule.lr_decay_factor == 1.0
    doc = pipeline_doc()
    del doc["network"]["activation"]
    assert cfgmod.parse_pipeline(doc).activation == "relu"


def test_parse_pipeline_csv_variant():
    doc = pipeline_doc()
    doc["data"] = {"train_csv": "a.csv", "test_csv": "b.csv"}
    job = cfgmod.parse_pipeline(doc)
    assert job.data.synthetic is None
    assert job.data.train_csv == "a.csv"
    assert job.data.test_csv == "b.csv"


@pytest.mark.parametrize(
    "mutate,where",
    [
        (lambda d: d.update(extra=1), "config"),
        (lambda d: d["data"].update(extra=1), "data"),
        (lambda d: d["network"].update(extra=1), "network"),
        (lambda d: d["pipeline"].update(extra=1), "pipeline"),
        (lambda d: d["pipeline"]["whole_schedule"].update(extra=1), "whole_schedule"),
    ],
)
def test_parse_pipeline_rejects_unknown_keys(mutate, where):
    doc = pipeline_doc()
    mutate(doc)
    with pytest.raises(cfgmod.ConfigError, match="unknown keys"):
        cfgmod.parse_pipeline(doc)


# Every key a pipeline config must give, written out by hand: a setting that
# gains a default on its dataclass becomes optional and fails its case.
SCHEDULE_KEYS = ("learning_rate", "momentum", "epochs", "batch_size", "seed")
PIPELINE_REQUIRED = [
    "data", "network", "pipeline", "data.target_family", "data.n_test_classes",
    "data.train_csv", "data.test_csv", "network.layer_widths",
    *(f"data.synthetic.{k}" for k in (
        "n_families", "classes_per_family", "samples_per_class", "input_dim",
        "family_spread", "class_spread", "noise_sigma", "seed",
    )),
    *(f"pipeline.{k}" for k in (
        "s_count", "n_test", "top_r", "m_way", "k_shot", "q_query", "epsilon",
        "whole_schedule", "approx_schedule", "finetune_schedule", "n_eval_episodes",
        "softmax_temperature", "master_seed",
    )),
    *(f"pipeline.{s}.{k}" for s in ("whole_schedule", "approx_schedule", "finetune_schedule")
      for k in SCHEDULE_KEYS),
]


@pytest.mark.parametrize("path", PIPELINE_REQUIRED)
def test_parse_pipeline_missing_key_names_path(path):
    doc = pipeline_doc()
    if path.endswith("_csv"):
        doc["data"] = {"train_csv": "a.csv", "test_csv": "b.csv"}
    delete_key(doc, path)
    with pytest.raises(cfgmod.ConfigError, match=re.escape(f"missing key {path!r}")):
        cfgmod.parse_pipeline(doc)


THEOREM_REQUIRED = [
    "fixture", "sgd", "n_seeds", "abs_tol",
    *(f"fixture.{k}" for k in ("dim", "n_support", "n_query", "l2_lambda", "data_seed")),
    *(f"sgd.{k}" for k in ("schedule", "noise_sigma", "total_steps", "seed")),
    "sgd.schedule.kind", "sgd.schedule.eta0",
]


@pytest.mark.parametrize("path", THEOREM_REQUIRED)
def test_parse_theorem_missing_key_names_path(path):
    doc = theorem_doc()
    delete_key(doc, path)
    with pytest.raises(cfgmod.ConfigError, match=re.escape(f"missing key {path!r}")):
        cfgmod.parse_theorem(doc)


def test_parse_pipeline_rejects_bool_for_int():
    doc = pipeline_doc()
    doc["pipeline"]["s_count"] = True
    with pytest.raises(cfgmod.ConfigError, match="s_count"):
        cfgmod.parse_pipeline(doc)


def test_parse_pipeline_rejects_non_bool_verbose():
    doc = pipeline_doc()
    doc["pipeline"]["verbose_fisher"] = 1
    with pytest.raises(cfgmod.ConfigError, match="verbose_fisher"):
        cfgmod.parse_pipeline(doc)


def test_parse_pipeline_coerces_int_to_float():
    doc = pipeline_doc()
    doc["pipeline"]["softmax_temperature"] = 2  # int in JSON, float field
    job = cfgmod.parse_pipeline(doc)
    assert job.pipeline.softmax_temperature == 2.0
    assert isinstance(job.pipeline.softmax_temperature, float)


def test_parse_pipeline_rejects_a_one_class_target():
    doc = pipeline_doc()
    doc["pipeline"]["n_test"] = 1
    with pytest.raises(ValueError, match="^n_test must be >= 2"):
        cfgmod.parse_pipeline(doc)


def test_parse_pipeline_rejects_string_widths():
    doc = pipeline_doc()
    doc["network"]["layer_widths"] = [6, "16", 8]
    with pytest.raises(cfgmod.ConfigError, match="layer_widths"):
        cfgmod.parse_pipeline(doc)


def test_parse_synth():
    job = cfgmod.parse_synth({"synthetic": synth_block(), "filename": "x.csv"})
    assert job.filename == "x.csv"
    job = cfgmod.parse_synth({"synthetic": synth_block()})
    assert job.filename == "dataset.csv"
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_synth({"synthetic": synth_block(), "oops": 1})
    for path in ("synthetic", "synthetic.seed", "synthetic.noise_sigma"):
        doc = {"synthetic": synth_block()}
        delete_key(doc, path)
        with pytest.raises(cfgmod.ConfigError, match=re.escape(f"missing key {path!r}")):
            cfgmod.parse_synth(doc)


def test_parse_theorem():
    job = cfgmod.parse_theorem(theorem_doc())
    assert job.sgd.step_schedule.kind == "constant"
    assert job.sgd.step_schedule.exponent == 0.75  # default kept
    assert job.optimum_tol == 1e-10
    for n_seeds in (0, theorem.MIN_SEEDS - 1):
        doc = theorem_doc()
        doc["n_seeds"] = n_seeds
        with pytest.raises(cfgmod.ConfigError, match="n_seeds"):
            cfgmod.parse_theorem(doc)
    doc = theorem_doc()
    doc["sgd"]["schedule"]["kind"] = "polynomial"
    doc["sgd"]["schedule"]["exponent"] = 0.6
    job = cfgmod.parse_theorem(doc)
    assert job.sgd.step_schedule.exponent == 0.6


@pytest.mark.parametrize(
    "mutate,where",
    [
        (lambda d: d.update(extra=1), "config"),
        (lambda d: d["fixture"].update(extra=1), "fixture"),
        (lambda d: d["sgd"].update(extra=1), "sgd"),
        (lambda d: d["sgd"]["schedule"].update(extra=1), "sgd.schedule"),
    ],
)
def test_parse_theorem_rejects_unknown_keys(mutate, where):
    doc = theorem_doc()
    mutate(doc)
    with pytest.raises(cfgmod.ConfigError, match=re.escape(f"unknown keys in {where}: ['extra']")):
        cfgmod.parse_theorem(doc)


@pytest.mark.parametrize(
    "key,value", [("n_seeds", theorem.MIN_SEEDS - 1), ("abs_tol", 0.0), ("optimum_tol", math.inf)]
)
def test_theorem_job_checks_its_own_values(key, value):
    # built directly, not parsed: the job itself holds these checks
    job = cfgmod.parse_theorem(theorem_doc())
    with pytest.raises(cfgmod.ConfigError, match=f"^{key} must be"):
        replace(job, **{key: value})


def set_key(doc, path, value):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


# every key named seed or ending in _seed, by the command whose config holds it
SEED_KEYS = [
    ("synth", "synthetic.seed"),
    ("tas", "data.synthetic.seed"),
    ("tas", "pipeline.master_seed"),
    *(("tas", f"pipeline.{s}.seed")
      for s in ("whole_schedule", "approx_schedule", "finetune_schedule")),
    ("theorem1", "fixture.data_seed"),
    ("theorem1", "sgd.seed"),
]


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("command,path", SEED_KEYS)
def test_out_of_range_seed_fails_at_parse_naming_its_key(
    tmp_path, monkeypatch, capsys, command, path, value
):
    make_doc, parse = {"synth": (lambda: {"synthetic": synth_block()}, cfgmod.parse_synth),
                       "tas": (pipeline_doc, cfgmod.parse_pipeline),
                       "theorem1": (theorem_doc, cfgmod.parse_theorem)}[command]
    for edge in (0, 2**64 - 1):  # the range's ends parse
        doc = make_doc()
        set_key(doc, path, edge)
        parse(doc)
    calls = _spy_whole_training(monkeypatch)
    made = []
    monkeypatch.setattr(tasks, "make_synthetic", made.append)
    doc = make_doc()
    set_key(doc, path, value)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {path!r} must be an integer in [0, 2**64)\n"
    assert calls == [] and made == [] and os.listdir(out) == []


# a float key of each kind, by the command whose config holds it
FLOAT_KEYS = [
    ("synth", "synthetic.noise_sigma"),
    ("fewshot", "pipeline.softmax_temperature"),
    ("tas", "pipeline.approx_schedule.learning_rate"),
    ("theorem1", "sgd.noise_sigma"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command,path", FLOAT_KEYS)
def test_non_finite_float_fails_at_parse_naming_its_key(
    tmp_path, monkeypatch, capsys, command, path, value
):
    # JSON's NaN and Infinity parse as floats; each fails before any data or training
    make_doc = {"synth": lambda: {"synthetic": synth_block()}, "fewshot": pipeline_doc,
                "tas": pipeline_doc, "theorem1": theorem_doc}[command]
    calls = _spy_whole_training(monkeypatch)
    made = []
    monkeypatch.setattr(tasks, "make_synthetic", made.append)
    doc = make_doc()
    set_key(doc, path, value)
    config = write_config(tmp_path, doc)
    with open(config) as fh:
        assert ("NaN" if value != value else "Infinity") in fh.read()
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", config, "--out", out]) == 1
    key = path.rsplit(".", 1)[-1]
    assert capsys.readouterr().err == f"error: {key} must be finite, not {value} (key {path!r})\n"
    assert calls == [] and made == [] and os.listdir(out) == []


# run ids of the shipped configs; the echo is the config document with every
# default filled in, so a change to the schema or a default shows here
SHIPPED_RUN_IDS = {
    ("tas", "tas.json", None): "f01c836de3a5",
    ("fewshot", "fewshot.json", "related"): "9e6a192e1307",
    ("fewshot", "fewshot.json", "non_related"): "a58db0493cee",
    ("fewshot", "fewshot.json", "random"): "743ce52a8607",
    ("theorem1", "theorem1.json", None): "d4543714298c",
}


@pytest.mark.parametrize("command,name,ablation", list(SHIPPED_RUN_IDS))
def test_shipped_configs_keep_their_run_id_and_echo(command, name, ablation):
    doc = shipped_config(name)
    if command == "theorem1":
        echo = asdict(cfgmod.parse_theorem(doc))
        sgd = dict(doc["sgd"])
        sgd["step_schedule"] = sgd.pop("schedule")
        expected = {
            **doc["fixture"], "n_seeds": doc["n_seeds"], "abs_tol": doc["abs_tol"],
            "optimum_tol": 1e-10, "sgd": sgd,
        }
    else:
        echo = cli._echo(cfgmod.parse_pipeline(doc))
        defaults = {"lr_decay_epochs": [], "lr_decay_factor": 1.0}
        expected = {
            "data": {**doc["data"], "train_csv": None, "test_csv": None},
            **doc["network"],
            **doc["pipeline"],
            "verbose_fisher": False,
            **{s: {**doc["pipeline"][s], **defaults}
               for s in ("whole_schedule", "approx_schedule", "finetune_schedule")},
        }
        if command == "fewshot":
            echo["ablation"] = expected["ablation"] = ablation
    assert json.loads(json.dumps(echo)) == expected
    assert cli._run_id(command, echo) == SHIPPED_RUN_IDS[command, name, ablation]


def test_shipped_synth_config_parses_to_itself():
    doc = shipped_config("synth.json")
    assert asdict(cfgmod.parse_synth(doc)) == doc


# ---------------------------------------------------------------------------
# seed overrides


def test_override_pipeline_seeds_rederives_every_stream():
    job = cfgmod.parse_pipeline(pipeline_doc())
    out = cfgmod.override_pipeline_seeds(job, 77)
    assert out.data.synthetic.seed == derive_seed(77, 10)
    assert out.pipeline.master_seed == derive_seed(77, 11)
    assert out.pipeline.whole_schedule.seed == derive_seed(77, 12)
    assert out.pipeline.approx_schedule.seed == derive_seed(77, 13)
    assert out.pipeline.finetune_schedule.seed == derive_seed(77, 14)
    # everything else untouched
    assert out.pipeline.whole_schedule.epochs == job.pipeline.whole_schedule.epochs
    assert out.pipeline.s_count == job.pipeline.s_count


def test_override_synth_and_theorem_seeds():
    sj = cfgmod.parse_synth({"synthetic": synth_block()})
    assert cfgmod.override_synth_seed(sj, 5).synthetic.seed == derive_seed(5, 10)
    tj = cfgmod.parse_theorem(theorem_doc())
    out = cfgmod.override_theorem_seeds(tj, 5)
    assert out.data_seed == derive_seed(5, 15)
    assert out.sgd.seed == derive_seed(5, 16)


# ---------------------------------------------------------------------------
# end-to-end commands


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_synth_command_writes_expected_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"synthetic": synth_block(), "filename": "bench.csv"})
    out = str(tmp_path / "out")
    os.makedirs(out)
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    assert "bench.csv" in capsys.readouterr().out
    data = tasks.load_csv(os.path.join(out, "bench.csv"))
    expect = tasks.make_synthetic(tasks.SyntheticConfig(**synth_block()))
    np.testing.assert_array_equal(data.features, expect.features)
    np.testing.assert_array_equal(data.labels, expect.labels)


@pytest.mark.parametrize("filename", ["../escaped.csv", "sub/x.csv", "", ".", ".."])
def test_synth_filename_outside_out_fails_at_parse(tmp_path, capsys, filename):
    cfg = write_config(tmp_path, {"synthetic": synth_block(), "filename": filename})
    out = tmp_path / "run" / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'filename' must be a plain file name") and err.count("\n") == 1
    assert [(root, files) for root, _, files in os.walk(tmp_path) if files] == [
        (str(tmp_path), ["cfg.json"])
    ]


def test_synth_seed_override_is_coherent(tmp_path):
    cfg = write_config(tmp_path, {"synthetic": synth_block()})
    out = str(tmp_path / "out")
    os.makedirs(out)
    assert cli.main(["synth", "--config", cfg, "--out", out, "--seed", "123"]) == 0
    data = tasks.load_csv(os.path.join(out, "dataset.csv"))
    block = synth_block(seed=derive_seed(123, 10))
    expect = tasks.make_synthetic(tasks.SyntheticConfig(**block))
    np.testing.assert_array_equal(data.features, expect.features)


def test_tas_command_outputs_and_ranking(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    out = str(tmp_path / "out")
    assert cli.main(["tas", "--config", cfg, "--out", out]) == 0
    doc = _read_json(os.path.join(out, "scores.json"))
    job = cfgmod.parse_pipeline(pipeline_doc())

    values = [row["score"] for row in doc["scores"]]
    assert values == sorted(values)
    assert len(values) == job.pipeline.s_count

    # histogram csv counts sum to the task count
    with open(os.path.join(out, "tas_hist.csv")) as fh:
        hist_rows = fh.read().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in hist_rows) == job.pipeline.s_count

    # scores match an in-process recomputation of the same job
    train, test = tasks.family_holdout(
        job.data.synthetic, job.data.target_family, job.data.n_test_classes
    )
    from taskaffinity.nnet import NetworkSpec
    spec = NetworkSpec(job.layer_widths, len(train.class_ids), job.activation)
    cfgp = job.pipeline
    whole = pipeline.train_whole_classifier(train, spec, cfgp.whole_schedule)
    ordered = helpers.rank(train, test, whole, cfgp)
    assert [r.task_id for r in ordered] == [row["task_id"] for row in doc["scores"]]
    assert [r.score.value for r in ordered] == values

    # label_freq tallies the classes of the top-R tasks
    freq = Counter(cid for r in ordered[: cfgp.top_r] for cid in r.class_ids)
    with open(os.path.join(out, "label_freq.csv")) as fh:
        freq_rows = fh.read().splitlines()[1:]
    assert {int(r.split(",")[0]): int(r.split(",")[1]) for r in freq_rows} == freq


def test_tas_and_fewshot_write_the_same_ranking_files(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    tas, few = str(tmp_path / "tas"), str(tmp_path / "fewshot")
    assert cli.main(["tas", "--config", cfg, "--out", tas]) == 0
    assert cli.main(["fewshot", "--config", cfg, "--out", few, "--ablation", "related"]) == 0
    a = _read_json(os.path.join(tas, "scores.json"))
    b = _read_json(os.path.join(few, "scores.json"))
    assert a["scores"] == b["scores"]
    assert a["selected"] == b["selected"]
    assert set(a) - set(b) == {"timings"} and set(b) <= set(a)
    assert set(a["timings"]) == {"total_s"}
    for name in ("tas_hist.csv", "label_freq.csv"):
        with open(os.path.join(tas, name), "rb") as fh, open(os.path.join(few, name), "rb") as gh:
            assert fh.read() == gh.read(), name


def test_shipped_tas_rows_carry_every_eps_record(tmp_path, capsys):
    # on configs/tas.json 9 of the 200 source tasks miss 1 - epsilon; every
    # scores.json row says whether its task did, and gives its raw Fisher
    # traces, without verbose_fisher; the health block holds the counts
    out = str(tmp_path / "out")
    assert cli.main(["tas", "--config", os.path.join(ROOT, "configs", "tas.json"),
                     "--out", out]) == 0
    err = capsys.readouterr().err
    doc = _read_json(os.path.join(out, "scores.json"))
    scores = doc["scores"]
    assert len(scores) == 200
    for row in scores:
        assert "fisher" not in row
        assert 0.0 <= row["achieved_epsilon"] <= 1.0 and row["approx_epochs"] >= 1
        assert row["fisher_trace_aa"] > 0 and row["fisher_trace_ab"] > 0
    missed = sum(row["reached_target"] is False for row in scores)
    assert missed == 9
    assert doc["health"] == {"source_tasks": 200, "eps_reached": 191, "extreme_scores": 0}
    assert err.startswith(f"WARNING taskaffinity.cli: {missed} of 200 source tasks missed ")


FISHER_KEYS = {"f_aa", "f_ab"}


def test_tas_verbose_fisher_embeds_diagnostics(tmp_path):
    doc = pipeline_doc()
    doc["pipeline"]["verbose_fisher"] = True
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert cli.main(["tas", "--config", cfg, "--out", out]) == 0
    scores = _read_json(os.path.join(out, "scores.json"))["scores"]
    for row in scores:
        fish = row["fisher"]
        assert set(fish) == FISHER_KEYS
        assert len(fish["f_aa"]["entries"]) > 0


def test_fewshot_verbose_fisher_embeds_diagnostics(tmp_path):
    doc = pipeline_doc()
    doc["pipeline"]["verbose_fisher"] = True
    out = str(tmp_path / "out")
    assert cli.main(["fewshot", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    scores = _read_json(os.path.join(out, "scores.json"))["scores"]
    assert [set(row["fisher"]) for row in scores] == [FISHER_KEYS] * len(scores)
    # report.json carries the same rows without the diagnostics
    bare = [{k: v for k, v in row.items() if k != "fisher"} for row in scores]
    rep = _read_json(os.path.join(out, "report.json"))
    assert rep["scores"] == bare
    # and the scores themselves match a run without it
    plain = str(tmp_path / "plain")
    assert cli.main(["fewshot", "--config", write_config(tmp_path, pipeline_doc(), "p.json"),
                     "--out", plain]) == 0
    assert _read_json(os.path.join(plain, "scores.json"))["scores"] == bare


def test_score_row_fisher_block_round_trips():
    f_aa = fisher.unit_trace(np.array([0.125, 0.875]))
    f_ab = fisher.unit_trace(np.array([0.5, 0.5]))
    r = pipeline.RankedTask(
        3, fisher.AffinityScore(0.25), matching.Assignment((1, 0), 2.0), (4, 7),
        pipeline.EpsApproxRecord(0.1, 5, True), 8.0, 2.0, f_aa, f_ab,
    )
    row = json.loads(json.dumps(cli.score_row(r)))
    block = row["fisher"]
    assert set(block) == FISHER_KEYS
    for key, f in (("f_aa", f_aa), ("f_ab", f_ab)):
        assert block[key]["normalized"] is True
        np.testing.assert_array_equal(block[key]["entries"], f)
    assert (row["achieved_epsilon"], row["approx_epochs"], row["reached_target"]) == (
        0.1, 5, True
    )
    assert (row["fisher_trace_aa"], row["fisher_trace_ab"]) == (8.0, 2.0)
    assert "fisher" not in cli.score_row(r, with_fisher=False)


def test_tas_rerun_is_byte_identical_modulo_timings(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["tas", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["tas", "--config", cfg, "--out", out_b]) == 0
    da = _read_json(os.path.join(out_a, "scores.json"))
    db = _read_json(os.path.join(out_b, "scores.json"))
    da.pop("timings"), db.pop("timings")
    assert da == db
    for name in ("tas_hist.csv", "label_freq.csv"):
        with open(os.path.join(out_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


def _spy_whole_training(monkeypatch):
    """Record each whole-classifier training the commands start."""
    calls = []
    real = pipeline.train_whole_classifier

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "train_whole_classifier", spy)
    return calls


@pytest.mark.parametrize("command", ["tas", "fewshot"])
def test_wrong_n_test_fails_before_training(tmp_path, monkeypatch, capsys, command):
    doc = pipeline_doc()
    doc["pipeline"]["n_test"] = 3  # the target family holds 2 test classes
    calls = _spy_whole_training(monkeypatch)
    cfg = write_config(tmp_path, doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "n_test=3 but the test set has 2 classes" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["tas", "fewshot"])
def test_n_test_above_the_training_classes_fails_before_training(
    tmp_path, monkeypatch, capsys, command
):
    # 2 training classes and 3 test classes, n_test 3
    train, test = _doc_splits()
    ids = train.class_ids
    keep = np.isin(train.labels, ids[:2])
    small = tasks.Dataset.from_arrays(train.features[keep], train.labels[keep])
    wide = tasks.Dataset.from_arrays(
        np.concatenate([test.features, train.features[train.labels == ids[2]]]),
        np.concatenate([test.labels, train.labels[train.labels == ids[2]]]),
    )
    cfg = _csv_config(tmp_path, tasks.csv_text(small), tasks.csv_text(wide))
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["pipeline"]["n_test"] = 3
    cfg = write_config(tmp_path, doc)
    calls = _spy_whole_training(monkeypatch)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: n_test=3 exceeds the 2 training classes\n"
    assert calls == []


def test_oversized_episodes_fail_fewshot_before_training_but_not_tas(
    tmp_path, monkeypatch, capsys
):
    doc = pipeline_doc()
    doc["pipeline"]["q_query"] = 60  # test classes hold 12 rows each
    calls = _spy_whole_training(monkeypatch)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["fewshot", "--config", cfg, "--out", str(tmp_path / "f")]) == 1
    assert "insufficient samples" in capsys.readouterr().err
    assert calls == []
    # tas never samples an episode, so the same config still ranks
    assert cli.main(["tas", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1


def _main_without_warnings(argv):
    """cli.main, failing the test if numpy warns: a RuntimeWarning would reach stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return rc


def test_fewshot_non_finite_fine_tune_is_an_error_line(tmp_path, capsys):
    # the shipped fewshot config at learning rate 1e4 overflows within a few
    # meta-steps; it must not report an accuracy from NaN parameters
    doc = shipped_config("fewshot.json")
    doc["pipeline"].update(s_count=4, top_r=3, n_eval_episodes=10)
    doc["pipeline"]["finetune_schedule"].update(learning_rate=1e4, epochs=50)
    out = str(tmp_path / "out")
    rc = _main_without_warnings(["fewshot", "--config", write_config(tmp_path, doc), "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "error: phase-3 fine-tune: training left non-finite parameters in meta-step 4\n"
    )
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_tas_non_finite_eps_approximation_is_an_error_line(tmp_path, capsys):
    # at learning rate 1e8 the first source task's approximation overflows in
    # its first epoch; the error names the task and the epoch
    doc = shipped_config("tas.json")
    doc["pipeline"].update(s_count=4, top_r=3)
    doc["pipeline"]["approx_schedule"]["learning_rate"] = 1e8
    out = str(tmp_path / "out")
    rc = _main_without_warnings(["tas", "--config", write_config(tmp_path, doc), "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "error: source task 0 eps-approximation: "
        "training left non-finite parameters in epoch 0\n"
    )
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["tas", "fewshot"])
def test_log_level_debug_reaches_stderr_and_leaves_outputs_unchanged(tmp_path, capsys, command):
    cfg = write_config(tmp_path, pipeline_doc())
    quiet, loud = str(tmp_path / "quiet"), str(tmp_path / "loud")
    assert cli.main([command, "--config", cfg, "--out", quiet]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main([command, "--config", cfg, "--out", loud, "--log-level", "debug"]) == 0
    err = capsys.readouterr().err
    assert "DEBUG taskaffinity.pipeline: whole classifier trained" in err
    assert err.count("eps-approx") == 4  # one line per source task
    assert sorted(os.listdir(quiet)) == sorted(os.listdir(loud))
    for name in os.listdir(quiet):
        with open(os.path.join(quiet, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(loud, name), "rb") as fh:
            b = fh.read()
        if name.endswith(".json"):  # timings are wall-clock, everything else is not
            a, b = json.loads(a), json.loads(b)
            a.pop("timings", None), b.pop("timings", None)
        assert a == b, name
    # the handler is gone once the command returns
    pipeline.log.debug("after the command")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["tas", "fewshot"])
def test_degenerate_ranking_is_one_warning_and_leaves_outputs_unchanged(
    tmp_path, capsys, command
):
    # a learning rate of 50 wrecks every eps-approximation: no task reaches
    # 1 - epsilon and some scores are exactly 0 or 1; the run still exits 0
    doc = shipped_config("tas.json")
    doc["pipeline"].update(s_count=10, n_eval_episodes=10, verbose_fisher=True)
    doc["pipeline"]["approx_schedule"]["learning_rate"] = 50.0
    doc["pipeline"]["finetune_schedule"]["epochs"] = 5
    cfg = write_config(tmp_path, doc)
    loud, quiet = str(tmp_path / "loud"), str(tmp_path / "quiet")
    assert cli.main([command, "--config", cfg, "--out", loud]) == 0
    err = capsys.readouterr().err
    assert cli.main([command, "--config", cfg, "--out", quiet, "--log-level", "error"]) == 0
    assert capsys.readouterr().err == ""

    scores = _read_json(os.path.join(loud, "scores.json"))["scores"]
    missed = sum(not row["reached_target"] for row in scores)
    extreme = sum(row["score"] in (0.0, 1.0) for row in scores)
    assert missed == 10 and extreme > 0
    health = {"source_tasks": 10, "eps_reached": 0, "extreme_scores": extreme}
    assert _read_json(os.path.join(loud, "scores.json"))["health"] == health
    if command == "fewshot":
        assert _read_json(os.path.join(loud, "report.json"))["health"] == health
    assert err == (
        f"WARNING taskaffinity.cli: {missed} of 10 source tasks missed the 1 - epsilon "
        f"target; {extreme} scores are exactly 0 or 1 (--log-level debug lists them)\n"
    )
    assert sorted(os.listdir(loud)) == sorted(os.listdir(quiet))
    for name in os.listdir(loud):
        with open(os.path.join(loud, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(quiet, name), "rb") as fh:
            b = fh.read()
        if name.endswith(".json"):
            a, b = json.loads(a), json.loads(b)
            a.pop("timings", None), b.pop("timings", None)
        assert a == b, name


def test_log_level_is_on_every_subcommand_and_checked(capsys):
    parser = cli._build_parser()
    for command in ("synth", "tas", "fewshot", "theorem1"):
        args = parser.parse_args([command, "--config", "c.json", "--log-level", "info"])
        assert args.log_level == "info"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tas", "--config", "c.json", "--log-level", "verbose"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "tas", "fewshot", "theorem1"])
@pytest.mark.parametrize("value", ["-1", str(2**64), str(2**70)])
def test_seed_outside_64_bits_fails_at_parse(tmp_path, capsys, monkeypatch, command, value):
    # derive_seed reduces mod 2**64, so -1 would run as 2**64 - 1 and 2**64 as 0
    monkeypatch.setattr(cli, "_load_config", lambda path: pytest.fail("config was read"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", "c.json", "--out", str(out), "--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer in [0, 2**64), got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", str(2**64 - 1)])
def test_seed_at_either_64_bit_bound_goes_on_to_the_config(capsys, monkeypatch, value):
    def read(path):
        raise ValueError(f"read {path}")

    monkeypatch.setattr(cli, "_load_config", read)
    assert cli.main(["tas", "--config", "c.json", "--seed", value]) == 1
    assert capsys.readouterr().err == "error: read c.json\n"


def test_fewshot_command_report(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    out = str(tmp_path / "out")
    assert cli.main(["fewshot", "--config", cfg, "--out", out]) == 0
    rep = _read_json(os.path.join(out, "report.json"))
    assert rep["ablation_mode"] == "related"
    assert 0.0 <= rep["fewshot_accuracy_mean"] <= 1.0
    assert rep["fewshot_ci95"] >= 0.0
    assert sum(rep["tas_histogram"]["counts"]) == 4
    assert rep["run_id"] == _read_json(os.path.join(out, "scores.json"))["run_id"]


def test_fewshot_ablation_mode_recorded(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    out = str(tmp_path / "out")
    assert cli.main(["fewshot", "--config", cfg, "--out", out, "--ablation", "random"]) == 0
    rep = _read_json(os.path.join(out, "report.json"))
    assert rep["ablation_mode"] == "random"
    assert rep["config"]["ablation"] == "random"


def test_fewshot_rejects_unknown_ablation(tmp_path):
    cfg = write_config(tmp_path, pipeline_doc())
    with pytest.raises(SystemExit) as exc:
        cli.main(["fewshot", "--config", cfg, "--ablation", "shuffled"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "tas", "theorem1"])
def test_ablation_is_a_fewshot_only_flag(tmp_path, command):
    cfg = write_config(tmp_path, pipeline_doc())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--ablation", "random"])
    assert exc.value.code == 2


def _doc_splits():
    """The train and test splits pipeline_doc generates."""
    src = cfgmod.parse_pipeline(pipeline_doc()).data
    return tasks.family_holdout(src.synthetic, src.target_family, src.n_test_classes)


def _csv_config(tmp_path, train, test):
    """pipeline_doc reading its two splits from the given CSV texts."""
    data = {}
    for split, text in (("train", train), ("test", test)):
        path = str(tmp_path / f"{split}.csv")
        with open(path, "w") as fh:
            fh.write(text)
        data[f"{split}_csv"] = path
    doc = pipeline_doc()
    doc["data"] = data
    return write_config(tmp_path, doc, "csv.json")


def test_fewshot_csv_data_variant_matches_synthetic(tmp_path):
    # write the same split to CSVs, run both variants, compare the rankings
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = write_config(tmp_path, pipeline_doc(), "s.json")
    assert cli.main(["tas", "--config", cfg, "--out", out_a]) == 0
    train, test = _doc_splits()
    csv_cfg = _csv_config(tmp_path, tasks.csv_text(train), tasks.csv_text(test))
    assert cli.main(["tas", "--config", csv_cfg, "--out", out_b]) == 0
    da = _read_json(os.path.join(out_a, "scores.json"))
    db = _read_json(os.path.join(out_b, "scores.json"))
    assert da["scores"] == db["scores"]
    assert da["run_id"] != db["run_id"]  # different configs, honestly different ids


def _never_trains(*args):
    raise AssertionError("whole-classifier training started")


@pytest.mark.parametrize("split,value,line", [("train", "nan", 4), ("test", "inf", 3)])
def test_non_finite_csv_feature_fails_at_load(tmp_path, monkeypatch, capsys, split, value, line):
    splits = dict(zip(("train", "test"), (tasks.csv_text(d) for d in _doc_splits())))
    lines = splits[split].splitlines()
    cells = lines[line - 1].split(",")
    cells[1] = value
    lines[line - 1] = ",".join(cells)
    splits[split] = "\n".join(lines) + "\n"
    monkeypatch.setattr(pipeline, "train_whole_classifier", _never_trains)
    cfg = _csv_config(tmp_path, splits["train"], splits["test"])
    assert cli.main(["tas", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    path = tmp_path / f"{split}.csv"
    assert capsys.readouterr().err == f"error: {path}: line {line}: features must be finite\n"


@pytest.mark.parametrize(
    "split,name", [("train", "training"), ("test", "test")], ids=["train", "test"]
)
def test_narrow_split_fails_before_training(tmp_path, monkeypatch, capsys, split, name):
    splits = dict(zip(("train", "test"), _doc_splits()))
    data = splits[split]
    splits[split] = tasks.Dataset.from_arrays(data.features[:, :-1], data.labels)
    monkeypatch.setattr(pipeline, "train_whole_classifier", _never_trains)
    cfg = _csv_config(tmp_path, *(tasks.csv_text(splits[s]) for s in ("train", "test")))
    for command in ("tas", "fewshot"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (
            f"error: input_dim=6 but the {name} set has 5 columns\n"
        )


def test_theorem1_command_passes_and_writes_series(tmp_path):
    cfg = write_config(tmp_path, theorem_doc())
    out = str(tmp_path / "out")
    assert cli.main(["theorem1", "--config", cfg, "--out", out]) == 0
    rep = _read_json(os.path.join(out, "report.json"))
    assert rep["passed"] is True
    assert rep["final_gap_median"] < 0.05
    assert len(rep["trend"]) == 3
    with open(os.path.join(out, "theorem1_series.csv")) as fh:
        rows = fh.read().splitlines()
    n_ckpt = theorem.checkpoint_times(300).size
    assert rows[0] == "seed,t,s_t,gap"
    assert len(rows) == 1 + 5 * n_ckpt
    last = rows[-1].split(",")
    assert int(last[0]) == 4 and int(last[1]) == 300


def test_theorem1_series_cells_are_plain_floats(tmp_path):
    cfg = write_config(tmp_path, theorem_doc(noise=0.1))
    out = str(tmp_path / "out")
    assert cli.main(["theorem1", "--config", cfg, "--out", out]) == 0
    s_star = _read_json(os.path.join(out, "report.json"))["s_star"]
    with open(os.path.join(out, "theorem1_series.csv")) as fh:
        rows = [r.split(",") for r in fh.read().splitlines()[1:]]
    for _, _, s_t, gap in rows:
        assert float(gap) == abs(float(s_t) - s_star)


def test_theorem1_command_fails_on_impossible_tolerance(tmp_path):
    cfg = write_config(tmp_path, theorem_doc(abs_tol=1e-15))
    out = str(tmp_path / "out")
    assert cli.main(["theorem1", "--config", cfg, "--out", out]) == 1
    rep = _read_json(os.path.join(out, "report.json"))
    assert rep["passed"] is False
    assert os.path.exists(os.path.join(out, "theorem1_series.csv"))


def test_theorem1_solver_failure_is_an_error_line(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise theorem.SolverError("optimizer did not reach tol=1e-10 within 3 iterations")

    monkeypatch.setattr(theorem, "solve_optimum", fail)
    cfg = write_config(tmp_path, theorem_doc())
    assert cli.main(["theorem1", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "error: optimizer did not reach" in capsys.readouterr().err


def test_theorem1_divergence_is_an_error_line(tmp_path, capsys):
    doc = theorem_doc()
    doc["sgd"]["schedule"]["eta0"] = 1e6
    cfg = write_config(tmp_path, doc)
    assert cli.main(["theorem1", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 0: iterate norm ")
    assert f"exceeded {theorem.GUARD_NORM:.0e} at step " in err


def test_theorem1_too_few_seeds_fails_before_sgd(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(theorem, "noisy_sgd", lambda *args, **kwargs: calls.append(args))
    doc = theorem_doc()
    doc["n_seeds"] = theorem.MIN_SEEDS - 1
    cfg = write_config(tmp_path, doc)
    assert cli.main(["theorem1", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"n_seeds must be >= {theorem.MIN_SEEDS}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("path,value", [
    ("sgd.schedule.eta0", float("nan")),
    ("sgd.noise_sigma", float("nan")),
    ("fixture.l2_lambda", float("nan")),
    ("fixture.l2_lambda", float("inf")),
    ("optimum_tol", -1.0),
    ("optimum_tol", float("inf")),
    ("abs_tol", float("nan")),
    ("abs_tol", 0.0),
])
def test_theorem1_input_that_can_never_pass_fails_before_any_step(
    tmp_path, monkeypatch, capsys, path, value
):
    # each ran every solver or SGD step before failing, or failing to pass
    calls = []
    for name in ("solve_optimum", "noisy_sgd"):
        monkeypatch.setattr(theorem, name, lambda *args, name=name, **kw: calls.append(name))
    doc = theorem_doc()
    *parents, key = path.split(".")
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    cfg = write_config(tmp_path, doc)  # json writes NaN and Infinity as such
    assert cli.main(["theorem1", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be "), err
    assert calls == []


def test_theorem1_rerun_identical_modulo_timings(tmp_path):
    cfg = write_config(tmp_path, theorem_doc(noise=0.1))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    ra = cli.main(["theorem1", "--config", cfg, "--out", out_a])
    rb = cli.main(["theorem1", "--config", cfg, "--out", out_b])
    assert ra == rb
    da = _read_json(os.path.join(out_a, "report.json"))
    db = _read_json(os.path.join(out_b, "report.json"))
    da.pop("timings"), db.pop("timings")
    assert da == db
    with open(os.path.join(out_a, "theorem1_series.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out_b, "theorem1_series.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


def test_cli_error_paths(tmp_path, capsys):
    # missing config file
    assert cli.main(["tas", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # malformed json
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    assert cli.main(["tas", "--config", bad]) == 1
    # config with unknown key
    doc = pipeline_doc()
    doc["bogus"] = 1
    assert cli.main(["tas", "--config", write_config(tmp_path, doc)]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_synth_failed_rename_exits_1_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    out = str(tmp_path / "out")
    os.makedirs(out)
    cfg = write_config(tmp_path, {"synthetic": synth_block()})
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 1
    assert "error: rename refused" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_outputs_honour_the_umask(tmp_path):
    out = str(tmp_path / "out")
    old = os.umask(0o022)
    try:
        scfg = write_config(tmp_path, {"synthetic": synth_block()}, "s.json")
        assert cli.main(["synth", "--config", scfg, "--out", out]) == 0
        assert cli.main(["tas", "--config", write_config(tmp_path, pipeline_doc()),
                         "--out", out]) == 0
    finally:
        os.umask(old)
    modes = {n: os.stat(os.path.join(out, n)).st_mode & 0o777 for n in os.listdir(out)}
    assert modes == {
        n: 0o644 for n in ("dataset.csv", "label_freq.csv", "scores.json", "tas_hist.csv")
    }


def test_commands_leave_no_temp_files(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, pipeline_doc())
    assert cli.main(["fewshot", "--config", cfg, "--out", out]) == 0
    scfg = write_config(tmp_path, {"synthetic": synth_block()}, "s.json")
    assert cli.main(["synth", "--config", scfg, "--out", out]) == 0
    leftovers = [n for n in os.listdir(out) if n.startswith(".tmp-")]
    assert leftovers == []
    assert sorted(os.listdir(out)) == [
        "dataset.csv", "label_freq.csv", "report.json", "scores.json", "tas_hist.csv"
    ]

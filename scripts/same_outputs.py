#!/usr/bin/env python3
"""Check that two checkouts, a parent and a change, write the same outputs.

    python3 scripts/same_outputs.py PARENT_DIR CHANGE_DIR [--config PATH]

Runs `tas` with no seed, with --seed 0 to 3, with the config's
pipeline.verbose_fisher set to true and on a CSV pair, `fewshot` in each
--ablation mode and once at an off-default shape (tanh, layer_widths
[width, 24, 9], m_way 2, k_shot 1, q_query 3: odd slot and embedding
counts), and `theorem1` and `synth` each with no seed and with --seed 0,
in each checkout with that checkout's own src/ and its shipped
configs/tas.json, configs/fewshot.json, configs/theorem1.json and
configs/synth.json; --config runs every `tas` and `fewshot` command on that
one config instead.  The CSV pair is written once, the same bytes for both
checkouts, in the shape of the `tas` config (the change's, or --config):
training classes of unequal sizes, so that source tasks fall into many
support and query row counts, and pipeline.n_test test classes,
network.layer_widths[0] columns wide.  Then
compares every output file of each run with `timings` dropped: JSON files
value by value, others line by line.  Prints the first difference, naming
the run, the file and the key or line, and exits 1; or prints how many files
were equal and exits 0.  A command that fails exits 2.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

MODES = ("related", "non_related", "random")  # the fewshot --ablation choices
# (command, --seed, --ablation, the config's variant: None, "verbose" for the
# run that keeps the Fisher diagonals, "csv" for the run on the CSV pair,
# "shape" for the run at the off-default shape)
RUNS = (
    [("tas", None, None, None)]
    + [("tas", seed, None, None) for seed in range(4)]
    + [("tas", None, None, "verbose"), ("tas", None, None, "csv")]
    + [("fewshot", None, mode, None) for mode in MODES] + [("fewshot", None, None, "shape")]
    + [(command, seed, None, None) for command in ("theorem1", "synth") for seed in (None, 0)]
)
CSV_TRAIN_SIZES = (9, 12, 16, 21, 27, 34, 40, 47)  # rows of each training class
CSV_TEST_ROWS = 20  # rows of each test class


def write_csv_pair(config: str, root: str) -> dict:
    """train.csv and test.csv in root, of fixed seeded Gaussian classes in the
    width and test class count of the pipeline config; returns the config's
    "data" object that reads them."""
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    width, n_test = doc["network"]["layer_widths"][0], doc["pipeline"]["n_test"]
    rng, label, data = random.Random(0), 0, {}
    for split, sizes in (("train", CSV_TRAIN_SIZES), ("test", (CSV_TEST_ROWS,) * n_test)):
        lines = [",".join([f"f{j}" for j in range(width)] + ["label"])]
        for size in sizes:  # one class, labelled by its place in the pair
            mean = [rng.gauss(0.0, 3.0) for _ in range(width)]
            lines += [",".join([repr(m + rng.gauss(0.0, 1.0)) for m in mean] + [str(label)])
                      for _ in range(size)]
            label += 1
        data[f"{split}_csv"] = os.path.join(root, f"{split}.csv")
        with open(data[f"{split}_csv"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return data


def run_all(checkout: str, config: str | None, out_root: str,
            csv_data: dict | None = None) -> None:
    """Every run of RUNS in checkout, each writing into out_root/<run name>;
    csv_data is the "data" object of the CSV run (see write_csv_pair)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    for command, seed, mode, variant in RUNS:
        name = [command, None if seed is None else f"seed{seed}", mode, variant]
        out = os.path.join(out_root, "-".join(part for part in name if part))
        os.makedirs(out)
        shipped = os.path.join(checkout, "configs", f"{command}.json")
        path = config if config and command in ("tas", "fewshot") else shipped
        if variant:  # the config beside the run's directory, which compare skips
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if variant == "verbose":
                doc["pipeline"]["verbose_fisher"] = True
            elif variant == "shape":  # the input width stays the config's
                net = doc["network"]
                net.update(activation="tanh", layer_widths=net["layer_widths"][:1] + [24, 9])
                doc["pipeline"].update(m_way=2, k_shot=1, q_query=3)
            else:
                doc["data"] = csv_data
            path = out + ".json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        args = [command, "--config", os.path.abspath(path), "--out", out, "--log-level", "error"]
        args += ["--seed", str(seed)] if seed is not None else []
        args += ["--ablation", mode] if mode else []
        proc = subprocess.run([sys.executable, "-m", "taskaffinity", *args], cwd=checkout,
                              env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:  # 2, not a difference's 1
            print(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            sys.exit(2)


def drop_timings(doc):
    """doc without any "timings" key, at any depth."""
    if isinstance(doc, dict):
        return {k: drop_timings(v) for k, v in doc.items() if k != "timings"}
    if isinstance(doc, list):
        return [drop_timings(v) for v in doc]
    return doc


def first_difference(a, b, path: str = "$") -> str | None:
    """The key path ($ the document) of the first place two JSON values differ,
    or None.  Leaves compare by repr, so 1 and 1.0 differ and nan equals nan."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key} (in one side only)"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path} (length {len(a)} against {len(b)})"
    return None if repr(a) == repr(b) else path


def first_line_difference(a: str, b: str) -> str | None:
    """The first line where two texts differ, or None."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {i}"
    n = min(len(lines_a), len(lines_b))
    return None if len(lines_a) == len(lines_b) else f"line {n + 1} (in one side only)"


def compare(parent_root: str, change_root: str) -> tuple[int, str | None]:
    """(files compared, the first difference as "run/file: key or line", or None)."""
    count = 0
    for run in sorted(set(os.listdir(parent_root)) | set(os.listdir(change_root))):
        sides = [os.path.join(root, run) for root in (parent_root, change_root)]
        names = [set(os.listdir(d)) if os.path.isdir(d) else set() for d in sides]
        for name in sorted(names[0] | names[1]):
            if name not in names[0] or name not in names[1]:
                return count, f"{run}/{name}: written by one side only"
            texts = []
            for d in sides:
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    texts.append(fh.read())
            if name.endswith(".json"):
                found = first_difference(*(drop_timings(json.loads(t)) for t in texts))
            else:
                found = first_line_difference(*texts)
            if found is not None:
                return count, f"{run}/{name}: {found}"
            count += 1
    return count, None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--config", help="run every tas and fewshot command on this config, "
                    "not the shipped ones")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        csv_data = write_csv_pair(
            args.config or os.path.join(args.change, "configs", "tas.json"), tmp)
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        for checkout, root in zip((args.parent, args.change), roots):
            run_all(checkout, args.config, root, csv_data)
        count, found = compare(*roots)
    if found is not None:
        print(f"differ: {found}")
        sys.exit(1)
    print(f"identical: {count} files of {len(RUNS)} runs, timings dropped")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

For each workload, runs one result through the timed loop against the
recorded reference (it must pass) and against corrupted copies of it (each
must fail, so error_rate is non-zero).  Also checks that BENCHMARK.json
names exactly the metrics the harness prints.  Exits 0 when every
expectation holds.
"""

import copy
import json
import os
import shutil
import sys

import run
from perlayer import METRICS
from workloads import ACCURACY_TOL, GAP_TOL, SCORE_TOL, WORKLOADS


def _swap_top_two(ref):
    ids = ref["task_ids"]
    ids[0], ids[1] = ids[1], ids[0]


def _nudge_score(ref):
    ref["scores"][0] += 10 * SCORE_TOL


def _nudge_accuracy(ref):
    ref["accuracy"]["related"] += 2 * ACCURACY_TOL


def _change_label_set(ref):
    ref["label_sets"]["random"] = ref["label_sets"]["random"][1:]


def _nudge_gap(ref):
    ref["final_gap_median"] += 10 * GAP_TOL


CORRUPTIONS = {
    "rank": [_swap_top_two, _nudge_score],
    "ablation": [_nudge_accuracy, _change_label_set],
    "theorem1": [_nudge_gap],
}


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END_UNITS):
        problems.append("BENCHMARK.json end_to_end names differ from run.END_TO_END_UNITS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != METRICS:
        problems.append("BENCHMARK.json per_layer differs from perlayer.METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    run.load_package()
    reference = run.load_reference()
    problems = check_benchmark_json()
    workdir = os.path.join(run.RUN_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, wl in WORKLOADS.items():
            wl.warm_up(workdir)
            key = wl.pool[0]
            cases = [("recorded reference", reference[name], 0.0)]
            for corrupt in CORRUPTIONS[name]:
                bad = copy.deepcopy(reference[name])
                corrupt(bad[str(key)])
                cases.append((corrupt.__name__.lstrip("_"), bad, 1.0))
            for label, ref, expected in cases:
                records, _ = run.run_results(wl, [key], ref, 0.0, workdir, count=1)
                rate = run.error_rate(records)
                verdict = "ok" if rate == expected else "UNEXPECTED"
                print(f"{name:<9} {label:<20} error_rate {rate:g} (expected {expected:g}) "
                      f"{verdict} {'; '.join(records[0]['errors'])}")
                if rate != expected:
                    problems.append(f"{name}: {label} gave error_rate {rate}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

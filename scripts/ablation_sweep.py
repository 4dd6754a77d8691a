#!/usr/bin/env python3
"""Multi-seed ablation sweep on the synthetic family benchmark.

For each seed: regenerate the benchmark, train the shared whole classifier,
rank 200 source tasks by affinity, then fine-tune and evaluate once per
selection mode (related / non_related / random) off the shared ranking.
Prints per-seed accuracies; per mode, the mean accuracy and the share of the
label set from the target family; per pair of modes, the mean paired
difference and its 95 % half-width over seeds; and the related-set margins.
`setting` and `sweep` are criterion 7's protocol, which the tests import.
"""

import argparse
import itertools
import math
import time

import numpy as np

from taskaffinity import nnet, pipeline, tasks
from taskaffinity.seeding import derive_seed

CLASSES_PER_FAMILY = 6
TARGET_FAMILY = 0


def setting(master: int, s: int):
    """Seed s of the 8-family benchmark: (train, test, spec, cfg)."""
    m = derive_seed(master, s)
    scfg = tasks.SyntheticConfig(
        n_families=8, classes_per_family=CLASSES_PER_FAMILY, samples_per_class=40, input_dim=16,
        family_spread=6.0, class_spread=2.0, noise_sigma=0.7, seed=derive_seed(m, 9),
    )
    train, test = tasks.family_holdout(scfg, TARGET_FAMILY, 3)
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    cfg = pipeline.PipelineConfig(
        s_count=200, n_test=3, top_r=3, m_way=3, k_shot=5, q_query=10, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 6, 32, seed=derive_seed(m, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 600, 4, seed=derive_seed(m, 4)),
        n_eval_episodes=300, softmax_temperature=4.0, master_seed=m,
    )
    return train, test, spec, cfg


def sweep(master: int, n_seeds: int):
    """Yield each seed's `ablation_comparison` reports, seed 0 first."""
    for s in range(n_seeds):
        yield pipeline.ablation_comparison(*setting(master, s))


def paired_difference(a, b) -> tuple[float, float | None]:
    """Mean of a - b over paired seeds and its 95 % half-width,
    1.96 * sd(ddof=1) / sqrt(n) as in `evaluate_fewshot`; None for one pair."""
    if len(a) != len(b) or len(a) == 0:
        raise ValueError(f"need two runs of the same nonzero length, got {len(a)} and {len(b)}")
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if d.size == 1:
        return float(d[0]), None
    return float(d.mean()), 1.96 * float(d.std(ddof=1)) / math.sqrt(d.size)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=40, help="number of benchmark seeds")
    ap.add_argument("--master", type=int, default=4242, help="root of the per-seed stream")
    args = ap.parse_args()

    modes = pipeline.ABLATION_MODES
    acc = {mode: [] for mode in modes}
    share = {mode: [] for mode in modes}
    t0 = time.perf_counter()
    for s, reports in enumerate(sweep(args.master, args.seeds)):
        for mode in modes:
            acc[mode].append(reports[mode].fewshot_accuracy_mean)
            labels = reports[mode].selected_labels.label_set
            share[mode].append(np.mean([
                tasks.family_of(c, CLASSES_PER_FAMILY) == TARGET_FAMILY for c in labels
            ]))
        print(f"seed {s:3d}: " + "  ".join(f"{m} {acc[m][-1] * 100:5.1f}%" for m in modes))

    means = {m: 100.0 * float(np.mean(v)) for m, v in acc.items()}
    print()
    for m in modes:
        print(f"{m:12s} {means[m]:5.2f}%  target-family share {np.mean(share[m]):.3f}")
    for a, b in itertools.combinations(modes, 2):
        diff, half = paired_difference(acc[a], acc[b])
        interval = "n/a" if half is None else f"{100.0 * half:.2f}"
        print(f"paired {a} - {b}: {100.0 * diff:+.2f} +/- {interval} points (95%)")
    print(
        f"related - random      {means['related'] - means['random']:+.2f} points\n"
        f"related - non_related {means['related'] - means['non_related']:+.2f} points\n"
        f"({args.seeds} seeds, {time.perf_counter() - t0:.0f}s)"
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Multi-seed ablation sweep on the synthetic family benchmark.

For each seed: regenerate the benchmark, train the shared whole classifier,
rank 200 source tasks by affinity, then fine-tune and evaluate once per
selection mode (related / non_related / random) off the shared ranking.
Prints per-seed accuracies and the mean margins of the related-set runs
over the two controls.
"""

import argparse
import time

import numpy as np

from taskaffinity import nnet, pipeline, tasks
from taskaffinity.seeding import derive_seed


def setting(master: int, s: int):
    m = derive_seed(master, s)
    scfg = tasks.SyntheticConfig(
        n_families=8, classes_per_family=6, samples_per_class=40, input_dim=16,
        family_spread=6.0, class_spread=2.0, noise_sigma=0.7, seed=derive_seed(m, 9),
    )
    train, test = tasks.family_holdout(scfg, 0, 3)
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    cfg = pipeline.PipelineConfig(
        s_count=200, n_test=3, top_r=3, m_way=3, k_shot=5, q_query=10, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 6, 32, seed=derive_seed(m, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 600, 4, seed=derive_seed(m, 4)),
        n_eval_episodes=300, softmax_temperature=4.0, master_seed=m,
    )
    return train, test, spec, cfg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=40, help="number of benchmark seeds")
    ap.add_argument("--master", type=int, default=4242, help="root of the per-seed stream")
    args = ap.parse_args()

    acc = {mode: [] for mode in pipeline.ABLATION_MODES}
    t0 = time.perf_counter()
    for s in range(args.seeds):
        train, test, spec, cfg = setting(args.master, s)
        reports = pipeline.ablation_comparison(train, test, spec, cfg)
        for mode in pipeline.ABLATION_MODES:
            acc[mode].append(reports[mode].fewshot_accuracy_mean)
        print(
            f"seed {s:3d}: "
            + "  ".join(f"{m} {acc[m][-1] * 100:5.1f}%" for m in pipeline.ABLATION_MODES)
        )

    means = {m: 100.0 * float(np.mean(v)) for m, v in acc.items()}
    stds = {m: 100.0 * float(np.std(v) / np.sqrt(len(v))) for m, v in acc.items()}
    print()
    for m in pipeline.ABLATION_MODES:
        print(f"{m:12s} {means[m]:5.2f}% +/- {stds[m]:.2f} (se)")
    print(
        f"related - random      {means['related'] - means['random']:+.2f} points\n"
        f"related - non_related {means['related'] - means['non_related']:+.2f} points\n"
        f"({args.seeds} seeds, {time.perf_counter() - t0:.0f}s)"
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Ground-truth sanity check for the affinity score.

Each trial builds a fresh 4-family benchmark, holds out three classes of
family 0 as the target, and scores two candidate source tasks: one drawn
from the target's own family (classes 0-2) and one from a disjoint family
(classes 12-14).  The same-family task should score strictly lower (lower
score = more related).  `setting` and `trial` are criteria 4 and 6's
protocol, which the tests import.
"""

import argparse
import time

from taskaffinity import nnet, pipeline, tasks
from taskaffinity.seeding import derive_seed


def setting(m: int, n_holdout: int):
    """The 4-family benchmark with the last n_holdout classes of family 0 held
    out as the target: (train, test, spec, cfg), every seed derived from m."""
    scfg = tasks.SyntheticConfig(
        n_families=4, classes_per_family=6, samples_per_class=40, input_dim=16,
        family_spread=6.0, class_spread=1.5, noise_sigma=0.8, seed=derive_seed(m, 9),
    )
    train, test = tasks.family_holdout(scfg, 0, n_holdout)
    spec = nnet.NetworkSpec((16, 32, 8), len(train.class_ids), "relu")
    cfg = pipeline.PipelineConfig(
        s_count=10, n_test=n_holdout, top_r=2, m_way=3, k_shot=5, q_query=5, epsilon=0.2,
        whole_schedule=nnet.TrainSchedule(0.05, 0.9, 30, 32, (20,), 0.1, seed=derive_seed(m, 0)),
        approx_schedule=nnet.TrainSchedule(0.02, 0.9, 30, 16, seed=derive_seed(m, 3)),
        finetune_schedule=nnet.TrainSchedule(0.02, 0.9, 10, 4, seed=derive_seed(m, 4)),
        n_eval_episodes=100, softmax_temperature=1.0, master_seed=m,
    )
    return train, test, spec, cfg


def trial(master: int, k: int) -> tuple[float, float]:
    """Trial k's (same-family, disjoint-family) affinity scores."""
    m = derive_seed(master, k)
    train, test, spec, cfg = setting(m, 3)
    whole = pipeline.train_whole_classifier(train, spec, cfg.whole_schedule)
    target = pipeline.view_target(test, whole, cfg)
    same = tasks.task_from_classes(train, [0, 1, 2], 100, derive_seed(m, 1, 0))
    disj = tasks.task_from_classes(train, [12, 13, 14], 101, derive_seed(m, 1, 1))
    s_same = pipeline.rank_all_sources(same, target, train, whole, cfg)[0].score.value
    s_disj = pipeline.rank_all_sources(disj, target, train, whole, cfg)[0].score.value
    return s_same, s_disj


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10, help="number of seeded trials")
    ap.add_argument("--master", type=int, default=2024, help="root of the per-trial stream")
    args = ap.parse_args()

    t0 = time.perf_counter()
    wins = 0
    for k in range(args.trials):
        s_same, s_disj = trial(args.master, k)
        won = s_same < s_disj
        wins += won
        print(
            f"trial {k}: same-family {s_same:.4f}  disjoint {s_disj:.4f}  "
            f"{'WIN' if won else 'LOSS'}"
        )
    print(f"{wins}/{args.trials} wins ({time.perf_counter() - t0:.1f}s)")


if __name__ == "__main__":
    main()

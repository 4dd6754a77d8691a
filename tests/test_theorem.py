"""Strongly convex logistic model, noisy SGD averaging, and the gap check."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import helpers
from taskaffinity import theorem
from taskaffinity.nnet import Batch
from taskaffinity.seeding import derive_seed

THEOREM_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "theorem1.json")


def tiny_problem(seed=0, n=40, dim=4, lam=0.2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = (rng.random(n) < 0.5).astype(np.int64)
    return theorem.ConvexProblem(x, y, lam)


# ---------------------------------------------------------------------------
# validation


def test_problem_validation():
    with pytest.raises(ValueError):
        theorem.ConvexProblem(np.zeros((3, 2)), np.array([0, 1, 2]), 0.1)
    with pytest.raises(ValueError):
        theorem.ConvexProblem(np.zeros((3, 2)), np.array([0, 1, 1]), 0.0)
    with pytest.raises(ValueError):
        theorem.ConvexProblem(np.zeros((2, 2)), np.array([0]), 0.1)


def test_step_schedule_validation_and_values():
    s = theorem.StepSchedule("constant", 0.3)
    np.testing.assert_array_equal(s.etas(1, 1000), 0.3)
    p = theorem.StepSchedule("polynomial", 0.5, 0.75)
    etas = p.etas(1, 16)
    assert etas.shape == (16,)
    assert etas[0] == 0.5
    assert etas[15] == pytest.approx(0.5 * 16 ** -0.75)
    np.testing.assert_array_equal(p.etas(9, 8), etas[8:])
    with pytest.raises(ValueError):
        theorem.StepSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        theorem.StepSchedule("polynomial", 0.1, exponent=0.5)
    with pytest.raises(ValueError):
        theorem.StepSchedule("polynomial", 0.1, exponent=1.0)
    with pytest.raises(ValueError):
        theorem.StepSchedule("constant", 0.0)


def test_sgd_config_validation():
    sched = theorem.StepSchedule("constant", 0.1)
    with pytest.raises(ValueError):
        theorem.NoisySGDConfig(sched, -0.1, 10, 0)
    with pytest.raises(ValueError):
        theorem.NoisySGDConfig(sched, 0.1, 0, 0)


# ---------------------------------------------------------------------------
# objective


def test_gradient_matches_central_differences():
    p = tiny_problem(1)
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(p.dim)
    g = theorem.gradient(p, theta)
    h = 1e-6
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        fd = (theorem.loss_value(p, theta + e) - theorem.loss_value(p, theta - e)) / (2 * h)
        assert abs(g[i] - fd) < 1e-7


def test_strong_convexity_certificate():
    # L(y) >= L(x) + g(x).(y-x) + lambda ||y-x||^2 with the no-half penalty
    p = tiny_problem(3, lam=0.15)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(p.dim) * 2
        y = rng.standard_normal(p.dim) * 2
        lhs = theorem.loss_value(p, y)
        rhs = (
            theorem.loss_value(p, x)
            + theorem.gradient(p, x) @ (y - x)
            + p.l2_lambda * float((y - x) @ (y - x))
        )
        assert lhs >= rhs - 1e-12


def test_per_sample_gradients_mean_is_gradient():
    p = tiny_problem(5)
    theta = np.random.default_rng(6).standard_normal(p.dim)
    rows = helpers.per_sample_gradients(p.features, p.labels, theta, p.l2_lambda)
    assert rows.shape == (p.features.shape[0], p.dim)
    np.testing.assert_allclose(rows.mean(axis=0), theorem.gradient(p, theta), rtol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_fisher_diag_at_equals_mean_of_squared_oracle_rows(seed):
    rng = np.random.default_rng(derive_seed(70, seed))
    n, d = int(rng.integers(1, 200)), int(rng.integers(1, 12))
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
    y = rng.integers(0, 2, size=n)
    theta = rng.standard_normal(d) * rng.uniform(0.0, 3.0)
    lam = float(rng.uniform(0.01, 1.0))
    rows = helpers.per_sample_gradients(x, y, theta, lam)
    want = np.mean(rows * rows, axis=0)
    f = theorem.fisher_diag_at(theta, Batch(x, y), lam)
    np.testing.assert_allclose(f.entries, want / want.sum(), rtol=1e-12, atol=0)


def test_fisher_diag_at_is_unit_trace():
    p = tiny_problem(7)
    theta = np.random.default_rng(8).standard_normal(p.dim)
    f = theorem.fisher_diag_at(theta, Batch(p.features, p.labels), p.l2_lambda)
    assert f.normalized
    assert f.entries.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimum solver


def test_solve_optimum_symmetric_data_gives_origin():
    # one feature vector with both labels: loss is symmetric around 0 in the
    # logistic term, and the penalty pins the optimum at the origin
    x = np.array([[1.0, -2.0], [1.0, -2.0]])
    p = theorem.ConvexProblem(x, np.array([1, 0]), 0.3)
    theta = theorem.solve_optimum(p)
    np.testing.assert_allclose(theta, np.zeros(2), atol=1e-9)


def test_solve_optimum_reaches_tolerance():
    p = tiny_problem(9)
    theta = theorem.solve_optimum(p, tol=1e-10)
    assert np.linalg.norm(theorem.gradient(p, theta)) < 1e-10


def test_solve_optimum_fixed_step_agrees_with_armijo():
    p = tiny_problem(10)
    a = theorem.solve_optimum(p, tol=1e-10)
    b = theorem.solve_optimum(p, tol=1e-10, fixed_step=0.5)
    assert np.linalg.norm(a - b) < 1e-9


def test_solve_optimum_resolves_gradients_below_the_loss_rounding():
    # the fixture of `theorem1 --seed derive_seed(1, 0)`: Armijo alone stalls
    # near |g| = 1e-10, where the decrease it asks for is below the loss's ulp
    p, _, _ = theorem.make_logistic_fixture(10, 200, 200, 0.1, derive_seed(derive_seed(1, 0), 15))
    theta = theorem.solve_optimum(p, tol=1e-10, max_iters=3000)
    assert np.linalg.norm(theorem.gradient(p, theta)) < 1e-10


def test_solve_optimum_budget_error():
    p = tiny_problem(11)
    with pytest.raises(RuntimeError, match="did not reach"):
        theorem.solve_optimum(p, tol=1e-12, fixed_step=1e-6, max_iters=5)


# ---------------------------------------------------------------------------
# checkpoints / SGD


def test_checkpoint_times_structure():
    ts = theorem.checkpoint_times(1000)
    assert ts[0] == 1
    assert ts[-1] == 1000
    assert np.all(np.diff(ts) > 0)
    # 10 per decade: 1..10 has ten entries at log10 spacing, rounded uniquely
    assert ts.size >= 25
    np.testing.assert_array_equal(theorem.checkpoint_times(1), [1])


def test_noisy_sgd_noiseless_average_approaches_optimum():
    p = tiny_problem(12, lam=0.3)
    star = theorem.solve_optimum(p)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.2), 0.0, 4000, seed=1)
    traj = theorem.noisy_sgd(p, cfg, [1])[0]
    # iterates converge geometrically; the running average lags at O(1/t)
    assert np.linalg.norm(traj.theta_bars[-1] - star) < 1e-2
    gaps = np.linalg.norm(traj.theta_bars - star, axis=1)
    assert gaps[-1] < gaps[0]


def test_noisy_sgd_at_optimum_stays_put_when_noiseless():
    # symmetric data puts the optimum at the origin, which is also the start
    x = np.array([[1.0, -2.0], [1.0, -2.0]])
    p = theorem.ConvexProblem(x, np.array([1, 0]), 0.3)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.1), 0.0, 50, seed=2)
    traj = theorem.noisy_sgd(p, cfg, [2])[0]
    np.testing.assert_allclose(traj.theta_bars, 0.0, atol=1e-15)


def test_noisy_sgd_running_mean_matches_kept_iterates():
    p = tiny_problem(13)
    cfg = theorem.NoisySGDConfig(
        theorem.StepSchedule("polynomial", 0.1, 0.75), 0.2, 500, seed=3
    )
    traj = theorem.noisy_sgd(p, cfg, [3])[0]
    _, _, iterates = helpers.serial_noisy_sgd(p, cfg, 3)
    assert iterates.shape == (500, p.dim)
    for idx, t in enumerate(traj.times):
        recomputed = iterates[: int(t)].mean(axis=0)
        np.testing.assert_allclose(traj.theta_bars[idx], recomputed, rtol=1e-12, atol=1e-14)


SCHEDULES = [
    theorem.StepSchedule("constant", 0.05),
    theorem.StepSchedule("polynomial", 0.1, 0.6),
]


@pytest.mark.parametrize("n_seeds", [1, 2, 5, 7])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=["constant", "polynomial"])
def test_noisy_sgd_matches_serial_oracle(n_seeds, schedule, monkeypatch):
    # a 40-value noise chunk makes 500 steps cross 13 to 88 chunks per seed,
    # with a short final chunk; each seed's stream must not notice
    monkeypatch.setattr(theorem, "_NOISE_CHUNK", 40)
    p = tiny_problem(16)
    cfg = theorem.NoisySGDConfig(schedule, 0.3, 500, seed=5)
    seeds = [derive_seed(5, i) for i in range(n_seeds)]
    trajs = theorem.noisy_sgd(p, cfg, seeds)
    assert len(trajs) == n_seeds
    for seed, traj in zip(seeds, trajs):
        times, bars, _ = helpers.serial_noisy_sgd(p, cfg, seed)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(traj.theta_bars, bars, rtol=0, atol=1e-12)


def test_noisy_sgd_matches_serial_oracle_across_full_chunks():
    # 7 seeds share the 8192-value chunk as 1170 steps each: 2500 steps take 3 chunks
    p, _, _ = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, 2500, seed=7)
    seeds = [derive_seed(7, 15, i) for i in range(7)]
    for seed, traj in zip(seeds, theorem.noisy_sgd(p, cfg, seeds)):
        _, bars, _ = helpers.serial_noisy_sgd(p, cfg, seed)
        np.testing.assert_allclose(traj.theta_bars, bars, rtol=0, atol=1e-12)


def test_noisy_sgd_deterministic():
    p = tiny_problem(14)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.05), 0.3, 300, seed=9)
    a = theorem.noisy_sgd(p, cfg, [9, 10, 11])
    b = theorem.noisy_sgd(p, cfg, [9, 10, 11])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.theta_bars, y.theta_bars)
    # a seed's run does not depend on the seeds beside it, up to rounding
    alone = theorem.noisy_sgd(p, cfg, [10])[0].theta_bars
    np.testing.assert_allclose(alone, a[1].theta_bars, rtol=0, atol=1e-12)


def test_noisy_sgd_needs_a_seed():
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.05), 0.3, 10, seed=0)
    with pytest.raises(ValueError, match="at least one seed"):
        theorem.noisy_sgd(tiny_problem(14), cfg, [])


def test_noisy_sgd_divergence_guard():
    p = tiny_problem(15, lam=0.5)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 1e6), 0.0, 1000, seed=0)
    with pytest.raises(theorem.DivergenceError) as exc:
        theorem.noisy_sgd(p, cfg, [0, 1])
    # noiseless runs are identical, so both leave at the same step: the lower index is named
    assert exc.value.step >= 1
    assert exc.value.seed == 0
    assert str(exc.value).startswith("seed 0: ")


def test_noisy_sgd_divergence_names_the_earliest_seed():
    # a stable step with huge noise: each seed's iterate norm first passes the
    # guard at a step set by its own noise, read off the serial oracle
    p = tiny_problem(15, lam=0.5)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.5), 5e7, 60, seed=0)
    seeds = [derive_seed(17, i) for i in range(6)]
    first = []
    for seed in seeds:
        _, _, iterates = helpers.serial_noisy_sgd(p, cfg, seed)
        over = np.flatnonzero(np.linalg.norm(iterates, axis=1) > theorem.GUARD_NORM)
        first.append(int(over[0]) + 1 if over.size else cfg.total_steps + 1)
    step = min(first)
    want = first.index(step)
    assert step <= cfg.total_steps and want > 0, "no seed but the first leaves; the check is too weak"
    # the same seed twice leaves at the same step, and the lower index is named
    with pytest.raises(theorem.DivergenceError) as exc:
        theorem.noisy_sgd(p, cfg, seeds[: want + 1] + seeds[want:])
    assert (exc.value.step, exc.value.seed) == (step, want)
    assert f"seed {want}:" in str(exc.value)


def test_noisy_sgd_noise_buffer_stays_small():
    # the noise buffer is one chunk shared by all seeds, not one chunk per seed
    with open(THEOREM_CONFIG) as fh:
        doc = json.load(fh)
    fx = doc["fixture"]
    p, _, _ = theorem.make_logistic_fixture(
        fx["dim"], fx["n_support"], fx["n_query"], fx["l2_lambda"], fx["data_seed"]
    )
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, 20_000, seed=7)
    tracemalloc.start()
    try:
        theorem.noisy_sgd(p, cfg, [derive_seed(7, i) for i in range(20)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"traced peak {peak} B"


# ---------------------------------------------------------------------------
# affinity series / convergence verdict


def _fixture_series(n_seeds=10, total_steps=2000):
    p, qa, sb = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)
    star = theorem.solve_optimum(p, tol=1e-10)
    cfg = theorem.NoisySGDConfig(
        theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, total_steps, seed=7
    )
    out = []
    for traj in theorem.noisy_sgd(p, cfg, [derive_seed(7, 15, i) for i in range(n_seeds)]):
        out.append(theorem.tas_trajectory(traj, star, qa, sb, p))
    return out


def test_tas_trajectory_identical_datasets_give_zero():
    p, qa, _ = theorem.make_logistic_fixture(6, 50, 50, 0.1, seed=1)
    star = theorem.solve_optimum(p, tol=1e-8)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.1), 0.05, 100, seed=4)
    traj = theorem.noisy_sgd(p, cfg, [4])[0]
    series = theorem.tas_trajectory(traj, star, qa, qa, p)
    np.testing.assert_allclose(series.values, 0.0, atol=1e-12)
    assert series.s_star == pytest.approx(0.0, abs=1e-12)


def test_tas_trajectory_values_in_range():
    series = _fixture_series(n_seeds=1, total_steps=200)[0]
    assert np.all(np.isfinite(series.values))
    assert np.all((series.values >= 0) & (series.values <= 1 + 1e-12))
    assert 0 <= series.s_star <= 1 + 1e-12


def test_tas_trajectory_degenerate_fisher_message():
    # all-zero features make every per-sample gradient the penalty term, and
    # at theta = 0 that is identically zero -> unnormalizable diagonal
    x = np.zeros((4, 3))
    p = theorem.ConvexProblem(x, np.array([0, 1, 0, 1]), 0.1)
    traj = theorem.Trajectory(times=np.array([1]), theta_bars=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="degenerate Fisher at checkpoint t=1"):
        theorem.tas_trajectory(traj, np.zeros(3), Batch(x, np.array([0, 1, 0, 1])), Batch(x, np.array([0, 1, 0, 1])), p)


def test_s_star_matches_single_checkpoint_at_optimum():
    p, qa, sb = theorem.make_logistic_fixture(6, 80, 80, 0.1, seed=3)
    star = theorem.solve_optimum(p, tol=1e-10)
    traj = theorem.Trajectory(times=np.array([1]), theta_bars=star[None, :].copy())
    series = theorem.tas_trajectory(traj, star, qa, sb, p)
    assert series.values[0] == series.s_star


def test_convergence_check_noiseless_passes_tight():
    p, qa, sb = theorem.make_logistic_fixture(8, 100, 100, 0.2, seed=5)
    star = theorem.solve_optimum(p, tol=1e-12)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.2), 0.0, 3000, seed=0)
    out = []
    for traj in theorem.noisy_sgd(p, cfg, range(5)):
        out.append(theorem.tas_trajectory(traj, star, qa, sb, p))
    report = theorem.convergence_check(out, abs_tol=1e-3)
    assert report.passed
    assert report.final_gap_median < 1e-3
    assert len(report.trend) == 3
    # the same series cannot beat an impossible tolerance
    assert not theorem.convergence_check(out, abs_tol=0.0).passed


def test_convergence_check_validation():
    series = _fixture_series(n_seeds=5, total_steps=100)
    with pytest.raises(ValueError, match="5 seeds"):
        theorem.convergence_check(series[:4], abs_tol=0.1)
    other = _fixture_series(n_seeds=1, total_steps=200)[0]
    with pytest.raises(ValueError, match="checkpoint times"):
        theorem.convergence_check(series[:4] + [other], abs_tol=0.1)


def test_gap_shrinks_on_reference_fixture():
    # frozen small-scale version of the full empirical run
    series = _fixture_series(n_seeds=10, total_steps=2000)
    gaps = np.stack([np.abs(s.values - s.s_star) for s in series])
    medians = np.median(gaps, axis=0)
    assert medians[-1] < medians[0]
    assert medians[-1] < 0.02


def test_fixture_shapes_and_determinism():
    p, qa, sb = theorem.make_logistic_fixture(5, 30, 20, 0.1, seed=11)
    assert p.features.shape == (30, 5)
    assert qa.features.shape == (20, 5)
    assert sb.features.shape == (20, 5)
    p2, qa2, sb2 = theorem.make_logistic_fixture(5, 30, 20, 0.1, seed=11)
    np.testing.assert_array_equal(p.features, p2.features)
    np.testing.assert_array_equal(qa.features, qa2.features)
    np.testing.assert_array_equal(sb.features, sb2.features)
    assert not np.array_equal(qa.features, sb.features)

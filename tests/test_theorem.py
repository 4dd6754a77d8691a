"""Strongly convex logistic model, noisy SGD averaging, and the gap check."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import helpers
from taskaffinity import fisher, theorem
from taskaffinity.seeding import derive_seed

THEOREM_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "theorem1.json")


def folded(x, y):
    """The sign-folded rows (2y - 1) x of samples (x, y)."""
    return (2.0 * y - 1.0)[:, None] * x


def tiny_problem(seed=0, n=40, dim=4, lam=0.2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = (rng.random(n) < 0.5).astype(np.int64)
    return theorem.ConvexProblem(folded(x, y), lam)


# ---------------------------------------------------------------------------
# validation


def test_problem_validation():
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        theorem.ConvexProblem(np.zeros(3), 0.1)
    with pytest.raises(ValueError, match=r"n >= 1"):
        theorem.ConvexProblem(np.zeros((0, 2)), 0.1)
    for lam in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="l2_lambda"):
            theorem.ConvexProblem(np.zeros((3, 2)), lam)
    p = theorem.ConvexProblem([[1, 2], [3, 4]], 0.1)
    assert p.rows.dtype == np.float64 and not p.rows.flags.writeable


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
    for eta0 in (0.0, float("nan")):
        with pytest.raises(ValueError, match="eta0"):
            theorem.StepSchedule("constant", eta0)


def test_sgd_config_validation():
    sched = theorem.StepSchedule("constant", 0.1)
    for sigma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="noise_sigma"):
            theorem.NoisySGDConfig(sched, sigma, 10, 0)
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
    # folded rows with all-one labels are the same logistic problem
    p = tiny_problem(5)
    theta = np.random.default_rng(6).standard_normal(p.dim)
    ones = np.ones(p.rows.shape[0], dtype=np.int64)
    rows = helpers.per_sample_gradients(p.rows, ones, theta, p.l2_lambda)
    assert rows.shape == (p.rows.shape[0], p.dim)
    np.testing.assert_allclose(rows.mean(axis=0), theorem.gradient(p, theta), rtol=1e-12)


def _random_samples(seed):
    """(x, y, theta, lambda) of random size, scale and penalty."""
    rng = np.random.default_rng(derive_seed(70, seed))
    n, d = int(rng.integers(1, 200)), int(rng.integers(1, 12))
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
    y = rng.integers(0, 2, size=n)
    theta = rng.standard_normal(d) * rng.uniform(0.0, 3.0)
    return x, y, theta, float(rng.uniform(0.01, 1.0))


@pytest.mark.parametrize("seed", range(8))
def test_fisher_diag_at_equals_mean_of_squared_oracle_rows(seed):
    x, y, theta, lam = _random_samples(seed)
    rows = helpers.per_sample_gradients(x, y, theta, lam)
    want = np.mean(rows * rows, axis=0)
    f = theorem.fisher_diag_at(theta, theorem.ConvexProblem(folded(x, y), lam))
    np.testing.assert_allclose(f, want / want.sum(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(8))
def test_folded_rows_give_the_unfolded_loss_and_gradient(seed):
    x, y, theta, lam = _random_samples(seed)
    p = theorem.ConvexProblem(folded(x, y), lam)
    margins = (2.0 * y - 1.0) * (x @ theta)
    want_loss = np.mean(np.logaddexp(0.0, -margins)) + lam * theta @ theta
    assert theorem.loss_value(p, theta) == pytest.approx(want_loss, rel=1e-12, abs=0)
    rows = helpers.per_sample_gradients(x, y, theta, lam)
    np.testing.assert_allclose(theorem.gradient(p, theta), rows.mean(axis=0), rtol=1e-12)


def test_fisher_diag_at_is_unit_trace():
    p = tiny_problem(7)
    theta = np.random.default_rng(8).standard_normal(p.dim)
    f = theorem.fisher_diag_at(theta, p)
    assert f.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimum solver


def test_solve_optimum_symmetric_data_gives_origin():
    # one feature vector with both labels, so folded rows z and -z: loss is
    # symmetric around 0 in the logistic term, and the penalty pins the
    # optimum at the origin
    p = theorem.ConvexProblem([[1.0, -2.0], [-1.0, 2.0]], 0.3)
    theta = theorem.solve_optimum(p, tol=1e-10)
    np.testing.assert_allclose(theta, np.zeros(2), atol=1e-9)


def test_solve_optimum_reaches_tolerance():
    p = tiny_problem(9)
    theta = theorem.solve_optimum(p, tol=1e-10)
    assert np.linalg.norm(theorem.gradient(p, theta)) < 1e-10


def test_solve_optimum_fixed_step_agrees_with_armijo():
    p = tiny_problem(10)
    a = theorem.solve_optimum(p, tol=1e-10)
    b = helpers.fixed_step_descent(p, 0.5, tol=1e-10)
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
        theorem.solve_optimum(p, tol=1e-12, max_iters=5)


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
    star = theorem.solve_optimum(p, tol=1e-10)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.2), 0.0, 4000, seed=1)
    _, bars = theorem.noisy_sgd(p, cfg, [1])
    # iterates converge geometrically; the running average lags at O(1/t)
    assert np.linalg.norm(bars[0, -1] - star) < 1e-2
    gaps = np.linalg.norm(bars[0] - star, axis=1)
    assert gaps[-1] < gaps[0]


def test_noisy_sgd_at_optimum_stays_put_when_noiseless():
    # symmetric data puts the optimum at the origin, which is also the start
    p = theorem.ConvexProblem([[1.0, -2.0], [-1.0, 2.0]], 0.3)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.1), 0.0, 50, seed=2)
    _, bars = theorem.noisy_sgd(p, cfg, [2])
    np.testing.assert_allclose(bars, 0.0, atol=1e-15)


def test_noisy_sgd_running_mean_matches_kept_iterates():
    p = tiny_problem(13)
    cfg = theorem.NoisySGDConfig(
        theorem.StepSchedule("polynomial", 0.1, 0.75), 0.2, 500, seed=3
    )
    times, bars = theorem.noisy_sgd(p, cfg, [3])
    _, _, iterates = helpers.serial_noisy_sgd(p, cfg, 3)
    assert iterates.shape == (500, p.dim)
    for idx, t in enumerate(times):
        recomputed = iterates[: int(t)].mean(axis=0)
        np.testing.assert_allclose(bars[0, idx], recomputed, rtol=1e-12, atol=1e-14)


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
    times, bars = theorem.noisy_sgd(p, cfg, seeds)
    assert bars.shape == (n_seeds, times.size, p.dim)
    for seed, run in zip(seeds, bars):
        serial_times, serial_bars, _ = helpers.serial_noisy_sgd(p, cfg, seed)
        np.testing.assert_array_equal(times, serial_times)
        np.testing.assert_allclose(run, serial_bars, rtol=0, atol=1e-12)


def test_noisy_sgd_matches_serial_oracle_across_full_chunks():
    # 7 seeds share the 8192-value chunk as 1170 steps each: 2500 steps take 3 chunks
    p, _, _ = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, 2500, seed=7)
    seeds = [derive_seed(7, 15, i) for i in range(7)]
    for seed, run in zip(seeds, theorem.noisy_sgd(p, cfg, seeds)[1]):
        _, bars, _ = helpers.serial_noisy_sgd(p, cfg, seed)
        np.testing.assert_allclose(run, bars, rtol=0, atol=1e-12)


def test_noisy_sgd_deterministic():
    p = tiny_problem(14)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.05), 0.3, 300, seed=9)
    _, a = theorem.noisy_sgd(p, cfg, [9, 10, 11])
    _, b = theorem.noisy_sgd(p, cfg, [9, 10, 11])
    np.testing.assert_array_equal(a, b)
    # a seed's run does not depend on the seeds beside it, up to rounding
    _, alone = theorem.noisy_sgd(p, cfg, [10])
    np.testing.assert_allclose(alone[0], a[1], rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("n_seeds", [1, 5, 20])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=["constant", "polynomial"])
@pytest.mark.parametrize("noise_chunk,total_steps", [(8192, 1), (8192, 1500), (100, 777)])
def test_noisy_sgd_equals_the_step_by_step_block_loop(
    noise_chunk, total_steps, schedule, n_seeds, monkeypatch
):
    # a 100-value chunk is 100, 20 or 5 steps: 777 steps cross 8 to 156
    # chunks and end on a short one, and checkpoints 100 and 200 fall on a
    # chunk's last step
    monkeypatch.setattr(theorem, "_NOISE_CHUNK", noise_chunk)
    p, _, _ = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)  # criterion 5's
    cfg = theorem.NoisySGDConfig(schedule, 0.1, total_steps, seed=7)
    seeds = [derive_seed(7, 15, i) for i in range(n_seeds)]
    times, bars = theorem.noisy_sgd(p, cfg, seeds)
    want_times, want_bars = helpers.stacked_noisy_sgd(p, cfg, seeds)
    assert np.array_equal(times, want_times)
    assert np.array_equal(bars, want_bars)


# (_NOISE_CHUNK, seeds, eta, sigma, total_steps, the step the guard trips at)
# on tiny_problem(15, lam=0.5), each read off the step-by-step loop
DIVERGENCES = {
    "step 1": (8192, 3, 0.5, 1e9, 60, 1),
    # noiseless steps of 1e6 overflow long before a 8192-step chunk ends
    "overflow past it": (8192, 2, 1e6, 0.0, 1000, 2),
    "mid-chunk": (8192, 6, 0.5, 5e7, 60, 21),
    "later chunk": (48, 6, 0.5, 5e7, 60, 21),  # 8-step chunks: step 21 is in the third
    "short final chunk": (48, 6, 0.5, 5e7, 22, 21),  # whose last chunk is steps 17..22
}


@pytest.mark.filterwarnings("error")  # nothing the chunk computes past the guard may warn
@pytest.mark.parametrize("case", DIVERGENCES.values(), ids=DIVERGENCES.keys())
def test_noisy_sgd_divergence_equals_the_step_by_step_block_loop(case, monkeypatch):
    noise_chunk, n_seeds, eta, sigma, total_steps, step = case
    monkeypatch.setattr(theorem, "_NOISE_CHUNK", noise_chunk)
    p = tiny_problem(15, lam=0.5)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", eta), sigma, total_steps, 0)
    seeds = [derive_seed(17, i) for i in range(n_seeds)]
    errors = []
    for run in (theorem.noisy_sgd, helpers.stacked_noisy_sgd):
        with pytest.raises(theorem.DivergenceError) as exc:
            run(p, cfg, seeds)
        errors.append((exc.value.step, exc.value.seed, str(exc.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == step


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
    """(times (K,), values (S, K), s_star) on the criterion-5 fixture."""
    p, qa, sb = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)
    star = theorem.solve_optimum(p, tol=1e-10)
    cfg = theorem.NoisySGDConfig(
        theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, total_steps, seed=7
    )
    times, bars = theorem.noisy_sgd(p, cfg, [derive_seed(7, 15, i) for i in range(n_seeds)])
    return (times, *theorem.tas_trajectory(times, bars, star, qa, sb))


def test_tas_trajectory_identical_datasets_give_zero():
    p, qa, _ = theorem.make_logistic_fixture(6, 50, 50, 0.1, seed=1)
    star = theorem.solve_optimum(p, tol=1e-8)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.1), 0.05, 100, seed=4)
    times, bars = theorem.noisy_sgd(p, cfg, [4])
    values, s_star = theorem.tas_trajectory(times, bars, star, qa, qa)
    assert values.shape == (1, times.size)
    np.testing.assert_allclose(values, 0.0, atol=1e-12)
    assert s_star == pytest.approx(0.0, abs=1e-12)


def test_tas_trajectory_values_in_range():
    _, values, s_star = _fixture_series(n_seeds=1, total_steps=200)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0) & (values <= 1 + 1e-12))
    assert 0 <= s_star <= 1 + 1e-12


def test_tas_trajectory_degenerate_fisher_message():
    # all-zero rows make every per-sample gradient the penalty term, and
    # at theta = 0 that is identically zero -> unnormalizable diagonal
    p = theorem.ConvexProblem(np.zeros((4, 3)), 0.1)
    with pytest.raises(ValueError, match="degenerate Fisher at checkpoint t=1"):
        theorem.tas_trajectory(np.array([1]), np.zeros((1, 1, 3)), np.zeros(3), p, p)
    # only theta = 0 is degenerate here: the message names its seed and time
    bars = np.ones((3, 2, 3))
    bars[1, 1] = bars[2, 0] = 0.0
    with pytest.raises(ValueError, match=r"^degenerate Fisher at checkpoint t=5 of seed 1: "):
        theorem.tas_trajectory(np.array([1, 5]), bars, np.ones(3), p, p)
    with pytest.raises(ValueError, match=r"^degenerate Fisher at the optimum: .*all-zero"):
        theorem.tas_trajectory(np.array([1, 5]), np.ones((3, 2, 3)), np.zeros(3), p, p)


@pytest.mark.parametrize("n_seeds,total_steps", [(2, 300), (3, 2000)])
def test_tas_trajectory_equals_the_serial_loop_bitwise(n_seeds, total_steps, monkeypatch):
    p, qa, sb = theorem.make_logistic_fixture(10, 200, 200, 0.1, seed=42)  # criterion 5's
    star = theorem.solve_optimum(p, tol=1e-10)
    cfg = theorem.NoisySGDConfig(
        theorem.StepSchedule("polynomial", 0.1, 0.6), 0.1, total_steps, seed=7
    )
    times, bars = theorem.noisy_sgd(p, cfg, [derive_seed(7, 15, i) for i in range(n_seeds)])
    want_values, want_star = helpers.serial_tas_trajectory(bars, star, qa, sb)
    calls = []
    unit_trace = fisher.unit_trace
    monkeypatch.setattr(fisher, "unit_trace", lambda f: calls.append(f.shape) or unit_trace(f))
    values, s_star = theorem.tas_trajectory(times, bars, star, qa, sb)
    np.testing.assert_array_equal(values, want_values)
    assert s_star == want_star
    # two diagonals for the whole block and two at the optimum, whatever S and K
    assert calls == [bars.shape] * 2 + [star.shape] * 2


def test_s_star_matches_single_checkpoint_at_optimum():
    p, qa, sb = theorem.make_logistic_fixture(6, 80, 80, 0.1, seed=3)
    star = theorem.solve_optimum(p, tol=1e-10)
    values, s_star = theorem.tas_trajectory(np.array([1]), star[None, None, :], star, qa, sb)
    assert values[0, 0] == s_star


def test_convergence_check_noiseless_passes_tight():
    p, qa, sb = theorem.make_logistic_fixture(8, 100, 100, 0.2, seed=5)
    star = theorem.solve_optimum(p, tol=1e-12)
    cfg = theorem.NoisySGDConfig(theorem.StepSchedule("constant", 0.2), 0.0, 3000, seed=0)
    times, bars = theorem.noisy_sgd(p, cfg, range(5))
    values, s_star = theorem.tas_trajectory(times, bars, star, qa, sb)
    gaps = np.abs(values - s_star)
    report = theorem.convergence_check(times, gaps, abs_tol=1e-3)
    assert report.passed
    assert report.final_gap_median < 1e-3
    assert len(report.trend) == 3
    # the same series cannot beat an impossible tolerance
    assert not theorem.convergence_check(times, gaps, abs_tol=0.0).passed


def _gap_series(medians, n_seeds=5):
    """(times, gaps (n_seeds, K)) on log-spaced checkpoints up to 10**4 whose
    median gap over the seeds is medians(times); the seeds straddle it evenly."""
    times = theorem.checkpoint_times(10_000)
    spread = np.linspace(0.5, 1.5, n_seeds)
    return times, spread[:, None] * medians(times.astype(np.float64))


def test_convergence_check_passes_a_wiggling_floor():
    # the median falls like 1/sqrt(t) and then wiggles at 1e-5: the last
    # three checkpoints rise, but the final gap is far below its value a
    # decade of steps earlier
    def medians(t):
        return 1e-3 / np.sqrt(t) + 1e-5 * (1.0 + 0.3 * np.sin(3.0 * np.arange(t.size)))

    report = theorem.convergence_check(*_gap_series(medians), abs_tol=1e-2)
    assert report.passed
    assert np.any(np.diff(report.trend) > 0)  # the old non-increasing rule failed it


def test_convergence_check_fails_a_gap_above_the_tolerance():
    report = theorem.convergence_check(*_gap_series(lambda t: 1.0 / np.sqrt(t)), abs_tol=1e-3)
    assert report.final_gap_median > 1e-3
    assert not report.passed


def test_convergence_check_fails_a_gap_that_grew_over_the_last_decade():
    # below the tolerance at the end, but larger than at t = 1000
    report = theorem.convergence_check(*_gap_series(lambda t: 1e-6 * np.sqrt(t)), abs_tol=1e-2)
    assert report.final_gap_median < 1e-2
    assert not report.passed


def test_convergence_check_compares_with_the_first_checkpoint_below_ten_steps():
    times = np.array([3, 5, 8])
    falls = np.tile(np.abs(np.array([0.4, 0.35, 0.31]) - 0.3), (5, 1))
    rises = np.tile(np.abs(np.array([0.301, 0.35, 0.302]) - 0.3), (5, 1))
    assert theorem.convergence_check(times, falls, abs_tol=0.05).passed
    assert not theorem.convergence_check(times, rises, abs_tol=0.05).passed


def test_convergence_check_validation():
    times, values, s_star = _fixture_series(n_seeds=5, total_steps=100)
    with pytest.raises(ValueError, match="5 seeds"):
        theorem.convergence_check(times, np.abs(values[:4] - s_star), abs_tol=0.1)


def test_gap_shrinks_on_reference_fixture():
    # frozen small-scale version of the full empirical run
    _, values, s_star = _fixture_series(n_seeds=10, total_steps=2000)
    medians = np.median(np.abs(values - s_star), axis=0)
    assert medians[-1] < medians[0]
    assert medians[-1] < 0.02


def test_fixture_shapes_and_determinism():
    p, qa, sb = theorem.make_logistic_fixture(5, 30, 20, 0.1, seed=11)
    assert p.rows.shape == (30, 5)
    assert qa.rows.shape == (20, 5)
    assert sb.rows.shape == (20, 5)
    assert p.l2_lambda == qa.l2_lambda == sb.l2_lambda == 0.1
    p2, qa2, sb2 = theorem.make_logistic_fixture(5, 30, 20, 0.1, seed=11)
    np.testing.assert_array_equal(p.rows, p2.rows)
    np.testing.assert_array_equal(qa.rows, qa2.rows)
    np.testing.assert_array_equal(sb.rows, sb2.rows)
    assert not np.array_equal(qa.rows, sb.rows)

"""Empirical convergence harness for the affinity score on a strongly convex model.

The model is L2-regularized logistic regression; the penalty is written
lambda * ||theta||^2 (no 1/2), which makes the loss satisfy

    L(y) >= L(x) + grad L(x)^T (y - x) + lambda * ||y - x||^2

exactly with mu = l2_lambda.  Noisy SGD follows the full-batch gradient plus
isotropic Gaussian noise; the running Polyak average of the iterates is
recorded at log-spaced checkpoints (10 per decade).  At each checkpoint the
affinity score between the Fisher diagonals of the averaged parameters on
two same-distribution datasets is compared against its value at the true
optimum: the gap should shrink toward zero as steps accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fisher
from .nnet import Batch

GUARD_NORM = 1e8
MIN_SEEDS = 5  # fewest SGD seeds whose median gap convergence_check trusts
_SOLVER_CAP = 200_000
# Noise vectors (steps x seeds) noisy_sgd draws per chunk: its noise buffer
# stays at 8192 * d floats however many seeds run.
_NOISE_CHUNK = 8192


class DivergenceError(RuntimeError):
    """Noisy SGD left the guard ball; .step is the offending step index and
    .seed the index, in noisy_sgd's seeds, of the run that left it."""

    def __init__(self, step: int, seed: int, norm: float):
        super().__init__(
            f"seed {seed}: iterate norm {norm:.3e} exceeded {GUARD_NORM:.0e} at step {step}"
        )
        self.step = step
        self.seed = seed


class SolverError(RuntimeError):
    """solve_optimum ran out of budget or its line search collapsed."""


@dataclass(frozen=True, eq=False)
class ConvexProblem:
    """Binary logistic regression data with an L2 penalty coefficient."""

    features: np.ndarray
    labels: np.ndarray
    l2_lambda: float

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ValueError("features must be (n, d) aligned with 1-D labels")
        if not set(np.unique(y)) <= {0, 1}:
            raise ValueError("labels must be binary 0/1")
        if self.l2_lambda <= 0:
            raise ValueError("l2_lambda must be positive (strong convexity)")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class StepSchedule:
    """constant: eta_t = eta0.  polynomial: eta_t = eta0 * t^(-exponent), exponent in (0.5, 1)."""

    kind: str
    eta0: float
    exponent: float = 0.75

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "polynomial"):
            raise ValueError("kind must be 'constant' or 'polynomial'")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.kind == "polynomial" and not 0.5 < self.exponent < 1:
            raise ValueError("polynomial exponent must be in (0.5, 1)")

    def etas(self, first: int, count: int) -> np.ndarray:
        """eta_t for t = first .. first + count - 1."""
        if self.kind == "constant":
            return np.full(count, self.eta0)
        t = np.arange(first, first + count, dtype=np.float64)
        return self.eta0 * t ** (-self.exponent)


@dataclass(frozen=True)
class NoisySGDConfig:
    """One noisy-SGD run's settings.  seed is the master seed a caller derives
    the per-run seeds it passes to noisy_sgd from."""

    step_schedule: StepSchedule
    noise_sigma: float
    total_steps: int
    seed: int

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


@dataclass
class Trajectory:
    """Running Polyak averages at strictly increasing checkpoint times."""

    times: np.ndarray
    theta_bars: np.ndarray


@dataclass
class TasSeries:
    """Affinity values at the checkpoints plus the score at the optimum."""

    times: np.ndarray
    values: np.ndarray
    s_star: float


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    final_gap_median: float
    trend: tuple[float, ...]  # median gap at the last three checkpoints
    abs_tol: float
    n_seeds: int


# ---------------------------------------------------------------------------
# objective


def _signs(labels: np.ndarray) -> np.ndarray:
    return 2.0 * labels - 1.0


def loss_value(p: ConvexProblem, theta: np.ndarray) -> float:
    margins = _signs(p.labels) * (p.features @ theta)
    return float(np.mean(np.logaddexp(0.0, -margins)) + p.l2_lambda * theta @ theta)


def gradient(p: ConvexProblem, theta: np.ndarray) -> np.ndarray:
    s = _signs(p.labels)
    w = -s * _sigmoid(-s * (p.features @ theta))
    return p.features.T @ w / p.features.shape[0] + 2.0 * p.l2_lambda * theta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fisher_diag_at(theta: np.ndarray, data: Batch, l2_lambda: float) -> fisher.FisherDiagonal:
    """Unit-trace Fisher diagonal of the logistic model at theta over a dataset.

    Sample i's gradient is w_i x_i + 2 lambda theta, so the mean of its square
    is (X*X)^T (w*w) / n + 4 lambda theta * (X^T w) / n + 4 lambda^2 theta*theta;
    no per-sample gradient is formed.
    """
    x = data.features
    s = _signs(data.labels)
    w = -s * _sigmoid(-s * (x @ theta))
    n = x.shape[0]
    entries = (
        (x * x).T @ (w * w) / n
        + 4.0 * l2_lambda * theta * (x.T @ w) / n
        + 4.0 * l2_lambda * l2_lambda * theta * theta
    )
    return fisher.normalize_unit_trace(fisher.FisherDiagonal(entries))


# ---------------------------------------------------------------------------
# optimization


def solve_optimum(
    p: ConvexProblem,
    tol: float = 1e-10,
    fixed_step: Optional[float] = None,
    max_iters: int = _SOLVER_CAP,
) -> np.ndarray:
    """Full-batch gradient descent to gradient norm < tol.

    Default uses Armijo backtracking, and the step 1/L of the loss's
    smoothness bound L = ||X||_2^2 / (4n) + 2 lambda once the decrease Armijo
    asks for is within a few ulps of the loss, where it cannot be resolved.
    Passing fixed_step runs plain descent at that rate (the cross-check
    route).  Raises SolverError if the budget runs out.
    """
    n = p.features.shape[0]
    smooth_step = 1.0 / (np.linalg.norm(p.features, 2) ** 2 / (4.0 * n) + 2.0 * p.l2_lambda)
    theta = np.zeros(p.dim)
    for _ in range(max_iters):
        g = gradient(p, theta)
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return theta
        if fixed_step is not None:
            theta = theta - fixed_step * g
            continue
        base = loss_value(p, theta)
        if 0.25 * gnorm * gnorm <= 4.0 * np.spacing(base):
            theta = theta - smooth_step * g
            continue
        step = 1.0
        while loss_value(p, theta - step * g) > base - 0.25 * step * gnorm * gnorm:
            step *= 0.5
            if step < 1e-20:
                raise SolverError("line search collapsed; gradient may be inconsistent")
        theta = theta - step * g
    raise SolverError(f"optimizer did not reach tol={tol} within {max_iters} iterations")


def checkpoint_times(total_steps: int) -> np.ndarray:
    """Log-spaced step indices, 10 per decade, always ending at total_steps."""
    ts = {total_steps}
    k = 0
    while True:
        t = int(round(10.0 ** (k / 10.0)))
        if t > total_steps:
            break
        ts.add(max(t, 1))
        k += 1
    return np.array(sorted(ts), dtype=np.int64)


def noisy_sgd(p: ConvexProblem, cfg: NoisySGDConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """theta_{t+1} = theta_t - eta_t * (grad L(theta_t) + eps_t), eps_t ~ N(0, sigma^2 I),
    for every seed at once.

    Row i of the (S, d) iterate block is the run seeded by seeds[i]: it
    starts at the origin and draws its noise, in chunks, from its own
    np.random.default_rng(seeds[i]), so its values do not depend on the
    other seeds beyond rounding (the block's matmuls sum in another order).
    Returns one Trajectory per seed: the running mean of its iterates
    theta_1..theta_t at the checkpoint times.  Raises DivergenceError at the
    first step where an iterate leaves the guard ball, naming the lowest
    seed index that left it.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not rngs:
        raise ValueError("noisy_sgd needs at least one seed")
    n_runs, n = len(rngs), p.features.shape[0]
    # With sign-folded rows z_i = s_i x_i, grad L = c + tanh(theta @ a) @ h + 2 lambda theta,
    # from sigmoid(-m) = (1 + tanh(-m / 2)) / 2; tanh needs no sign masks.
    z = _signs(p.labels)[:, None] * p.features
    a = np.ascontiguousarray(-0.5 * z.T)
    h = z / (-2.0 * n)
    c = h.sum(axis=0)
    two_lambda = 2.0 * p.l2_lambda
    guard_sq = GUARD_NORM * GUARD_NORM

    theta = np.zeros((n_runs, p.dim))
    flat = theta.reshape(-1)
    running_sum = np.zeros_like(theta)
    u = np.empty((n_runs, n))
    g = np.empty_like(theta)
    ckpts = checkpoint_times(cfg.total_steps)
    ckpt_list = ckpts.tolist()
    bars = np.empty((n_runs, ckpts.size, p.dim))
    k = 0
    noise = np.empty((n_runs, max(1, _NOISE_CHUNK // n_runs), p.dim))
    t = 0
    while t < cfg.total_steps:
        block = min(noise.shape[1], cfg.total_steps - t)
        for rng, rows in zip(rngs, noise):
            rng.standard_normal(out=rows[:block])
        noise[:, :block] *= cfg.noise_sigma
        etas = cfg.step_schedule.etas(t + 1, block)
        for b in range(block):
            t += 1
            np.matmul(theta, a, out=u)
            np.tanh(u, out=u)
            np.matmul(u, h, out=g)
            g += c
            g += two_lambda * theta
            g += noise[:, b]
            g *= etas[b]
            theta -= g
            if flat @ flat > guard_sq:  # the whole block's squared norm bounds each row's
                sq = np.einsum("ij,ij->i", theta, theta)
                left = np.flatnonzero(sq > guard_sq)
                if left.size:
                    raise DivergenceError(t, int(left[0]), float(np.sqrt(sq[left[0]])))
            running_sum += theta
            if k < len(ckpt_list) and t == ckpt_list[k]:
                np.divide(running_sum, t, out=bars[:, k])
                k += 1
    return [Trajectory(times=ckpts.copy(), theta_bars=run_bars) for run_bars in bars]


def tas_trajectory(
    traj: Trajectory,
    theta_star: np.ndarray,
    data_a_query: Batch,
    data_b_support: Batch,
    p: ConvexProblem,
) -> TasSeries:
    """Affinity between the two datasets' Fisher diagonals at each averaged
    checkpoint, plus the same quantity at the optimum theta_star."""

    def score_at(theta: np.ndarray, where: str) -> float:
        try:
            f_a = fisher_diag_at(theta, data_a_query, p.l2_lambda)
            f_b = fisher_diag_at(theta, data_b_support, p.l2_lambda)
        except ValueError as exc:
            raise ValueError(f"degenerate Fisher at {where}: {exc}") from None
        return fisher.tas(f_a, f_b).value

    values = np.array(
        [score_at(tb, f"checkpoint t={int(t)}") for t, tb in zip(traj.times, traj.theta_bars)]
    )
    return TasSeries(traj.times.copy(), values, score_at(theta_star, "the optimum"))


def convergence_check(series: list[TasSeries], abs_tol: float) -> ConvergenceReport:
    """Pass iff the median |s_t - s*| over seeds is below abs_tol at the final
    checkpoint and the median gap is non-increasing over the last three."""
    if len(series) < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds for a stable median")
    times = series[0].times
    for s in series[1:]:
        if not np.array_equal(s.times, times):
            raise ValueError("all series must share checkpoint times")
    gaps = np.stack([np.abs(s.values - s.s_star) for s in series])
    medians = np.median(gaps, axis=0)
    tail = medians[-3:] if medians.size >= 3 else medians
    non_increasing = bool(np.all(np.diff(tail) <= 0.0))
    final = float(medians[-1])
    return ConvergenceReport(
        passed=(final < abs_tol) and non_increasing,
        final_gap_median=final,
        trend=tuple(float(x) for x in tail),
        abs_tol=abs_tol,
        n_seeds=len(series),
    )


# ---------------------------------------------------------------------------
# reference data generator


def make_logistic_fixture(
    dim: int,
    n_support: int,
    n_query: int,
    l2_lambda: float,
    seed: int,
) -> tuple[ConvexProblem, Batch, Batch]:
    """(training problem, A-query batch, B-support batch), all drawn from one
    distribution: x ~ N(0, I), y ~ Bernoulli(sigmoid(x . theta_true))."""
    rng = np.random.default_rng(seed)
    theta_true = rng.standard_normal(dim) * (2.0 / np.sqrt(dim))

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.standard_normal((n, dim))
        y = (rng.random(n) < _sigmoid(x @ theta_true)).astype(np.int64)
        return x, y

    xs, ys = draw(n_support)
    xa, ya = draw(n_query)
    xb, yb = draw(n_query)
    return ConvexProblem(xs, ys, l2_lambda), Batch(xa, ya), Batch(xb, yb)

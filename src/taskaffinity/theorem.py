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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fisher

GUARD_NORM = 1e8
MIN_SEEDS = 5  # fewest SGD seeds whose median gap convergence_check trusts
_SOLVER_CAP = 200_000
# Noise vectors (steps x seeds) noisy_sgd draws per chunk: its path buffer
# stays at 8192 * d floats plus one (S, d) block however many seeds run.
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
    """Binary logistic regression data with an L2 penalty coefficient.  Each
    sample (x_i, y_i) is kept as its sign-folded row z_i = (2 y_i - 1) x_i,
    whose loss is log(1 + exp(-z_i . theta)); no label is kept beside it."""

    rows: np.ndarray
    l2_lambda: float

    def __post_init__(self) -> None:
        z = np.ascontiguousarray(self.rows, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("rows must be (n, d) with n >= 1")
        if not 0 < self.l2_lambda < np.inf:
            raise ValueError("l2_lambda must be positive and finite (strong convexity)")
        z.setflags(write=False)
        object.__setattr__(self, "rows", z)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class StepSchedule:
    """constant: eta_t = eta0.  polynomial: eta_t = eta0 * t^(-exponent), exponent in (0.5, 1)."""

    kind: str
    eta0: float
    exponent: float = 0.75

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "polynomial"):
            raise ValueError("kind must be 'constant' or 'polynomial'")
        if not self.eta0 > 0:
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

    step_schedule: StepSchedule = field(metadata={"key": "schedule"})
    noise_sigma: float
    total_steps: int
    seed: int

    def __post_init__(self) -> None:
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    final_gap_median: float
    trend: tuple[float, ...]  # median gap at the last three checkpoints
    abs_tol: float
    n_seeds: int


# ---------------------------------------------------------------------------
# objective


def loss_value(p: ConvexProblem, theta: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, -(p.rows @ theta))) + p.l2_lambda * theta @ theta)


def gradient(p: ConvexProblem, theta: np.ndarray) -> np.ndarray:
    w = -_sigmoid(-(p.rows @ theta))
    return p.rows.T @ w / p.rows.shape[0] + 2.0 * p.l2_lambda * theta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fisher_diag_at(theta: np.ndarray, p: ConvexProblem) -> np.ndarray:
    """Unit-trace Fisher diagonals of the logistic model over a problem's
    rows, one for each row of a (..., d) stack of parameters.

    Sample i's gradient is w_i z_i + 2 lambda theta, so the mean of its square
    is (Z*Z)^T (w*w) / n + 4 lambda theta * (Z^T w) / n + 4 lambda^2 theta*theta;
    no per-sample gradient is formed.  Each row's products are matrix-vector
    products on columns, as for a single theta, so it equals that bitwise.
    """
    z, lam = p.rows, p.l2_lambda
    w = -_sigmoid(-(z @ theta[..., None]))  # (..., n, 1)
    n = z.shape[0]
    entries = (
        ((z * z).T @ (w * w))[..., 0] / n
        + 4.0 * lam * theta * (z.T @ w)[..., 0] / n
        + 4.0 * lam * lam * theta * theta
    )
    return fisher.unit_trace(entries)


# ---------------------------------------------------------------------------
# optimization


def solve_optimum(p: ConvexProblem, tol: float, max_iters: int = _SOLVER_CAP) -> np.ndarray:
    """Full-batch gradient descent to gradient norm < tol.

    Uses Armijo backtracking, and the step 1/L of the loss's smoothness bound
    L = ||Z||_2^2 / (4n) + 2 lambda once the decrease Armijo asks for is
    within a few ulps of the loss, where it cannot be resolved.  Raises
    SolverError if the budget runs out.
    """
    n = p.rows.shape[0]
    smooth_step = 1.0 / (np.linalg.norm(p.rows, 2) ** 2 / (4.0 * n) + 2.0 * p.l2_lambda)
    theta = np.zeros(p.dim)
    for _ in range(max_iters):
        g = gradient(p, theta)
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return theta
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


def noisy_sgd(
    p: ConvexProblem, cfg: NoisySGDConfig, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """theta_{t+1} = theta_t - eta_t * (grad L(theta_t) + eps_t), eps_t ~ N(0, sigma^2 I),
    for every seed at once.

    Row i of the (S, d) iterate block is the run seeded by seeds[i]: it
    starts at the origin and draws its noise, in chunks, from its own
    np.random.default_rng(seeds[i]), so its values do not depend on the
    other seeds beyond rounding (the block's matmuls sum in another order).
    Returns the checkpoint times (K,) and the (S, K, d) block whose [i, k]
    is run i's running mean of its iterates theta_1..theta_t at checkpoint
    time t = times[k].  Raises DivergenceError at the first step where an
    iterate leaves the guard ball, naming the lowest seed index that left it.

    Steps run in chunks of B = _NOISE_CHUNK // S through a (B + 1, S, d)
    path: rows 1..B hold the chunk's scaled noise, each overwritten by its
    step's iterate, and row 0 the running sum one accumulate carries on.
    The guard is checked once per chunk with the per-step semantics above;
    steps a chunk runs past a divergence are dropped, overflows unreported.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not rngs:
        raise ValueError("noisy_sgd needs at least one seed")
    n_runs, n = len(rngs), p.rows.shape[0]
    # grad L = c + tanh(theta @ a) @ h + 2 lambda theta, from
    # sigmoid(-m) = (1 + tanh(-m / 2)) / 2; tanh needs no sign masks.
    a = np.ascontiguousarray(-0.5 * p.rows.T)
    h = p.rows / (-2.0 * n)
    c = h.sum(axis=0)
    two_lambda = 2.0 * p.l2_lambda
    guard_sq = GUARD_NORM * GUARD_NORM

    chunk = max(1, _NOISE_CHUNK // n_runs)
    path = np.zeros((chunk + 1, n_runs, p.dim))
    rows = list(path)
    draw = np.empty((chunk, p.dim))  # one seed's noise, drawn contiguously
    start = np.zeros((n_runs, p.dim))  # the chunk's first iterate block
    u = np.empty((n_runs, n))
    g = np.empty_like(start)
    decay = np.empty_like(start)
    ckpts = checkpoint_times(cfg.total_steps)
    ckpt_list = ckpts.tolist()
    bars = np.empty((n_runs, ckpts.size, p.dim))
    k = 0
    t = 0
    while t < cfg.total_steps:
        block = min(chunk, cfg.total_steps - t)
        steps = path[1 : block + 1]
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=draw[:block])
            np.multiply(draw[:block], cfg.noise_sigma, out=steps[:, i])
        etas = cfg.step_schedule.etas(t + 1, block).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            for eta, theta, after in zip(etas, [start] + rows[1:], rows[1:]):
                np.dot(theta, a, out=u)
                np.tanh(u, out=u)
                np.dot(u, h, out=g)
                g += c
                np.multiply(theta, two_lambda, out=decay)
                g += decay
                g += after  # this step's noise, until the iterate replaces it
                g *= eta
                np.subtract(theta, g, out=after)
            sq = np.einsum("bij,bij->bi", steps, steps)
        left = np.flatnonzero(sq > guard_sq)  # step-major: the first step, then its lowest seed
        if left.size:
            b, i = divmod(int(left[0]), n_runs)
            raise DivergenceError(t + b + 1, i, float(np.sqrt(sq[b, i])))
        start[...] = path[block]
        np.add.accumulate(path[: block + 1], axis=0, out=path[: block + 1])
        while k < len(ckpt_list) and ckpt_list[k] <= t + block:
            np.divide(path[ckpt_list[k] - t], ckpt_list[k], out=bars[:, k])
            k += 1
        path[0] = path[block]
        t += block
    return ckpts, bars


def tas_trajectory(
    times: np.ndarray,
    bars: np.ndarray,
    theta_star: np.ndarray,
    a_query: ConvexProblem,
    b_support: ConvexProblem,
) -> tuple[np.ndarray, float]:
    """Affinity between the two problems' Fisher diagonals at each averaged
    checkpoint of noisy_sgd's (S, K, d) block, as an (S, K) array, plus the
    same quantity at the optimum theta_star."""

    def scores(theta: np.ndarray) -> np.ndarray:
        return fisher.tas(fisher_diag_at(theta, a_query), fisher_diag_at(theta, b_support))

    try:
        values, s_star = scores(bars), float(scores(theta_star))
    except fisher.DegenerateFisherError as exc:
        where = "the optimum"
        if exc.row:  # (seed, checkpoint) in the block
            where = f"checkpoint t={int(times[exc.row[1]])} of seed {exc.row[0]}"
        raise ValueError(f"degenerate Fisher at {where}: {exc.reason}") from None
    return values, s_star


def convergence_check(times: np.ndarray, gaps: np.ndarray, abs_tol: float) -> ConvergenceReport:
    """Pass iff the median over seeds of the (S, K) gaps |s_t - s*| at the
    checkpoint times (K,) is below abs_tol at the final checkpoint and no
    larger than at the last checkpoint one decade of steps earlier
    (t <= final t // 10, else the first checkpoint).  Comparing across a
    decade, not between neighbouring checkpoints, keeps noise at the floor
    from reading as divergence."""
    if gaps.shape[0] < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds for a stable median")
    medians = np.median(gaps, axis=0)
    earlier = float(medians[max(np.searchsorted(times, times[-1] // 10, side="right") - 1, 0)])
    final = float(medians[-1])
    return ConvergenceReport(
        passed=final < abs_tol and final <= earlier,
        final_gap_median=final,
        trend=tuple(float(x) for x in medians[-3:]),
        abs_tol=abs_tol,
        n_seeds=gaps.shape[0],
    )


# ---------------------------------------------------------------------------
# reference data generator


def make_logistic_fixture(
    dim: int,
    n_support: int,
    n_query: int,
    l2_lambda: float,
    seed: int,
) -> tuple[ConvexProblem, ConvexProblem, ConvexProblem]:
    """(training, A-query, B-support) problems, all drawn from one
    distribution: x ~ N(0, I), y ~ Bernoulli(sigmoid(x . theta_true)), each
    sample kept as its sign-folded row."""
    rng = np.random.default_rng(seed)
    theta_true = rng.standard_normal(dim) * (2.0 / np.sqrt(dim))

    def draw(n: int) -> ConvexProblem:
        x = rng.standard_normal((n, dim))
        positive = rng.random(n) < _sigmoid(x @ theta_true)
        return ConvexProblem(np.where(positive[:, None], x, -x), l2_lambda)

    return draw(n_support), draw(n_query), draw(n_query)

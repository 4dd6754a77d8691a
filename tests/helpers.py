"""Hand-rolled oracles shared by the unit and acceptance suites.

Reference routes the package itself no longer carries live here: the
logits, the mean cross-entropy, its gradient and the encoder pullback of one
batch, each from plain copies of nnet's kernels, the brute-force assignment scan, the
trace-form affinity score, the logistic model's per-sample gradient rows,
the theorem-1 harness's per-checkpoint affinity loop, the step-by-step
noisy-SGD block loop that the chunked theorem.noisy_sgd must reproduce bit
for bit, fixed-step descent to the logistic optimum, the per-layer Fisher diagonal loop, the per-minibatch
training loop that nnet.train must reproduce bit for bit, the serial
phase-3 path (one episode at a time, as validated Batches) that the stacked
meta-steps must reproduce bit for bit, the one-network phase-3 loop that
each copy of the lockstep loop must reproduce bit for bit, through this
module's forward and backward and the episode-major nearest-centroid head
(every sum along a contiguous last axis) that nnet's slot-major head
replaced, the per-task
ranking route (one encode, one centroid set and one hungarian call per
source task, and its Fisher diagonals on a stack of one network) that the
blocked and chunked ranking must reproduce bit for bit, and the
one-task-at-a-time epsilon-approximation loop (serial_train until the query
accuracy reaches its target) that every row of nnet.train_pool must
reproduce bit for bit, and the per-episode and per-task default_rng loops
that the episode draw and source-task sampling must reproduce bit for bit
from seeding.generators.  Source tasks one at a time are TaskSpec records,
the form sampling returned before tasks.TaskBlock; task_records and
block_of convert between the two, so that tests can reorder, cut or
hand-build tasks.

The forward oracle re-derives the flat parameter layout with plain Python
loops, so a layout or indexing bug in the production code cannot cancel out.
The finite-difference harness probes the loss oracle at generic points:
networks are drawn with fully random parameters, and any relu network whose
smallest pre-activation magnitude over the probe batch sits within the
finite-difference straddle is redrawn -- central differences are only a
derivative oracle on the smooth region.
"""

import importlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from taskaffinity import fisher, matching, nnet, pipeline, tasks, theorem
from taskaffinity.seeding import derive_seed

FD_STEP = 1e-5
KINK_GUARD = 10 * FD_STEP
SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def script(name):
    """scripts/<name>.py as a module: the experiment protocols live there once."""
    if SCRIPTS not in sys.path:
        sys.path.insert(0, SCRIPTS)
    return importlib.import_module(name)


def unpack_manual(spec, params):
    """(W, b) per layer from the flat vector, derived independently."""
    mats = []
    off = 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        mats.append((w, b))
    return mats


def manual_layer_outputs(spec, params, x):
    """Plain-loop forward pass; returns (pre_activations, embeddings, logits)."""
    mats = unpack_manual(spec, np.asarray(params, dtype=np.float64))
    a = np.asarray(x, dtype=np.float64)
    pre = []
    for w, b in mats[:-1]:
        z = np.empty((a.shape[0], w.shape[1]))
        for n in range(a.shape[0]):
            for j in range(w.shape[1]):
                z[n, j] = sum(a[n, i] * w[i, j] for i in range(w.shape[0])) + b[j]
        pre.append(z)
        if spec.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = np.vectorize(math.tanh)(z)
    wh, bh = mats[-1]
    logits = np.empty((a.shape[0], wh.shape[1]))
    for n in range(a.shape[0]):
        for j in range(wh.shape[1]):
            logits[n, j] = sum(a[n, i] * wh[i, j] for i in range(wh.shape[0])) + bh[j]
    return pre, a, logits


def min_abs_preactivation(spec, params, x):
    pre, _, _ = manual_layer_outputs(spec, params, x)
    return min(float(np.min(np.abs(z))) for z in pre)


def draw_generic_case(rng, n=6):
    """Random (net, batch of n rows) with generic parameters, redrawn away from relu kinks."""
    while True:
        n_layers = int(rng.integers(2, 4))
        widths = tuple(int(w) for w in rng.integers(2, 9, size=n_layers))
        n_classes = int(rng.integers(2, 7))
        act = ("relu", "tanh")[int(rng.integers(0, 2))]
        spec = nnet.NetworkSpec(widths, n_classes, act)
        params = rng.standard_normal(spec.param_count) * 0.7
        x = rng.standard_normal((n, widths[0]))
        y = rng.integers(0, n_classes, size=n)
        if act == "relu" and min_abs_preactivation(spec, params, x) < KINK_GUARD:
            continue
        return nnet.Network(spec, params), nnet.Batch(x, y)


# Plain copies of nnet's forward, cross-entropy and backward kernels: fresh
# arrays, a float relu mask, results copied into the layer views.  The oracles
# below run through these, so nnet's in-place kernels are checked bit for bit
# against arithmetic they do not share.


def _act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_deriv(z, a, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward(spec, layers, x):
    """Pre-activations of the encoder layers and every layer's input for x."""
    pre, acts = [], [x]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if li < len(spec.layer_widths) - 1:
            pre.append(z)
            z = _act(z, spec.activation)
        acts.append(z)
    return pre, acts


def _cross_entropy(logits, labels):
    """Each row's cross-entropy through log-sum-exp, and softmax minus one-hot."""
    zmax = logits.max(axis=-1, keepdims=True)
    delta = np.exp(logits - zmax)
    total = delta.sum(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(total[..., 0])
    delta /= total
    rows = np.arange(labels.shape[0])
    delta[..., rows, labels] -= 1.0
    return lse - logits[..., rows, labels], delta


def _backward(spec, layers, pre, acts, g, grads):
    """a^T g and the column sums of g into each layer's (W, b) views in grads."""
    for li in range(len(layers) - 1, -1, -1):
        if li < len(pre):
            g = g * _act_deriv(pre[li], acts[li + 1], spec.activation)
        grads[li][0][...] = acts[li].swapaxes(-1, -2) @ g
        grads[li][1][...] = g.sum(axis=-2, keepdims=True)
        if li > 0:
            g = g @ layers[li][0].swapaxes(-1, -2)


def logits(net, features):
    """The head's outputs for features (n x d)."""
    return _forward(net.spec, nnet._unpack(net.spec, net.params), features)[1][-1]


def loss(net, batch):
    """Mean cross-entropy of the head's logits over the batch."""
    return float(np.mean(_cross_entropy(logits(net, batch.features), batch.labels)[0]))


def loss_grad(net, batch):
    """Exact gradient of the mean cross-entropy over the batch (flat, length P)."""
    spec = net.spec
    layers = nnet._unpack(spec, net.params)
    pre, acts = _forward(spec, layers, batch.features)
    delta = _cross_entropy(acts[-1], batch.labels)[1] / batch.n
    out = np.empty(net.param_count)
    _backward(spec, layers, pre, acts, delta, nnet._unpack(spec, out))
    return out


def encoder_pullback(net, features, grad_embeddings):
    """Backprop an upstream gradient on the embeddings of features (..., n, d)
    down to the flat vector, (..., P) with zero head entries."""
    spec = net.spec
    encoder = nnet._unpack(spec, net.params)[:-1]
    pre, acts = _forward(spec, encoder, features)
    out = np.zeros(grad_embeddings.shape[:-2] + (net.param_count,))
    _backward(spec, encoder, pre, acts, grad_embeddings, nnet._unpack(spec, out))
    return out


def per_sample_grads(net, batch):
    """Each sample's own loss gradient, one row per sample (n x P), by calling
    loss_grad on one row at a time."""
    return np.stack(
        [
            loss_grad(net, nnet.Batch(batch.features[i : i + 1], batch.labels[i : i + 1]))
            for i in range(batch.n)
        ]
    )


def fd_gradient(net, batch, h=FD_STEP):
    """Central finite differences of the loss oracle, one entry at a time."""
    p = net.params.copy()
    fd = np.empty(p.shape[0])
    for i in range(p.shape[0]):
        p[i] += h
        lp = loss(nnet.Network(net.spec, p), batch)
        p[i] -= 2 * h
        lm = loss(nnet.Network(net.spec, p), batch)
        p[i] += h
        fd[i] = (lp - lm) / (2 * h)
    return fd


def fd_worst_relative_error(net, batch):
    """max_i |grad_i - fd_i| / max(1, |grad_i|, |fd_i|).

    The unit floor keeps dead entries (backprop exactly 0, finite differences
    pure roundoff) from dividing roundoff by roundoff; for O(1) entries it is
    plain relative error.
    """
    g = loss_grad(net, batch)
    fd = fd_gradient(net, batch)
    denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
    return float(np.max(np.abs(g - fd) / denom))


def serial_noisy_sgd(p, cfg, seed):
    """One seed's noisy SGD, one step at a time: theorem.gradient per step,
    the step size worked out in Python per step, and every iterate kept.
    Noise comes from np.random.default_rng(seed) in chunks of 8192 rows.

    Returns (checkpoint times, running means at them, (total_steps, d) iterates).
    """
    sched = cfg.step_schedule
    rng = np.random.default_rng(seed)
    theta = np.zeros(p.dim)
    running_sum = np.zeros(p.dim)
    ckpts = theorem.checkpoint_times(cfg.total_steps)
    bars = np.empty((ckpts.size, p.dim))
    raw = np.empty((cfg.total_steps, p.dim))
    next_idx = 0
    t = 0
    while t < cfg.total_steps:
        block = min(8192, cfg.total_steps - t)
        noise = rng.standard_normal((block, p.dim)) * cfg.noise_sigma
        for b in range(block):
            t += 1
            eta = sched.eta0 if sched.kind == "constant" else sched.eta0 * t ** (-sched.exponent)
            theta = theta - eta * (theorem.gradient(p, theta) + noise[b])
            running_sum += theta
            raw[t - 1] = theta
            if next_idx < ckpts.size and t == int(ckpts[next_idx]):
                bars[next_idx] = running_sum / t
                next_idx += 1
    return ckpts, bars, raw


def stacked_noisy_sgd(p, cfg, seeds):
    """theorem.noisy_sgd's (S, d) block loop one step at a time: the guard
    checked, the running sum added and the checkpoint tested after every
    step, and noise drawn into an (S, B, d) buffer of theorem._NOISE_CHUNK
    values.  noisy_sgd must equal it bit for bit, its DivergenceError too.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not rngs:
        raise ValueError("noisy_sgd needs at least one seed")
    n_runs, n = len(rngs), p.rows.shape[0]
    a = np.ascontiguousarray(-0.5 * p.rows.T)
    h = p.rows / (-2.0 * n)
    c = h.sum(axis=0)
    two_lambda = 2.0 * p.l2_lambda
    guard_sq = theorem.GUARD_NORM * theorem.GUARD_NORM

    theta = np.zeros((n_runs, p.dim))
    flat = theta.reshape(-1)
    running_sum = np.zeros_like(theta)
    u = np.empty((n_runs, n))
    g = np.empty_like(theta)
    ckpts = theorem.checkpoint_times(cfg.total_steps)
    ckpt_list = ckpts.tolist()
    bars = np.empty((n_runs, ckpts.size, p.dim))
    k = 0
    noise = np.empty((n_runs, max(1, theorem._NOISE_CHUNK // n_runs), p.dim))
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
                    raise theorem.DivergenceError(t, int(left[0]), float(np.sqrt(sq[left[0]])))
            running_sum += theta
            if k < len(ckpt_list) and t == ckpt_list[k]:
                np.divide(running_sum, t, out=bars[:, k])
                k += 1
    return ckpts, bars


def fixed_step_descent(p, step, tol, max_iters=200_000):
    """Plain full-batch gradient descent at a fixed step to gradient norm <
    tol: the cross-check route for theorem.solve_optimum's line search."""
    theta = np.zeros(p.dim)
    for _ in range(max_iters):
        g = theorem.gradient(p, theta)
        if np.linalg.norm(g) < tol:
            return theta
        theta = theta - step * g
    raise AssertionError(f"fixed-step descent did not reach tol={tol} in {max_iters} steps")


def fisher_diag(net, batch):
    """nnet.fisher_diag of one network on a batch, as a stack of one."""
    return nnet.fisher_diag(net.spec, net.params[None], batch.features[None], batch.labels[None])[0]


def layerwise_fisher_diag(net, batch):
    """nnet.fisher_diag as its own backward loop over the layer views, dividing
    each layer's block by n on its own: the route it replaced, bit for bit."""
    spec = net.spec
    layers = nnet._unpack(spec, net.params)
    pre, acts = _forward(spec, layers, batch.features)
    g = _cross_entropy(acts[-1], batch.labels)[1]
    out = np.empty(net.param_count)
    for li, (gw, gb) in reversed(list(enumerate(nnet._unpack(spec, out)))):
        if li < len(pre):
            g = g * _act_deriv(pre[li], acts[li + 1], spec.activation)
        gg = g * g
        gw[...] = (acts[li] * acts[li]).T @ gg / batch.n
        gb[...] = gg.sum(axis=0) / batch.n
        g = g @ layers[li][0].T
    return out


def serial_train(net, data, schedule):
    """nnet.train as a per-minibatch loop: a validated Batch and Network and one
    loss_grad per minibatch, fresh velocity and parameter arrays per step, and
    its own learning-rate decay; yields the network after each epoch."""
    rng = np.random.default_rng(schedule.seed)
    params = net.params.copy()
    velocity = np.zeros_like(params)
    lr = schedule.learning_rate
    for epoch in range(schedule.epochs):
        if epoch in schedule.lr_decay_epochs:
            lr *= schedule.lr_decay_factor
        order = rng.permutation(data.n)
        for lo in range(0, data.n, schedule.batch_size):
            idx = order[lo : lo + schedule.batch_size]
            mb = nnet.Batch(data.features[idx], data.labels[idx])
            g = loss_grad(nnet.Network(net.spec, params), mb)
            velocity = schedule.momentum * velocity + g
            params = params - lr * velocity
        yield nnet.Network(net.spec, params)


def host_signature():
    """numpy version, BLAS build and OpenBLAS kernel in use (None where numpy
    bundles no scipy-openblas) of this host, which decide how the pinned
    outputs round, and its CPU and simd list, for information."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 can only print its config
        cfg = {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    host = script("bench_record")  # the kernel and CPU, read as the benchmark record reads them
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": host.blas_core(),
        "cpu": host.cpu_model(),
        "simd": cfg.get("SIMD Extensions", {}).get("found", []),
    }


BRUTE_FORCE_CAP = 8


def brute_force_assignment(cost):
    """Exhaustive oracle (n <= 8): scan all permutations in lexicographic order,
    keep the first one attaining the minimum total.

    itertools emits permutations of range(n) in lexicographic order and
    np.argmin returns the first minimum, so the tie-break matches hungarian.
    The batched axis-1 sums are bitwise equal to total_cost_of's per-row sum
    (same pairwise reduction over the same n contiguous values).
    """
    c = matching._check_cost(cost)
    n = c.shape[0]
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_CAP}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = c[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    mapping = tuple(int(j) for j in perms[best])
    return matching.Assignment(mapping, matching.total_cost_of(c, perms[best]))


def frechet_diag_oracle(f_a, f_b):
    """Trace-form route to the affinity score of two unit-trace diagonals:
    sqrt(sum(a + b - 2 sqrt(ab)) / 2)."""
    a, b = np.asarray(f_a), np.asarray(f_b)
    assert a.shape == b.shape
    inner = np.sum(a + b - 2.0 * np.sqrt(a * b))
    # tiny negative residue from rounding would NaN the sqrt
    return float(np.sqrt(max(inner, 0.0)) / np.sqrt(2.0))


def per_sample_gradients(features, labels, theta, l2_lambda):
    """Row i is the gradient of sample i's L2-regularized logistic loss; the
    mean recovers theorem.gradient()."""
    s = 2.0 * np.asarray(labels, dtype=np.int64) - 1.0
    w = -s * theorem._sigmoid(-s * (np.asarray(features) @ theta))
    return np.asarray(features) * w[:, None] + 2.0 * l2_lambda * theta[None, :]


def serial_fisher_diag_at(theta, features, labels, l2_lambda):
    """theorem.fisher_diag_at's closed form for one parameter vector, with
    plain mat-vec products, as it was before it took stacks, on (x, y) data."""
    x = features
    s = 2.0 * labels - 1.0
    w = -s * theorem._sigmoid(-s * (x @ theta))
    n = x.shape[0]
    entries = (
        (x * x).T @ (w * w) / n
        + 4.0 * l2_lambda * theta * (x.T @ w) / n
        + 4.0 * l2_lambda * l2_lambda * theta * theta
    )
    return fisher.unit_trace(entries)


def serial_tas_trajectory(bars, theta_star, a_query, b_support):
    """theorem.tas_trajectory one (seed, checkpoint) at a time, each through
    serial_fisher_diag_at on the problems' folded rows with all-one labels
    (the same logistic problem): the loop the batched scoring must reproduce
    bit for bit."""

    def diag(theta, p):
        return serial_fisher_diag_at(theta, p.rows, np.ones(p.rows.shape[0]), p.l2_lambda)

    def score(theta):
        return float(fisher.tas(diag(theta, a_query), diag(theta, b_support)))

    return np.array([[score(tb) for tb in run] for run in bars]), score(theta_star)


# ---------------------------------------------------------------------------
# serial phase 3: one episode, one Batch pair and two pullbacks at a time


@dataclass(frozen=True, eq=False)
class Episode:
    """m_way x k_shot support plus a query set, labels re-indexed to 0..m_way-1."""

    m_way: int
    k_shot: int
    support: nnet.Batch
    query: nnet.Batch


def serial_draw_positions(counts, m_way, size, seeds):
    """tasks.draw_positions as it was: one np.random.default_rng per seed."""
    n_ep = len(seeds)
    picks = np.empty((n_ep, m_way), np.min_scalar_type(len(counts) - 1))
    positions = np.empty((n_ep, m_way, size), np.min_scalar_type(max(counts) - 1))
    for e, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        picked = sorted(rng.choice(len(counts), size=m_way, replace=False).tolist())
        picks[e] = picked
        for slot, k in enumerate(picked):
            positions[e, slot] = rng.permutation(counts[k])[:size]
    return picks, positions


@dataclass(frozen=True)
class TaskSpec:
    """One source task as a record: the oracles' form of a tasks.TaskBlock
    row, with disjoint support and query rows."""

    task_id: int
    class_ids: tuple[int, ...]
    support_rows: tuple[int, ...]
    query_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_ids", tuple(int(c) for c in self.class_ids))
        object.__setattr__(self, "support_rows", tuple(map(int, self.support_rows)))
        object.__setattr__(self, "query_rows", tuple(map(int, self.query_rows)))
        if len(self.support_rows) == 0:
            raise ValueError("support_rows must be nonempty")
        if not set(self.support_rows).isdisjoint(self.query_rows):
            raise ValueError("support and query must be disjoint")


def task_records(block):
    """The tasks of a tasks.TaskBlock as a list of TaskSpec records, in order."""
    out = []
    for i in range(len(block)):
        lo, hi = block.starts[i], block.starts[i + 1]
        mid = lo + block.n_support[i]
        out.append(TaskSpec(int(block.task_ids[i]), block.class_ids[i].tolist(),
                            block.rows[lo:mid].tolist(), block.rows[mid:hi].tolist()))
    return out


def block_of(records):
    """The tasks.TaskBlock of a list of TaskSpec records, in order."""
    rows = [r.support_rows + r.query_rows for r in records]
    return tasks.TaskBlock(
        np.array([r.task_id for r in records], np.int64),
        np.array([r.class_ids for r in records], np.int64),
        np.array([row for task in rows for row in task], np.int64),
        np.cumsum([0] + [len(task) for task in rows]),
        np.array([len(r.support_rows) for r in records], np.int64),
    )


def serial_task_from_classes(data, class_ids, task_id, seed):
    """tasks.task_from_classes as it was: one TaskSpec, each class's rows
    split 70/30 by a permutation in ascending class order."""
    rng = np.random.default_rng(seed)
    ids = sorted(int(c) for c in class_ids)
    support, query = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for cid in ids:
        if cid not in data.class_index:
            raise ValueError(f"class {cid} not in dataset")
        rows = data.class_index[cid]
        order = rows[rng.permutation(rows.size)]
        n_sup = int(round(tasks.SUPPORT_FRACTION * rows.size))
        n_sup = max(1, min(rows.size - 1, n_sup))
        support.append(order[:n_sup])
        query.append(order[n_sup:])
    return TaskSpec(task_id, tuple(ids), np.sort(np.concatenate(support)).tolist(),
                    np.sort(np.concatenate(query)).tolist())


def serial_sample_source_tasks(train, s_count, n_test, seed):
    """tasks.sample_source_tasks as it was: one derive_seed and one
    np.random.default_rng per task for its classes, and a seed for its
    split, as a list of TaskSpec records."""
    all_ids = train.class_ids
    out = []
    for i in range(s_count):
        task_seed = derive_seed(seed, i)
        rng = np.random.default_rng(task_seed)
        picked = rng.choice(len(all_ids), size=n_test, replace=False)
        ids = [all_ids[int(k)] for k in picked]
        out.append(serial_task_from_classes(train, ids, i, derive_seed(task_seed, 1)))
    return out


def sample_episode(data, m_way, k_shot, q_query, seed):
    """m_way classes, k_shot support and q_query query rows per class, disjoint,
    as Batches labelled by the chosen classes' ascending order."""
    if min(m_way, k_shot, q_query) < 1:
        raise ValueError("m_way, k_shot and q_query must be positive")
    eligible = [c for c in data.class_ids if data.class_index[c].size >= k_shot + q_query]
    if len(eligible) < m_way:
        raise ValueError(
            f"insufficient samples: only {len(eligible)} classes have "
            f">= {k_shot + q_query} rows, need {m_way}"
        )
    rng = np.random.default_rng(seed)
    picked = sorted(int(k) for k in rng.choice(len(eligible), size=m_way, replace=False))
    sup_feat, sup_lab, qry_feat, qry_lab = [], [], [], []
    for new_label, k in enumerate(picked):
        rows = data.class_index[eligible[k]]
        order = rows[rng.permutation(rows.size)]
        sup = order[:k_shot]
        qry = order[k_shot : k_shot + q_query]
        sup_feat.append(data.features[sup])
        sup_lab.append(np.full(k_shot, new_label, dtype=np.int64))
        qry_feat.append(data.features[qry])
        qry_lab.append(np.full(q_query, new_label, dtype=np.int64))
    return Episode(
        m_way,
        k_shot,
        nnet.Batch(np.concatenate(sup_feat), np.concatenate(sup_lab)),
        nnet.Batch(np.concatenate(qry_feat), np.concatenate(qry_lab)),
    )


def episode_loss_grad(net, episode, temperature):
    """One episode's soft nearest-centroid loss and its flat gradient, from
    two encodes and two pullbacks that each run the encoder again."""
    es = nnet.encode(net, episode.support.features)
    eq = nnet.encode(net, episode.query.features)
    cents = matching.class_centroids(es, episode.support.labels, episode.m_way)

    diff = eq[:, None, :] - cents[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    logits = -d2 / temperature
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(logits - zmax), axis=1))
    nq = eq.shape[0]
    y = episode.query.labels
    loss_val = float(np.mean(lse - logits[np.arange(nq), y]))

    dlogits = np.exp(logits - zmax)
    dlogits /= np.sum(dlogits, axis=1, keepdims=True)
    dlogits[np.arange(nq), y] -= 1.0
    dlogits /= nq
    dd = -dlogits / temperature
    g_query = 2.0 * (dd.sum(axis=1, keepdims=True) * eq - dd @ cents)
    g_cent = -2.0 * (dd.T @ eq - dd.sum(axis=0)[:, None] * cents)
    g_support = g_cent[episode.support.labels] / episode.k_shot

    grad_flat = encoder_pullback(net, episode.support.features, g_support)
    grad_flat += encoder_pullback(net, episode.query.features, g_query)
    return loss_val, grad_flat


def episode_accuracy(net, episode):
    """Hard nearest-centroid accuracy of one episode; ties go to the lowest class."""
    es = nnet.encode(net, episode.support.features)
    eq = nnet.encode(net, episode.query.features)
    cents = matching.class_centroids(es, episode.support.labels, episode.m_way)
    diff = eq[:, None, :] - cents[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    preds = np.argmin(d2, axis=1)
    return float(np.mean(preds == episode.query.labels))


def serial_episodic_finetune(whole, related, train, cfg):
    """pipeline.episodic_finetune with one episode per inner iteration."""
    keep = np.isin(train.labels, related.label_set)
    sub = tasks.Dataset.from_arrays(train.features[keep], train.labels[keep])
    sched = cfg.finetune_schedule
    params = whole.params.copy()
    velocity = np.zeros_like(params)
    lr = sched.learning_rate
    decay_at = set(sched.lr_decay_epochs)
    history = []
    for step in range(sched.epochs):
        if step in decay_at:
            lr *= sched.lr_decay_factor
        total_grad = np.zeros_like(params)
        losses = []
        current = nnet.Network(whole.spec, params)
        for j in range(sched.batch_size):
            ep = sample_episode(
                sub, cfg.m_way, cfg.k_shot, cfg.q_query,
                derive_seed(sched.seed, pipeline._STREAM_FINETUNE, step, j),
            )
            l, g = episode_loss_grad(current, ep, cfg.softmax_temperature)
            total_grad += g
            losses.append(l)
        velocity = sched.momentum * velocity + total_grad / sched.batch_size
        params = params - lr * velocity
        history.append(float(np.mean(losses)))
    return nnet.Network(whole.spec, params), history


def centroid_distances(es, eq, k_shot):
    """nnet._centroid_distances episode-major: slot centroids (E, m, d) of
    support embeddings es (E, m * k_shot, d), rows grouped by slot, and the
    squared distances (E, nq, m) of eq's rows to them, summed along a
    contiguous last axis."""
    m = es.shape[1] // k_shot
    cents = np.add.reduce(es.reshape(es.shape[0], m, k_shot, -1), axis=2) / k_shot
    diff = eq[:, :, None, :] - cents[:, None, :, :]
    diff *= diff
    return cents, np.add.reduce(diff, axis=3)


def centroid_loss_grads(es, eq, k_shot, temperature):
    """nnet._centroid_loss_grads episode-major: each episode's loss (E,) and
    its gradients on es and eq, from (E, nq, m) logits whose sums over the
    slots run along a contiguous last axis."""
    cents, d2 = centroid_distances(es, eq, k_shot)
    nq, m = d2.shape[1:]
    y = np.repeat(np.arange(m), nq // m)
    per_query, dd = _cross_entropy(np.divide(d2, -temperature, out=d2), y)
    losses = np.add.reduce(per_query, axis=1) / nq
    dd /= nq
    dd /= -temperature
    g_query = 2.0 * (np.add.reduce(dd, axis=2, keepdims=True) * eq - dd @ cents)
    g_cent = -2.0 * (dd.swapaxes(1, 2) @ eq - np.add.reduce(dd, axis=1)[:, :, None] * cents)
    return losses, np.repeat(g_cent, k_shot, axis=1) / k_shot, g_query


def centroid_accuracy(es, eq, k_shot):
    """nnet.centroid_accuracy from the episode-major distances."""
    d2 = centroid_distances(es, eq, k_shot)[1]
    y = np.repeat(np.arange(d2.shape[2]), eq.shape[1] // d2.shape[2])
    return np.add.reduce(np.argmin(d2, axis=2) == y, axis=1) / eq.shape[1]


def episode_grads(spec, params, xs, xq, k_shot, temperature):
    """nnet._episode_grads for one network's flat params and its episodes'
    support and query features (E, n, d): the losses (E,) and flat gradients
    (E, P), through this module's forward and backward, each product one
    episode's, and the episode-major head."""
    layers = nnet._unpack(spec, params)[:-1]
    (pre_s, acts_s), (pre_q, acts_q) = _forward(spec, layers, xs), _forward(spec, layers, xq)
    losses, g_s, g_q = centroid_loss_grads(acts_s[-1], acts_q[-1], k_shot, temperature)
    out = np.zeros((2, xs.shape[0], spec.param_count))
    _backward(spec, layers, pre_s, acts_s, g_s, nnet._unpack(spec, out[0])[:-1])
    _backward(spec, layers, pre_q, acts_q, g_q, nnet._unpack(spec, out[1])[:-1])
    return losses, out[0] + out[1]


def serial_train_episodic(net, episodes, schedule, k_shot, temperature):
    """nnet.train_episodic of one network, as the loop it replaced: each
    meta-update's (E, n, d) stacks through episode_grads on a flat parameter
    vector, with its own momentum loop and learning-rate decay.  Returns the
    network and each meta-update's mean loss."""
    params, velocity, history = net.params.copy(), np.zeros_like(net.params), []
    for lr in schedule.learning_rates():
        xs, xq = next(episodes)
        losses, per_episode = episode_grads(net.spec, params, xs, xq, k_shot, temperature)
        velocity *= schedule.momentum
        velocity += np.add.reduce(per_episode, axis=0) / len(per_episode)
        params -= velocity * lr
        history.append(float(np.add.reduce(losses) / losses.shape[0]))
    return nnet.Network(net.spec, params), history


def serial_evaluate_fewshot(net, test, cfg):
    """pipeline.evaluate_fewshot with one episode per iteration."""
    accs = np.empty(cfg.n_eval_episodes)
    for i in range(cfg.n_eval_episodes):
        ep = sample_episode(
            test, cfg.m_way, cfg.k_shot, cfg.q_query,
            derive_seed(cfg.master_seed, pipeline._STREAM_EVAL, i),
        )
        accs[i] = episode_accuracy(net, ep)
    mean = float(np.mean(accs))
    if cfg.n_eval_episodes < 2:
        return mean, 0.0
    sd = float(np.std(accs, ddof=1))
    return mean, 1.96 * sd / np.sqrt(cfg.n_eval_episodes)


def sampled_sources(train, cfg):
    """The source tasks phases_1_2 samples for cfg, as TaskSpec records."""
    seed = derive_seed(cfg.master_seed, pipeline._STREAM_TASKS)
    return task_records(tasks.sample_source_tasks(train, cfg.s_count, cfg.n_test, seed))


def rank(train, test, whole, cfg):
    """The ranking phases_1_2 runs after whole training: its sampled source
    tasks scored against the whole test set by rank_all_sources."""
    target = pipeline.view_target(test, whole, cfg)
    seed = derive_seed(cfg.master_seed, pipeline._STREAM_TASKS)
    sources = tasks.sample_source_tasks(train, cfg.s_count, cfg.n_test, seed)
    return pipeline.rank_all_sources(sources, target, train, whole, cfg)


def serial_class_centroids(emb, slots, n):
    """Each slot's mean embedding by one masked mean per slot."""
    return np.stack([emb[slots == k].mean(axis=0) for k in range(n)])


def accuracy(net, batch):
    """Argmax accuracy on batch, logit ties to the lowest class, from the
    oracle logits: nnet.evaluate as it was."""
    hits = np.argmax(logits(net, batch.features), axis=1) == batch.labels
    return float(np.count_nonzero(hits) / batch.n)


def serial_eps_approx(whole, sup, qry, cfg, head_seed, train_seed):
    """pipeline.build_eps_approx as it was, one task at a time: a fresh head,
    then serial_train until the query accuracy after an epoch reaches
    1 - epsilon or the epochs run out; an epoch that leaves a non-finite
    parameter raises nnet.train's error."""
    net = nnet.replace_head(whole, cfg.n_test, head_seed)
    sched = replace(cfg.approx_schedule, seed=train_seed)
    target_acc = 1.0 - cfg.epsilon
    accs = []
    for epoch, net in enumerate(serial_train(net, sup, sched)):
        if not np.all(np.isfinite(net.params)):
            raise ValueError(f"training left non-finite parameters in epoch {epoch}")
        accs.append(accuracy(net, qry))
        if accs[-1] >= target_acc:
            break
    final_acc = accs[-1] if accs else accuracy(net, qry)
    record = pipeline.EpsApproxRecord(
        achieved_epsilon=1.0 - final_acc,
        epochs_used=len(accs),
        reached_target=final_acc >= target_acc,
    )
    return net, record


def serial_mtas(source, target, train_data, whole, cfg, approx=None):
    """One source task's score by the per-task route: slot labels, encode,
    centroids, cost_matrix and a one-matrix hungarian, relabel,
    serial_eps_approx, the two Fisher diagonals (fisher_diag, a stack of
    one), unit_trace and tas; a failing task raises the error that
    pipeline.mtas reports for it.  Given a dict approx, it keeps the
    epsilon-approximation's parameters under the task id."""
    if len(source.class_ids) != cfg.n_test:
        raise ValueError("source must have n_test classes")

    src = slot_batch(train_data, source.support_rows + source.query_rows, source.class_ids)
    src_cent = serial_class_centroids(nnet.encode(whole, src.features), src.labels, cfg.n_test)

    assignment = matching.hungarian(matching.cost_matrix(src_cent, target.centroids))

    labels = np.asarray(assignment.mapping)[src.labels]
    k = len(source.support_rows)
    sup = nnet.Batch(src.features[:k], labels[:k])
    qry = nnet.Batch(src.features[k:], labels[k:])

    seed = cfg.approx_schedule.seed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            net, record = serial_eps_approx(
                whole, sup, qry, cfg,
                head_seed=derive_seed(seed, pipeline._STREAM_HEAD, source.task_id),
                train_seed=derive_seed(seed, pipeline._STREAM_APPROX_TRAIN, source.task_id),
            )
        except ValueError as exc:
            raise ValueError(f"source task {source.task_id} eps-approximation: {exc}") from None
        if approx is not None:
            approx[source.task_id] = net.params
        try:
            raw_aa = fisher_diag(net, qry)
            f_aa = fisher.unit_trace(raw_aa)
            raw_ab = fisher_diag(net, target.batch)
            f_ab = fisher.unit_trace(raw_ab)
        except ValueError as exc:
            raise ValueError(
                f"source task {source.task_id} Fisher diagonal after "
                f"{record.epochs_used} eps-approximation epochs: {exc}"
            ) from None

    score = fisher.AffinityScore(float(fisher.tas(f_aa, f_ab)))
    head = (source.task_id, score, assignment, source.class_ids, record,
            float(raw_aa.sum()), float(raw_ab.sum()))
    if not cfg.verbose_fisher:
        return pipeline.RankedTask(*head)
    return pipeline.RankedTask(*head, f_aa, f_ab)


def slot_batch(data, rows, class_ids):
    """The given rows of data, each label replaced by its index in the
    ascending class_ids: a source task's rows as the ranking labels them."""
    idx = np.asarray(rows, dtype=np.int64)
    return nnet.Batch(data.features[idx], np.searchsorted(class_ids, data.labels[idx]))


def serial_rank(sources, target, train, whole, cfg, approx=None):
    """pipeline.rank_all_sources by serial_mtas, one TaskSpec record at a time."""
    ranked = [serial_mtas(source, target, train, whole, cfg, approx) for source in sources]
    return sorted(ranked, key=lambda r: (r.score.value, r.task_id))


def ranked_fields(ranked):
    """Every field of each RankedTask, floats by repr and diagonals by bytes,
    so that == on two lists is a bitwise comparison."""
    return [
        (r.task_id, repr(r.score.value), r.assignment.mapping, repr(r.assignment.total_cost),
         r.class_ids, r.record, repr(r.trace_aa), repr(r.trace_ab),
         None if r.f_aa is None else r.f_aa.tobytes(),
         None if r.f_ab is None else r.f_ab.tobytes())
        for r in ranked
    ]

"""Hand-rolled oracles shared by the unit and acceptance suites.

The forward oracle re-derives the flat parameter layout with plain Python
loops, so a layout or indexing bug in the production code cannot cancel out.
The finite-difference harness probes the production loss at generic points:
networks are drawn with fully random parameters, and any relu network whose
smallest pre-activation magnitude over the probe batch sits within the
finite-difference straddle is redrawn -- central differences are only a
derivative oracle on the smooth region.
"""

import math

import numpy as np

from taskaffinity import nnet, theorem

FD_STEP = 1e-5
KINK_GUARD = 10 * FD_STEP


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


def per_sample_grads(net, batch):
    """Each sample's own loss gradient, one row per sample (n x P), by calling
    nnet.grad on one row at a time."""
    return np.stack(
        [
            nnet.grad(net, nnet.Batch(batch.features[i : i + 1], batch.labels[i : i + 1]))
            for i in range(batch.n)
        ]
    )


def fd_gradient(net, batch, h=FD_STEP):
    """Central finite differences of the production loss, one entry at a time."""
    p = net.params.copy()
    fd = np.empty(p.shape[0])
    for i in range(p.shape[0]):
        p[i] += h
        lp = nnet.loss(nnet.Network(net.spec, p), batch)
        p[i] -= 2 * h
        lm = nnet.loss(nnet.Network(net.spec, p), batch)
        p[i] += h
        fd[i] = (lp - lm) / (2 * h)
    return fd


def fd_worst_relative_error(net, batch):
    """max_i |grad_i - fd_i| / max(1, |grad_i|, |fd_i|).

    The unit floor keeps dead entries (backprop exactly 0, finite differences
    pure roundoff) from dividing roundoff by roundoff; for O(1) entries it is
    plain relative error.
    """
    g = nnet.grad(net, batch)
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

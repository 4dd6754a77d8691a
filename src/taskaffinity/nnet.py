"""Dense feed-forward classifier substrate with exact hand-rolled backprop.

A network is an encoder (stack of fully connected layers, each followed by
the configured activation) plus a linear classification head.  Parameters
live in one flat float64 vector so that Fisher diagonals and optimizer
state are trivial to handle.  Everything is deterministic given a
seed, and minibatch order is keyed to sample indices only, never to label
values.

Flat layout: encoder layer 0 W (fan_in x fan_out, C-order) then bias, encoder
layer 1 W then bias, ..., head W (embedding x classes) then head bias.

Validation happens once, at the boundary: `Network`, `Batch` and the public
functions check shapes and labels on every call.  The kernels (`_unpack`,
`_forward`, `_cross_entropy`, `_backward`) and the nearest-centroid head
work on plain arrays and check nothing.  `train` (under the linear head) and
`train_episodic` (the encoder under the nearest-centroid head) step one
parameter buffer through the one momentum-SGD loop, `_descend`, building no
`Batch` or `Network` per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: encoder widths (input first) plus head size."""

    layer_widths: tuple[int, ...]
    head_classes: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("layer_widths needs at least input and embedding dims")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.head_classes < 2:
            raise ValueError("head_classes must be >= 2")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def embedding_dim(self) -> int:
        return self.layer_widths[-1]

    def layer_shapes(self) -> Iterator[tuple[int, int]]:
        """(fan_in, fan_out) for each encoder layer, then for the head."""
        for a, b in zip(self.layer_widths[:-1], self.layer_widths[1:]):
            yield a, b
        yield self.embedding_dim, self.head_classes

    @property
    def param_count(self) -> int:
        return sum(a * b + b for a, b in self.layer_shapes())


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable pairing of a spec with a flat float64 parameter vector."""

    spec: NetworkSpec
    params: np.ndarray

    def __post_init__(self) -> None:
        # Copy unconditionally: freezing an aliased input would surprise the
        # caller, whose array is often reused (finite-difference probes).
        p = np.array(self.params, dtype=np.float64, order="C")
        if p.ndim != 1 or p.shape[0] != self.spec.param_count:
            raise ValueError(
                f"params must be flat with {self.spec.param_count} entries, got shape {p.shape}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "params", p)

    @property
    def param_count(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True, eq=False)
class Batch:
    """Feature matrix (n x d) with one integer label per row.

    Label range against a particular head is checked at the ops that involve
    the head.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError("features must be 2-D")
        if y.ndim != 1 or y.shape[0] != f.shape[0]:
            raise ValueError("labels must be 1-D and aligned with features")
        if f.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative")
        f.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class TrainSchedule:
    """Minibatch SGD hyperparameters; lr decays multiplicatively at the listed epochs."""

    learning_rate: float
    momentum: float
    epochs: int
    batch_size: int
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 1.0
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lr_decay_epochs", tuple(int(e) for e in self.lr_decay_epochs))
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr_decay_factor <= 1:
            raise ValueError("lr_decay_factor must be in (0, 1]")
        if any(e1 >= e2 for e1, e2 in zip(self.lr_decay_epochs, self.lr_decay_epochs[1:])):
            raise ValueError("lr_decay_epochs must be strictly increasing")
        if any(not 0 <= e < self.epochs for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must lie in [0, epochs)")

    def learning_rates(self) -> Iterator[float]:
        """Each epoch's learning rate: learning_rate, times lr_decay_factor
        from each of lr_decay_epochs on."""
        lr = self.learning_rate
        for epoch in range(self.epochs):
            if epoch in self.lr_decay_epochs:
                lr *= self.lr_decay_factor
            yield lr


# ---------------------------------------------------------------------------
# unchecked kernels on plain arrays


_Layers = list[tuple[np.ndarray, np.ndarray]]
_Pass = tuple[list[np.ndarray], list[np.ndarray]]  # pre-activations, layer inputs


def _unpack(spec: NetworkSpec, params: np.ndarray) -> _Layers:
    """Views (W, b) per layer of a (..., P) array, encoder layers first, head
    last; writing to a view writes to params."""
    out, off = [], 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[..., off : off + fan_in * fan_out].reshape(*params.shape[:-1], fan_in, fan_out)
        off += fan_in * fan_out
        out.append((w, params[..., off : off + fan_out]))
        off += fan_out
    return out


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward(spec: NetworkSpec, layers: _Layers, x: np.ndarray) -> _Pass:
    """Pre-activations of the encoder layers in layers, and every layer's input
    for x (..., n, input_dim), where each leading index is a batch of its own.
    activations[0] is x and activations[-1] the output: embeddings, or logits
    when layers ends with the head, which applies no activation."""
    pre, acts = [], [x]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if li < len(spec.layer_widths) - 1:
            pre.append(z)
            z = _act(z, spec.activation)
        acts.append(z)
    return pre, acts


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cross-entropy, through log-sum-exp so it is finite for finite
    logits, and its gradient on the logits, softmax minus one-hot.  logits is
    (..., n, classes) and labels (n,)."""
    zmax = logits.max(axis=-1, keepdims=True)
    delta = np.exp(logits - zmax)
    total = delta.sum(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(total[..., 0])
    delta /= total
    rows = np.arange(labels.shape[0])
    delta[..., rows, labels] -= 1.0
    return lse - logits[..., rows, labels], delta


def _backward(
    spec: NetworkSpec, layers: _Layers, pre: list[np.ndarray], acts: list[np.ndarray],
    g: np.ndarray, grads: _Layers, square: bool = False,
) -> None:
    """The one backward loop, from the last layer in layers down to layer 0.

    g is the gradient on _forward's output, one row per sample, with the same
    leading stack dimensions as the activations.  Each layer writes into its
    (W, b) views in grads, _unpack of an output buffer (..., P), a^T g and
    the column sums of g, for its input a and the gradient g on a @ W + b:
    its gradient summed over samples.  With square it writes (a*a)^T (g*g)
    and the column sums of g*g, each sample's squared gradient summed, since
    a sample's weight gradient is the outer product of its rows of a and g.
    """
    for li in range(len(layers) - 1, -1, -1):
        if li < len(pre):
            g = g * _act_deriv(pre[li], acts[li + 1], spec.activation)
        a, gs = (acts[li] * acts[li], g * g) if square else (acts[li], g)
        grads[li][0][...] = a.swapaxes(-1, -2) @ gs
        grads[li][1][...] = gs.sum(axis=-2)
        if li > 0:
            g = g @ layers[li][0].T


def nearest_centroid(
    es: np.ndarray, eq: np.ndarray, k_shot: int, temperature: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nearest-centroid head on a stack of episodes: each one's cross-entropy
    of softmax(-||query - centroid||^2 / temperature), its gradients on es
    (E, m * k_shot, d) and eq (E, m * q, d), whose rows are grouped by class
    slot, and its hard accuracy, where distance ties go to the lowest class.
    """
    m = es.shape[1] // k_shot
    nq = eq.shape[1]
    y = np.repeat(np.arange(m), nq // m)
    cents = es.reshape(es.shape[0], m, k_shot, -1).mean(axis=2)
    diff = eq[:, :, None, :] - cents[:, None, :, :]
    d2 = np.sum(diff * diff, axis=3)
    acc = np.mean(np.argmin(d2, axis=2) == y, axis=1)
    per_query, dlogits = _cross_entropy(-d2 / temperature, y)
    losses = np.mean(per_query, axis=1)
    dlogits /= nq
    dd = -dlogits / temperature
    g_query = 2.0 * (dd.sum(axis=2, keepdims=True) * eq - dd @ cents)
    g_cent = -2.0 * (dd.swapaxes(1, 2) @ eq - dd.sum(axis=1)[:, :, None] * cents)
    g_support = np.repeat(g_cent, k_shot, axis=1) / k_shot
    return losses, g_support, g_query, acc


def _episode_grads(spec: NetworkSpec, params: np.ndarray, xs: np.ndarray, xq: np.ndarray,
                   k_shot: int, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """nearest_centroid's losses (E,) for stacked support and query features,
    and their gradients on the flat vector (E, P), zero on the head, through
    one encoder pass per stack whose activations the backward pass reuses."""
    encoder = _unpack(spec, params)[:-1]
    pass_s, pass_q = _forward(spec, encoder, xs), _forward(spec, encoder, xq)
    losses, g_s, g_q, _ = nearest_centroid(pass_s[1][-1], pass_q[1][-1], k_shot, temperature)
    out = np.zeros((2,) + xs.shape[:-2] + params.shape)
    _backward(spec, encoder, *pass_s, g_s, _unpack(spec, out[0]))
    _backward(spec, encoder, *pass_q, g_q, _unpack(spec, out[1]))
    out[0] += out[1]
    return losses, out[0]


def _descend(params: np.ndarray, g: np.ndarray, schedule: TrainSchedule, unit: str, updates):
    """The one momentum-SGD loop, stepping params in place; yields after each epoch.

    In each of the schedule's epochs, updates() yields once per update,
    after writing that update's gradient into g.  Overflow inside an epoch
    is left to one check after it: an epoch that leaves a non-finite
    parameter raises ValueError, naming the epoch by unit.
    """
    velocity = np.zeros_like(params)
    for epoch, lr in enumerate(schedule.learning_rates()):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in updates():
                velocity *= schedule.momentum
                velocity += g
                params -= lr * velocity
        if not np.all(np.isfinite(params)):
            raise ValueError(f"training left non-finite parameters in {unit} {epoch}")
        yield


# ---------------------------------------------------------------------------
# the checked boundary: each public function validates its inputs once


def encoder_slice(spec: NetworkSpec) -> slice:
    """Slice of the flat vector holding encoder parameters (head excluded)."""
    head_in, head_out = spec.embedding_dim, spec.head_classes
    return slice(0, spec.param_count - (head_in * head_out + head_out))


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Fresh network: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases zero."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in spec.layer_shapes():
        scale = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-scale, scale, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return Network(spec, np.concatenate(chunks))


def _features(spec: NetworkSpec, features: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"features must be (..., n, {spec.input_dim})")
    return x


def _check_batch(net: Network, batch: Batch) -> None:
    _features(net.spec, batch.features)
    if np.any(batch.labels >= net.spec.head_classes):
        raise ValueError(
            f"labels must be < head_classes ({net.spec.head_classes}), "
            f"got max {int(batch.labels.max())}"
        )


def _logits(net: Network, x: np.ndarray) -> np.ndarray:
    return _forward(net.spec, _unpack(net.spec, net.params), x)[1][-1]


def encode(net: Network, features: np.ndarray) -> np.ndarray:
    """Embeddings: forward through encoder layers only (head untouched)."""
    encoder = _unpack(net.spec, net.params)[:-1]
    return _forward(net.spec, encoder, _features(net.spec, features))[1][-1]


def loss(net: Network, data: Batch) -> float:
    """Mean cross-entropy over the batch."""
    _check_batch(net, data)
    return float(np.mean(_cross_entropy(_logits(net, data.features), data.labels)[0]))


def fisher_diag(net: Network, data: Batch) -> np.ndarray:
    """Mean over the batch of each sample's squared loss gradient (flat, length P),
    from _backward's squares; no per-sample gradient is ever formed."""
    _check_batch(net, data)
    layers = _unpack(net.spec, net.params)
    pre, acts = _forward(net.spec, layers, data.features)
    delta = _cross_entropy(acts[-1], data.labels)[1]
    out = np.empty(net.param_count)
    _backward(net.spec, layers, pre, acts, delta, _unpack(net.spec, out), square=True)
    return out / data.n


# ---------------------------------------------------------------------------
# training / evaluation


def train(net: Network, data: Batch, schedule: TrainSchedule) -> Iterator[Network]:
    """Minibatch SGD with momentum on the mean cross-entropy; yields the
    network after each epoch.

    Shuffling uses a generator seeded by schedule.seed and permutes sample
    indices; labels never influence batch composition.  A caller that stops
    iterating ends training there (the epsilon-approximation fine-tune does).
    An epoch that leaves a non-finite parameter raises ValueError.
    """
    _check_batch(net, data)
    spec, rng = net.spec, np.random.default_rng(schedule.seed)
    params, g = net.params.copy(), np.empty(net.param_count)
    layers, grads = _unpack(spec, params), _unpack(spec, g)

    def minibatches():
        order = rng.permutation(data.n)
        for lo in range(0, data.n, schedule.batch_size):
            idx = order[lo : lo + schedule.batch_size]
            pre, acts = _forward(spec, layers, data.features[idx])
            delta = _cross_entropy(acts[-1], data.labels[idx])[1] / idx.shape[0]
            _backward(spec, layers, pre, acts, delta, grads)
            yield

    for _ in _descend(params, g, schedule, "epoch", minibatches):
        yield Network(spec, params)


def train_episodic(
    net: Network, episodes: Iterator[tuple[np.ndarray, np.ndarray]], schedule: TrainSchedule,
    k_shot: int, temperature: float,
) -> tuple[Network, list[float]]:
    """Momentum SGD of the encoder under the soft nearest-centroid head.

    Each of the schedule's epochs is one meta-update on the next item of
    episodes, support (E, m * k_shot, d) and query (E, m * q, d) features
    with rows grouped by class slot, and averages the E episodes' gradients.
    Returns the network and each meta-update's mean loss.  A meta-update
    that leaves a non-finite parameter raises ValueError.
    """
    spec, history = net.spec, []
    params, g = net.params.copy(), np.empty(net.param_count)

    def meta_update():
        xs, xq = (_features(spec, x) for x in next(episodes))
        losses, per_episode = _episode_grads(spec, params, xs, xq, k_shot, temperature)
        # numpy sums the leading axis row by row, in episode order
        np.divide(per_episode.sum(axis=0), len(per_episode), out=g)
        history.append(float(np.mean(losses)))
        yield

    for _ in _descend(params, g, schedule, "meta-step", meta_update):
        pass
    return Network(spec, params), history


def evaluate(net: Network, data: Batch) -> float:
    """Accuracy under argmax prediction; logit ties go to the lowest class index."""
    _check_batch(net, data)
    preds = np.argmax(_logits(net, data.features), axis=1)
    return float(np.mean(preds == data.labels))


def replace_head(net: Network, n_classes: int, seed: int) -> Network:
    """Copy the encoder verbatim and attach a freshly initialized head."""
    new_spec = NetworkSpec(net.spec.layer_widths, n_classes, net.spec.activation)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(new_spec.embedding_dim)
    head_w = rng.uniform(-scale, scale, size=new_spec.embedding_dim * n_classes)
    enc = net.params[encoder_slice(net.spec)]
    return Network(new_spec, np.concatenate([enc, head_w, np.zeros(n_classes)]))

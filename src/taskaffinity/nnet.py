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
functions check shapes and labels on every call.  The underscore kernels
(`_unpack`, `_forward`, `_cross_entropy`, `_backward`) work on plain arrays
and check nothing, so `train` runs every minibatch on layer views of one
parameter buffer without building a `Batch` or `Network` for it.
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
    lse = zmax[..., 0] + np.log(np.sum(np.exp(logits - zmax), axis=-1))
    rows = np.arange(labels.shape[0])
    delta = softmax(logits)
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


def _grad(
    spec: NetworkSpec, layers: _Layers, x: np.ndarray, y: np.ndarray, grads: _Layers
) -> None:
    """The mean cross-entropy gradient over the rows of x, written into grads."""
    pre, acts = _forward(spec, layers, x)
    delta = _cross_entropy(acts[-1], y)[1]
    delta /= y.shape[0]
    _backward(spec, layers, pre, acts, delta, grads)


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


def encoder_forward(net: Network, features: np.ndarray) -> _Pass:
    """The encoder's pass, kept for encoder_pullback; the embeddings are its
    last activation."""
    return _forward(net.spec, _unpack(net.spec, net.params)[:-1], _features(net.spec, features))


def encode(net: Network, features: np.ndarray) -> np.ndarray:
    """Embeddings: forward through encoder layers only (head untouched)."""
    return encoder_forward(net, features)[1][-1]


def forward(net: Network, features: np.ndarray) -> np.ndarray:
    """Logits: encoder followed by the linear head."""
    return _logits(net, _features(net.spec, features))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits stay finite."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def loss(net: Network, data: Batch) -> float:
    """Mean cross-entropy over the batch."""
    _check_batch(net, data)
    return float(np.mean(_cross_entropy(_logits(net, data.features), data.labels)[0]))


def grad(net: Network, data: Batch) -> np.ndarray:
    """Exact gradient of the mean cross-entropy over the batch (flat, length P)."""
    _check_batch(net, data)
    spec, out = net.spec, np.empty(net.param_count)
    _grad(spec, _unpack(spec, net.params), data.features, data.labels, _unpack(spec, out))
    return out


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


def encoder_pullback(net: Network, forward_pass: _Pass, grad_embeddings: np.ndarray) -> np.ndarray:
    """Backprop an upstream gradient on the embeddings of encoder_forward's
    pass down to the flat vector, (..., P) with zero head entries.

    This is the hook the episodic nearest-centroid loss uses to train the
    encoder without a linear head.
    """
    pre, acts = forward_pass
    g = np.ascontiguousarray(grad_embeddings, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ValueError("grad_embeddings must match the embedding matrix shape")
    out = np.zeros(g.shape[:-2] + (net.param_count,))
    _backward(net.spec, _unpack(net.spec, net.params)[:-1], pre, acts, g, _unpack(net.spec, out))
    return out


# ---------------------------------------------------------------------------
# training / evaluation


def train(net: Network, data: Batch, schedule: TrainSchedule) -> Iterator[Network]:
    """Minibatch SGD with momentum; yields the network after each epoch.

    Shuffling uses a generator seeded by schedule.seed and permutes sample
    indices; labels never influence batch composition.  A caller that stops
    iterating ends training there (the epsilon-approximation fine-tune does).
    An epoch that leaves a non-finite parameter raises ValueError.  The batch
    is checked once; the minibatches step one parameter buffer in place
    through its layer views.
    """
    _check_batch(net, data)
    rng = np.random.default_rng(schedule.seed)
    params = net.params.copy()
    velocity, g = np.zeros_like(params), np.empty_like(params)
    layers, grads = _unpack(net.spec, params), _unpack(net.spec, g)
    for epoch, lr in enumerate(schedule.learning_rates()):
        order = rng.permutation(data.n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo in range(0, data.n, schedule.batch_size):
                idx = order[lo : lo + schedule.batch_size]
                _grad(net.spec, layers, data.features[idx], data.labels[idx], grads)
                velocity *= schedule.momentum
                velocity += g
                params -= lr * velocity
        if not np.all(np.isfinite(params)):
            raise ValueError(f"training left non-finite parameters in epoch {epoch}")
        yield Network(net.spec, params)


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

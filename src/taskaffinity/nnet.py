"""Dense feed-forward classifier substrate with exact hand-rolled backprop.

A network is an encoder (stack of fully connected layers, each followed by
the configured activation) plus a linear classification head.  Parameters
live in one flat float64 vector so that Fisher diagonals and optimizer
state are trivial to handle.  Everything is deterministic given a
seed, and minibatch order is keyed to sample indices only, never to label
values.

Flat layout: encoder layer 0 W (fan_in x fan_out, C-order) then bias, encoder
layer 1 W then bias, ..., head W (embedding x classes) then head bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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
    seed: int = 0

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


# ---------------------------------------------------------------------------
# parameter packing


_Layers = list[tuple[np.ndarray, np.ndarray]]
_Pass = tuple[list[np.ndarray], list[np.ndarray]]  # pre-activations, activations


def _unpack(spec: NetworkSpec, params: np.ndarray) -> _Layers:
    """Views (W, b) per layer, encoder layers first, head last."""
    out = []
    off = 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        out.append((w, b))
    return out


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


# ---------------------------------------------------------------------------
# forward / loss / gradients


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _encoder_pass(net: Network, layers: _Layers, features: np.ndarray) -> _Pass:
    """All encoder pre-activations and activations; activations[0] is the input.
    features is (..., n, input_dim): each leading index is a batch of its own."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != net.spec.input_dim:
        raise ValueError(f"features must be (..., n, {net.spec.input_dim})")
    pre, acts = [], [x]
    for w, b in layers[:-1]:
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(_act(z, net.spec.activation))
    return pre, acts


def encoder_forward(net: Network, features: np.ndarray) -> _Pass:
    """_encoder_pass on the network's own layers, kept for encoder_pullback;
    the embeddings are its last activation."""
    return _encoder_pass(net, _unpack(net.spec, net.params), features)


def encode(net: Network, features: np.ndarray) -> np.ndarray:
    """Embeddings: forward through encoder layers only (head untouched)."""
    return encoder_forward(net, features)[1][-1]


def forward(net: Network, features: np.ndarray) -> np.ndarray:
    """Logits: encoder followed by the linear head."""
    wh, bh = _unpack(net.spec, net.params)[-1]
    return encode(net, features) @ wh + bh


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits stay finite."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _check_labels(net: Network, batch: Batch) -> None:
    if np.any(batch.labels >= net.spec.head_classes):
        raise ValueError(
            f"labels must be < head_classes ({net.spec.head_classes}), "
            f"got max {int(batch.labels.max())}"
        )


def loss(net: Network, data: Batch) -> float:
    """Mean cross-entropy, computed through log-sum-exp so it is finite for finite logits."""
    _check_labels(net, data)
    logits = forward(net, data.features)
    zmax = np.max(logits, axis=1)
    lse = zmax + np.log(np.sum(np.exp(logits - zmax[:, None]), axis=1))
    picked = logits[np.arange(data.n), data.labels]
    return float(np.mean(lse - picked))


def _backward(
    net: Network, layers: _Layers, pre: list[np.ndarray], acts: list[np.ndarray],
    top: int, g: np.ndarray,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The one backward loop, from layer `top` down to layer 0.

    g is the upstream gradient on layer `top`'s output (logits for the head,
    embeddings for the last encoder layer), one row per sample, with the
    same leading stack dimensions as the activations.  Yields
    (flat offset, weight size, layer input a, gradient g on a @ W + b) per
    layer; a sample's weight gradient is the outer product of its rows of a
    and g, so callers reduce over samples with products of a and g.
    """
    offsets, off = [], 0
    for w, b in layers:
        offsets.append(off)
        off += w.size + b.size
    for li in range(top, -1, -1):
        w, _ = layers[li]
        if li < len(pre):
            g = g * _act_deriv(pre[li], acts[li + 1], net.spec.activation)
        yield offsets[li], w.size, acts[li], g
        if li > 0:
            g = g @ w.T


def _sum_into(
    out: np.ndarray, walk: Iterator[tuple[int, int, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Write each layer's gradient summed over samples into out (..., P): a^T g
    for W, column sums of g for b."""
    for off, size_w, a, g in walk:
        out[..., off : off + size_w] = (a.swapaxes(-1, -2) @ g).reshape(*g.shape[:-2], size_w)
        out[..., off + size_w : off + size_w + g.shape[-1]] = g.sum(axis=-2)
    return out


def _output_delta(
    net: Network, layers: _Layers, data: Batch
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Forward pass, plus each sample's own cross-entropy gradient on the logits."""
    _check_labels(net, data)
    pre, acts = _encoder_pass(net, layers, data.features)
    wh, bh = layers[-1]
    delta = softmax(acts[-1] @ wh + bh)
    delta[np.arange(data.n), data.labels] -= 1.0
    return pre, acts, delta


def grad(net: Network, data: Batch) -> np.ndarray:
    """Exact gradient of the mean cross-entropy over the batch (flat, length P)."""
    layers = _unpack(net.spec, net.params)
    pre, acts, delta = _output_delta(net, layers, data)
    delta /= data.n
    walk = _backward(net, layers, pre, acts, len(layers) - 1, delta)
    return _sum_into(np.empty(net.param_count), walk)


def fisher_diag(net: Network, data: Batch) -> np.ndarray:
    """Mean over the batch of each sample's squared loss gradient (flat, length P).

    A sample's weight gradient is the outer product of its layer input a and
    pre-activation gradient g, so the mean of its square is (a*a)^T (g*g) / n;
    no per-sample gradient is ever formed.
    """
    layers = _unpack(net.spec, net.params)
    pre, acts, delta = _output_delta(net, layers, data)
    out = np.empty(net.param_count)
    for off, size_w, a, g in _backward(net, layers, pre, acts, len(layers) - 1, delta):
        gg = g * g
        out[off : off + size_w] = ((a * a).T @ gg).ravel() / data.n
        out[off + size_w : off + size_w + g.shape[1]] = gg.sum(axis=0) / data.n
    return out


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
    layers = _unpack(net.spec, net.params)
    out = np.zeros(g.shape[:-2] + (net.param_count,))
    return _sum_into(out, _backward(net, layers, pre, acts, len(pre) - 1, g))


# ---------------------------------------------------------------------------
# training / evaluation


def train(
    net: Network,
    data: Batch,
    schedule: TrainSchedule,
    stop_fn: Optional[Callable[[Network, int, list[float]], bool]] = None,
) -> tuple[Network, list[float]]:
    """Minibatch SGD with momentum; returns the trained network and per-epoch loss.

    Shuffling uses a generator seeded by schedule.seed and permutes sample
    indices; labels never influence batch composition.  stop_fn, if given, is
    called after each epoch with the current network and may end training
    early (used for epsilon-approximation fine-tuning).
    """
    _check_labels(net, data)
    rng = np.random.default_rng(schedule.seed)
    params = net.params.copy()
    velocity = np.zeros_like(params)
    lr = schedule.learning_rate
    history: list[float] = []
    decay_at = set(schedule.lr_decay_epochs)
    for epoch in range(schedule.epochs):
        if epoch in decay_at:
            lr *= schedule.lr_decay_factor
        order = rng.permutation(data.n)
        for lo in range(0, data.n, schedule.batch_size):
            idx = order[lo : lo + schedule.batch_size]
            mb = Batch(data.features[idx], data.labels[idx])
            g = grad(Network(net.spec, params), mb)
            velocity = schedule.momentum * velocity + g
            params = params - lr * velocity
        current = Network(net.spec, params)
        history.append(loss(current, data))
        if stop_fn is not None and stop_fn(current, epoch, history):
            return current, history
    return Network(net.spec, params), history


def evaluate(net: Network, data: Batch) -> float:
    """Accuracy under argmax prediction; logit ties go to the lowest class index."""
    _check_labels(net, data)
    preds = np.argmax(forward(net, data.features), axis=1)
    return float(np.mean(preds == data.labels))


def replace_head(net: Network, n_classes: int, seed: int) -> Network:
    """Copy the encoder verbatim and attach a freshly initialized head."""
    new_spec = NetworkSpec(net.spec.layer_widths, n_classes, net.spec.activation)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(new_spec.embedding_dim)
    head_w = rng.uniform(-scale, scale, size=new_spec.embedding_dim * n_classes)
    enc = net.params[encoder_slice(net.spec)]
    return Network(new_spec, np.concatenate([enc, head_w, np.zeros(n_classes)]))

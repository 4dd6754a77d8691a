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
work on plain arrays and check nothing.  `_forward` applies each activation
in place, and `_backward` reads the derivative from the activation; given a
work dict, which `fisher_diag`'s caller holds across calls, the two write
their intermediates into its buffers (`_into`).  `_unpack` views a bias as
(..., 1, h), so a stack of parameters (M, 1, P) runs M networks against
activations (M, E, n, d) with each network's arithmetic unchanged.  One momentum-SGD
epoch, `_descend`, steps every training, building no `Batch` or `Network`
per step: `train` (under the linear head) one parameter vector;
`train_episodic` (the encoder under the nearest-centroid head, slot-major)
one (M, P) stack of copies in lockstep; and `train_pool` a rolling pool of
up to W fine-tunes under fresh linear heads, one (W, P) buffer whose rows
sit at epochs of their own and leave on reaching a target query accuracy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

# each activation, applied in place
_ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0, out=z), "tanh": lambda z: np.tanh(z, out=z)}


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

    @cached_property
    def param_count(self) -> int:
        return sum(a * b + b for a, b in self.layer_shapes())

    @cached_property
    def _layout(self) -> tuple:
        """Each layer's (W slice, W shape, b slice) in the flat vector."""
        out, off = [], 0
        for a, b in self.layer_shapes():
            out.append((slice(off, off + a * b), (a, b), slice(off + a * b, off + a * b + b)))
            off += a * b + b
        return tuple(out)


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
_Pass = list[np.ndarray]  # every layer's input, then the output


def _unpack(spec: NetworkSpec, params: np.ndarray) -> _Layers:
    """Views (W, b) per layer of a (..., P) array, encoder layers first, head
    last: W (..., fan_in, fan_out) and b (..., 1, fan_out), so a stack of
    parameters (M, 1, P) broadcasts against activations (M, E, n, d);
    writing to a view writes to params."""
    lead = params.shape[:-1]
    return [(params[..., w].reshape(lead + shape), params[..., b][..., None, :])
            for w, shape, b in spec._layout]


def _into(work: dict | None, name: str, li: int, op, *args) -> np.ndarray:
    """op(*args), written into the buffer that work holds for name, layer li
    and the shapes of args; the first such call's own result becomes that
    buffer.  Without work, op(*args) as it is."""
    if work is None:
        return op(*args)
    key = (name, li) + tuple(a.shape for a in args)
    work[key] = op(*args, out=work.get(key))  # out=None: op's own new array
    return work[key]


def _forward(spec: NetworkSpec, layers: _Layers, x: np.ndarray, work: dict | None = None) -> _Pass:
    """Every layer's input for x (..., n, input_dim), each leading index a
    batch of its own, then the output: embeddings, or logits when layers ends
    with the head.  Each encoder layer's activation overwrites its
    pre-activation; given work, a layer's output is a buffer of work's."""
    mul, acts = np.dot if x.ndim == 2 else np.matmul, [x]  # dot: a cheaper gemm call
    for li, (w, b) in enumerate(layers):
        z = _into(work, "z", li, mul, acts[-1], w)
        z += b
        if li < len(spec.layer_widths) - 1:
            _ACTIVATIONS[spec.activation](z)
        acts.append(z)
    return acts


@lru_cache(maxsize=8)
def _identity(classes: int) -> np.ndarray:
    """A shared identity, read-only as a broadcast_to view: its rows are one-hot labels."""
    return np.broadcast_to(np.eye(classes), (classes, classes))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, per_row: bool = True) -> tuple:
    """Each row's cross-entropy, through log-sum-exp so it is finite for finite
    logits, or None without per_row, and its gradient on the logits, softmax
    minus the labels' identity rows.  logits is (..., n, classes), labels (n,),
    or without per_row (..., n), each stack slice's own."""
    zmax = np.maximum.reduce(logits, axis=-1, keepdims=True)
    delta = np.exp(logits - zmax)
    total = np.add.reduce(delta, axis=-1, keepdims=True)
    losses = (zmax[..., 0] + np.log(total[..., 0]) - logits[..., np.arange(len(labels)), labels]
              if per_row else None)
    delta /= total
    delta -= _identity(logits.shape[-1])[labels]  # x - 0.0 is x: only label entries change
    return losses, delta


def _backward(
    spec: NetworkSpec, layers: _Layers, acts: _Pass, g: np.ndarray, grads: _Layers,
    square: bool = False, work: dict | None = None,
) -> None:
    """The one backward loop, from the last layer in layers down to layer 0.

    g is the gradient on _forward's output, one row per sample, with the same
    leading stack dimensions as the activations.  Each layer writes into its
    (W, b) views in grads, _unpack of an output buffer (..., P), a^T g and
    the column sums of g, for its input a and the gradient g on a @ W + b:
    its gradient summed over samples.  With square it writes (a*a)^T (g*g)
    and the column sums of g*g, each sample's squared gradient summed, since
    a sample's weight gradient is the outer product of its rows of a and g.
    Below the top layer g is the loop's own and the activation's derivative
    scales it in place; given work, the other arrays are buffers of work's.
    """
    mul = np.dot if g.ndim == 2 else np.matmul  # as in _forward
    for li in range(len(layers) - 1, -1, -1):
        if li < len(spec.layer_widths) - 1:
            a, own = acts[li + 1], g if li < len(layers) - 1 else None
            if spec.activation == "relu":  # a > 0 exactly where the pre-activation is
                g = np.multiply(g, a > 0.0, out=own)
            else:
                d = _into(work, "d", li, np.multiply, a, a)
                g = np.multiply(g, np.subtract(1.0, d, out=d), out=own)
        a, gs = ((_into(work, "a2", li, np.multiply, acts[li], acts[li]),
                  _into(work, "g2", li, np.multiply, g, g)) if square else (acts[li], g))
        mul(a.swapaxes(-1, -2), gs, out=grads[li][0])
        np.add.reduce(gs, axis=-2, keepdims=True, out=grads[li][1])
        if li > 0:
            g = _into(work, "down", li, mul, g, layers[li][0].swapaxes(-1, -2))


def _accuracy(spec: NetworkSpec, layers: _Layers, x: np.ndarray, labels: np.ndarray):
    """Each network's argmax accuracy on its rows x (..., n, d) labelled by
    labels (..., n); logit ties go to the lowest class."""
    hits = np.argmax(_forward(spec, layers, x)[-1], axis=-1) == labels
    return np.count_nonzero(hits, axis=-1) / labels.shape[-1]


def _lead_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its leading axis of n terms, each op over the long
    trailing axes, as np.add.reduce sums a contiguous last axis: pairwise
    (below 8 terms one by one; up to 128, 8 running sums of every eighth term,
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the rest one by one; above,
    two halves cut at a multiple of 8) onto 0.0, which only makes -0.0 sums 0.0."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _lead_sum(x[:half]) + _lead_sum(x[half:])
    if n < 8:
        res, tail = x[0] + 0.0, x[1:]  # any partial sum may take the start
    else:
        r = sum((x[lo : lo + 8] for lo in range(8, n - n % 8, 8)), x[:8])
        r = r[0::2] + r[1::2]
        res, tail = (r[0] + r[1]) + (r[2] + r[3]) + 0.0, x[n - n % 8 :]
    for row in tail:
        res += row
    return res


def _centroid_distances(es: np.ndarray, eq: np.ndarray, k_shot: int) -> tuple:
    """The slot centroids (B, m, d) of support embeddings es (B, m * k_shot, d),
    rows grouped by slot, and the squared distances (m, B, nq) of eq's rows to
    them, summed over a (d, m, B, nq) block of differences."""
    cents = np.add.reduce(es.reshape(es.shape[0], -1, k_shot, es.shape[2]), axis=2) / k_shot
    diff = np.subtract(eq.transpose(2, 0, 1)[:, None], cents.T[..., None], order="C")
    diff *= diff
    return cents, _lead_sum(diff)


def centroid_accuracy(es: np.ndarray, eq: np.ndarray, k_shot: int) -> np.ndarray:
    """Each episode's hard nearest-centroid accuracy (E,), its query rows
    grouped by slot too; distance ties go to the lowest slot."""
    d2 = _centroid_distances(es, eq, k_shot)[1]
    y = np.repeat(np.arange(d2.shape[0]), eq.shape[1] // d2.shape[0])
    return np.add.reduce(np.argmin(d2, axis=0) == y, axis=1) / eq.shape[1]


def _centroid_loss_grads(es: np.ndarray, eq: np.ndarray, k_shot: int, temperature: float) -> tuple:
    """The soft nearest-centroid head: each episode's cross-entropy (B,) of
    softmax(-d2 / temperature) over the slots, slot-major like d2, and its
    gradients on es and eq, from products that take it as (B, nq, m)."""
    cents, logits = _centroid_distances(es, eq, k_shot)
    m, nq = logits.shape[0], eq.shape[1]
    logits /= -temperature
    zmax = np.maximum.reduce(logits, axis=0)
    delta = np.exp(np.subtract(logits, zmax))
    total = _lead_sum(delta)
    by_slot = logits.reshape(m, -1, m, nq // m)  # [s, b, t, j]: slot s's logit of slot t's query j
    own = np.diagonal(by_slot, axis1=0, axis2=2).swapaxes(1, 2)
    per_query = (zmax + np.log(total)).reshape(own.shape) - own
    losses = np.add.reduce(per_query.reshape(-1, nq), axis=1) / nq
    delta /= total
    np.subtract(delta.reshape(by_slot.shape), _identity(m)[:, None, :, None],  # one-hot labels
                out=delta.reshape(by_slot.shape))
    delta /= nq
    delta /= -temperature
    dd = np.ascontiguousarray(delta.transpose(1, 2, 0))
    g_query = 2.0 * (_lead_sum(delta)[..., None] * eq - dd @ cents)
    g_cent = -2.0 * (dd.swapaxes(1, 2) @ eq - np.add.reduce(dd, axis=1)[:, :, None] * cents)
    return losses, np.repeat(g_cent, k_shot, axis=1) / k_shot, g_query


def _episode_buffers(spec: NetworkSpec, xs: np.ndarray) -> tuple:
    """For stacks shaped like xs, a (2, ..., E, P) gradient buffer, zero on
    the head, which nothing writes, and its halves' encoder views."""
    out = np.zeros((2,) + xs.shape[:-2] + (spec.param_count,))
    return out, _unpack(spec, out[0])[:-1], _unpack(spec, out[1])[:-1]


def _episode_grads(spec: NetworkSpec, encoder: _Layers, xs: np.ndarray, xq: np.ndarray,
                   k_shot: int, temperature: float, buffers: tuple) -> tuple:
    """Soft nearest-centroid losses (..., E) of stacked support and query
    features (..., E, n, d) and their flat gradients (..., E, P), a view into
    buffers that the next call overwrites; the head runs on the episodes as
    one flat stack, and the backward pass reuses one encoder pass per stack."""
    out, views_s, views_q = buffers
    pass_s, pass_q = _forward(spec, encoder, xs), _forward(spec, encoder, xq)
    es, eq = pass_s[-1], pass_q[-1]
    losses, g_s, g_q = _centroid_loss_grads(es.reshape((-1,) + es.shape[-2:]),
                                            eq.reshape((-1,) + eq.shape[-2:]), k_shot, temperature)
    _backward(spec, encoder, pass_s, g_s.reshape(es.shape), views_s)
    _backward(spec, encoder, pass_q, g_q.reshape(eq.shape), views_q)
    out[0] += out[1]
    return losses.reshape(es.shape[:-2]), out[0]


class NonFiniteError(ValueError):
    """Training left a non-finite parameter in epoch (counted in unit); .row
    is the first row of the (..., P) parameters that holds one (0 for a
    single network)."""

    def __init__(self, unit: str, epoch: int, row: int):
        super().__init__(f"training left non-finite parameters in {unit} {epoch}")
        self.row = row


def _descend(params: np.ndarray, velocity: np.ndarray, g: np.ndarray, lr, momentum: float,
             updates) -> np.ndarray:
    """One epoch of the one momentum-SGD loop, stepping params (..., P) and
    velocity in place; lr is a float or a column (..., 1) of per-row rates.

    updates yields once per update, after writing that update's gradient
    into g.  Overflow inside the epoch is left to one check of the whole
    stack after it: returns whether each row of params is still finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in updates:
            velocity *= momentum
            velocity += g
            params -= np.multiply(velocity, lr, out=g)  # g is spent: its buffer holds the step
    return np.logical_and.reduce(np.isfinite(params), axis=-1)


# ---------------------------------------------------------------------------
# the checked boundary: each public function validates its inputs once


def encoder_slice(spec: NetworkSpec) -> slice:
    """Slice of the flat vector holding encoder parameters (head excluded)."""
    return slice(0, spec._layout[-1][0].start)


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


def encode(net: Network, features: np.ndarray) -> np.ndarray:
    """Embeddings: forward through encoder layers only (head untouched)."""
    encoder = _unpack(net.spec, net.params)[:-1]
    return _forward(net.spec, encoder, _features(net.spec, features))[-1]


def loss(net: Network, data: Batch) -> float:
    """Mean cross-entropy over the batch."""
    _check_batch(net, data)
    logits = _forward(net.spec, _unpack(net.spec, net.params), data.features)[-1]
    return float(np.mean(_cross_entropy(logits, data.labels)[0]))


def fisher_diag(spec: NetworkSpec, params: np.ndarray, features: np.ndarray,
                labels: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Fisher diagonals (..., P) of networks params (..., P): each one's mean
    over its rows of features (..., n, d), labelled by labels (..., n), of
    each row's squared loss gradient, from _backward's squares.  Leading
    dimensions broadcast, so shared rows are given once; a single network is
    a stack of one, and each network's arithmetic is what it is alone.  Given
    work, a dict the caller holds across calls, its intermediates are work's."""
    params, labels = np.asarray(params, dtype=np.float64), np.asarray(labels)
    x = _features(spec, features)
    if (params.shape[-1:] != (spec.param_count,) or labels.shape[-1:] != x.shape[-2:-1]
            or x.shape[-2] < 1 or np.any((labels < 0) | (labels >= spec.head_classes))):
        raise ValueError(f"need params (..., {spec.param_count}) and, for each of n >= 1 "
                         f"feature rows, a label in [0, {spec.head_classes})")
    lead = np.broadcast_shapes(params.shape[:-1], x.shape[:-2], labels.shape[:-1])
    x = x.reshape((1,) * (len(lead) + 2 - x.ndim) + x.shape)  # shared rows: a stack of one
    layers = _unpack(spec, params)
    acts = _forward(spec, layers, x, work)
    delta = _cross_entropy(acts[-1], labels, per_row=False)[1]
    out = np.empty(lead + (spec.param_count,))
    _backward(spec, layers, acts, delta, _unpack(spec, out), square=True, work=work)
    return np.divide(out, x.shape[-2], out=out)


# ---------------------------------------------------------------------------
# training


def _minibatches(spec: NetworkSpec, layers: _Layers, grads: _Layers, features: np.ndarray,
                 rows: np.ndarray, labels: np.ndarray, batch_size: int):
    """Yields after writing each minibatch's mean cross-entropy gradient into
    grads: the rows (..., n) of features batch_size at a time, labelled by
    labels (..., n), each leading index a network of its own."""
    for lo in range(0, rows.shape[-1], batch_size):
        y = labels[..., lo : lo + batch_size]
        acts = _forward(spec, layers, features[rows[..., lo : lo + batch_size]])
        delta = _cross_entropy(acts[-1], y, per_row=False)[1]
        _backward(spec, layers, acts, np.divide(delta, y.shape[-1], out=delta), grads)
        yield


def train(net: Network, data: Batch, schedule: TrainSchedule) -> Network:
    """Minibatch SGD with momentum on the mean cross-entropy; returns the
    trained network.

    Shuffling uses a generator seeded by schedule.seed and permutes sample
    indices; labels never influence batch composition.  An epoch that leaves
    a non-finite parameter raises NonFiniteError, a ValueError.
    """
    _check_batch(net, data)
    spec, rng = net.spec, np.random.default_rng(schedule.seed)
    params, velocity, g = net.params.copy(), np.zeros(net.param_count), np.empty(net.param_count)
    layers, grads = _unpack(spec, params), _unpack(spec, g)
    for epoch, lr in enumerate(schedule.learning_rates()):
        order = rng.permutation(data.n)
        batches = _minibatches(spec, layers, grads, data.features, order, data.labels[order],
                               schedule.batch_size)
        if not _descend(params, velocity, g, lr, schedule.momentum, batches):
            raise NonFiniteError("epoch", epoch, 0)
    return Network(spec, params)


def train_episodic(
    net: Network, copies: int, episodes: Iterator[tuple[np.ndarray, np.ndarray]],
    schedule: TrainSchedule, k_shot: int, temperature: float,
) -> tuple[list[Network], list[list[float]]]:
    """Momentum SGD of the encoder under the soft nearest-centroid head, for
    copies copies of net in lockstep.

    Each of the schedule's epochs is one meta-update on the next item of
    episodes, support (copies, E, m * k_shot, d) and query (copies, E, m * q, d)
    features with rows grouped by class slot; copy i averages the gradients
    of its E episodes.  The copies step one (copies, P) parameter buffer, and
    each copy's arithmetic is what it would be alone.  Returns each copy's
    network and each of its meta-updates' mean loss.  A meta-update that
    leaves a non-finite parameter raises NonFiniteError, whose row is the
    first copy holding one.
    """
    spec, history = net.spec, []
    params = np.tile(net.params, (copies, 1))
    velocity, g = np.zeros_like(params), np.empty_like(params)
    encoder, buffers, shape = _unpack(spec, params[:, None])[:-1], None, None

    def meta_update():
        nonlocal buffers, shape
        xs, xq = (_features(spec, x) for x in next(episodes))
        if (xs.shape, xq.shape) != shape:
            if xs.ndim != 4 or xs.shape[:2] != xq.shape[:2] or len(xs) != copies:
                raise ValueError(f"episodes must be stacks ({copies}, E, n, {spec.input_dim})")
            buffers, shape = _episode_buffers(spec, xs), (xs.shape, xq.shape)
        losses, per_episode = _episode_grads(spec, encoder, xs, xq, k_shot, temperature, buffers)
        # numpy sums axis 1 row by row, in episode order
        np.divide(np.add.reduce(per_episode, axis=1), per_episode.shape[1], out=g)
        history.append(np.add.reduce(losses, axis=1) / losses.shape[1])
        yield

    for step, lr in enumerate(schedule.learning_rates()):
        finite = _descend(params, velocity, g, lr, schedule.momentum, meta_update())
        if not finite.all():
            raise NonFiniteError("meta-step", step, int(np.argmin(finite)))
    return [Network(spec, p) for p in params], np.reshape(history, (-1, copies)).T.tolist()


@dataclass(frozen=True, eq=False)
class PoolJob:
    """One fine-tune for train_pool: the caller's key for it, the seeds (or
    Generators made from seeds) of its fresh head and of its minibatch order,
    and its support and query rows of train_pool's features with labels."""

    key: int
    head_seed: int | np.random.Generator
    seed: int | np.random.Generator
    support_rows: np.ndarray
    support_labels: np.ndarray
    query_rows: np.ndarray
    query_labels: np.ndarray


@dataclass(frozen=True, eq=False)
class PoolExit:
    """A job as it leaves train_pool: its network's spec and parameters, the
    epochs it trained and its query accuracy then; or, with error set, what
    stopped it."""

    job: PoolJob
    spec: NetworkSpec
    params: np.ndarray
    epochs: int
    accuracy: float
    error: NonFiniteError | None = None


def train_pool(base: Network, n_classes: int, features: np.ndarray, jobs: Iterable[PoolJob],
               schedule: TrainSchedule, target: float, slots: int) -> Iterator[PoolExit]:
    """For each job, base under the fresh n_classes head that replace_head
    draws from the job's head seed, trained as train would train it on the
    job's support with the job's seed, and stopped after the first epoch
    whose query accuracy (argmax, logit ties to the lowest class) reaches
    target, or when the schedule's epochs run out.  Every job's numbers are
    those it would have alone.  Either seed may be a Generator made from one.

    Up to slots jobs are rows of one (slots, P) buffer.  Each pass runs one
    epoch of every row, at the learning rate of that row's own epoch, then
    one stacked forward of the query rows gives every row's accuracy.  A job
    leaves when it is done, or with a NonFiniteError when its epoch leaves a
    non-finite parameter; exits come in row order within a pass.  Only then
    is the next job read from jobs; it takes the freed row with zero
    velocity.  Every job must have the first's support and query row counts.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    jobs = iter(jobs)
    first = next(jobs, None)
    if first is None:
        return
    jobs = itertools.chain([first], jobs)
    spec = _head_spec(base.spec, n_classes)
    features = _features(spec, features)
    rates = np.array(list(schedule.learning_rates()))
    params, velocity, g = (np.empty((slots, spec.param_count)) for _ in range(3))
    epochs, rngs, held = np.zeros(slots, np.int64), [None] * slots, [None] * slots
    # each row's support rows and labels, then its query rows and labels
    table = [np.empty((slots, len(a)), np.int64) for a in (
        first.support_rows, first.support_labels, first.query_rows, first.query_labels)]

    def enter(w: int, job: PoolJob | None) -> bool:
        if job is None:
            return False
        arrays = (job.support_rows, job.support_labels, job.query_rows, job.query_labels)
        if [len(a) for a in arrays] != [t.shape[1] for t in table]:
            raise ValueError("pool jobs must share their support and query row counts")
        if any(np.any((a < 0) | (a >= n_classes)) for a in arrays[1::2]):
            raise ValueError(f"labels must lie in [0, {n_classes})")
        for t, a in zip(table, arrays):
            t[w] = a
        params[w] = replace_head(base, n_classes, job.head_seed).params
        velocity[w], epochs[w], rngs[w], held[w] = 0.0, 0, np.random.default_rng(job.seed), job
        return True

    k = 0
    while k < slots and enter(k, next(jobs, None)):
        k += 1
    while k:
        live, finite = slice(0, k), np.ones(k, bool)
        s_rows, s_labels, q_rows, q_labels = (t[live] for t in table)
        if rates.size:
            perm = (np.arange(k)[:, None],
                    np.stack([rngs[w].permutation(s_rows.shape[1]) for w in range(k)]))
            batches = _minibatches(spec, _unpack(spec, params[live]), _unpack(spec, g[live]),
                                   features, s_rows[perm], s_labels[perm], schedule.batch_size)
            finite = _descend(params[live], velocity[live], g[live], rates[epochs[live], None],
                              schedule.momentum, batches)
            epochs[live] += 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            accuracy = _accuracy(spec, _unpack(spec, params[live]), features[q_rows], q_labels)
        done = ~finite | (accuracy >= target) | (epochs[live] >= rates.size)
        for w in np.flatnonzero(done):
            error = None if finite[w] else NonFiniteError("epoch", int(epochs[w]) - 1, int(w))
            yield PoolExit(held[w], spec, params[w].copy(), int(epochs[w]), float(accuracy[w]),
                           error)
        free = [w for w in np.flatnonzero(done) if not enter(w, next(jobs, None))]
        if free:  # no job left to read: the occupied rows close up
            keep = np.setdiff1d(np.arange(k), free)
            for a in (params, velocity, epochs, *table):
                a[: keep.size] = a[keep]
            rngs[: keep.size] = [rngs[w] for w in keep]
            held[: keep.size] = [held[w] for w in keep]
            k = keep.size


@lru_cache(maxsize=8)
def _head_spec(spec: NetworkSpec, n_classes: int) -> NetworkSpec:
    return NetworkSpec(spec.layer_widths, n_classes, spec.activation)


def replace_head(net: Network, n_classes: int, seed: int | np.random.Generator) -> Network:
    """Copy the encoder verbatim and attach a fresh head drawn from seed, or a
    Generator made from one; heads of one spec and n_classes share a NetworkSpec."""
    new_spec = _head_spec(net.spec, n_classes)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(new_spec.embedding_dim)
    head_w = rng.uniform(-scale, scale, size=new_spec.embedding_dim * n_classes)
    enc = net.params[encoder_slice(net.spec)]
    return Network(new_spec, np.concatenate([enc, head_w, np.zeros(n_classes)]))

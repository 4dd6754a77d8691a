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
work on plain arrays and check nothing; `_unpack` views a bias as (..., 1, h),
so a stack of parameters (M, 1, P) runs M networks against activations
(M, E, n, d) with each network's arithmetic unchanged.  One momentum-SGD
epoch, `_descend`, steps every training, building no `Batch` or `Network`
per step: `train` (under the linear head) one parameter vector;
`train_episodic` (the encoder under the nearest-centroid head) one (M, P)
stack of copies in lockstep; and `train_pool` a rolling pool of up to W
fine-tunes under fresh linear heads, one (W, P) buffer whose rows sit at
epochs of their own and leave on reaching a target query accuracy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

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
_Pass = tuple[list[np.ndarray], list[np.ndarray]]  # pre-activations, layer inputs


def _unpack(spec: NetworkSpec, params: np.ndarray) -> _Layers:
    """Views (W, b) per layer of a (..., P) array, encoder layers first, head
    last: W (..., fan_in, fan_out) and b (..., 1, fan_out), so a stack of
    parameters (M, 1, P) broadcasts against activations (M, E, n, d);
    writing to a view writes to params."""
    lead = params.shape[:-1]
    return [(params[..., w].reshape(lead + shape), params[..., b][..., None, :])
            for w, shape, b in spec._layout]


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return z > 0.0
    return 1.0 - a * a


def _forward(spec: NetworkSpec, layers: _Layers, x: np.ndarray) -> _Pass:
    """Pre-activations of the encoder layers in layers, and every layer's input
    for x (..., n, input_dim), where each leading index is a batch of its own.
    activations[0] is x and activations[-1] the output: embeddings, or logits
    when layers ends with the head, which applies no activation."""
    mul, pre, acts = np.dot if x.ndim == 2 else np.matmul, [], [x]  # dot: a cheaper gemm call
    for li, (w, b) in enumerate(layers):
        z = mul(acts[-1], w)
        z += b
        if li < len(spec.layer_widths) - 1:
            pre.append(z)
            z = _act(z, spec.activation)
        acts.append(z)
    return pre, acts


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
    mul = np.dot if g.ndim == 2 else np.matmul  # as in _forward
    for li in range(len(layers) - 1, -1, -1):
        if li < len(pre):
            g = g * _act_deriv(pre[li], acts[li + 1], spec.activation)
        a, gs = (acts[li] * acts[li], g * g) if square else (acts[li], g)
        mul(a.swapaxes(-1, -2), gs, out=grads[li][0])
        np.add.reduce(gs, axis=-2, keepdims=True, out=grads[li][1])
        if li > 0:
            g = mul(g, layers[li][0].swapaxes(-1, -2))


def _accuracy(spec: NetworkSpec, layers: _Layers, x: np.ndarray, labels: np.ndarray):
    """Each network's argmax accuracy on its rows x (..., n, d) labelled by
    labels (..., n); logit ties go to the lowest class."""
    hits = np.argmax(_forward(spec, layers, x)[1][-1], axis=-1) == labels
    return np.count_nonzero(hits, axis=-1) / labels.shape[-1]


def _centroid_distances(es: np.ndarray, eq: np.ndarray, k_shot: int) -> tuple:
    """The slot centroids (E, m, d) of support embeddings es (E, m * k_shot, d),
    rows grouped by slot, and the squared distances (E, nq, m) of eq's rows to them."""
    m = es.shape[1] // k_shot
    cents = np.add.reduce(es.reshape(es.shape[0], m, k_shot, -1), axis=2) / k_shot
    diff = eq[:, :, None, :] - cents[:, None, :, :]
    diff *= diff
    return cents, np.add.reduce(diff, axis=3)


def centroid_accuracy(es: np.ndarray, eq: np.ndarray, k_shot: int) -> np.ndarray:
    """Each episode's hard nearest-centroid accuracy (E,), its query rows
    grouped by slot too; distance ties go to the lowest slot."""
    d2 = _centroid_distances(es, eq, k_shot)[1]
    y = np.repeat(np.arange(d2.shape[2]), eq.shape[1] // d2.shape[2])
    return np.add.reduce(np.argmin(d2, axis=2) == y, axis=1) / eq.shape[1]


def _centroid_loss_grads(es: np.ndarray, eq: np.ndarray, k_shot: int, temperature: float,
                         y: np.ndarray) -> tuple:
    """The soft nearest-centroid head: each episode's cross-entropy of softmax(-d2 /
    temperature) for query slots y, d2 as _centroid_distances's, and its gradients on es, eq."""
    cents, d2 = _centroid_distances(es, eq, k_shot)
    nq = eq.shape[1]
    per_query, dd = _cross_entropy(np.divide(d2, -temperature, out=d2), y)
    losses = np.add.reduce(per_query, axis=1) / nq
    dd /= nq
    dd /= -temperature
    g_query = 2.0 * (np.add.reduce(dd, axis=2, keepdims=True) * eq - dd @ cents)
    g_cent = -2.0 * (dd.swapaxes(1, 2) @ eq - np.add.reduce(dd, axis=1)[:, :, None] * cents)
    g_support = np.repeat(g_cent, k_shot, axis=1) / k_shot
    return losses, g_support, g_query


def _episode_buffers(spec: NetworkSpec, xs: np.ndarray, xq: np.ndarray, k_shot: int) -> tuple:
    """For stacks shaped like xs and xq, a (2, ..., E, P) gradient buffer, zero on
    the head, which nothing writes, its halves' encoder views and the query slots."""
    out, m = np.zeros((2,) + xs.shape[:-2] + (spec.param_count,)), xs.shape[-2] // k_shot
    y = np.repeat(np.arange(m), xq.shape[-2] // m)
    return out, _unpack(spec, out[0])[:-1], _unpack(spec, out[1])[:-1], y


def _episode_grads(spec: NetworkSpec, encoder: _Layers, xs: np.ndarray, xq: np.ndarray,
                   k_shot: int, temperature: float, buffers: tuple) -> tuple:
    """Soft nearest-centroid losses (..., E) of stacked support and query
    features (..., E, n, d) and their flat gradients (..., E, P), a view into
    buffers that the next call overwrites; the head runs on the episodes as
    one flat stack, and the backward pass reuses one encoder pass per stack."""
    out, views_s, views_q, y = buffers
    pass_s, pass_q = _forward(spec, encoder, xs), _forward(spec, encoder, xq)
    es, eq = pass_s[1][-1], pass_q[1][-1]
    losses, g_s, g_q = _centroid_loss_grads(es.reshape((-1,) + es.shape[-2:]),
                                            eq.reshape((-1,) + eq.shape[-2:]), k_shot, temperature, y)
    _backward(spec, encoder, *pass_s, g_s.reshape(es.shape), views_s)
    _backward(spec, encoder, *pass_q, g_q.reshape(eq.shape), views_q)
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
    return _forward(net.spec, encoder, _features(net.spec, features))[1][-1]


def loss(net: Network, data: Batch) -> float:
    """Mean cross-entropy over the batch."""
    _check_batch(net, data)
    logits = _forward(net.spec, _unpack(net.spec, net.params), data.features)[1][-1]
    return float(np.mean(_cross_entropy(logits, data.labels)[0]))


def fisher_diag(net: Network, data: Batch) -> np.ndarray:
    """Mean over the batch of each sample's squared loss gradient (flat, length P),
    from _backward's squares; no per-sample gradient is ever formed."""
    _check_batch(net, data)
    layers = _unpack(net.spec, net.params)
    pre, acts = _forward(net.spec, layers, data.features)
    delta = _cross_entropy(acts[-1], data.labels, per_row=False)[1]
    out = np.empty(net.param_count)
    _backward(net.spec, layers, pre, acts, delta, _unpack(net.spec, out), square=True)
    return np.divide(out, data.n, out=out)


# ---------------------------------------------------------------------------
# training


def _minibatches(spec: NetworkSpec, layers: _Layers, grads: _Layers, features: np.ndarray,
                 rows: np.ndarray, labels: np.ndarray, batch_size: int):
    """Yields after writing each minibatch's mean cross-entropy gradient into
    grads: the rows (..., n) of features batch_size at a time, labelled by
    labels (..., n), each leading index a network of its own."""
    for lo in range(0, rows.shape[-1], batch_size):
        y = labels[..., lo : lo + batch_size]
        pre, acts = _forward(spec, layers, features[rows[..., lo : lo + batch_size]])
        delta = _cross_entropy(acts[-1], y, per_row=False)[1]
        _backward(spec, layers, pre, acts, np.divide(delta, y.shape[-1], out=delta), grads)
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
            buffers, shape = _episode_buffers(spec, xs, xq, k_shot), (xs.shape, xq.shape)
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
    """One fine-tune for train_pool: the caller's key for it, the seeds of
    its fresh head and of its minibatch order, and its support and query
    rows of train_pool's features with their labels."""

    key: int
    head_seed: int
    seed: int
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
    those it would have alone.

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


def replace_head(net: Network, n_classes: int, seed: int) -> Network:
    """Copy the encoder verbatim and attach a freshly initialized head; every
    head of one spec and n_classes shares one NetworkSpec."""
    new_spec = _head_spec(net.spec, n_classes)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(new_spec.embedding_dim)
    head_w = rng.uniform(-scale, scale, size=new_spec.embedding_dim * n_classes)
    enc = net.params[encoder_slice(net.spec)]
    return Network(new_spec, np.concatenate([enc, head_w, np.zeros(n_classes)]))

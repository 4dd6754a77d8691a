"""Network substrate: forward oracles, exact-gradient checks, training basics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from taskaffinity import nnet


def small_spec(act="tanh"):
    return nnet.NetworkSpec((3, 4), 2, act)


# ---------------------------------------------------------------------------
# spec / construction validation


def test_param_count_small_example():
    # (2x3 + 3) weights+bias for the encoder layer, (3x4 + 4) for the head
    spec = nnet.NetworkSpec((2, 3), 4)
    assert spec.param_count == 9 + 16
    assert spec.input_dim == 2
    assert spec.embedding_dim == 3
    assert list(spec.layer_shapes()) == [(2, 3), (3, 4)]


def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        nnet.NetworkSpec((4,), 2)
    with pytest.raises(ValueError):
        nnet.NetworkSpec((4, 0), 2)
    with pytest.raises(ValueError):
        nnet.NetworkSpec((4, 3), 1)
    with pytest.raises(ValueError):
        nnet.NetworkSpec((4, 3), 2, activation="sigmoid")


def test_network_rejects_wrong_param_length():
    spec = small_spec()
    with pytest.raises(ValueError):
        nnet.Network(spec, np.zeros(spec.param_count - 1))
    with pytest.raises(ValueError):
        nnet.Network(spec, np.zeros((spec.param_count, 1)))


def test_network_copies_and_freezes_params():
    spec = small_spec()
    raw = np.zeros(spec.param_count)
    net = nnet.Network(spec, raw)
    raw[0] = 123.0  # caller's array must stay writable and independent
    assert net.params[0] == 0.0
    with pytest.raises(ValueError):
        net.params[0] = 1.0


@pytest.mark.parametrize("factor", [0.0, 1.5])
def test_schedule_rejects_a_decay_factor_outside_zero_one(factor):
    with pytest.raises(ValueError, match=r"lr_decay_factor must be in \(0, 1\]"):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, (2,), factor, seed=0)
    assert nnet.TrainSchedule(0.1, 0.0, 5, 1, (2,), 1.0, seed=0).lr_decay_factor == 1.0


def test_batch_validation():
    with pytest.raises(ValueError):
        nnet.Batch(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        nnet.Batch(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        nnet.Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        nnet.Batch(np.zeros((2, 2)), np.array([0, -1]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        nnet.TrainSchedule(-0.1, 0.0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 1.0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, -1, 1, seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 1, 0, seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_epochs=(3, 3), seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_epochs=(5,), seed=0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_factor=0.0, seed=0)
    with pytest.raises(TypeError, match="seed"):  # every schedule names its seed
        nnet.TrainSchedule(0.1, 0.0, 5, 1)


# ---------------------------------------------------------------------------
# initialization


def test_init_same_seed_bitwise_identical():
    spec = nnet.NetworkSpec((5, 7, 3), 4)
    a = nnet.init_network(spec, 11)
    b = nnet.init_network(spec, 11)
    assert np.array_equal(a.params, b.params)
    c = nnet.init_network(spec, 12)
    assert not np.array_equal(a.params, c.params)


def test_init_biases_zero_and_weights_bounded():
    spec = nnet.NetworkSpec((9, 6, 4), 5)
    net = nnet.init_network(spec, 3)
    mats = helpers.unpack_manual(spec, net.params)
    for (fan_in, _), (w, b) in zip(spec.layer_shapes(), mats):
        assert np.all(b == 0.0)
        assert np.max(np.abs(w)) <= 1.0 / np.sqrt(fan_in)


# ---------------------------------------------------------------------------
# forward passes


def test_encode_zero_params_gives_zero_embeddings():
    spec = nnet.NetworkSpec((4, 3, 5), 2)
    net = nnet.Network(spec, np.zeros(spec.param_count))
    emb = nnet.encode(net, np.random.default_rng(0).standard_normal((7, 4)))
    assert emb.shape == (7, 5)
    assert np.all(emb == 0.0)


def test_encode_identity_layer_is_identity_on_nonnegative_input():
    spec = nnet.NetworkSpec((3, 3), 2, activation="relu")
    params = np.zeros(spec.param_count)
    params[: 9] = np.eye(3).ravel()
    net = nnet.Network(spec, params)
    x = np.abs(np.random.default_rng(1).standard_normal((5, 3)))
    np.testing.assert_array_equal(nnet.encode(net, x), x)


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_forward_matches_straight_line_oracle(act):
    rng = np.random.default_rng(7 if act == "relu" else 8)
    spec = nnet.NetworkSpec((4, 6, 3), 5, activation=act)
    net = nnet.Network(spec, rng.standard_normal(spec.param_count))
    x = rng.standard_normal((9, 4))
    _, emb, logits = helpers.manual_layer_outputs(spec, net.params, x)
    np.testing.assert_allclose(nnet.encode(net, x), emb, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(helpers.logits(net, x), logits, rtol=1e-12, atol=1e-12)


def test_forward_hand_arithmetic_2_2_2():
    # Single tanh layer [[1,0],[0,1]] bias (1,-1); head [[1,2],[3,4]] bias (0.5,-0.5).
    spec = nnet.NetworkSpec((2, 2), 2, activation="tanh")
    params = np.array([1.0, 0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, 3.0, 4.0, 0.5, -0.5])
    net = nnet.Network(spec, params)
    x = np.array([[0.25, -0.5]])
    e0 = math.tanh(1.25)
    e1 = math.tanh(-1.5)
    expect = np.array([[e0 + 3 * e1 + 0.5, 2 * e0 + 4 * e1 - 0.5]])
    np.testing.assert_allclose(helpers.logits(net, x), expect, rtol=0, atol=1e-15)


def test_forward_rejects_wrong_input_width():
    net = nnet.init_network(small_spec(), 0)
    with pytest.raises(ValueError):
        nnet.encode(net, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        nnet.loss(net, nnet.Batch(np.zeros((2, 5)), np.zeros(2)))


def test_zero_head_gives_zero_logits():
    spec = nnet.NetworkSpec((3, 4), 6)
    rng = np.random.default_rng(2)
    params = rng.standard_normal(spec.param_count)
    params[nnet.encoder_slice(spec).stop :] = 0.0
    logits = helpers.logits(nnet.Network(spec, params), rng.standard_normal((4, 3)))
    assert np.all(logits == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5))
def test_softmax_rows_are_distributions(seed, n, c):
    # _cross_entropy's gradient is softmax minus one-hot: adding the one-hot
    # back gives distributions, so each gradient row sums to 0
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, c)) * 50
    labels = rng.integers(0, c, size=n)
    losses, delta = nnet._cross_entropy(z, labels)
    want_losses, want_delta = helpers._cross_entropy(z, labels)
    assert np.array_equal(losses, want_losses) and np.array_equal(delta, want_delta)
    no_losses, same_delta = nnet._cross_entropy(z, labels, per_row=False)
    assert no_losses is None and np.array_equal(same_delta, delta)
    p = delta.copy()
    p[np.arange(n), labels] += 1.0
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(delta.sum(axis=1), np.zeros(n), rtol=0, atol=1e-12)
    assert np.all(np.isfinite(losses)) and np.all(losses >= 0)


def test_softmax_survives_huge_logits():
    losses, delta = nnet._cross_entropy(np.array([[1e4, 0.0], [-1e4, 0.0]]), np.array([1, 1]))
    assert np.all(np.isfinite(losses)) and np.all(np.isfinite(delta))
    np.testing.assert_allclose(losses, [1e4, 0.0], atol=1e-12)
    np.testing.assert_allclose(delta, [[1.0, -1.0], [0.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# loss


def test_loss_uniform_logits_is_log_c():
    for c in (2, 3, 7):
        spec = nnet.NetworkSpec((3, 4), c)
        net = nnet.Network(spec, np.zeros(spec.param_count))
        batch = nnet.Batch(np.random.default_rng(c).standard_normal((5, 3)),
                           np.arange(5) % c)
        assert nnet.loss(net, batch) == pytest.approx(math.log(c), abs=1e-12)


def test_loss_matches_per_sample_log_softmax():
    rng = np.random.default_rng(5)
    spec = nnet.NetworkSpec((4, 5), 3, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count))
    batch = nnet.Batch(rng.standard_normal((6, 4)), rng.integers(0, 3, 6))
    logits = helpers.logits(net, batch.features)
    expect = 0.0
    for i in range(6):
        row = np.exp(logits[i] - logits[i].max())
        expect += -math.log(row[batch.labels[i]] / row.sum())
    np.testing.assert_allclose(nnet.loss(net, batch), expect / 6, rtol=1e-12)


def test_loss_near_zero_for_strong_margin():
    spec = nnet.NetworkSpec((2, 2), 2)
    params = np.zeros(spec.param_count)
    params[:4] = np.eye(2).ravel()  # identity encoder so the input reaches the head
    params[nnet.encoder_slice(spec).stop :][:4] = [50.0, -50.0, -50.0, 50.0]
    net = nnet.Network(spec, params)
    batch = nnet.Batch(np.array([[3.0, 0.0], [0.0, 3.0]]), np.array([0, 1]))
    assert 0.0 <= nnet.loss(net, batch) < 1e-10


def test_loss_rejects_out_of_range_labels():
    net = nnet.init_network(small_spec(), 0)
    batch = nnet.Batch(np.zeros((1, 3)), np.array([2]))
    with pytest.raises(ValueError):
        nnet.loss(net, batch)


# ---------------------------------------------------------------------------
# gradients


def test_grad_zero_at_constructed_stationary_point():
    # Zero params => uniform softmax; two identical samples labeled 0 and 1
    # make the head deltas cancel, and the zero head kills the encoder path.
    spec = nnet.NetworkSpec((3, 4), 2, activation="tanh")
    net = nnet.Network(spec, np.zeros(spec.param_count))
    x = np.tile(np.array([[0.3, -1.2, 0.7]]), (2, 1))
    g = helpers.loss_grad(net, nnet.Batch(x, np.array([0, 1])))
    np.testing.assert_array_equal(g, np.zeros(spec.param_count))


def test_grad_matches_central_differences_generic_points():
    rng = np.random.default_rng(helpers_seed := 20260822)
    worst = 0.0
    for _ in range(10):
        net, batch = helpers.draw_generic_case(rng)
        worst = max(worst, helpers.fd_worst_relative_error(net, batch))
    assert worst < 1e-6, f"seed {helpers_seed}: worst rel error {worst:.3e}"


def test_grad_replicated_batch_equals_single_sample():
    rng = np.random.default_rng(9)
    spec = nnet.NetworkSpec((4, 6, 3), 4, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count) * 0.5)
    x = rng.standard_normal((1, 4))
    one = helpers.loss_grad(net, nnet.Batch(x, np.array([2])))
    rep = helpers.loss_grad(net, nnet.Batch(np.tile(x, (5, 1)), np.full(5, 2)))
    np.testing.assert_allclose(rep, one, rtol=1e-12, atol=1e-14)


def test_fisher_diag_shape_and_oracle_mean():
    rng = np.random.default_rng(10)
    net, batch = helpers.draw_generic_case(rng)
    rows = helpers.per_sample_grads(net, batch)
    assert rows.shape == (batch.n, net.param_count)
    mean = helpers.loss_grad(net, batch)
    np.testing.assert_allclose(rows.mean(axis=0), mean, rtol=1e-10, atol=1e-13)
    f = nnet.fisher_diag(net, batch)
    assert f.shape == (net.param_count,)
    np.testing.assert_allclose(f, np.mean(rows * rows, axis=0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_fisher_diag_equals_the_layerwise_loop_bitwise(seed):
    net, batch = helpers.draw_generic_case(np.random.default_rng(seed))
    assert np.array_equal(nnet.fisher_diag(net, batch), helpers.layerwise_fisher_diag(net, batch))


def test_fisher_diag_single_row_is_squared_oracle_row():
    rng = np.random.default_rng(12)
    net, batch = helpers.draw_generic_case(rng)
    rows = helpers.per_sample_grads(net, batch)
    for i in range(batch.n):
        one = nnet.Batch(batch.features[i : i + 1], batch.labels[i : i + 1])
        np.testing.assert_allclose(nnet.fisher_diag(net, one), rows[i] * rows[i], rtol=1e-12, atol=0)


def test_encoder_pullback_matches_central_differences():
    rng = np.random.default_rng(14)
    spec = nnet.NetworkSpec((4, 5, 3), 4, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count) * 0.6)
    x = rng.standard_normal((5, 4))
    up = rng.standard_normal((5, 3))
    got = helpers.encoder_pullback(net, x, up)
    enc_stop = nnet.encoder_slice(spec).stop
    assert np.all(got[enc_stop:] == 0.0)
    h = 1e-6
    p = net.params.copy()
    for i in range(enc_stop):
        p[i] += h
        fp = float(np.sum(up * nnet.encode(nnet.Network(spec, p), x)))
        p[i] -= 2 * h
        fm = float(np.sum(up * nnet.encode(nnet.Network(spec, p), x)))
        p[i] += h
        fd = (fp - fm) / (2 * h)
        assert abs(got[i] - fd) / max(1.0, abs(got[i]), abs(fd)) < 1e-6


def test_train_episodic_rejects_wrong_feature_width():
    net = nnet.init_network(nnet.NetworkSpec((3, 4), 2), 0)
    sched = nnet.TrainSchedule(0.1, 0.9, 2, 1, seed=0)
    episodes = iter([(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 3)))])
    with pytest.raises(ValueError, match=r"features must be \(\.\.\., n, 3\)"):
        nnet.train_episodic(net, 1, episodes, sched, 2, 1.0)
    # an item must stack one (E, n, d) block per copy, E alike on both sides
    for xs, xq in [((1, 4, 3), (1, 4, 3)), ((1, 1, 4, 3), (1, 1, 4, 3)),
                   ((2, 1, 4, 3), (2, 2, 4, 3))]:
        episodes = iter([(np.zeros(xs), np.zeros(xq))])
        with pytest.raises(ValueError, match=r"episodes must be stacks \(2, E, n, 3\)"):
            nnet.train_episodic(net, 2, episodes, sched, 2, 1.0)


def _pullback(net, features, grad_embeddings):
    """nnet's own encoder pullback: its kernels writing into the views of a
    zero buffer, (..., P)."""
    spec = net.spec
    encoder = nnet._unpack(spec, net.params)[:-1]
    pre, acts = nnet._forward(spec, encoder, features)
    out = np.zeros(grad_embeddings.shape[:-2] + (net.param_count,))
    nnet._backward(spec, encoder, pre, acts, grad_embeddings, nnet._unpack(spec, out))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_stacked_encoder_pass_and_pullback_equal_each_slice_bitwise(seed):
    # a leading stack dimension must reproduce every slice's own 2-D
    # computation bit for bit: same matmul per slice, same reduction order;
    # and writing into the layer views must reproduce the oracle's copies
    rng = np.random.default_rng(seed)
    for _ in range(60):
        widths = tuple(int(w) for w in rng.integers(1, 12, size=int(rng.integers(2, 5))))
        act = ("relu", "tanh")[int(rng.integers(0, 2))]
        spec = nnet.NetworkSpec(widths, 2, act)
        net = nnet.Network(spec, rng.standard_normal(spec.param_count))
        n_ep, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        x = rng.standard_normal((n_ep, n, widths[0]))
        up = rng.standard_normal((n_ep, n, widths[-1]))
        emb = nnet.encode(net, x)
        stacked = _pullback(net, x, up)
        assert stacked.shape == (n_ep, spec.param_count)
        assert np.array_equal(stacked, helpers.encoder_pullback(net, x, up))
        for e in range(n_ep):
            assert np.array_equal(emb[e], nnet.encode(net, x[e]))
            assert np.array_equal(stacked[e], _pullback(net, x[e], up[e]))


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_forward_and_backward_on_a_parameter_stack_equal_each_slice_bitwise(act):
    # M networks as one (M, 1, P) stack against (M, E, n, d) activations, the
    # lockstep phase-3 shape: each copy's pass and gradients are its own
    rng = np.random.default_rng(61)
    spec = nnet.NetworkSpec((16, 32, 8), 45, act)
    copies, n_ep, n = 3, 4, 12
    params = rng.standard_normal((copies, spec.param_count)) * 0.3
    x = rng.standard_normal((copies, n_ep, n, 16))
    for top in (-1, None):  # the encoder, then the whole network with its head
        layers = nnet._unpack(spec, params[:, None])[:top]
        assert layers[0][1].shape == (copies, 1, 1, 32)
        pre, acts = nnet._forward(spec, layers, x)
        up = rng.standard_normal(acts[-1].shape)
        out = np.zeros((copies, n_ep, spec.param_count))
        nnet._backward(spec, layers, pre, acts, up, nnet._unpack(spec, out))
        for i in range(copies):
            one = nnet._unpack(spec, params[i])[:top]
            pre_i, acts_i = nnet._forward(spec, one, x[i])
            assert np.array_equal(acts[-1][i], acts_i[-1])
            out_i = np.zeros((n_ep, spec.param_count))
            nnet._backward(spec, one, pre_i, acts_i, up[i], nnet._unpack(spec, out_i))
            assert np.array_equal(out[i], out_i)
            assert np.any(out_i != 0.0)


# ---------------------------------------------------------------------------
# training / evaluation


def _blob_batch(rng, n_per=40):
    a = rng.standard_normal((n_per, 2)) * 0.4 + np.array([2.0, 2.0])
    b = rng.standard_normal((n_per, 2)) * 0.4 + np.array([-2.0, -2.0])
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return nnet.Batch(x, y)


def _evaluate(net, batch):
    """The argmax accuracy train_pool scores a query with, of one network."""
    layers = nnet._unpack(net.spec, net.params)
    return nnet._accuracy(net.spec, layers, batch.features, batch.labels)


def test_train_zero_lr_leaves_params_unchanged():
    net = nnet.init_network(nnet.NetworkSpec((2, 4), 2), 1)
    batch = _blob_batch(np.random.default_rng(2))
    for epochs in (1, 3):
        out = nnet.train(net, batch, nnet.TrainSchedule(0.0, 0.9, epochs, 16, seed=5))
        assert np.array_equal(out.params, net.params)


def test_train_separates_blobs():
    rng = np.random.default_rng(21)
    batch = _blob_batch(rng)
    net = nnet.init_network(nnet.NetworkSpec((2, 8), 2, activation="tanh"), 3)
    sched = nnet.TrainSchedule(0.1, 0.9, 20, 16, seed=4)
    out = nnet.train(net, batch, sched)
    assert _evaluate(out, batch) > 0.95
    assert nnet.loss(out, batch) < nnet.loss(net, batch)


def test_train_same_seed_bitwise_reproducible():
    batch = _blob_batch(np.random.default_rng(30))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    sched = nnet.TrainSchedule(0.05, 0.8, 6, 8, lr_decay_epochs=(3,),
                               lr_decay_factor=0.5, seed=9)
    a, b = nnet.train(net, batch, sched), nnet.train(net, batch, sched)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, net.params)


def test_train_stop_fn_halts_early():
    # the network after epoch k of a long schedule, which train_pool keeps when
    # a job reaches its target then, is exactly the one a k-epoch schedule ends with
    batch = _blob_batch(np.random.default_rng(31))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    sched = nnet.TrainSchedule(0.05, 0.9, 50, 16, seed=2)
    for epoch, stopped in enumerate(helpers.serial_train(net, batch, sched)):
        if epoch == 2:
            break
    short = nnet.train(net, batch, dataclasses.replace(sched, epochs=3))
    assert np.array_equal(stopped.params, short.params)
    assert not np.array_equal(stopped.params, net.params)
    # a pool job leaves after the first epoch whose query accuracy reaches
    # the target, an accuracy equal to it included
    rows = np.arange(batch.n)
    job = nnet.PoolJob(0, 7, 2, rows, batch.labels, rows[::5], batch.labels[::5])
    one = nnet.train(nnet.replace_head(net, 2, 7), batch, dataclasses.replace(sched, epochs=1))
    reached = _evaluate(one, nnet.Batch(batch.features[::5], batch.labels[::5]))
    (left,) = nnet.train_pool(net, 2, batch.features, [job], sched, reached, 1)
    assert (left.epochs, left.accuracy) == (1, reached)
    assert np.array_equal(left.params, one.params)


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_train_equals_the_per_minibatch_loop_bitwise(act):
    # 80 rows in minibatches of 12 leave a short last one of 8; the learning
    # rate halves from epoch 2 on
    batch = _blob_batch(np.random.default_rng(33))
    net = nnet.init_network(nnet.NetworkSpec((2, 6, 4), 2, act), 5)
    sched = nnet.TrainSchedule(0.05, 0.9, 5, 12, lr_decay_epochs=(2,),
                               lr_decay_factor=0.5, seed=8)
    want = list(helpers.serial_train(net, batch, sched))
    assert len(want) == 5
    for epochs in (3, 4, 5):  # the decay at epoch 2 needs at least 3
        got = nnet.train(net, batch, dataclasses.replace(sched, epochs=epochs))
        assert np.array_equal(got.params, want[epochs - 1].params)
    assert not np.array_equal(got.params, net.params)


def _shipped_case(head, n, seed):
    """The shipped 16 -> 32 -> 8 relu encoder under a head of width head, and a
    random batch of n rows labelled across every class of the head."""
    rng = np.random.default_rng(seed)
    net = nnet.init_network(nnet.NetworkSpec((16, 32, 8), head, "relu"), seed)
    return net, nnet.Batch(rng.standard_normal((n, 16)), rng.integers(0, head, size=n))


@pytest.mark.parametrize("head", [3, 45])
@pytest.mark.parametrize("batch_size,n", [(16, 84), (1, 5)], ids=["short_last", "one_row"])
def test_train_at_the_shipped_shapes_equals_the_per_minibatch_loop_bitwise(head, batch_size, n):
    # 84 rows in minibatches of 16 leave a short last one of 4; batch_size 1
    # trains on one-row minibatches
    net, batch = _shipped_case(head, n, 37)
    sched = nnet.TrainSchedule(0.02, 0.9, 3, batch_size, seed=38)
    want = list(helpers.serial_train(net, batch, sched))
    assert len(want) == 3
    for epochs in (1, 2, 3):
        got = nnet.train(net, batch, dataclasses.replace(sched, epochs=epochs))
        assert np.array_equal(got.params, want[epochs - 1].params)
    assert not np.array_equal(got.params, net.params)


@pytest.mark.parametrize("head", [3, 45])
@pytest.mark.parametrize("n", [1, 4, 16, 84])
def test_fisher_encode_and_evaluate_at_the_shipped_shapes_equal_the_oracles_bitwise(head, n):
    net, batch = _shipped_case(head, n, 39)
    assert np.array_equal(nnet.fisher_diag(net, batch), helpers.layerwise_fisher_diag(net, batch))
    encoder = nnet._unpack(net.spec, net.params)[:-1]
    emb = helpers._forward(net.spec, encoder, batch.features)[1][-1]
    assert np.array_equal(nnet.encode(net, batch.features), emb)
    # a stack of three batches encodes each slice as the plain batch alone
    stack = np.stack([batch.features[::-1], batch.features, 2.0 * batch.features])
    for got, x in zip(nnet.encode(net, stack), stack):
        assert np.array_equal(got, helpers._forward(net.spec, encoder, x)[1][-1])
    hits = np.argmax(helpers.logits(net, batch.features), axis=1) == batch.labels
    assert _evaluate(net, batch) == float(np.mean(hits))


def test_train_builds_no_batch_and_one_network(monkeypatch):
    batch = _blob_batch(np.random.default_rng(34))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    built = {"Batch": 0, "Network": 0}
    for cls in (nnet.Batch, nnet.Network):
        def counted(obj, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(obj)
        monkeypatch.setattr(cls, "__post_init__", counted)
    nnet.train(net, batch, nnet.TrainSchedule(0.05, 0.9, 4, 16, seed=3))  # 5 minibatches an epoch
    assert built == {"Batch": 0, "Network": 1}


def test_training_unpacks_the_parameters_per_call_not_per_step(monkeypatch):
    calls = []
    unpack = nnet._unpack
    monkeypatch.setattr(nnet, "_unpack", lambda *a: calls.append(a) or unpack(*a))

    def unpacks(run, steps):
        calls.clear()
        run(steps)
        return len(calls)

    batch = _blob_batch(np.random.default_rng(35))
    net = nnet.init_network(nnet.NetworkSpec((2, 6, 3), 2), 7)

    def train(epochs):
        nnet.train(net, batch, nnet.TrainSchedule(0.05, 0.9, epochs, 16, seed=3))

    rng = np.random.default_rng(36)
    # two copies, E=3, m=2, k=2, q=3
    stack = rng.standard_normal((2, 3, 4, 2)), rng.standard_normal((2, 3, 6, 2))

    def train_episodic(steps):
        sched = nnet.TrainSchedule(0.01, 0.9, steps, 3, seed=0)
        nnet.train_episodic(net, 2, iter([stack] * steps), sched, 2, 1.0)

    assert unpacks(train, 1) == unpacks(train, 5) > 0
    assert unpacks(train_episodic, 2) == unpacks(train_episodic, 20) > 0


def test_learning_rates_decay_from_each_listed_epoch():
    sched = nnet.TrainSchedule(0.4, 0.0, 5, 1, lr_decay_epochs=(1, 3),
                               lr_decay_factor=0.5, seed=0)
    assert list(sched.learning_rates()) == [0.4, 0.2, 0.2, 0.1, 0.1]
    assert list(nnet.TrainSchedule(0.4, 0.0, 0, 1, seed=0).learning_rates()) == []


def test_train_non_finite_epoch_is_an_error_without_warnings():
    batch = _blob_batch(np.random.default_rng(32))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    sched = nnet.TrainSchedule(1e200, 0.9, 50, 16, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(ValueError, match="non-finite parameters in epoch 0"):
            nnet.train(net, batch, sched)


def test_evaluate_exact_and_complement():
    spec = nnet.NetworkSpec((3, 3), 3, activation="relu")
    params = np.zeros(spec.param_count)
    params[:9] = np.eye(3).ravel()                      # identity encoder
    params[nnet.encoder_slice(spec).stop :][:9] = np.eye(3).ravel()  # identity head
    net = nnet.Network(spec, params)
    x = np.eye(3) * 5.0
    assert _evaluate(net, nnet.Batch(x, np.array([0, 1, 2]))) == 1.0
    assert _evaluate(net, nnet.Batch(x, np.array([1, 2, 0]))) == 0.0


def test_evaluate_untrained_near_chance():
    rng = np.random.default_rng(40)
    net = nnet.init_network(nnet.NetworkSpec((6, 8), 4, activation="tanh"), 17)
    batch = nnet.Batch(rng.standard_normal((1000, 6)), rng.integers(0, 4, 1000))
    acc = _evaluate(net, batch)
    assert abs(acc - 0.25) < 0.1


def test_evaluate_tie_goes_to_lowest_class():
    spec = nnet.NetworkSpec((2, 2), 3)
    net = nnet.Network(spec, np.zeros(spec.param_count))  # all logits zero
    batch0 = nnet.Batch(np.ones((4, 2)), np.zeros(4, dtype=int))
    batch1 = nnet.Batch(np.ones((4, 2)), np.ones(4, dtype=int))
    assert _evaluate(net, batch0) == 1.0
    assert _evaluate(net, batch1) == 0.0


# ---------------------------------------------------------------------------
# head replacement / serialization


def test_replace_head_preserves_encoder_and_embeddings():
    rng = np.random.default_rng(50)
    spec = nnet.NetworkSpec((4, 5, 3), 6, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count))
    swapped = nnet.replace_head(net, 9, seed=123)
    assert swapped.spec.head_classes == 9
    sl = nnet.encoder_slice(spec)
    assert np.array_equal(swapped.params[sl], net.params[sl])
    x = rng.standard_normal((6, 4))
    np.testing.assert_array_equal(nnet.encode(swapped, x), nnet.encode(net, x))


def test_replace_head_shares_one_spec_per_head_size_and_draws_the_same_head():
    spec = nnet.NetworkSpec((4, 5, 3), 6, activation="tanh")
    net = nnet.init_network(spec, 1)
    a = nnet.replace_head(net, 9, seed=5)
    b = nnet.replace_head(nnet.init_network(nnet.NetworkSpec((4, 5, 3), 6, "tanh"), 2), 9, seed=6)
    assert a.spec is b.spec
    assert a.spec == nnet.NetworkSpec((4, 5, 3), 9, "tanh")
    assert nnet.replace_head(net, 4, seed=5).spec.head_classes == 4
    # the head drawn as before: U(-1/sqrt(3), 1/sqrt(3)) from the seed, bias zero
    head = np.random.default_rng(5).uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=3 * 9)
    want = np.concatenate([net.params[nnet.encoder_slice(spec)], head, np.zeros(9)])
    assert np.array_equal(a.params, want)


def test_replace_head_fresh_head_deterministic_and_bias_zero():
    net = nnet.init_network(nnet.NetworkSpec((3, 4), 2), 0)
    a = nnet.replace_head(net, 5, seed=77)
    b = nnet.replace_head(net, 5, seed=77)
    assert np.array_equal(a.params, b.params)
    head = a.params[nnet.encoder_slice(a.spec).stop :]
    assert np.all(head[-5:] == 0.0)
    assert np.max(np.abs(head[:-5])) <= 1.0 / 2.0  # embedding_dim 4

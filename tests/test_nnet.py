"""Network substrate: forward oracles, exact-gradient checks, training basics."""

import math

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
        nnet.TrainSchedule(-0.1, 0.0, 1, 1)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 1.0, 1, 1)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, -1, 1)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 1, 0)
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_epochs=(3, 3))
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_epochs=(5,))
    with pytest.raises(ValueError):
        nnet.TrainSchedule(0.1, 0.0, 5, 1, lr_decay_factor=0.0)


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
    np.testing.assert_allclose(nnet.forward(net, x), logits, rtol=1e-12, atol=1e-12)


def test_forward_hand_arithmetic_2_2_2():
    # Single tanh layer [[1,0],[0,1]] bias (1,-1); head [[1,2],[3,4]] bias (0.5,-0.5).
    spec = nnet.NetworkSpec((2, 2), 2, activation="tanh")
    params = np.array([1.0, 0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, 3.0, 4.0, 0.5, -0.5])
    net = nnet.Network(spec, params)
    x = np.array([[0.25, -0.5]])
    e0 = math.tanh(1.25)
    e1 = math.tanh(-1.5)
    expect = np.array([[e0 + 3 * e1 + 0.5, 2 * e0 + 4 * e1 - 0.5]])
    np.testing.assert_allclose(nnet.forward(net, x), expect, rtol=0, atol=1e-15)


def test_forward_rejects_wrong_input_width():
    net = nnet.init_network(small_spec(), 0)
    with pytest.raises(ValueError):
        nnet.forward(net, np.zeros((2, 5)))


def test_zero_head_gives_zero_logits():
    spec = nnet.NetworkSpec((3, 4), 6)
    rng = np.random.default_rng(2)
    params = rng.standard_normal(spec.param_count)
    params[nnet.encoder_slice(spec).stop :] = 0.0
    logits = nnet.forward(nnet.Network(spec, params), rng.standard_normal((4, 3)))
    assert np.all(logits == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5))
def test_softmax_rows_are_distributions(seed, n, c):
    z = np.random.default_rng(seed).standard_normal((n, c)) * 50
    p = nnet.softmax(z)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)


def test_softmax_survives_huge_logits():
    p = nnet.softmax(np.array([[1e4, 0.0], [-1e4, 0.0]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-12)


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
    logits = nnet.forward(net, batch.features)
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
    g = nnet.grad(net, nnet.Batch(x, np.array([0, 1])))
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
    one = nnet.grad(net, nnet.Batch(x, np.array([2])))
    rep = nnet.grad(net, nnet.Batch(np.tile(x, (5, 1)), np.full(5, 2)))
    np.testing.assert_allclose(rep, one, rtol=1e-12, atol=1e-14)


def test_fisher_diag_shape_and_oracle_mean():
    rng = np.random.default_rng(10)
    net, batch = helpers.draw_generic_case(rng)
    rows = helpers.per_sample_grads(net, batch)
    assert rows.shape == (batch.n, net.param_count)
    np.testing.assert_allclose(rows.mean(axis=0), nnet.grad(net, batch), rtol=1e-10, atol=1e-13)
    f = nnet.fisher_diag(net, batch)
    assert f.shape == (net.param_count,)
    np.testing.assert_allclose(f, np.mean(rows * rows, axis=0), rtol=1e-12, atol=0)


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
    got = nnet.encoder_pullback(net, nnet.encoder_forward(net, x), up)
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


def test_encoder_pullback_rejects_wrong_shape():
    net = nnet.init_network(nnet.NetworkSpec((3, 4), 2), 0)
    with pytest.raises(ValueError):
        nnet.encoder_pullback(net, nnet.encoder_forward(net, np.zeros((2, 3))), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        nnet.encoder_forward(net, np.zeros((2, 4)))


@pytest.mark.parametrize("seed", range(4))
def test_stacked_encoder_pass_and_pullback_equal_each_slice_bitwise(seed):
    # a leading stack dimension must reproduce every slice's own 2-D
    # computation bit for bit: same matmul per slice, same reduction order
    rng = np.random.default_rng(seed)
    for _ in range(60):
        widths = tuple(int(w) for w in rng.integers(1, 12, size=int(rng.integers(2, 5))))
        act = ("relu", "tanh")[int(rng.integers(0, 2))]
        spec = nnet.NetworkSpec(widths, 2, act)
        net = nnet.Network(spec, rng.standard_normal(spec.param_count))
        n_ep, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        x = rng.standard_normal((n_ep, n, widths[0]))
        up = rng.standard_normal((n_ep, n, widths[-1]))
        fwd = nnet.encoder_forward(net, x)
        stacked = nnet.encoder_pullback(net, fwd, up)
        assert stacked.shape == (n_ep, spec.param_count)
        for e in range(n_ep):
            one = nnet.encoder_forward(net, x[e])
            assert np.array_equal(fwd[1][-1][e], one[1][-1])
            assert np.array_equal(stacked[e], nnet.encoder_pullback(net, one, up[e]))


# ---------------------------------------------------------------------------
# training / evaluation


def _blob_batch(rng, n_per=40):
    a = rng.standard_normal((n_per, 2)) * 0.4 + np.array([2.0, 2.0])
    b = rng.standard_normal((n_per, 2)) * 0.4 + np.array([-2.0, -2.0])
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return nnet.Batch(x, y)


def test_train_zero_lr_leaves_params_unchanged():
    net = nnet.init_network(nnet.NetworkSpec((2, 4), 2), 1)
    batch = _blob_batch(np.random.default_rng(2))
    out, hist = nnet.train(net, batch, nnet.TrainSchedule(0.0, 0.9, 3, 16, seed=5))
    assert np.array_equal(out.params, net.params)
    assert len(hist) == 3


def test_train_separates_blobs():
    rng = np.random.default_rng(21)
    batch = _blob_batch(rng)
    net = nnet.init_network(nnet.NetworkSpec((2, 8), 2, activation="tanh"), 3)
    sched = nnet.TrainSchedule(0.1, 0.9, 20, 16, seed=4)
    out, hist = nnet.train(net, batch, sched)
    assert nnet.evaluate(out, batch) > 0.95
    assert hist[-1] < hist[0]


def test_train_same_seed_bitwise_reproducible():
    batch = _blob_batch(np.random.default_rng(30))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    sched = nnet.TrainSchedule(0.05, 0.8, 6, 8, lr_decay_epochs=(3,),
                               lr_decay_factor=0.5, seed=9)
    a, ha = nnet.train(net, batch, sched)
    b, hb = nnet.train(net, batch, sched)
    assert np.array_equal(a.params, b.params)
    assert ha == hb


def test_train_stop_fn_halts_early():
    batch = _blob_batch(np.random.default_rng(31))
    net = nnet.init_network(nnet.NetworkSpec((2, 6), 2), 7)
    sched = nnet.TrainSchedule(0.05, 0.0, 50, 16, seed=2)
    calls = []

    def stop(current, epoch, history):
        calls.append(epoch)
        return epoch >= 2

    _, hist = nnet.train(net, batch, sched, stop_fn=stop)
    assert calls == [0, 1, 2]
    assert len(hist) == 3


def test_evaluate_exact_and_complement():
    spec = nnet.NetworkSpec((3, 3), 3, activation="relu")
    params = np.zeros(spec.param_count)
    params[:9] = np.eye(3).ravel()                      # identity encoder
    params[nnet.encoder_slice(spec).stop :][:9] = np.eye(3).ravel()  # identity head
    net = nnet.Network(spec, params)
    x = np.eye(3) * 5.0
    assert nnet.evaluate(net, nnet.Batch(x, np.array([0, 1, 2]))) == 1.0
    assert nnet.evaluate(net, nnet.Batch(x, np.array([1, 2, 0]))) == 0.0


def test_evaluate_untrained_near_chance():
    rng = np.random.default_rng(40)
    net = nnet.init_network(nnet.NetworkSpec((6, 8), 4, activation="tanh"), 17)
    batch = nnet.Batch(rng.standard_normal((1000, 6)), rng.integers(0, 4, 1000))
    acc = nnet.evaluate(net, batch)
    assert abs(acc - 0.25) < 0.1


def test_evaluate_tie_goes_to_lowest_class():
    spec = nnet.NetworkSpec((2, 2), 3)
    net = nnet.Network(spec, np.zeros(spec.param_count))  # all logits zero
    batch0 = nnet.Batch(np.ones((4, 2)), np.zeros(4, dtype=int))
    batch1 = nnet.Batch(np.ones((4, 2)), np.ones(4, dtype=int))
    assert nnet.evaluate(net, batch0) == 1.0
    assert nnet.evaluate(net, batch1) == 0.0


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


def test_replace_head_fresh_head_deterministic_and_bias_zero():
    net = nnet.init_network(nnet.NetworkSpec((3, 4), 2), 0)
    a = nnet.replace_head(net, 5, seed=77)
    b = nnet.replace_head(net, 5, seed=77)
    assert np.array_equal(a.params, b.params)
    head = a.params[nnet.encoder_slice(a.spec).stop :]
    assert np.all(head[-5:] == 0.0)
    assert np.max(np.abs(head[:-5])) <= 1.0 / 2.0  # embedding_dim 4

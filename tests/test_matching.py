"""Centroids, cost matrices, and the two Hungarian routes against each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from taskaffinity import matching, nnet


def identity_net(d):
    spec = nnet.NetworkSpec((d, d), 2, activation="relu")
    params = np.zeros(spec.param_count)
    params[: d * d] = np.eye(d).ravel()
    return nnet.Network(spec, params)


# ---------------------------------------------------------------------------
# centroids


def test_centroids_identity_encoder_mean():
    net = identity_net(2)
    x = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 6.0]])
    cents = matching.class_centroids(nnet.encode(net, x), np.array([0, 0, 1]), 2)
    np.testing.assert_allclose(cents, [[1.0, 1.0], [4.0, 6.0]], atol=1e-15)


def test_centroids_single_sample_class_is_embedding():
    net = identity_net(3)
    x = np.abs(np.random.default_rng(0).standard_normal((1, 3)))
    cents = matching.class_centroids(nnet.encode(net, x), np.array([0]), 1)
    np.testing.assert_array_equal(cents, x)


def test_centroids_match_loop_means():
    rng = np.random.default_rng(4)
    spec = nnet.NetworkSpec((4, 3), 2, activation="tanh")
    net = nnet.Network(spec, rng.standard_normal(spec.param_count))
    slots = rng.integers(0, 4, 30)
    assert set(slots.tolist()) == {0, 1, 2, 3}
    emb = nnet.encode(net, rng.standard_normal((30, 4)))
    cents = matching.class_centroids(emb, slots, 4)
    assert cents.shape == (4, 3)
    for k in range(4):
        rows = [i for i in range(30) if slots[i] == k]
        np.testing.assert_allclose(cents[k], np.mean(emb[rows], axis=0), rtol=1e-12)


# ---------------------------------------------------------------------------
# cost matrix


def test_cost_matrix_hand_example():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0], [6.0, 8.0]])
    np.testing.assert_allclose(
        matching.cost_matrix(a, b), [[0.0, 10.0], [5.0, 5.0]], atol=1e-12
    )


def test_cost_matrix_transpose_symmetry():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal((4, 6))
    np.testing.assert_allclose(
        matching.cost_matrix(a, b), matching.cost_matrix(b, a).T, rtol=1e-15
    )


# ---------------------------------------------------------------------------
# hungarian


def test_hungarian_two_by_two():
    out = matching.hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert out.mapping == (0, 1)
    assert out.total_cost == 0.0
    out = matching.hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert out.mapping == (0, 1)
    assert out.total_cost == 2.0


def test_hungarian_forced_off_diagonal():
    cost = np.array([[10.0, 1.0, 10.0], [1.0, 10.0, 10.0], [10.0, 10.0, 1.0]])
    out = matching.hungarian(cost)
    assert out.mapping == (1, 0, 2)
    assert out.total_cost == 3.0


def test_hungarian_all_equal_costs_picks_identity():
    out = matching.hungarian(np.ones((4, 4)))
    assert out.mapping == (0, 1, 2, 3)


def test_hungarian_tie_break_matches_brute_on_integer_costs():
    rng = np.random.default_rng(6)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        cost = rng.integers(0, 3, size=(n, n)).astype(float)  # ties guaranteed
        h = matching.hungarian(cost)
        b = helpers.brute_force_assignment(cost)
        assert h.mapping == b.mapping
        assert h.total_cost == b.total_cost


def test_hungarian_recovers_permutation():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        pts = rng.standard_normal((n, 5)) * 3
        perm = rng.permutation(n)
        # row i of pts[perm] is pts[perm[i]], so matching it onto pts recovers perm
        out = matching.hungarian(matching.cost_matrix(pts[perm], pts))
        assert out.mapping == tuple(int(j) for j in perm)
        assert out.total_cost == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_hungarian_equals_brute_force_property(seed, n):
    cost = np.random.default_rng(seed).random((n, n))
    h = matching.hungarian(cost)
    b = helpers.brute_force_assignment(cost)
    assert h.mapping == b.mapping
    assert h.total_cost == b.total_cost


@pytest.mark.parametrize(
    "solver", [matching.hungarian, helpers.brute_force_assignment], ids=["hungarian", "brute"]
)
@pytest.mark.parametrize(
    "cost",
    [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [np.inf, 1.0]]),
        np.array([[-1.0, 0.0], [0.0, 1.0]]),
        np.zeros((2, 3)),
        np.zeros((0, 0)),
    ],
    ids=["nan", "inf", "negative", "non_square", "empty"],
)
def test_check_cost_rejects(solver, cost):
    with pytest.raises(ValueError, match="cost"):
        solver(cost)


def test_cost_validation():
    with pytest.raises(ValueError, match="brute force capped"):
        helpers.brute_force_assignment(np.zeros((9, 9)))


def test_assignment_validation():
    with pytest.raises(ValueError):
        matching.Assignment((0, 0), 1.0)
    with pytest.raises(ValueError):
        matching.Assignment((1, 2), 1.0)
    assert matching.Assignment((1, 0), 0.5).mapping == (1, 0)

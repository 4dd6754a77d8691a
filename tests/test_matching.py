"""Centroids, cost matrices, and both matching routes against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from taskaffinity import matching, nnet
from taskaffinity.seeding import derive_seed


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


# hungarian's public route (the exhaustive scan up to SCAN_MAX_N) and the
# canonical Hungarian route it switches to above; each test checks both
SOLVERS = (matching.hungarian, matching._canonical_hungarian)


def test_hungarian_tie_break_matches_brute_on_integer_costs():
    rng = np.random.default_rng(6)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        cost = rng.integers(0, 3, size=(n, n)).astype(float)  # ties guaranteed
        b = helpers.brute_force_assignment(cost)
        for solve in SOLVERS:
            h = solve(cost)
            assert h.mapping == b.mapping
            assert h.total_cost == b.total_cost


def test_hungarian_recovers_permutation():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        pts = rng.standard_normal((n, 5)) * 3
        perm = rng.permutation(n)
        # row i of pts[perm] is pts[perm[i]], so matching it onto pts recovers perm
        cost = matching.cost_matrix(pts[perm], pts)
        for solve in SOLVERS:
            out = solve(cost)
            assert out.mapping == tuple(int(j) for j in perm)
            assert out.total_cost == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_hungarian_equals_brute_force_property(seed, n):
    cost = np.random.default_rng(seed).random((n, n))
    b = helpers.brute_force_assignment(cost)
    for solve in SOLVERS:
        h = solve(cost)
        assert h.mapping == b.mapping
        assert h.total_cost == b.total_cost


@pytest.mark.parametrize("n", range(1, matching.SCAN_MAX_N + 2))
def test_hungarian_solves_only_above_the_scan_cut_off(monkeypatch, n):
    calls = []
    solve = matching._solve_min_cost
    monkeypatch.setattr(matching, "_solve_min_cost", lambda c: calls.append(1) or solve(c))
    matching.hungarian(np.random.default_rng(n).random((n, n)))
    assert (len(calls) > 0) == (n > matching.SCAN_MAX_N)


@pytest.mark.parametrize("n", range(1, matching.SCAN_MAX_N + 2))
def test_hungarian_on_a_stack_equals_per_matrix_solves(n):
    # random and integer-tie matrices, one stack; totals compared by repr
    rng = np.random.default_rng(derive_seed(41, n))
    stack = np.concatenate([
        rng.random((20, n, n)),
        rng.integers(0, 3, size=(20, n, n)).astype(float),
    ])
    got = matching.hungarian(stack)
    assert isinstance(got, list) and len(got) == len(stack)
    for cost, h in zip(stack, got):
        for want in (matching.hungarian(cost), helpers.brute_force_assignment(cost)):
            assert h.mapping == want.mapping
            assert repr(h.total_cost) == repr(want.total_cost)


def test_hungarian_scans_a_long_stack_in_blocks(monkeypatch):
    rng = np.random.default_rng(43)
    stack = rng.integers(0, 4, size=(37, 3, 3)).astype(float)
    want = [matching.hungarian(c) for c in stack]
    monkeypatch.setattr(matching, "SCAN_BLOCK", 5 * 6 * 3)  # five matrices per scan call
    assert matching.hungarian(stack) == want
    assert matching.hungarian(stack[:0]) == []


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda c: c.__setitem__((3, 0, 1), np.nan), "cost matrix 3: cost entries must be finite"),
        (lambda c: c.__setitem__((2, 1, 0), -1.0), "cost matrix 2: cost entries must be nonnegative"),
        (lambda c: c.__setitem__((4, 2, 2), np.inf), "cost matrix 4: cost entries must be finite"),
    ],
    ids=["nan", "negative", "inf"],
)
@pytest.mark.parametrize("n", [3, matching.SCAN_MAX_N + 1])
def test_hungarian_names_the_first_bad_matrix_of_a_stack(bad, message, n):
    stack = np.random.default_rng(n).random((6, n, n))
    bad(stack)
    stack[5, 0, 0] = np.nan  # a later bad matrix is not the one named
    with pytest.raises(matching.CostError, match=f"^{message}$") as err:
        matching.hungarian(stack)
    assert err.value.index == int(message.split()[2][:-1])


def test_hungarian_rejects_a_non_square_stack():
    with pytest.raises(matching.CostError, match="^cost matrix 0: cost must be a nonempty square"):
        matching.hungarian(np.zeros((3, 2, 4)))
    with pytest.raises(matching.CostError, match="^cost must be") as err:
        matching.hungarian(np.zeros((2, 4)))
    assert err.value.index is None


def test_stacked_centroids_and_costs_equal_per_task_ones():
    # one class_centroids call over S tasks' groups and one stacked
    # cost_matrix equal the per-task masked means and 2-D costs bitwise, for
    # four tasks over a tiled copy of all 60 rows, and, given rows, for four
    # tasks of unequal sizes gathered from emb, the last with slot 2 empty
    rng = np.random.default_rng(44)
    emb = rng.standard_normal((60, 8))
    target = rng.standard_normal((3, 8))
    slots = rng.integers(0, 3, size=(4, 60))
    groups = (np.arange(4)[:, None] * 3 + slots).ravel()
    tiled = matching.class_centroids(np.tile(emb, (4, 1)), groups, 12)
    picks = [rng.choice(60, size, replace=False) for size in (12, 21, 35, 7)]
    parts = [rng.permutation(np.arange(len(p)) % (3 if s < 3 else 2)) for s, p in enumerate(picks)]
    rows, groups = np.concatenate(picks), np.concatenate([3 * s + p for s, p in enumerate(parts)])
    gathered = matching.class_centroids(emb, groups, 12, rows)
    assert np.isnan(gathered[11]).all() and not np.isnan(np.delete(gathered, 11, axis=0)).any()
    assert gathered.tobytes() == matching.class_centroids(emb[rows], groups, 12).tobytes()
    for cents, per_task in ((tiled, [(np.arange(60), p) for p in slots]),
                            (gathered, zip(picks, parts))):
        cents = cents.reshape(4, 3, 8)
        costs = matching.cost_matrix(cents, target)
        for s, (picked, part) in enumerate(per_task):
            n = len(np.unique(part))
            want = helpers.serial_class_centroids(emb[picked], part, n)
            assert cents[s, :n].tobytes() == want.tobytes()
            if n == 3:
                assert costs[s].tobytes() == matching.cost_matrix(want, target).tobytes()


@pytest.mark.parametrize(
    "solver",
    [matching.hungarian, matching._canonical_hungarian, helpers.brute_force_assignment],
    ids=["hungarian", "canonical", "brute"],
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

"""Fisher diagonals and the affinity score against hand-built oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from taskaffinity import fisher, nnet
from taskaffinity.seeding import derive_seed


def unit(v):
    return np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# diagonal construction


def test_fisher_single_sample_is_squared_gradient():
    rng = np.random.default_rng(1)
    net, batch = helpers.draw_generic_case(rng)
    one = nnet.Batch(batch.features[:1], batch.labels[:1])
    g = helpers.loss_grad(net, one)
    f = helpers.fisher_diag(net, one)
    np.testing.assert_allclose(f, g * g, rtol=1e-12, atol=0)


def test_fisher_duplicated_batch_identical():
    rng = np.random.default_rng(2)
    net, batch = helpers.draw_generic_case(rng)
    doubled = nnet.Batch(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
    )
    a = helpers.fisher_diag(net, batch)
    b = helpers.fisher_diag(net, doubled)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)


def test_fisher_explicit_three_sample_loop():
    rng = np.random.default_rng(3)
    net, batch = helpers.draw_generic_case(rng)
    three = nnet.Batch(batch.features[:3], batch.labels[:3])
    acc = np.zeros(net.param_count)
    for i in range(3):
        gi = helpers.loss_grad(net, nnet.Batch(three.features[i : i + 1], three.labels[i : i + 1]))
        acc += gi * gi
    f = helpers.fisher_diag(net, three)
    np.testing.assert_allclose(f, acc / 3.0, rtol=1e-10, atol=1e-300)


# The oracle's one-row forward passes round differently from the batched one,
# and on tiny entries cancellation amplifies that: 3000 draws reached 5.5e-13.
# Derandomized so a rare draw past 1e-12 cannot make the test flaky.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 6, 31, 120]))
@example(0, 120)  # tanh; 120 rows is the shipped target support
@example(1, 120)  # relu
def test_fisher_equals_mean_of_squared_oracle_rows(seed, n):
    net, batch = helpers.draw_generic_case(np.random.default_rng(seed), n=n)
    rows = helpers.per_sample_grads(net, batch)
    f = helpers.fisher_diag(net, batch)
    np.testing.assert_allclose(f, np.mean(rows * rows, axis=0), rtol=1e-12, atol=0)


def test_diagonal_validation():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fisher.unit_trace(np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fisher.unit_trace(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="all-zero"):
        fisher.unit_trace(np.zeros(2))
    # exact unit trace is fine
    assert fisher.tas(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


def test_unit_trace_rejects_an_overflowing_trace():
    big = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        with pytest.raises(fisher.DegenerateFisherError, match="^the trace overflows$"):
            fisher.unit_trace(np.array([big, big]))


def test_unit_trace_names_the_first_bad_row_in_c_order():
    f = np.ones((2, 3, 4))
    f[1, 0] = 0.0
    f[1, 2, 3] = -1.0
    with pytest.raises(fisher.DegenerateFisherError, match=r"^row \(1, 0\): .*all-zero") as info:
        fisher.unit_trace(f)
    assert info.value.row == (1, 0)
    with pytest.raises(fisher.DegenerateFisherError, match=r"^row 1: .*nonnegative"):
        fisher.unit_trace(f[1, 1:])


@pytest.mark.parametrize("shape", [(7,), (1, 7), (5, 7), (3, 4, 7)])
def test_stacked_unit_trace_and_tas_equal_each_row_bitwise(shape):
    rng = np.random.default_rng(derive_seed(31, len(shape), shape[0]))
    raw_a = rng.random(shape) ** 3
    raw_b = rng.random(shape) ** 3
    u_a, u_b = fisher.unit_trace(raw_a), fisher.unit_trace(raw_b)
    s = fisher.tas(u_a, u_b)
    assert u_a.shape == shape and s.shape == shape[:-1]
    for row in np.ndindex(shape[:-1]):
        one_a, one_b = fisher.unit_trace(raw_a[row]), fisher.unit_trace(raw_b[row])
        np.testing.assert_array_equal(u_a[row], one_a)
        assert s[row] == fisher.tas(one_a, one_b)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_simple_vector():
    f = fisher.unit_trace(np.array([2.0, 3.0, 5.0]))
    np.testing.assert_allclose(f, [0.2, 0.3, 0.5], rtol=0, atol=1e-16)


def test_normalize_idempotent():
    f = fisher.unit_trace(np.array([1.0, 7.0, 0.25]))
    g = fisher.unit_trace(f)
    np.testing.assert_allclose(g, f, rtol=0, atol=1e-15)


def test_normalize_all_zero_is_error():
    with pytest.raises(ValueError):
        fisher.unit_trace(np.zeros(5))


# ---------------------------------------------------------------------------
# affinity score


def test_tas_identical_is_zero():
    f = unit([0.25, 0.25, 0.5])
    assert fisher.tas(f, f) == 0.0


def test_tas_disjoint_support_is_one():
    a = unit([1.0, 0.0])
    b = unit([0.0, 1.0])
    assert fisher.tas(a, b) == pytest.approx(1.0, abs=1e-12)


def test_tas_hand_formula():
    a = unit([1.0, 0.0])
    b = unit([0.5, 0.5])
    # sqrt((1-sqrt(.5))^2 + .5) / sqrt(2)
    expect = math.sqrt((1 - math.sqrt(0.5)) ** 2 + 0.5) / math.sqrt(2)
    assert fisher.tas(a, b) == pytest.approx(expect, abs=1e-12)
    # and symmetric for this pair
    assert fisher.tas(b, a) == pytest.approx(expect, abs=1e-12)


def test_tas_requires_normalized_and_matching_shape():
    raw = np.array([2.0, 3.0])
    ok = unit([0.5, 0.5])
    with pytest.raises(ValueError):
        fisher.tas(raw, ok)
    with pytest.raises(ValueError):
        fisher.tas(ok, unit([0.5, 0.25, 0.25]))


def _random_unit(rng, n):
    v = rng.random(n) ** 2
    v[0] += 1e-9  # keep the trace strictly positive
    return fisher.unit_trace(v)


def test_tas_matches_trace_oracle_many_pairs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        a, b = _random_unit(rng, n), _random_unit(rng, n)
        s = fisher.tas(a, b)
        o = helpers.frechet_diag_oracle(a, b)
        assert abs(s - o) <= 1e-12
        assert -1e-12 <= s <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 25))
def test_tas_oracle_and_range_property(seed, n):
    rng = np.random.default_rng(seed)
    a, b = _random_unit(rng, n), _random_unit(rng, n)
    s = fisher.tas(a, b)
    assert abs(s - helpers.frechet_diag_oracle(a, b)) <= 1e-12
    assert -1e-12 <= s <= 1.0 + 1e-12
    assert fisher.tas(a, a) <= 1e-12

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskaffinity.seeding import derive_seed, generators, seed_grid, splitmix64

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_derive_is_deterministic():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)


def test_different_tags_differ():
    seen = {derive_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000


def test_tag_order_matters():
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_nested_differs_from_flat():
    # deriving in two hops must not collide with the direct two-tag form
    assert derive_seed(derive_seed(7, 1), 2) != derive_seed(7, 1)


def test_accepts_negative_and_huge_inputs():
    a = derive_seed(-1, 3)
    b = derive_seed(2**64 - 1, 3)
    assert a == b  # -1 reduces mod 2**64


@given(U64)
def test_splitmix_stays_in_range(x):
    assert 0 <= splitmix64(x) < 2**64


@given(U64, st.lists(U64, max_size=4))
def test_derive_stays_in_range(master, tags):
    assert 0 <= derive_seed(master, *tags) < 2**64


def test_seed_grid_is_derive_seed_of_every_cell_in_c_order():
    axis_a = [0, 3, -1, 2**64, 2**64 + 7, -(2**70)]
    axis_b = [5, 2**65 - 1, -2]
    for master, prefix in ((4242, ()), (-3, (4,)), (2**64 + 9, (1, -5, 2**66))):
        assert seed_grid(master, prefix) == [derive_seed(master, *prefix)]
        assert seed_grid(master, prefix, axis_a) == [
            derive_seed(master, *prefix, i) for i in axis_a
        ]
        assert seed_grid(master, prefix, axis_a, axis_b) == [
            derive_seed(master, *prefix, i, j) for i in axis_a for j in axis_b
        ]
        assert seed_grid(master, prefix, range(3), [], axis_b) == []


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _same_as_default_rng(seeds):
    made = list(generators(seeds))
    assert len(made) == len(seeds)
    for seed, rng in zip(seeds, made):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.integers(0, 2**63, 4), want.integers(0, 2**63, 4))
        assert np.array_equal(rng.permutation(9), want.permutation(9))
        assert np.array_equal(rng.random(3), want.random(3))


def test_generators_are_default_rng_at_the_edge_seeds():
    _same_as_default_rng(EDGE_SEEDS)
    _same_as_default_rng(np.array(EDGE_SEEDS, np.uint64))
    _same_as_default_rng(seed_grid(7, (4,), range(3), range(5)))


@given(st.lists(U64, min_size=1, max_size=6))
def test_generators_are_default_rng(seeds):
    _same_as_default_rng(seeds)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_generators_reject_out_of_range_seeds_before_making_any(bad):
    # the call raises, not the first next(): no Generator has been made
    for seeds in ([bad], [5, 6, bad]):
        with pytest.raises(ValueError, match=r"^seeds must be integers in \[0, 2\*\*64\)$"):
            generators(seeds)


@given(st.lists(U64, max_size=8), st.lists(st.integers(-(2**70), 2**70), max_size=3))
def test_derive_seed_of_a_uint64_array_is_the_scalar_one_per_entry(masters, tags):
    got = derive_seed(np.array(masters, np.uint64), *tags)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(m, *tags) for m in masters]

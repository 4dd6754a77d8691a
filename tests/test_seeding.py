from hypothesis import given
from hypothesis import strategies as st

from taskaffinity.seeding import derive_seed, seed_grid, splitmix64

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

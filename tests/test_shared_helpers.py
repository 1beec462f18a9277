"""The shared subset and product-measure helpers against the loops they replaced.

``members`` is the library's one mask-to-subset map and ``bernoulli_weights``
its one product-measure table.  Each caller that used to carry its own loop
must give bit-identical results, for ground sets of 0 to 8 items and for
marginals that include 0 and 1.
"""

import numpy as np
import pytest

from conftest import (
    iter_bits,
    loop_boosted_draw_space,
    loop_product_support,
    loop_table,
    mask_subset,
)
from stocomb.boosting import IndBoostPolicyBuilder
from stocomb.model import IndependentBernoulli, members
from stocomb.rng import stream
from stocomb.setfun import random_coverage, table

SIZES = range(9)


def marginal_vectors(n: int) -> list:
    """Random marginals, the same with 0s and 1s mixed in, all 0, all 1."""
    rng = np.random.default_rng(100 + n)
    plain = [float(v) for v in rng.uniform(0.0, 1.0, n)]
    mixed = list(plain)
    for i in range(0, n, 3):
        mixed[i] = 0.0
    for i in range(1, n, 3):
        mixed[i] = 1.0
    return [plain, mixed, [0.0] * n, [1.0] * n]


@pytest.mark.parametrize("n", SIZES)
def test_members_match_bit_loops(n):
    # Names out of sorted order, so a sorted result is not index order.
    items = tuple(f"c{k}" for k in np.random.default_rng(n).permutation(n))
    for mask in range(1 << n):
        got = members(mask, items)
        assert got == tuple(iter_bits(mask, items))
        assert frozenset(got) == mask_subset(items, mask)


@pytest.mark.parametrize("n", SIZES)
def test_independent_support_matches_loop(n):
    clients = tuple(f"c{i}" for i in range(n))
    for probs in marginal_vectors(n):
        dist = IndependentBernoulli(tuple(zip(clients, probs)))
        got = dist.support()
        want = loop_product_support(clients, probs)
        assert got == want
        assert all(type(p) is float for _, p in got)


@pytest.mark.parametrize("n", SIZES)
def test_boosted_draw_space_matches_loop(n):
    clients = tuple(f"c{i}" for i in range(n))
    for probs in marginal_vectors(n):
        builder = IndBoostPolicyBuilder(None, None, tuple(zip(clients, probs)))
        for sigma in (1.0, 1.7, 3.0):
            got = builder.draw_space(None, sigma)
            assert got == loop_boosted_draw_space(builder.boosted(sigma))
            assert all(type(p) is float for _, p in got)


@pytest.mark.parametrize("n", SIZES)
def test_table_matches_loop(n):
    ground = tuple(f"g{i}" for i in range(n))
    f = random_coverage(ground, stream(n, "helper-table"))
    np.testing.assert_array_equal(table(f, ground), loop_table(f, ground))

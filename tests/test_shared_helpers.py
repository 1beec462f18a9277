"""The shared subset and product-measure helpers against the loops they replaced.

``members`` is the library's one mask-to-subset map, ``bernoulli_weights``
its one product-measure table and ``subset_table`` its one doubling
builder.  Each caller that used to carry its own loop must give
bit-identical results, for ground sets of 0 to 8 items (0 to 20 for the
product-measure table against its per-item loop) and for marginals that
include 0 and 1.  ``subset_table`` fills one table in place and must
match the concatenating doubling in bits and dtype, and the coverage
table built from one union table per word must match the per-item loop.
"""

import numpy as np
import pytest

from conftest import (
    concat_subset_table,
    item_loop_coverage,
    iter_bits,
    loop_bernoulli_weights,
    loop_boosted_draw_space,
    loop_coverage,
    loop_product_support,
    loop_table,
    loop_weighted_rank,
    mask_subset,
)
from stocomb._kernels import bernoulli_weights
from stocomb.boosting import IndBoostPolicyBuilder, union_law
from stocomb.gap import GapInstance, SplitMap, split
from stocomb.model import IndependentBernoulli, ProblemInstance, members, subset_table
from stocomb.rng import stream
from stocomb.setfun import coverage, from_json, random_coverage, table, weighted_rank

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


@pytest.mark.parametrize("n", range(21))
def test_bernoulli_weights_match_item_loop(n):
    for probs in marginal_vectors(n):
        p = np.array(probs)
        assert bernoulli_weights(p).tobytes() == loop_bernoulli_weights(p).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_boosted_draw_space_matches_loop(n):
    clients = tuple(f"c{i}" for i in range(n))
    for probs in marginal_vectors(n):
        for sigma in (1.0, 1.7, 3.0):
            problem = ProblemInstance(clients, (), {}, sigma, None)
            builder = IndBoostPolicyBuilder(problem, None, tuple(zip(clients, probs)))
            got = union_law(*builder.draw_law(None))
            boosted = [(j, min(1.0, sigma * p)) for j, p in zip(clients, probs)]
            assert got == loop_boosted_draw_space(boosted)
            assert all(type(p) is float for _, p in got)


@pytest.mark.parametrize("n", SIZES)
def test_table_matches_loop(n):
    ground = tuple(f"g{i}" for i in range(n))
    f = from_json(random_coverage(ground, stream(n, "helper-table")), ground)
    np.testing.assert_array_equal(table(f, ground), loop_table(f, ground))


@pytest.mark.parametrize("n", SIZES)
def test_set_function_tables_match_loops(n):
    rng = np.random.default_rng(200 + n)
    ground = tuple(f"g{i}" for i in range(n))
    # String ids: the order of a set of them changes with the hash seed.
    universe = [f"u{k}" for k in range(12)]
    cover = {g: set(rng.choice(universe, size=int(rng.integers(0, 5)),
                               replace=False).tolist()) for g in ground}
    weights = {u: float(rng.uniform(0.1, 1.0))
               for u in rng.permutation(universe).tolist()}
    f = coverage(cover, weights)
    assert table(f, ground).tobytes() == \
        loop_table(loop_coverage(cover, weights), ground).tobytes()
    ranks = {g: float(rng.uniform(0.1, 1.0)) for g in ground}
    cap = 0.6 * sum(ranks.values())
    assert table(weighted_rank(ranks, cap), ground).tobytes() == \
        loop_table(loop_weighted_rank(ranks, cap), ground).tobytes()
    # A split reads the original value at the projection onto originals.
    new = split(GapInstance(ground, f, {g: 0.5 for g in ground}),
                SplitMap({g: 1 + k % 2 for k, g in enumerate(ground)}))
    projected = loop_table(lambda s: f(frozenset(c[0] for c in s)), new.ground)
    assert table(new.f, new.ground).tobytes() == projected.tobytes()


def subset_table_calls(n: int) -> list:
    """``(values, combine, empty)`` for every way the library calls
    ``subset_table``: sums of Python floats, numpy floats and Python ints
    from 0.0, unions of Python int bit masks from 0 or from a picked mask,
    and ors of Python and numpy bools from False."""
    rng = np.random.default_rng(300 + n)
    floats = rng.uniform(-2.0, 2.0, n)
    masks = [int(m) for m in rng.integers(0, 1 << 62, n)]
    bools = rng.random(n) < 0.5
    return [
        (floats.tolist(), np.add, 0.0),
        (floats, np.add, 0.0),
        (list(floats), np.add, 0.0),
        (np.ones(n), np.add, 0.0),
        ([int(v) for v in rng.integers(0, 50, n)], np.add, 0.0),
        (masks, np.bitwise_or, 0),
        ([1 << i for i in range(n)], np.bitwise_or, (1 << 40) | 5),
        (bools.tolist(), np.logical_or, False),
        (list(bools), np.logical_or, False),
    ]


@pytest.mark.parametrize("n", range(13))
def test_subset_table_matches_concatenation(n):
    for values, combine, empty in subset_table_calls(n):
        got = subset_table(values, combine, empty)
        want = concat_subset_table(values, combine, empty)
        assert got.dtype == want.dtype
        assert got.shape == want.shape == (1 << n,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("universe", [6, 63, 64, 130])
@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_coverage_union_table_matches_item_loop(n, universe):
    rng = np.random.default_rng(1000 * universe + n)
    ground = tuple(f"g{i}" for i in range(n))
    items = [f"u{k}" for k in range(universe)]
    cover = {g: rng.choice(items, size=int(rng.integers(0, universe + 1)),
                           replace=False).tolist() for g in ground}
    if ground:  # every word has covered items
        cover[ground[-1]] = items[::2]
    # Weights of either sign, in an order that is not the bit order, and
    # some for items no ground element covers.
    weights = {u: float(rng.uniform(-1.0, 2.0)) for u in rng.permutation(items).tolist()}
    weights.update({f"extra{k}": float(k + 0.5) for k in range(3)})
    got = coverage(cover, weights).values
    assert got.tobytes() == item_loop_coverage(cover, weights).tobytes()

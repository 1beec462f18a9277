"""Batched Monte-Carlo evaluation against the run-by-run loop it replaced.

``evaluate_policy(mode="monte_carlo")`` draws its runs in batches, decodes
them per law with numpy and prices each distinct (drawn, realized) pair once.
Every case here must give the loop's mean and halfwidth bit for bit, leave
the generator where the loop leaves it, and raise the loop's exception.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import loop_monte_carlo, loop_sample, loop_sample_draw
from stocomb import boosting, caps
from stocomb.boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    evaluate_policy,
    policy_cost,
)
from stocomb.errors import CapExceeded
from stocomb.generate import random_explicit_distribution, random_problem
from stocomb.model import Explicit, IndependentBernoulli, KPartition
from stocomb.problems import set_cover_problem
from stocomb.rng import stream
from stocomb.solvers import algorithm_for

SIGMAS = (1.0, 1.5, 2.0, 3.0)


def laws(clients):
    """One law of each kind over ``clients``, with zero-probability outcomes."""
    explicit = random_explicit_distribution(clients, 4)
    outcomes = list(explicit.outcomes)
    outcomes.insert(1, (frozenset(clients[:2]), 0.0))
    outcomes.append((frozenset(clients), 0.0))
    marginals = tuple((j, p) for j, p in zip(clients, (0.3, 0.0, 0.55, 1.0, 0.2)))
    return {
        "explicit": Explicit(tuple(outcomes)),
        "bernoulli": IndependentBernoulli(marginals),
        "partition": KPartition((frozenset(clients[:1]), frozenset(clients[1:3]),
                                 frozenset(clients[3:]))),
    }


def builder_for(name, problem, alg=None):
    alg = alg or algorithm_for(problem)
    if name == "boost":
        return BoostPolicyBuilder(problem, alg)
    marginals = tuple((j, 0.25) for j in problem.clients)
    return IndBoostPolicyBuilder(problem, alg, marginals)


def assert_same(problem, builder, dist, sigma, seed, runs):
    rng, oracle_rng = stream(seed, "mc"), stream(seed, "mc")
    got = evaluate_policy(problem, builder, dist, sigma, "monte_carlo", rng, runs)
    want = loop_monte_carlo(problem, builder, dist, sigma, oracle_rng, runs)
    assert got.expected_cost.hex() == want.expected_cost.hex()
    assert got.ci_halfwidth.hex() == want.ci_halfwidth.hex()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition"])
def test_scalar_sample_is_the_loop_sampler(law):
    dist = laws(("a", "b", "c", "d", "e"))[law]
    rng, oracle_rng = stream(0, "s"), stream(0, "s")
    assert ([dist.sample(rng) for _ in range(300)]
            == [loop_sample(dist, oracle_rng) for _ in range(300)])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class Fixed:
    """A generator stand-in whose every float is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_explicit_decode_at_the_cumulative_boundaries():
    # u equal to a running sum goes past it, so zero-probability outcomes are
    # never drawn; u past a total that falls short of 1 gets the last outcome.
    sets = [frozenset({k}) for k in "abcde"]
    for probs in ((0.0, 0.25, 0.0, 0.75, 0.0), (0.5, 0.5 - 1e-13, 0.0, 0.0, 0.0)):
        dist = Explicit(tuple(zip(sets, probs)))
        us = [0.0, 0.25, 0.5, 0.5 - 1e-13, 1.0 - 1e-13, 1.0 - 2 ** -53]
        rows = dist.decode(np.array(us)[:, None])
        got = [frozenset(j for j, x in zip(dist.universe, row) if x) for row in rows]
        assert got == [loop_sample(dist, Fixed(u)) for u in us]


def test_partition_decode_at_the_block_boundaries():
    # Block floor(k u): u = i/k starts block i, the float just below it is
    # still in block i - 1, and u = 1 - 2^-53 stays in the last block.
    for k in (1, 2, 3, 5, 7, 10):
        dist = KPartition(tuple(frozenset({f"c{i}"}) for i in range(k)))
        us = [0.0, 1.0 - 2 ** -53]
        for i in range(1, k):
            us += [i / k, np.nextafter(i / k, 0.0)]
        rows = dist.decode(np.array(us)[:, None])
        got = [frozenset(j for j, x in zip(dist.universe, row) if x) for row in rows]
        assert got == [loop_sample(dist, Fixed(u)) for u in us]


@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition", "boosted"])
@pytest.mark.parametrize("rounds", [1, 3, 40_000])
def test_every_law_reads_only_floats(law, rounds):
    # A draw reads ``width`` floats and nothing else, so ``rounds`` draws
    # leave the generator where one (rounds, width) float array leaves it.
    problem = random_problem("set_cover", 5, 6, seed=1, sigma=2.0)
    if law == "boosted":
        dist, _ = builder_for("ind_boost", problem).draw_law(None, 2.0)
    else:
        dist = laws(problem.clients)[law]
    rng, floats = stream(rounds, "f"), stream(rounds, "f")
    dist.sample(rng, rounds)
    floats.random((rounds, dist.width))
    assert rng.bit_generator.state == floats.bit_generator.state


@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition"])
def test_scalar_draw_is_the_loop_draw(builder, law):
    problem = random_problem("set_cover", 5, 6, seed=1, sigma=2.0)
    dist = laws(problem.clients)[law]
    b = builder_for(builder, problem)
    rng, oracle_rng = stream(1, "d"), stream(1, "d")
    for sigma in SIGMAS:
        law, rounds = b.draw_law(dist, sigma)
        assert ([law.sample(rng, rounds) for _ in range(50)]
                == [loop_sample_draw(b, dist, sigma, oracle_rng) for _ in range(50)])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000])
def test_batched_variates_read_the_scalar_stream(n):
    # The batching rests on this: one (k, w) call reads the stream, position
    # included, as k * w scalar calls in row-major order.
    a, b = stream(n, "v"), stream(n, "v")
    assert a.random((7, 3)).ravel().tolist() == [b.random() for _ in range(21)]
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition"])
def test_matches_loop_across_small_batches(monkeypatch, law, builder, sigma):
    # A 50-variate batch puts many batch boundaries inside 1,003 runs.
    monkeypatch.setattr(boosting, "CHUNK", 50)
    problem = random_problem("set_cover", 5, 6, seed=2, sigma=sigma)
    dist = laws(problem.clients)[law]
    assert_same(problem, builder_for(builder, problem), dist, sigma, 11, 1003)


@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
def test_matches_loop_across_default_batches(builder):
    # Boosting at sigma 3 reads 20 variates per run (3,276 runs per default
    # batch) and independent boosting 10 (6,553): 7,001 runs cross both.
    problem = random_problem("vertex_cover", 5, 5, seed=3, sigma=3.0)
    dist = laws(problem.clients)["bernoulli"]
    assert boosting.CHUNK // (4 * 5) == 3276
    assert_same(problem, builder_for(builder, problem), dist, 3.0, 5, 7001)


def test_matches_loop_on_every_kind():
    for seed, kind in enumerate(("set_cover", "vertex_cover", "ufl", "steiner")):
        sizes = (3, 2) if kind == "ufl" else (4, 6)
        problem = random_problem(kind, *sizes, seed=seed, sigma=2.0)
        dist = random_explicit_distribution(problem.clients, seed)
        for builder in ("boost", "ind_boost"):
            assert_same(problem, builder_for(builder, problem), dist, 2.0, seed, 2000)


@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
@pytest.mark.parametrize("law", ["explicit", "partition"])
def test_each_distinct_pair_is_priced_once(monkeypatch, law, builder):
    # A 50-variate batch holds 8 or 16 runs, so the pairs recur across
    # batches; each must still be priced once per evaluation, not per batch.
    monkeypatch.setattr(boosting, "CHUNK", 50)
    priced = []

    def counting(problem, policy, realized, sigma):
        priced.append(realized)
        return policy_cost(problem, policy, realized, sigma)

    monkeypatch.setattr(boosting, "policy_cost", counting)
    problem = random_problem("set_cover", 5, 6, seed=2, sigma=2.0)
    dist = laws(problem.clients)[law]
    b = builder_for(builder, problem)
    runs = 1003
    oracle_rng = stream(7, "once")
    seen = [(loop_sample_draw(b, dist, 2.0, oracle_rng), loop_sample(dist, oracle_rng))
            for _ in range(runs)]
    draw, rounds = b.draw_law(dist, 2.0)
    per_batch = 50 // (rounds * draw.width + dist.width)
    per_batch_pricing = sum(len(set(seen[i:i + per_batch]))
                            for i in range(0, runs, per_batch))
    assert per_batch_pricing > 2 * len(set(seen))
    evaluate_policy(problem, b, dist, 2.0, "monte_carlo", stream(7, "once"), runs)
    assert len(priced) == len(set(seen))


def wide_laws(clients):
    """Laws over 40 clients, so a run's (drawn, realized) key takes 80 bits,
    two words.  Clients 24 on are realized only at key bits 64 and up, and
    the first 24 never (independent law) or all together: realized sets
    that differ in the second word alone are common."""
    low, mid, high = (frozenset(clients[:24]), frozenset(clients[24:32]),
                      frozenset(clients[32:]))
    return {
        "explicit": Explicit(((low, 0.2), (mid, 0.3), (high, 0.3), (frozenset(), 0.2))),
        "bernoulli": IndependentBernoulli(tuple((j, 0.0 if k < 24 else 0.15)
                                                for k, j in enumerate(clients))),
        "partition": KPartition((low, mid, high)),
    }


@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition"])
def test_keys_wider_than_one_word_match_loop(law, builder):
    clients = tuple(f"c{i}" for i in range(40))
    problem = set_cover_problem(clients, {f"e{i}": (j,) for i, j in enumerate(clients)},
                                {f"e{i}": float(1 + i % 3) for i in range(40)}, sigma=2.0)
    dist = wide_laws(clients)[law]
    b = builder_for(builder, problem)
    if builder == "ind_boost":  # rare boosted draws keep the policies few
        b = dataclasses.replace(b, marginals=tuple((j, 0.01) for j in clients))
    draw, _ = b.draw_law(dist, 2.0)
    assert len(draw.universe) + len(dist.universe) == 80
    assert_same(problem, b, dist, 2.0, 13, 600)


def test_empty_universe_matches_loop():
    problem = random_problem("set_cover", 3, 3, seed=0, sigma=2.0)
    dist = Explicit(((frozenset(), 1.0),))
    assert_same(problem, builder_for("boost", problem), dist, 2.0, 0, 500)


def failing_problem():
    """Set cover whose augmentation never serves client c3 or c4, and whose
    solver refuses any draw holding c1 and c2 together."""
    problem = set_cover_problem(
        clients=("c0", "c1", "c2", "c3", "c4"),
        sets={f"e{i}": (f"c{i}",) for i in range(5)},
        costs={f"e{i}": 1.0 for i in range(5)},
        sigma=2.0,
    )
    alg = algorithm_for(problem)

    def augment(problem, first, realized):
        return alg.augment(problem, first, realized - {"c3", "c4"})

    def solve(problem, drawn):
        if {"c1", "c2"} <= drawn:
            raise RuntimeError(f"refused draw {sorted(drawn)}")
        return alg.solve(problem, drawn)

    return problem, dataclasses.replace(alg, augment=augment, solve=solve)


@pytest.mark.parametrize("builder", ["boost", "ind_boost"])
@pytest.mark.parametrize("law", ["explicit", "bernoulli", "partition"])
@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_first_failure_is_the_loops(monkeypatch, law, builder, sigma):
    monkeypatch.setattr(boosting, "CHUNK", 64)
    problem, alg = failing_problem()
    dist = laws(problem.clients)[law]
    b = builder_for(builder, problem, alg)
    for seed in range(4):
        with pytest.raises(Exception) as want:
            loop_monte_carlo(problem, b, dist, sigma, stream(seed, "f"), 400)
        with pytest.raises(Exception) as got:
            evaluate_policy(problem, b, dist, sigma, "monte_carlo", stream(seed, "f"), 400)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("runs", [1, 0, -3])
def test_fewer_than_two_runs_are_refused_before_drawing(runs):
    problem = random_problem("set_cover", 3, 3, seed=0, sigma=2.0)
    dist = laws(problem.clients)["explicit"]
    rng = stream(0, "r")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least 2 runs"):
        evaluate_policy(problem, builder_for("boost", problem), dist, 2.0,
                        "monte_carlo", rng, runs)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("sigma, runs", [(1.0, caps.DRAWS + 1), (3.0, caps.DRAWS // 3 + 1),
                                         (caps.DRAWS + 1.0, 2)])
def test_cap_is_refused_before_drawing(sigma, runs):
    problem = random_problem("set_cover", 3, 3, seed=0, sigma=2.0)
    dist = laws(problem.clients)["explicit"]
    rng = stream(0, "r")
    before = rng.bit_generator.state
    with pytest.raises(CapExceeded):
        evaluate_policy(problem, builder_for("boost", problem), dist, sigma,
                        "monte_carlo", rng, runs)
    assert rng.bit_generator.state == before


def test_batches_bound_memory():
    # 20 clients and one round: 40 float variates per run, so 2^17 runs would
    # take 41.9 MB as one uniform matrix.  The batches keep the peak under 8 MB.
    clients = tuple(f"c{i}" for i in range(20))
    problem = set_cover_problem(clients, {f"e{i}": (j,) for i, j in enumerate(clients)},
                                {f"e{i}": 1.0 for i in range(20)}, sigma=1.0)
    dist = IndependentBernoulli(tuple((j, 0.001) for j in clients))
    builder = builder_for("boost", problem)
    runs = 1 << 17
    assert runs * 40 * 8 >= 32 * 10 ** 6
    assert runs <= caps.DRAWS
    tracemalloc.start()
    try:
        ev = evaluate_policy(problem, builder, dist, 1.0, "monte_carlo", stream(0, "m"), runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(ev.expected_cost)
    assert peak < 8 * 2 ** 20

"""Core model: distributions, the exact optimizer, and the property sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_min_cost, connected, powerset
from stocomb.boosting import IndBoostPolicyBuilder, ind_boost
from stocomb.errors import CapExceeded, Infeasible
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.model import (
    Explicit,
    IndependentBernoulli,
    KPartition,
    ProblemInstance,
    check_monotone_feasibility,
    check_subadditive,
    exact_opt,
)
from stocomb.rng import stream
from stocomb.solvers import algorithm_for


class TestSampling:
    def test_point_mass_on_empty(self):
        dist = Explicit(((frozenset(), 1.0),))
        rng = stream(0, "s")
        assert all(dist.sample(rng) == frozenset() for _ in range(50))

    def test_degenerate_marginals(self):
        dist = IndependentBernoulli((("j", 1.0), ("k", 0.0)))
        rng = stream(1, "s")
        assert all(dist.sample(rng) == frozenset({"j"}) for _ in range(50))

    def test_monte_carlo_frequency(self):
        # P(j in S) should come out 0.5 within 0.01 over 1e5 draws.
        dist = IndependentBernoulli((("j", 0.5),))
        rng = stream(2, "s")
        hits = sum("j" in dist.sample(rng) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_same_seed_same_draws(self):
        dist = IndependentBernoulli((("a", 0.3), ("b", 0.7), ("c", 0.5)))
        rng = stream(7, "x")
        first = [dist.sample(rng) for _ in range(20)]
        rng = stream(7, "x")
        second = [dist.sample(rng) for _ in range(20)]
        assert first == second

    def test_explicit_probabilities_must_normalize(self):
        with pytest.raises(ValueError):
            Explicit(((frozenset(), 0.5), (frozenset({"a"}), 0.4)))
        with pytest.raises(ValueError):
            Explicit(((frozenset(), 1.5), (frozenset({"a"}), -0.5)))

    def test_partition_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            KPartition((frozenset({"a"}), frozenset({"a", "b"})))

    def test_independent_clients_must_be_distinct(self):
        # A repeated client would be drawn twice, so "a" would appear with
        # probability 0.75 where its marginal says 0.5.
        with pytest.raises(ValueError, match="duplicate client ids"):
            IndependentBernoulli((("a", 0.5), ("a", 0.5)))
        with pytest.raises(ValueError, match="duplicate client ids"):
            IndependentBernoulli((("a", 0.5), ("b", 0.2), ("a", 0.1)))
        problem = cov3()
        with pytest.raises(ValueError, match="duplicate client ids"):
            ind_boost(IndBoostPolicyBuilder(problem, algorithm_for(problem),
                                            (("1", 0.5), ("1", 0.5))), stream(0, "dup"))


class TestSupport:
    def test_k_partition_support(self):
        dist = KPartition((frozenset({"a"}), frozenset({"b"})))
        assert dist.support() == [(frozenset({"a"}), 0.5),
                                  (frozenset({"b"}), 0.5)]

    def test_product_measure_support(self):
        dist = IndependentBernoulli((("a", 0.5), ("b", 0.5)))
        support = dict(dist.support())
        assert len(support) == 4
        assert all(abs(p - 0.25) < 1e-12 for p in support.values())

    def test_explicit_support_is_identity(self):
        outcomes = ((frozenset({"a"}), 0.3), (frozenset(), 0.7))
        assert Explicit(outcomes).support() == list(outcomes)

    def test_support_cap(self):
        big = IndependentBernoulli(tuple((f"c{i}", 0.5) for i in range(21)))
        with pytest.raises(CapExceeded):
            big.support()

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_support_probabilities_sum_to_one(self, marginals):
        dist = IndependentBernoulli(tuple((f"c{i}", p) for i, p in enumerate(marginals)))
        total = sum(p for _, p in dist.support())
        assert abs(total - 1.0) <= 1e-9

    def test_support_expectation_matches_monte_carlo(self):
        # Weighted expectation of |S| over the support vs a 1e5-draw estimate.
        dist = IndependentBernoulli((("a", 0.2), ("b", 0.8), ("c", 0.5)))
        exact = sum(p * len(s) for s, p in dist.support())
        rng = stream(3, "mc")
        draws = np.array([len(dist.sample(rng)) for _ in range(100_000)])
        sigma = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 3 * sigma + 1e-9


class TestExactOpt:
    def test_empty_clients(self, tri3_problem):
        sol = exact_opt(tri3_problem, frozenset())
        assert sol.chosen == frozenset() and sol.cost == 0.0

    def test_tri3_brute_force(self, tri3_problem):
        # Independent oracle: enumerate all 2^3 edge subsets with a
        # from-scratch connectivity check.
        edges = tri3_problem.payload["edges"]
        expected = brute_force_min_cost(
            tri3_problem.elements, tri3_problem.first_stage_cost,
            lambda F: connected([edges[e] for e in F], {"1", "3"}))
        assert expected == 2.0
        sol = exact_opt(tri3_problem, frozenset({"1", "3"}))
        assert sol.cost == expected
        assert sol.chosen == frozenset({"e12", "e23"})

    def test_infeasible_raises(self):
        p = cov3()
        trimmed = ProblemInstance(
            clients=p.clients, elements=("sA",),
            first_stage_cost={"sA": 1.0}, inflation=1.0,
            feasibility=p.feasibility, kind=p.kind, payload=p.payload)
        with pytest.raises(Infeasible):
            exact_opt(trimmed, frozenset({"3"}))

    def test_cost_monotone_in_clients(self):
        for problem in (tri3(), cov3(), edge1()[0]):
            cost = {S: exact_opt(problem, S).cost for S in powerset(problem.clients)}
            for S in cost:
                for T in cost:
                    if S <= T:
                        assert cost[S] <= cost[T] + 1e-9

    def test_lexicographic_tie_break(self):
        # Two disjoint unit-cost covers for the same client: the optimizer
        # must return the earlier element.
        from stocomb.problems import set_cover_problem

        p = set_cover_problem(("x",), {"s0": ("x",), "s1": ("x",)},
                              {"s0": 1.0, "s1": 1.0})
        assert exact_opt(p, frozenset({"x"})).chosen == frozenset({"s0"})


class TestChecks:
    def test_fixtures_are_subadditive(self):
        for problem in (tri3(), cov3(), edge1()[0]):
            assert check_subadditive(problem).ok

    def test_fixtures_have_monotone_oracles(self):
        for problem in (tri3(), cov3(), edge1()[0]):
            assert check_monotone_feasibility(problem).ok

    def test_identical_sets_pass_trivially(self, cov3_problem):
        report = check_subadditive(cov3_problem)
        assert report.ok and report.failure is None

    def test_adversarial_oracle_is_caught(self):
        # Non-monotone oracle rejecting supersets: each client is served by
        # exactly one specific element set, so the two optima cannot combine.
        def oracle(F, S):
            if not S:
                return True
            if S == frozenset({"a"}):
                return F == frozenset({"e1"})
            if S == frozenset({"b"}):
                return F == frozenset({"e2"})
            return F == frozenset({"e1"})

        problem = ProblemInstance(
            clients=("a", "b"), elements=("e1", "e2"),
            first_stage_cost={"e1": 1.0, "e2": 2.0}, inflation=1.0,
            feasibility=oracle, kind="custom")
        report = check_subadditive(problem)
        assert not report.ok
        assert "union" in report.failure
        assert not check_monotone_feasibility(problem).ok

    def test_cap_exceeded(self):
        from stocomb.problems import set_cover_problem

        clients = tuple(f"c{i}" for i in range(6))
        sets = {f"s{i}": (f"c{i}",) for i in range(6)}
        costs = {s: 1.0 for s in sets}
        with pytest.raises(CapExceeded):
            check_subadditive(set_cover_problem(clients, sets, costs))


class TestInstanceValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(clients=("a",), elements=("e",),
                            first_stage_cost={"e": -1.0}, inflation=1.0,
                            feasibility=lambda F, S: True)

    def test_inflation_below_one_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(clients=("a",), elements=("e",),
                            first_stage_cost={"e": 1.0}, inflation=0.5,
                            feasibility=lambda F, S: True)

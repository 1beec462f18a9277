"""Cost-share functions, ordered schemes, and their measured factors."""

import math

import pytest

from conftest import check_support, powerset, zero_shares
from stocomb import caps
from stocomb.errors import NotMonotone, NotSubmodular
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.model import exact_opt
from stocomb.setfun import cardinality, from_json, random_coverage, weighted_rank
from stocomb.sharing import (
    EXHAUSTIVE_ORDERS,
    OrderedCostShareScheme,
    check_fairness,
    check_scheme,
    equal_split_shares,
    marginal_scheme,
    measure_strictness,
    measure_unistrictness,
)
from stocomb.solvers import algorithm_for
from stocomb.rng import stream


class TestFairness:
    def test_zero_shares_pass(self, edge1_pair):
        problem, _ = edge1_pair
        assert check_fairness(zero_shares(), problem).ok

    def test_equal_split_is_tight(self):
        for problem in (tri3(), cov3(), edge1()[0]):
            xi = equal_split_shares(problem)
            assert check_fairness(xi, problem).ok
            for S in powerset(problem.clients):
                if S:
                    total = sum(xi(S, j) for j in S)
                    assert total == pytest.approx(exact_opt(problem, S).cost)

    def test_doubled_shares_fail(self, edge1_pair):
        problem, _ = edge1_pair

        def xi(S, j):
            return 2.0 * exact_opt(problem, S).cost / len(S) if j in S else 0.0

        report = check_fairness(xi, problem)
        assert not report.ok and "exceed" in report.failure

    def test_support_property(self):
        for problem in (tri3(), cov3(), edge1()[0]):
            assert check_support(equal_split_shares(problem), problem)
            assert check_support(zero_shares(), problem)


class TestStrictness:
    def test_single_element_instance(self, edge1_pair):
        problem, _ = edge1_pair
        alg = algorithm_for(problem)
        xi = equal_split_shares(problem)
        assert measure_strictness(xi, alg, problem) == pytest.approx(1.0)
        assert measure_unistrictness(xi, alg, problem) == pytest.approx(1.0)

    def test_halved_shares_double_the_ratio(self, edge1_pair):
        problem, _ = edge1_pair
        alg = algorithm_for(problem)
        xi = equal_split_shares(problem)

        def halved(S, j):
            return 0.5 * xi(S, j)

        assert measure_strictness(halved, alg, problem) == pytest.approx(2.0)
        assert measure_unistrictness(halved, alg, problem) == pytest.approx(2.0)

    def test_zero_shares_with_positive_augment_cost(self, edge1_pair):
        problem, _ = edge1_pair
        alg = algorithm_for(problem)
        assert measure_strictness(zero_shares(), alg, problem) == math.inf
        assert measure_unistrictness(zero_shares(), alg, problem) == math.inf

    def test_unistrictness_never_exceeds_strictness(self):
        for problem in (cov3(), tri3()):
            alg = algorithm_for(problem)
            xi = equal_split_shares(problem)
            assert (measure_unistrictness(xi, alg, problem)
                    <= measure_strictness(xi, alg, problem) + 1e-12)


class TestMarginalScheme:
    def test_modular_function_gives_unit_shares(self):
        scheme = marginal_scheme(cardinality(("a", "b", "c")), ("a", "b", "c"))
        for order in (("a", "b"), ("b", "a")):
            for i in order:
                assert scheme(i, frozenset(order), order) == pytest.approx(1.0)

    def test_rank_function_pays_first_arrival(self):
        f = weighted_rank({"a": 1.0, "b": 1.0}, 1.0)
        scheme = marginal_scheme(f, ("a", "b"))
        assert scheme("a", {"a", "b"}, ("a", "b")) == pytest.approx(1.0)
        assert scheme("b", {"a", "b"}, ("a", "b")) == pytest.approx(0.0)

    def test_telescoping_sum_equals_value(self):
        # Exhaustive check over all subsets and orderings of a random
        # coverage function on five items.
        import itertools

        ground = tuple(f"g{i}" for i in range(5))
        f = from_json(random_coverage(ground, stream(11, "cov")), ground)
        scheme = marginal_scheme(f, ground)
        for S in powerset(ground):
            if not S:
                continue
            for order in itertools.permutations(sorted(S)):
                total = sum(scheme(i, S, order) for i in order)
                assert total == pytest.approx(f(S), abs=1e-9)

    def test_rejects_non_monotone(self):
        values = {frozenset(): 0.0, frozenset({"a"}): 1.0,
                  frozenset({"b"}): 1.0, frozenset({"a", "b"}): 0.5}
        with pytest.raises(NotMonotone):
            marginal_scheme(lambda S: values[frozenset(S)], ("a", "b"))

    def test_rejects_non_submodular(self):
        values = {frozenset(): 0.0, frozenset({"a"}): 0.2,
                  frozenset({"b"}): 0.2, frozenset({"a", "b"}): 1.0}
        with pytest.raises(NotSubmodular):
            marginal_scheme(lambda S: values[frozenset(S)], ("a", "b"))


class TestCheckScheme:
    def test_marginal_cardinality(self):
        scheme = marginal_scheme(cardinality(("a", "b", "c")), ("a", "b", "c"))
        report = check_scheme(scheme, cardinality(("a", "b", "c")), ("a", "b", "c"))
        assert report.eta_hat == pytest.approx(1.0, abs=1e-9)
        assert report.beta_hat == pytest.approx(1.0, abs=1e-9)
        assert report.cross_monotone

    def test_marginal_rank(self):
        f = weighted_rank({"a": 1.0, "b": 1.0}, 1.0)
        scheme = marginal_scheme(f, ("a", "b"))
        report = check_scheme(scheme, f, ("a", "b"))
        assert (report.eta_hat, report.beta_hat, report.cross_monotone) == \
            (pytest.approx(1.0), pytest.approx(1.0), True)

    def test_zero_scheme_flags_infinite_beta(self):
        zero = OrderedCostShareScheme(chi=lambda i, S, o: 0.0, eta=1.0, beta=1.0)
        report = check_scheme(zero, cardinality(("a", "b")), ("a", "b"))
        assert report.beta_hat == math.inf
        assert report.witness is not None

    def test_marginal_schemes_on_random_submodular(self):
        for seed in range(10):
            ground = tuple(f"g{i}" for i in range(4))
            f = from_json(random_coverage(ground, stream(seed, "cov2")), ground)
            scheme = marginal_scheme(f, ground)
            report = check_scheme(scheme, f, ground)
            assert report.eta_hat <= 1 + 1e-9
            assert report.beta_hat <= 1 + 1e-9
            assert report.cross_monotone

    def test_sampled_orderings_of_the_full_ground_set(self):
        # At the cap, the full ground set is too large for every ordering
        # and gets SAMPLED_ORDERS seeded ones instead.
        ground = tuple(f"g{i}" for i in range(caps.SCHEME_CLIENTS))
        assert len(ground) > EXHAUSTIVE_ORDERS
        f = from_json(random_coverage(ground, stream(3, "cov6")), ground)
        scheme = marginal_scheme(f, ground)
        report = check_scheme(scheme, f, ground)
        assert report.eta_hat == pytest.approx(1.0, abs=1e-12)
        assert report.beta_hat == pytest.approx(1.0, abs=1e-12)
        assert report.cross_monotone
        assert check_scheme(scheme, f, ground) == report

    def test_non_cross_monotone_scheme_detected(self):
        # Shares that grow with the set size violate cross-monotonicity.
        bad = OrderedCostShareScheme(chi=lambda i, S, o: float(len(S)),
                                     eta=10.0, beta=10.0)
        report = check_scheme(bad, cardinality(("a", "b")), ("a", "b"))
        assert not report.cross_monotone

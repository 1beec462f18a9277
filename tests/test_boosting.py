"""Two-stage policies: exact hand values, enumeration oracles, feasibility."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from stocomb import caps
from stocomb.boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    TwoStagePolicy,
    boost_and_sample,
    evaluate_policy,
    exact_two_stage_opt,
    ind_boost,
    union_law,
)
from stocomb.errors import CapExceeded, Infeasible
from stocomb.fixtures import edge1, tri3
from stocomb.generate import random_explicit_distribution, random_problem
from stocomb.model import Explicit, IndependentBernoulli, KPartition, members

from conftest import loop_exact_opt, loop_union_draw_space
from stocomb.problems import set_cover_problem
from stocomb.rng import stream
from stocomb.solvers import algorithm_for


def two_client_chain():
    """Two disjoint single-element cover problems glued together."""
    return set_cover_problem(
        clients=("j1", "j2"),
        sets={"e1": ("j1",), "e2": ("j2",)},
        costs={"e1": 1.0, "e2": 1.0},
        sigma=2.0,
    )


class TestBoostAndSample:
    def test_point_mass_on_empty(self):
        problem, _ = edge1()
        alg = algorithm_for(problem)
        dist = Explicit(((frozenset(), 1.0),))
        policy = boost_and_sample(BoostPolicyBuilder(problem, alg), dist, stream(0, "b"))
        assert policy.first_stage == frozenset()
        assert policy.recourse(frozenset()) == frozenset()

    def test_deterministic_scenario(self):
        problem, _ = edge1()
        alg = algorithm_for(problem)
        dist = Explicit(((frozenset({"j"}), 1.0),))
        policy = boost_and_sample(BoostPolicyBuilder(problem, alg), dist, stream(1, "b"))
        assert policy.first_stage == frozenset({"e"})
        assert policy.cost(frozenset({"j"})) == pytest.approx(1.0)

    def test_edge1_exact_expected_cost(self):
        # Independent oracle: enumerate the four equally likely draw pairs
        # and both realizations by hand.
        problem, dist = edge1(q=0.5, sigma=2.0)
        alg = algorithm_for(problem)
        support = list(dist.outcomes)
        expected = 0.0
        for (d1, p1), (d2, p2) in itertools.product(support, repeat=2):
            union = d1 | d2
            first_cost = 1.0 if union else 0.0
            for realized, q in support:
                recourse = 0.0 if (union or not realized) else 1.0
                expected += p1 * p2 * q * (first_cost + 2.0 * recourse)
        assert expected == pytest.approx(1.0)

        builder = BoostPolicyBuilder(problem, alg)
        ev = evaluate_policy(builder, dist, mode="exact")
        assert ev.expected_cost == pytest.approx(expected, abs=1e-12)

    def test_draw_space_cap_is_exact(self, monkeypatch):
        # Round k of s outcomes over V costs s min(s^(k-1), 2^|V|, 2^s - 1),
        # compared in integers: eight outcomes over one client reach the
        # cap of 1000 exactly at 63 rounds, 8 + 62 * 16.
        monkeypatch.setattr(caps, "DRAWS", 1000)
        problem, _ = edge1()

        def law(sigma, dist):
            at_sigma = replace(problem, inflation=sigma)
            builder = BoostPolicyBuilder(at_sigma, algorithm_for(at_sigma))
            return union_law(*builder.draw_law(dist))

        eight = Explicit(tuple((frozenset({"j"}) if k else frozenset(), 0.125)
                               for k in range(8)))
        assert len(law(63.0, eight)) == 2
        with pytest.raises(CapExceeded):
            law(64.0, eight)
        # One outcome costs one per round: 1000 rounds are the cap.
        one = Explicit(((frozenset({"j"}), 1.0),))
        assert law(1000.0, one) == [(frozenset({"j"}), 1.0)]
        with pytest.raises(CapExceeded):
            union_law(one, 1001)
        # Two outcomes over three clients reach at most 2^2 - 1 unions, not
        # 2^3: 2 + 4 + 166 * 6 = 1002 is over, 2 + 4 + 165 * 6 = 996 is not.
        two = Explicit(((frozenset("ab"), 0.5), (frozenset("c"), 0.5)))
        assert len(union_law(two, 167)) == 3
        with pytest.raises(CapExceeded):
            union_law(two, 168)
        # The table after one round holds at most s unions: ten singletons
        # over ten clients cost 10 + 10 * 10 at two rounds and 10 + 100 +
        # 1000 at three, although 2^10 - 1 unions could be reached.
        singletons = Explicit(tuple((frozenset({f"c{k}"}), 0.1) for k in range(10)))
        assert len(union_law(singletons, 2)) == 10 + 45
        with pytest.raises(CapExceeded):
            union_law(singletons, 3)

    def test_twenty_singletons_over_twenty_clients_are_two_rounds_inside_the_cap(self):
        # 20 + 20 * 20 steps, as many as the 20^2 draw tuples once listed.
        law = Explicit(tuple((frozenset({f"c{k}"}), 0.05) for k in range(20)))
        unions = dict(union_law(law, 2))
        assert len(unions) == 20 + 190
        assert unions[frozenset({"c0"})] == pytest.approx(0.05 ** 2)
        assert unions[frozenset({"c0", "c1"})] == pytest.approx(2 * 0.05 ** 2)

    def test_monte_carlo_mode_brackets_exact(self):
        problem, dist = edge1(q=0.5, sigma=2.0)
        builder = BoostPolicyBuilder(problem, algorithm_for(problem))
        hits = 0
        for seed in range(100):
            ev = evaluate_policy(builder, dist, mode="monte_carlo",
                                 rng=stream(seed, "mc"), runs=10_000)
            if abs(ev.expected_cost - 1.0) <= ev.ci_halfwidth:
                hits += 1
        assert hits >= 99

    def test_non_integer_inflation(self):
        # floor(sigma) draws, but costs scale by the true sigma.
        problem, dist = edge1(q=0.5, sigma=2.5)
        alg = algorithm_for(problem)
        builder = BoostPolicyBuilder(problem, alg)
        space = dict(union_law(*builder.draw_law(dist)))
        assert space[frozenset({"j"})] == pytest.approx(0.75)  # two rounds
        ev = evaluate_policy(builder, dist, mode="exact")
        # P(drawn) * 1 + P(not drawn) * q * sigma
        assert ev.expected_cost == pytest.approx(0.75 + 0.25 * 0.5 * 2.5)

    def test_point_mass_exact_equals_single_run(self):
        problem, _ = edge1()
        alg = algorithm_for(problem)
        dist = Explicit(((frozenset({"j"}), 1.0),))
        builder = BoostPolicyBuilder(problem, alg)
        ev = evaluate_policy(builder, dist, mode="exact")
        policy = boost_and_sample(builder, dist, stream(2, "b"))
        assert ev.expected_cost == pytest.approx(
            policy.cost(frozenset({"j"})))


class TestIndBoost:
    def test_zero_marginals(self):
        problem, _ = edge1()
        alg = algorithm_for(problem)
        policy = ind_boost(IndBoostPolicyBuilder(problem, alg, (("j", 0.0),)),
                           stream(0, "i"))
        assert policy.first_stage == frozenset()

    def test_clamped_boost_always_serves(self):
        # sigma * pi = 1 after clamping, so the draw is always {j}.
        problem, _ = edge1()
        alg = algorithm_for(problem)
        builder = IndBoostPolicyBuilder(problem, alg, (("j", 0.5),))
        dist = IndependentBernoulli((("j", 0.5),))
        ev = evaluate_policy(builder, dist, mode="exact")
        assert ev.expected_cost == pytest.approx(1.0)
        assert union_law(*builder.draw_law(dist)) == [(frozenset({"j"}), 1.0)]

    def test_two_client_exact_enumeration(self):
        # Oracle: enumerate the 4 boost outcomes x 4 realizations directly.
        problem = two_client_chain()
        alg = algorithm_for(problem)
        marginals = (("j1", 0.25), ("j2", 0.25))
        boosted = 0.5  # min(1, 2 * 0.25)
        expected = 0.0
        for d_mask in range(4):
            drawn = frozenset(j for k, j in enumerate(("j1", "j2"))
                              if (d_mask >> k) & 1)
            p_draw = (boosted if "j1" in drawn else 1 - boosted) * \
                     (boosted if "j2" in drawn else 1 - boosted)
            first_cost = float(len(drawn))
            for s_mask in range(4):
                realized = frozenset(j for k, j in enumerate(("j1", "j2"))
                                     if (s_mask >> k) & 1)
                p_real = (0.25 if "j1" in realized else 0.75) * \
                         (0.25 if "j2" in realized else 0.75)
                patch = len(realized - drawn)
                expected += p_draw * p_real * (first_cost + 2.0 * patch)
        assert expected == pytest.approx(1.5)

        builder = IndBoostPolicyBuilder(problem, alg, marginals)
        dist = IndependentBernoulli(marginals)
        ev = evaluate_policy(builder, dist, mode="exact")
        assert ev.expected_cost == pytest.approx(expected, abs=1e-12)

    def test_policy_feasible_on_every_support_set(self):
        for seed in range(10):
            for kind in ("set_cover", "vertex_cover", "ufl", "steiner"):
                sizes = (3, 1) if kind == "ufl" else (3, 4)
                problem = random_problem(kind, *sizes, seed=seed, sigma=2.0)
                alg = algorithm_for(problem)
                marginals = tuple((j, 0.3) for j in problem.clients)
                builder = IndBoostPolicyBuilder(problem, alg, marginals)
                policy = ind_boost(builder, stream(seed, "feas"))
                for realized, _p in IndependentBernoulli(marginals).support():
                    patch = policy.recourse(realized)
                    assert problem.feasibility(policy.first_stage | patch,
                                               realized)


def test_infeasible_policy_is_reported():
    problem, _ = edge1()
    broken = TwoStagePolicy(problem=problem, first_stage=frozenset(),
                            recourse=lambda realized: frozenset())
    with pytest.raises(Infeasible):
        broken.cost(frozenset({"j"}))


class TestPartitionDistribution:
    def test_boost_over_partition_blocks(self):
        from stocomb.model import KPartition

        problem = two_client_chain()
        alg = algorithm_for(problem)
        dist = KPartition((frozenset({"j1"}), frozenset({"j2"})))
        builder = BoostPolicyBuilder(problem, alg)
        ev = evaluate_policy(builder, dist, mode="exact")
        # Oracle over the 4 equally likely (d1, d2) block pairs and 2
        # realizations: first stage covers the union, recourse covers the
        # realized singleton when missed.
        blocks = [frozenset({"j1"}), frozenset({"j2"})]
        expected = 0.0
        for d1 in blocks:
            for d2 in blocks:
                union = d1 | d2
                for realized in blocks:
                    miss = 0.0 if realized <= union else 1.0
                    expected += (len(union) + 2.0 * miss) / 8.0
        assert ev.expected_cost == pytest.approx(expected, abs=1e-12)
        # every first-stage choice ties at 2.0 here; ties go to the empty set
        opt = exact_two_stage_opt(problem, dist)
        assert opt.value == pytest.approx(2.0)
        assert opt.first_stage == frozenset()


class TestTwoStageOptimum:
    def test_point_mass_on_empty(self):
        problem, _ = edge1()
        dist = Explicit(((frozenset(), 1.0),))
        opt = exact_two_stage_opt(problem, dist)
        assert opt.value == 0.0 and opt.first_stage == frozenset()

    def test_edge1_closed_form(self):
        # Z* = min(first-stage buy, sigma * q): two-candidate enumeration.
        problem, _ = edge1()
        for q in (0.2, 0.5, 0.9):
            dist = Explicit(((frozenset({"j"}), q), (frozenset(), 1 - q)))
            opt = exact_two_stage_opt(problem, dist)
            assert opt.value == pytest.approx(min(1.0, 2.0 * q))

    def test_tri3_against_independent_enumeration(self):
        problem = tri3(sigma=3.0)
        dist = Explicit(((frozenset({"1", "3"}), 0.5), (frozenset(), 0.5)))
        # Oracle: enumerate first-stage edge sets; recourse via the
        # per-subset exact optimum on top of each.
        best = None
        for r in range(4):
            for first in itertools.combinations(problem.elements, r):
                first = frozenset(first)
                value = problem.cost(first)
                value += 3.0 * 0.5 * loop_exact_opt(problem, frozenset({"1", "3"}),
                                                    base=first).cost
                if best is None or value < best - 1e-12:
                    best = value
        opt = exact_two_stage_opt(problem, dist)
        assert opt.value == pytest.approx(best)

    def test_cap_guard(self):
        problem, _ = edge1()
        big = IndependentBernoulli(tuple((f"x{i}", 0.5) for i in range(21)))
        with pytest.raises(CapExceeded):
            exact_two_stage_opt(problem, big)


class TestProcessEquivalence:
    """The two ways of generating (draw union, realization) agree exactly."""

    @staticmethod
    def law_direct(support, rounds):
        law = {}
        for combo in itertools.product(support, repeat=rounds):
            union = frozenset().union(*(s for s, _ in combo)) if combo else frozenset()
            p = 1.0
            for _, q in combo:
                p *= q
            for realized, q in support:
                key = (union, realized)
                law[key] = law.get(key, 0.0) + p * q
        return law

    @staticmethod
    def law_holdout(support, rounds):
        law = {}
        k = rounds + 1
        for combo in itertools.product(support, repeat=k):
            p = 1.0
            for _, q in combo:
                p *= q
            for t in range(k):
                realized = combo[t][0]
                rest = [combo[i][0] for i in range(k) if i != t]
                union = frozenset().union(*rest) if rest else frozenset()
                key = (union, realized)
                law[key] = law.get(key, 0.0) + p / k
        return law

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_joint_tables_match(self, sigma):
        for seed in range(8):
            clients = tuple(f"c{i}" for i in range(3))
            dist = random_explicit_distribution(clients, seed)
            support = list(dist.outcomes)
            direct = self.law_direct(support, sigma)
            holdout = self.law_holdout(support, sigma)
            keys = set(direct) | set(holdout)
            for key in keys:
                assert direct.get(key, 0.0) == pytest.approx(
                    holdout.get(key, 0.0), abs=1e-12)

    def test_builder_draw_space_matches_direct_law(self):
        # The enumerated draw space is the marginal of the direct law.
        problem, dist = edge1(q=0.5, sigma=2.0)
        builder = BoostPolicyBuilder(problem, algorithm_for(problem))
        space = dict(union_law(*builder.draw_law(dist)))
        direct = self.law_direct(list(dist.outcomes), 2)
        marginal = {}
        for (union, _s), p in direct.items():
            marginal[union] = marginal.get(union, 0.0) + p
        assert set(space) == set(marginal)
        for key in space:
            assert space[key] == pytest.approx(marginal[key], abs=1e-12)


def seeded_laws(seed: int):
    """An explicit law (repeated outcomes and zero weights allowed), a
    k-partition (empty blocks allowed) and a product law with marginals 0
    and 1 mixed in, all from one seed."""
    rng = np.random.default_rng(seed)
    clients = ("a", "b", "c", "d")
    masks = rng.integers(16, size=int(rng.integers(1, 4)))
    weights = rng.uniform(0.1, 1.0, masks.size) * (rng.random(masks.size) > 0.2)
    weights[0] += 0.1
    yield Explicit(tuple((frozenset(members(int(m), clients)), float(w))
                         for m, w in zip(masks, weights / weights.sum())))
    labels = rng.integers(int(rng.integers(1, 4)), size=len(clients))
    yield KPartition(tuple(frozenset(c for c, b in zip(clients, labels) if b == k)
                           for k in range(labels.max() + 1 + seed % 2)))
    yield IndependentBernoulli(tuple(
        (j, float(rng.choice([0.0, 1.0, rng.uniform()])))
        for j in clients[:1 + seed % 2]))


class TestUnionLaw:
    """The OR-convolution against the enumeration of every draw tuple."""

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 2.5, 3.0, 5.0, 8.0])
    def test_matches_the_enumeration(self, sigma):
        rounds = int(sigma)
        for seed in range(8):
            for law in seeded_laws(seed):
                want = {u: w for u, w in loop_union_draw_space(law, rounds).items()
                        if w > 0.0}
                got = dict(union_law(law, rounds))
                assert set(got) == set(want)
                for union, w in got.items():
                    assert w == pytest.approx(want[union], rel=0, abs=1e-12)
                outcomes = [s for s, _ in law.support()]
                if rounds <= 2 and len(set(outcomes)) == len(outcomes):
                    assert got == want  # the same products, summed in order

    def test_support_size_is_what_support_lists(self):
        for seed in range(8):
            for law in seeded_laws(seed):
                assert law.support_size == len(law.support())

    def test_a_draw_of_weight_zero_is_never_built(self):
        # The only set covers c0, so a policy for the draw {c1} would be
        # infeasible; that draw has weight 0 and is left out.
        problem = set_cover_problem(clients=("c0", "c1"), sets={"s0": ("c0",)},
                                    costs={"s0": 1.0}, sigma=2.0)
        dist = Explicit(((frozenset(), 0.5), (frozenset({"c0"}), 0.5),
                         (frozenset({"c1"}), 0.0)))
        builder = BoostPolicyBuilder(problem, algorithm_for(problem))
        assert union_law(*builder.draw_law(dist)) == [
            (frozenset(), 0.25), (frozenset({"c0"}), 0.75)]
        # 0.25 * 0.5 * (0 + 2 * 1) for the empty draw, 0.75 * 1 for {c0}.
        assert evaluate_policy(builder, dist).expected_cost == 1.0

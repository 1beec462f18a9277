"""A policy's recourse, computed once: repriced copies, per-target
augmentation and a first stage priced once, against the loops they replaced.

``evaluate_policy`` must give ``loop_evaluate_policy``'s value bit for bit in
both modes and raise its first exception; a builder must augment once per
distinct (first stage, target) pair; and a ``with_free_elements`` copy must answer every
solver and ``exact_opt`` as a ``dataclasses.replace`` copy does.
"""

import dataclasses
import functools
import itertools

import pytest

from conftest import loop_evaluate_policy
from stocomb import solvers
from stocomb.boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    evaluate_policy,
    union_law,
)
from stocomb.errors import Infeasible, NumericalFailure
from stocomb.generate import (
    random_explicit_distribution,
    random_marginals,
    random_problem,
)
from stocomb.model import Solution, client_sets, exact_opt, members
from stocomb.rng import stream
from stocomb.solvers import algorithm_for

KINDS = ("steiner", "set_cover", "vertex_cover", "ufl")


def instance(kind, seed, sigma):
    sizes = (3, 2) if kind == "ufl" else (4, 6)
    return random_problem(kind, *sizes, seed=seed, sigma=sigma)


def builders(problem, alg=None):
    """Both families on ``problem``; independent boosting takes the
    marginals of the problem's random independent law."""
    alg = alg or algorithm_for(problem)
    marginals = random_marginals(problem.clients, 7).marginals
    return {"boost": BoostPolicyBuilder(problem, alg),
            "ind_boost": IndBoostPolicyBuilder(problem, alg, marginals)}


def laws(problem, seed):
    return {"explicit": random_explicit_distribution(problem.clients, seed),
            "independent": random_marginals(problem.clients, seed)}


def outcome(call):
    """(value fields, None) or (None, (exception type, message))."""
    try:
        ev = call()
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is compared
        return None, (type(exc), str(exc))
    return (ev.expected_cost.hex(), ev.mode,
            None if ev.ci_halfwidth is None else ev.ci_halfwidth.hex()), None


# -- evaluate_policy against the per-pair loop --------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("law", ["explicit", "independent"])
def test_exact_evaluation_is_the_per_pair_loop(kind, sigma, law):
    for seed in range(2):
        problem = instance(kind, seed, sigma)
        dist = laws(problem, seed)[law]
        for builder in builders(problem).values():
            got = evaluate_policy(builder, dist, "exact")
            want = loop_evaluate_policy(builder, dist, "exact")
            assert got == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("law", ["explicit", "independent"])
def test_monte_carlo_evaluation_is_the_run_by_run_loop(kind, sigma, law):
    problem = instance(kind, 3, sigma)
    dist = laws(problem, 3)[law]
    for name, builder in builders(problem).items():
        for seed in (0, 1):
            rng, oracle_rng = stream(seed, name), stream(seed, name)
            got = evaluate_policy(builder, dist, "monte_carlo", rng, 300)
            want = loop_evaluate_policy(builder, dist, "monte_carlo", oracle_rng, 300)
            assert got == want
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def refusing(problem, refused):
    """``problem`` with an oracle that refuses to serve ``refused``."""
    feasible = problem.feasibility
    return dataclasses.replace(
        problem, feasibility=lambda F, S: S != refused and feasible(F, S))


def all_elements(alg):
    """``alg`` whose solver buys every element and never sums a price, so a
    first stage past the float range first overflows where it is priced."""
    def solve(problem, clients):
        return Solution(frozenset(problem.elements), 0.0)

    bought = dataclasses.replace(alg, solve=solve)
    return dataclasses.replace(bought, augment=functools.partial(solvers.augment, bought))


def huge(problem):
    """``problem`` with every price just under 1e308: two of them overflow."""
    return dataclasses.replace(problem, first_stage_cost={
        e: 0.9e308 for e in problem.elements})


@pytest.mark.parametrize("case", ["refused", "huge", "both"])
@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_first_failure_is_the_loops(case, mode):
    failures = set()
    for kind, seed in itertools.product(KINDS, range(2)):
        problem = instance(kind, seed, 2.0)
        dist = laws(problem, seed)["explicit"]
        alg = algorithm_for(problem)
        if case != "huge":  # the first realization exact evaluation prices
            problem = refusing(problem, next(s for s, p in dist.outcomes if p > 0.0))
        if case != "refused":
            problem, alg = huge(problem), all_elements(alg)
        for name, builder in builders(problem, alg).items():
            got = outcome(lambda: evaluate_policy(builder, dist, mode,
                                                  stream(seed, name), 200))
            want = outcome(lambda: loop_evaluate_policy(builder, dist, mode,
                                                        stream(seed, name), 200))
            assert got == want
            if got[1] is not None:
                failures.add(got[1][0])
    # Exact evaluation asks the oracle about its first pair before it prices
    # the first stage, so there the refusal comes first.
    assert failures == {"refused": {Infeasible}, "huge": {NumericalFailure},
                        "both": {Infeasible} if mode == "exact"
                        else {Infeasible, NumericalFailure}}[case]


# -- One augmentation per (first stage, target) pair ----------------------------

def counting(alg):
    """``alg`` with its ``augment`` recording each (base, target) pair, and
    the list."""
    pairs = []

    def augment(problem, base, clients):
        pairs.append((frozenset(base), frozenset(clients)))
        return alg.augment(problem, base, clients)

    return dataclasses.replace(alg, augment=augment), pairs


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_each_policy_augments_once_per_target(kind, sigma):
    problem = instance(kind, 1, sigma)
    dist = laws(problem, 1)["independent"]
    support = [s for s, _ in dist.support()]
    assert all(p > 0.0 for _, p in dist.support())
    alg, pairs = counting(algorithm_for(problem))
    for name, builder in builders(problem, alg).items():
        pairs.clear()
        want = set()
        for drawn, _ in union_law(*builder.draw_law(dist)):
            policy = builder.policy(drawn)
            for realized in support + support:
                policy.recourse(realized)
            if name == "boost":
                targets = set(support)
            else:  # the draw is asked for by each drawn client, augmented once
                targets = {drawn | {j} for j in problem.clients}
            want |= {(policy.first_stage, target) for target in targets}
        # Draws that share a first stage share its augmentations.
        assert len(pairs) == len(want) > 0 and set(pairs) == want
        # Exact evaluation asks every policy every realization: on a fresh
        # builder that is each distinct pair once, and on the same builder
        # again it is none.
        fresh = builders(problem, alg)[name]
        pairs.clear()
        evaluate_policy(fresh, dist, "exact")
        assert len(pairs) == len(want) and set(pairs) == want
        pairs.clear()
        evaluate_policy(fresh, dist, "exact")
        assert pairs == []


@pytest.mark.parametrize("name", ["boost", "ind_boost"])
def test_replaced_builder_starts_with_empty_memos(name):
    problem = instance("set_cover", 2, 2.0)
    dist = laws(problem, 2)["independent"]
    alg, pairs = counting(algorithm_for(problem))
    builder = builders(problem, alg)[name]
    assert [f.name for f in dataclasses.fields(builder) if not f.init] == [
        "_policies", "_augments"]
    evaluate_policy(builder, dist, "exact")
    asked = list(pairs)
    drawn = next(iter(builder._policies))
    policy = builder.policy(drawn)
    copy = (dataclasses.replace(builder) if name == "boost"
            else dataclasses.replace(builder, marginals=builder.marginals))
    assert copy == builder and not copy._policies and not copy._augments
    pairs.clear()
    evaluate_policy(copy, dist, "exact")
    assert pairs == asked and asked
    assert builder.policy(drawn) is policy
    assert copy.policy(drawn) is not policy
    assert copy.policy(drawn).first_stage == policy.first_stage


def test_independent_draw_is_augmented_once_for_all_its_clients():
    problem = instance("set_cover", 2, 1.0)
    alg, pairs = counting(algorithm_for(problem))
    builder = IndBoostPolicyBuilder(problem, alg, tuple((j, 0.5) for j in problem.clients))
    drawn = frozenset(problem.clients[:3])
    builder.policy(drawn).recourse(frozenset(problem.clients))
    targets = [target for _, target in pairs]
    assert targets.count(drawn) == 1
    assert len(targets) == len(set(targets)) == len(problem.clients) - 2


# -- Repriced copies -----------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_repriced_copy_answers_as_a_replaced_copy(kind):
    for seed in range(3):
        problem = instance(kind, seed, 2.0)
        alg = algorithm_for(problem)
        subsets = client_sets(problem, "repricing")
        served, prices = problem._served_table, problem._prices  # before copying
        rng = stream(seed, "free")
        for _ in range(4):
            mask = int(rng.integers(1 << len(problem.elements)))
            free = frozenset(members(mask, problem.elements))
            copy = problem.with_free_elements(free)
            replaced = dataclasses.replace(problem, first_stage_cost={
                e: 0.0 if e in free else problem.first_stage_cost[e]
                for e in problem.elements})
            assert copy == replaced
            assert "_prices" not in copy.__dict__
            for S in subsets:
                assert exact_opt(copy, S) == exact_opt(replaced, S)
                assert alg.solve(copy, S) == alg.solve(replaced, S)
            assert copy._served_table is served
            assert copy._prices is not prices and "_prices" in copy.__dict__
            assert (copy._prices == replaced._prices).all()
            assert problem._prices is prices


def test_structure_is_built_once_for_every_copy(monkeypatch):
    calls = []
    graph = solvers._steiner_graph
    monkeypatch.setattr(solvers, "_steiner_graph",
                        lambda problem: calls.append(1) or graph(problem))
    problem = instance("steiner", 0, 1.0)
    alg = algorithm_for(problem)
    base = alg.solve(problem, frozenset(problem.clients[:2])).chosen
    for S in client_sets(problem, "structure"):
        alg.augment(problem, base, S)
        alg.augment(problem.with_free_elements(base), frozenset(), S)
    assert len(calls) == 1
    fresh = dataclasses.replace(problem)
    alg.solve(fresh, frozenset(problem.clients))
    assert len(calls) == 2

"""Boosted-sampling policies and their exact / Monte-Carlo evaluation.

Two policy families: the union-of-samples policy draws floor(sigma)
scenarios, serves their union up front, and augments to each realized set;
the independent variant boosts every client's marginal by sigma (clamped at
one), serves the boosted draw, and augments per realized client.  Exact
evaluation integrates over both the algorithm's own sampling randomness and
the scenario realization; the exhaustive two-stage optimum provides the
denominator for the approximation-ratio checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import caps
from ._kernels import bernoulli_weights
from .errors import CapExceeded, Infeasible
from .model import (
    IndependentBernoulli,
    ProblemInstance,
    ScenarioDistribution,
    Solution,
    enumerate_support,
    exact_opt,
    members,
    sample,
)
from .solvers import ApproxAlgorithm


@dataclass(frozen=True)
class TwoStagePolicy:
    """A first-stage purchase plus a recourse rule for realized clients."""

    first_stage: frozenset
    recourse: Callable[[frozenset], frozenset]


@dataclass(frozen=True)
class PolicyEvaluation:
    expected_cost: float
    mode: str  # "exact" | "monte_carlo"
    ci_halfwidth: float | None = None


@dataclass(frozen=True)
class TwoStageOptimum:
    value: float
    first_stage: frozenset


def _rounds(sigma: float) -> int:
    """floor(sigma) sampling rounds; more than ``caps.DRAWS`` are refused."""
    if not sigma < caps.DRAWS + 1:
        raise CapExceeded(f"sigma {sigma!r} asks for more than {caps.DRAWS} "
                          "sampling rounds")
    return int(math.floor(sigma))


@dataclass(frozen=True)
class BoostPolicyBuilder:
    """Union-of-samples policies: draw floor(sigma) scenarios, serve the union."""

    problem: ProblemInstance
    alg: ApproxAlgorithm

    def draws_per_run(self, sigma: float) -> int:
        return max(1, _rounds(sigma))

    def sample_draw(self, dist: ScenarioDistribution, sigma: float, rng) -> frozenset:
        rounds = _rounds(sigma)
        drawn: frozenset = frozenset()
        for _ in range(rounds):
            drawn |= sample(dist, rng)
        return drawn

    def draw_space(self, dist: ScenarioDistribution, sigma: float):
        """Distribution of the union of floor(sigma) independent samples."""
        rounds = _rounds(sigma)
        support = enumerate_support(dist)
        # Any support of two or more outcomes passes the cap within
        # DRAWS.bit_length() rounds, so the exponent is clipped there and
        # the size is compared exactly without building a huge integer.
        exponent = min(max(rounds, 1), caps.DRAWS.bit_length())
        if len(support) ** exponent > caps.DRAWS:
            raise CapExceeded("sampling-draw space too large to enumerate")
        law: dict = {}
        for combo in itertools.product(support, repeat=rounds):
            union: frozenset = frozenset()
            p = 1.0
            for s, q in combo:
                union |= s
                p *= q
            law[union] = law.get(union, 0.0) + p
        if not law:
            law[frozenset()] = 1.0
        return sorted(law.items(), key=lambda kv: sorted(map(str, kv[0])))

    def policy(self, drawn: frozenset) -> TwoStagePolicy:
        first = self.alg.solve(self.problem, drawn).chosen

        @functools.cache
        def build(realized: frozenset) -> frozenset:
            return self.alg.augment(self.problem, first, realized).chosen

        return TwoStagePolicy(first, build)


@dataclass(frozen=True)
class IndBoostPolicyBuilder:
    """Independent boosting: include client j with probability min(1, sigma p_j).

    Recourse serves each realized client by augmenting toward the boosted
    draw plus that client, and takes the union of the per-client patches.
    """

    problem: ProblemInstance
    alg: ApproxAlgorithm
    marginals: tuple

    def boosted(self, sigma: float) -> list[tuple]:
        return [(j, min(1.0, sigma * p)) for j, p in self.marginals]

    def draws_per_run(self, sigma: float) -> int:
        return 1

    def sample_draw(self, dist, sigma: float, rng) -> frozenset:
        return frozenset(j for j, p in self.boosted(sigma) if rng.random() < p)

    def draw_space(self, dist, sigma: float):
        boosted = self.boosted(sigma)
        if 2 ** len(boosted) > caps.DRAWS:
            raise CapExceeded("boosted-draw space too large to enumerate")
        clients = tuple(j for j, _ in boosted)
        weights = bernoulli_weights(np.array([p for _, p in boosted]))
        return [(frozenset(members(mask, clients)), float(w))
                for mask, w in enumerate(weights) if w > 0.0]

    def policy(self, drawn: frozenset) -> TwoStagePolicy:
        first = self.alg.solve(self.problem, drawn).chosen

        @functools.cache
        def patch(j) -> frozenset:
            return self.alg.augment(self.problem, first, drawn | {j}).chosen

        @functools.cache
        def build(realized: frozenset) -> frozenset:
            out: frozenset = frozenset()
            for j in realized:
                out |= patch(j)
            return out

        return TwoStagePolicy(first, build)


def boost_and_sample(problem: ProblemInstance, alg: ApproxAlgorithm,
                     dist: ScenarioDistribution, rng,
                     sigma: float | None = None) -> TwoStagePolicy:
    """One seeded run of the union-of-samples policy."""
    if sigma is None:
        sigma = problem.inflation
    builder = BoostPolicyBuilder(problem, alg)
    return builder.policy(builder.sample_draw(dist, sigma, rng))


def ind_boost(problem: ProblemInstance, alg: ApproxAlgorithm,
              marginals, sigma: float, rng) -> TwoStagePolicy:
    """One seeded run of the independent boosting policy."""
    if isinstance(marginals, IndependentBernoulli):
        marginals = marginals.marginals
    builder = IndBoostPolicyBuilder(problem, alg, tuple(marginals))
    return builder.policy(builder.sample_draw(None, sigma, rng))


def policy_cost(problem: ProblemInstance, policy: TwoStagePolicy,
                realized: frozenset, sigma: float) -> float:
    """First-stage cost plus inflated recourse cost for one realization."""
    patch = policy.recourse(realized)
    if not problem.feasibility(policy.first_stage | patch, realized):
        raise Infeasible(
            f"policy does not serve realization {sorted(map(str, realized))}")
    return problem.cost(policy.first_stage) + sigma * problem.cost(patch)


def evaluate_policy(problem: ProblemInstance, builder, dist: ScenarioDistribution,
                    sigma: float | None = None, mode: str = "exact",
                    rng=None, runs: int = 10_000) -> PolicyEvaluation:
    """Expected two-stage cost of the builder's policy family.

    Exact mode enumerates the builder's own draw space against the scenario
    support.  Monte-Carlo mode replays ``runs`` independent (draw,
    realization) pairs and reports a 99% confidence halfwidth; it refuses
    more than ``caps.DRAWS`` sampling draws in all before drawing any.
    """
    if sigma is None:
        sigma = problem.inflation
    if mode == "exact":
        support = enumerate_support(dist)
        total = 0.0
        for drawn, p_draw in builder.draw_space(dist, sigma):
            policy = builder.policy(drawn)
            for realized, p_real in support:
                if p_real == 0.0:
                    continue
                total += p_draw * p_real * policy_cost(problem, policy, realized, sigma)
        return PolicyEvaluation(total, "exact")
    if mode != "monte_carlo":
        raise ValueError(f"unknown evaluation mode {mode!r}")
    draws = runs * builder.draws_per_run(sigma)
    if draws > caps.DRAWS:
        raise CapExceeded(f"{draws} Monte-Carlo sampling draws exceed {caps.DRAWS}")
    if rng is None:
        raise ValueError("monte_carlo mode needs a random generator")
    policies: dict = {}
    costs = np.empty(runs)
    for t in range(runs):
        drawn = builder.sample_draw(dist, sigma, rng)
        if drawn not in policies:
            policies[drawn] = builder.policy(drawn)
        realized = sample(dist, rng)
        costs[t] = policy_cost(problem, policies[drawn], realized, sigma)
    mean = float(costs.mean())
    half = 2.5758293035489004 * float(costs.std(ddof=1)) / math.sqrt(runs)
    return PolicyEvaluation(mean, "monte_carlo", half)


def exact_two_stage_opt(problem: ProblemInstance, dist: ScenarioDistribution,
                        sigma: float | None = None) -> TwoStageOptimum:
    """Exhaustive two-stage optimum.

    Minimizes first-stage cost plus sigma times the expected exact
    augmentation cost over every first-stage element subset; ties go to the
    lexicographically smallest subset.
    """
    if sigma is None:
        sigma = problem.inflation
    support = enumerate_support(dist)
    n = len(problem.elements)
    if (1 << n) * max(len(support), 1) > caps.TWO_STAGE:
        raise CapExceeded("two-stage search space exceeds the cap")
    best = None
    for mask in range(1 << n):
        first = frozenset(members(mask, problem.elements))
        value = problem.cost(first)
        feasible = True
        for realized, p in support:
            if p == 0.0:
                continue
            try:
                value += sigma * p * exact_opt(problem, realized, base=first).cost
            except Infeasible:
                feasible = False
                break
        if not feasible:
            continue
        key = members(mask, range(n))  # the index tuple of ``first``
        if best is None or value < best[0] - 1e-12 or (
                value < best[0] + 1e-12 and key < best[1]):
            best = (value, key, first)
    if best is None:
        raise Infeasible("no first-stage set admits feasible recourse everywhere")
    return TwoStageOptimum(best[0], best[2])

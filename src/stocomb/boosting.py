"""Boosted-sampling policies and their exact / Monte-Carlo evaluation.

Both policy families read sigma, the inflation factor, from the problem.
The union-of-samples policy draws floor(sigma) scenarios, serves their
union up front, and augments to each realized set; the independent variant
boosts every client's marginal by sigma (clamped at one), serves the
boosted draw, and augments per realized client toward the draw plus that
client.  A builder owns a run's work: it solves each draw's first stage
once and augments each (first stage, target) once, for its seeded run,
evaluation and records alike.  A policy prices a realization itself
(``TwoStagePolicy.cost``), summing its first stage once.  Exact evaluation
integrates over the algorithm's sampling and the scenario realization; the
exhaustive two-stage optimum is the approximation ratio's denominator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import caps
from .errors import CapExceeded, Infeasible
from .model import (
    CHUNK,
    IndependentBernoulli,
    ProblemInstance,
    ScenarioDistribution,
    _cheapest_solution,
    _price_table,
    cheapest,
    exact_opt,  # noqa: F401 - kept importable: tracers patch it here by name
    feasible_table,
    members,
    subset_table,
)
from .solvers import ApproxAlgorithm


@dataclass(frozen=True)
class TwoStagePolicy:
    """A first-stage purchase on ``problem`` plus a recourse rule for realized
    clients."""

    problem: ProblemInstance
    first_stage: frozenset
    recourse: Callable[[frozenset], frozenset]

    @functools.cached_property
    def first_cost(self) -> float:
        """``problem.cost(first_stage)``, summed at the first pricing."""
        return self.problem.cost(self.first_stage)

    def cost(self, realized: frozenset) -> float:
        """First-stage cost plus inflated recourse cost for one realization."""
        patch = self.recourse(realized)
        if not self.problem.feasibility(self.first_stage | patch, realized):
            raise Infeasible(
                f"policy does not serve realization {sorted(map(str, realized))}")
        return self.first_cost + self.problem.inflation * self.problem.cost(patch)


@dataclass(frozen=True)
class PolicyEvaluation:
    expected_cost: float
    mode: str  # "exact" | "monte_carlo"
    ci_halfwidth: float | None = None


@dataclass(frozen=True)
class TwoStageOptimum:
    value: float
    first_stage: frozenset


def union_law(law: ScenarioDistribution, rounds: int) -> list[tuple]:
    """The positive-weight law of the union of ``rounds`` independent draws
    of ``law`` by OR-convolution, law(U | S) += law(U) p(S) once per round,
    in first-reached order.  With s outcomes listed over n clients, round k
    passes over a table of at most min(s^(k-1), 2^n, 2^s - 1) unions at a
    cost of s each; more than ``caps.DRAWS`` in all is refused before
    ``support`` is read."""
    s = law.support_size
    work, table = 0, 1
    for k in range(rounds):
        work += s * table
        if work > caps.DRAWS:
            break
        grown = min(table * s, 1 << len(law.universe), (1 << s) - 1)
        if grown == table:  # every later round costs as much as this one
            work += (rounds - k - 1) * s * table
            break
        table = grown
    if work > caps.DRAWS:
        raise CapExceeded(f"the union of {rounds} draws of {s} outcomes is too large")
    support = law.support()
    out = {frozenset(): 1.0}
    for _ in range(rounds):
        prev, out = out, {}
        for union, w in prev.items():
            for drawn, q in support:
                out[union | drawn] = out.get(union | drawn, 0.0) + w * q
    return [(union, w) for union, w in out.items() if w > 0.0]


@dataclass(frozen=True)
class _PolicyBuilder:
    """A policy family on ``problem`` and its memos, empty in a new or
    ``dataclasses.replace``d builder: each draw's policy, and each (first
    stage, target) augmentation.  A policy's recourse holds the augmentation
    memo but not the builder, so no reference cycle forms."""

    problem: ProblemInstance
    alg: ApproxAlgorithm
    _policies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _augments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def policy(self, drawn: frozenset) -> TwoStagePolicy:
        if drawn not in self._policies:
            problem, alg, memo = self.problem, self.alg, self._augments
            first = alg.solve(problem, drawn).chosen

            def augment(target: frozenset) -> frozenset:
                if (first, target) not in memo:
                    memo[first, target] = alg.augment(problem, first, target).chosen
                return memo[first, target]

            self._policies[drawn] = TwoStagePolicy(problem, first,
                                                   self._recourse(drawn, augment))
        return self._policies[drawn]


@dataclass(frozen=True)
class BoostPolicyBuilder(_PolicyBuilder):
    """Union-of-samples policies: draw floor(sigma) scenarios, serve the union."""

    def draw_law(self, dist: ScenarioDistribution):
        """(law, rounds): a draw is the union of ``rounds`` samples of ``law``,
        floor(sigma) of them; more than ``caps.DRAWS`` are refused."""
        sigma = self.problem.inflation
        if not sigma < caps.DRAWS + 1:
            raise CapExceeded(f"sigma {sigma!r} asks for more than {caps.DRAWS} "
                              "sampling rounds")
        return dist, int(math.floor(sigma))

    @staticmethod
    def _recourse(drawn, augment):
        return augment  # augment to the realized set itself


@dataclass(frozen=True)
class IndBoostPolicyBuilder(_PolicyBuilder):
    """Independent boosting: include client j with probability min(1, sigma p_j).

    Recourse serves each realized client by augmenting toward the boosted
    draw plus that client, and takes the union of the per-client patches.
    """

    marginals: tuple

    def draw_law(self, dist):
        """(law, 1): a draw is one sample of the boosted product law."""
        sigma = self.problem.inflation
        return IndependentBernoulli(
            [(j, min(1.0, sigma * p)) for j, p in self.marginals]), 1

    @staticmethod
    def _recourse(drawn, augment):
        return lambda realized: frozenset().union(*(augment(drawn | {j}) for j in realized))


def boost_and_sample(builder: BoostPolicyBuilder, dist, rng) -> TwoStagePolicy:
    """One seeded run of the union-of-samples policy, from ``builder``'s memo."""
    law, rounds = builder.draw_law(dist)
    return builder.policy(law.sample(rng, rounds))


def ind_boost(builder: IndBoostPolicyBuilder, rng) -> TwoStagePolicy:
    """One seeded run of the independent boosting policy, from ``builder``'s memo."""
    law, rounds = builder.draw_law(None)
    return builder.policy(law.sample(rng, rounds))


def evaluate_policy(builder, dist: ScenarioDistribution, mode: str = "exact",
                    rng=None, runs: int = 10_000) -> PolicyEvaluation:
    """Expected two-stage cost of the builder's policy family on its problem.

    Exact mode pairs the :func:`union_law` of the builder's ``draw_law``,
    each positive-weight draw once, with the scenario support.  Monte-Carlo
    mode replays ``runs`` (at least 2) independent (draw, realization)
    pairs and reports a 99% confidence halfwidth; it refuses more than
    ``caps.DRAWS`` sampling draws in all before drawing any.  It draws in
    batches that read ``rng`` in per-run order, each run's draw and then its
    realization, so every seeded stream gives the values of
    one-run-at-a-time sampling, bit for bit.
    """
    if mode == "exact":
        draws = union_law(*builder.draw_law(dist))
        support = [(realized, p) for realized, p in dist.support() if p != 0.0]
        total = 0.0
        for drawn, p_draw in draws:
            policy = builder.policy(drawn)
            for realized, p_real in support:
                total += p_draw * p_real * policy.cost(realized)
        return PolicyEvaluation(total, "exact")
    if mode != "monte_carlo":
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if runs < 2:
        raise ValueError(f"monte_carlo mode needs at least 2 runs, not {runs}")
    law, rounds = builder.draw_law(dist)
    draws = runs * max(1, rounds)
    if draws > caps.DRAWS:
        raise CapExceeded(f"{draws} Monte-Carlo sampling draws exceed {caps.DRAWS}")
    if rng is None:
        raise ValueError("monte_carlo mode needs a random generator")
    costs = _monte_carlo_costs(builder, law, rounds, dist, rng, runs)
    mean = float(costs.mean())
    half = 2.5758293035489004 * float(costs.std(ddof=1)) / math.sqrt(runs)
    return PolicyEvaluation(mean, "monte_carlo", half)


def _monte_carlo_costs(builder, law, rounds, dist, rng, runs) -> np.ndarray:
    """Each run's cost, pricing every distinct (drawn, realized) pair once.

    A run reads ``rounds`` draws of ``law`` and then one of ``dist``.  Its
    key is its drawn and realized bits packed little-endian into uint64
    words, as many as the bits need (at least one).  Each batch's distinct
    keys come from one stable ``np.lexsort``, so the first run of each group
    is its smallest index, and the groups are walked in the order of their
    first runs, each pair priced there by the builder's policy for its draw,
    so the first exception raised is the run-by-run loop's.
    """
    width = rounds * law.width  # a run's first ``width`` variates make its draw
    batch = max(1, CHUNK // max(width + dist.width, 1))
    n_drawn, n_realized = len(law.universe), len(dist.universe)
    words = max(1, -(-(n_drawn + n_realized) // 64))
    prices: dict = {}
    costs = np.empty(runs)
    for start in range(0, runs, batch):
        k = min(batch, runs - start)
        v = rng.random((k, width + dist.width))
        bits = np.zeros((k, 64 * words), dtype=bool)
        drawn = bits[:, :n_drawn]
        for r in range(rounds):
            drawn |= law.decode(v[:, r * law.width:(r + 1) * law.width])
        realized = bits[:, n_drawn:n_drawn + n_realized]
        realized[:] = dist.decode(v[:, width:])
        keys = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        order = np.lexsort(keys.T)
        ranked = keys[order]
        new = np.ones(k, dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        first = order[new]
        inverse = np.empty(k, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        batch_prices = np.empty(first.size)
        for u in np.argsort(first):
            t = first[u]
            key = keys[t].tobytes()
            if key not in prices:
                d = frozenset(itertools.compress(law.universe, drawn[t]))
                r = frozenset(itertools.compress(dist.universe, realized[t]))
                prices[key] = builder.policy(d).cost(r)
            batch_prices[u] = prices[key]
        costs[start:start + k] = batch_prices[inverse]
    return costs


def exact_two_stage_opt(problem: ProblemInstance,
                        dist: ScenarioDistribution) -> TwoStageOptimum:
    """Exhaustive two-stage optimum.

    Minimizes first-stage cost plus sigma times the expected exact
    augmentation cost over every first-stage element subset; ties go to the
    lexicographically smallest subset.  The feasibility table has one row
    per scenario, built in one :func:`feasible_table` call.  A scenario's
    recourse cost from every F at once is a superset-min over its row, one
    element at a time for all rows together: best[F] = min(best[F], price +
    best[F + element]), so no cost cancels.  The winner's recourse in each
    scenario, its cheapest augmentation of the first stage, is read from the
    same row, so the oracle is called once per (element set, scenario).
    """
    sigma = problem.inflation
    support = dist.support()
    if (1 << len(problem.elements)) * max(len(support), 1) > caps.TWO_STAGE:
        raise CapExceeded("two-stage search space exceeds the cap")
    scenarios = [(realized, p) for realized, p in support if p != 0.0]
    problem.cost(problem.elements)  # NumericalFailure, before Infeasible, on overflow
    prices = [problem.first_stage_cost[e] for e in problem.elements]
    values = subset_table(prices, np.add, 0.0)
    tables = feasible_table(problem, [realized for realized, _ in scenarios])
    best = np.where(tables, 0.0, np.inf)  # one row per scenario
    for i, price in enumerate(prices):
        pairs = best.reshape(len(best), 1 << (len(prices) - i - 1), 2, 1 << i)
        np.minimum(pairs[:, :, 0], price + pairs[:, :, 1], out=pairs[:, :, 0])
    with np.errstate(over="ignore"):  # an overflowing value is inf and drops out
        for row, (_, p) in zip(best, scenarios):
            values += sigma * p * row
    ok = values < np.inf
    if not ok.any():
        raise Infeasible("no first-stage set admits feasible recourse everywhere")
    picked = cheapest(values, ok, 1e-12)
    first = frozenset(members(picked, problem.elements))
    free = tuple(e for e in problem.elements if e not in first)
    bits = [1 << i for i, e in enumerate(problem.elements) if e not in first]
    above = subset_table(bits, np.bitwise_or, picked)  # first | F, F over free
    costs = _price_table(problem, free)
    value = problem.cost(first)  # then each scenario's exact recourse, in order
    for table, (realized, p) in zip(tables, scenarios):
        recourse = _cheapest_solution(problem, realized, free, table[above],
                                      lambda: costs)
        value += sigma * p * recourse.cost
    return TwoStageOptimum(value, first)

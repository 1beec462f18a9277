"""Client-element problems, scenario distributions, and exhaustive oracles.

A problem instance is a finite client set, a finite element set with
nonnegative first-stage prices, a second-stage inflation factor, and a
feasibility oracle deciding whether an element subset serves a client
subset.  Every shipped oracle here is deliberately brute force: these are
the reference answers that the approximation machinery is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from . import caps
from ._kernels import bernoulli_weights
from .errors import CapExceeded, Infeasible

COST_TOL = 1e-9
PROB_TOL = 1e-12


@dataclass(frozen=True)
class Solution:
    """An element subset together with its first-stage cost."""

    chosen: frozenset
    cost: float


@dataclass(frozen=True)
class ProblemInstance:
    """A client-element problem.

    ``feasibility(F, S)`` must be monotone in ``F`` and accept the empty set
    for ``S = {}``; both properties are assumed throughout and checked
    exhaustively by :func:`check_monotone_feasibility` on small instances.
    """

    clients: tuple
    elements: tuple
    first_stage_cost: Mapping[Any, float]
    inflation: float
    feasibility: Callable[[frozenset, frozenset], bool]
    kind: str = "custom"
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.clients)) != len(self.clients):
            raise ValueError("duplicate client ids")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        for e in self.elements:
            if self.first_stage_cost[e] < 0:
                raise ValueError(f"negative cost for element {e!r}")
        if self.inflation < 1.0:
            raise ValueError("inflation factor must be >= 1")

    def cost(self, subset) -> float:
        # fsum is exactly rounded, so the value does not depend on the
        # (hash-seeded) iteration order of a frozenset.
        return math.fsum(self.first_stage_cost[e] for e in subset)

    def element_index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def with_free_elements(self, free: frozenset) -> "ProblemInstance":
        """Copy of the instance with the given elements priced at zero."""
        costs = {e: (0.0 if e in free else self.first_stage_cost[e])
                 for e in self.elements}
        return replace(self, first_stage_cost=costs)


class ScenarioDistribution:
    """Black-box distribution over client subsets; see the three variants."""

    def sample(self, rng: np.random.Generator) -> frozenset:
        raise NotImplementedError

    def support(self) -> list[tuple[frozenset, float]]:
        raise NotImplementedError


@dataclass(frozen=True)
class Explicit(ScenarioDistribution):
    """Finitely supported distribution given as (subset, probability) pairs."""

    outcomes: tuple

    def __post_init__(self):
        outs = tuple((frozenset(s), float(p)) for s, p in self.outcomes)
        object.__setattr__(self, "outcomes", outs)
        total = sum(p for _, p in outs)
        if any(p < 0 for _, p in outs):
            raise ValueError("negative scenario probability")
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total}, not 1")

    def sample(self, rng):
        u = rng.random()
        acc = 0.0
        for s, p in self.outcomes:
            acc += p
            if u < acc:
                return s
        return self.outcomes[-1][0]

    def support(self):
        return list(self.outcomes)


@dataclass(frozen=True)
class IndependentBernoulli(ScenarioDistribution):
    """Each client appears independently with its own marginal probability."""

    marginals: tuple

    def __post_init__(self):
        if isinstance(self.marginals, Mapping):
            pairs = tuple(self.marginals.items())
        else:
            pairs = tuple((j, float(p)) for j, p in self.marginals)
        object.__setattr__(self, "marginals", pairs)
        for j, p in pairs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"marginal for {j!r} outside [0, 1]")

    def clients(self) -> tuple:
        return tuple(j for j, _ in self.marginals)

    def marginal_map(self) -> dict:
        return dict(self.marginals)

    def sample(self, rng):
        return frozenset(j for j, p in self.marginals if rng.random() < p)

    def support(self):
        clients = self.clients()
        n = len(clients)
        if n > caps.cap("STOCOMB_CAP_SUPPORT_CLIENTS"):
            raise CapExceeded(f"2^{n} subsets exceed the enumeration cap")
        weights = bernoulli_weights(np.array([p for _, p in self.marginals]))
        return [(frozenset(members(mask, clients)), float(w))
                for mask, w in enumerate(weights)]


@dataclass(frozen=True)
class KPartition(ScenarioDistribution):
    """Uniform distribution over the blocks of a partition of the clients."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        seen: set = set()
        for b in blocks:
            if seen & b:
                raise ValueError("partition blocks must be disjoint")
            seen |= b

    def sample(self, rng):
        return self.blocks[int(rng.integers(len(self.blocks)))]

    def support(self):
        w = 1.0 / len(self.blocks)
        return [(b, w) for b in self.blocks]


def sample(dist: ScenarioDistribution, rng: np.random.Generator) -> frozenset:
    """Draw one client subset; deterministic for a fixed generator state."""
    return dist.sample(rng)


def enumerate_support(dist: ScenarioDistribution) -> list[tuple[frozenset, float]]:
    """All (subset, probability) pairs of the distribution.

    Raises :class:`CapExceeded` when a product distribution would need more
    than ``2^STOCOMB_CAP_SUPPORT_CLIENTS`` terms.
    """
    return dist.support()


def members(mask: int, items: tuple) -> tuple:
    """The items whose bits are set in ``mask`` (bit i = ``items[i]``), in
    index order: the library's one map from subset masks to subsets."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(items[i])
        mask >>= 1
        i += 1
    return tuple(out)


def exact_opt(problem: ProblemInstance, clients: frozenset,
              base: frozenset = frozenset()) -> Solution:
    """Cheapest element set, on top of ``base``, serving ``clients``.

    Exhaustive search over all subsets of the non-base elements.  Ties are
    broken toward the lexicographically smallest index tuple so the oracle
    is deterministic.
    """
    clients = frozenset(clients)
    base = frozenset(base)
    free = tuple(e for e in problem.elements if e not in base)
    if len(free) > caps.cap("STOCOMB_CAP_OPT_ELEMENTS"):
        raise CapExceeded(f"2^{len(free)} candidate sets exceed the search cap")
    index = problem.element_index()
    best_cost = None
    best_key = None
    best_set = None
    for mask in range(1 << len(free)):
        picked = members(mask, free)
        chosen = frozenset(picked)
        if not problem.feasibility(base | chosen, clients):
            continue
        c = problem.cost(picked)
        key = tuple(index[e] for e in picked)  # members keep index order
        if (best_cost is None or c < best_cost - COST_TOL
                or (c <= best_cost + COST_TOL and key < best_key)):
            best_cost, best_key, best_set = c, key, chosen
    if best_set is None:
        raise Infeasible(f"no element subset serves {sorted(map(str, clients))}")
    return Solution(best_set, best_cost)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive property sweep."""

    ok: bool
    failure: str | None = None


def check_subadditive(problem: ProblemInstance,
                      client_cap: int | None = None,
                      element_cap: int | None = None) -> CheckReport:
    """Verify, for every pair of client sets, that optimal solutions combine.

    Checks both that the union of the two optima is feasible for the union
    of the client sets and that optimal costs are subadditive.
    """
    if client_cap is None:
        client_cap = caps.cap("STOCOMB_CAP_SUBADD_CLIENTS")
    if element_cap is None:
        element_cap = caps.cap("STOCOMB_CAP_SUBADD_ELEMENTS")
    if len(problem.clients) > client_cap or len(problem.elements) > element_cap:
        raise CapExceeded("instance too large for the subadditivity sweep")
    subsets = [frozenset(members(mask, problem.clients))
               for mask in range(1 << len(problem.clients))]
    opt = {S: exact_opt(problem, S) for S in subsets}
    for S in subsets:
        for T in subsets:
            union = S | T
            if not problem.feasibility(opt[S].chosen | opt[T].chosen, union):
                return CheckReport(False,
                                   f"union of optima for {sorted(map(str, S))} and "
                                   f"{sorted(map(str, T))} is not feasible for their union")
            if opt[union].cost > opt[S].cost + opt[T].cost + COST_TOL:
                return CheckReport(False,
                                   f"cost of the union of {sorted(map(str, S))} and "
                                   f"{sorted(map(str, T))} exceeds the sum of parts")
    return CheckReport(True)


def check_monotone_feasibility(problem: ProblemInstance,
                               client_cap: int = 5,
                               element_cap: int = 12) -> CheckReport:
    """Exhaustively verify monotonicity of the oracle and Sols({}) != {}."""
    if len(problem.clients) > client_cap or len(problem.elements) > element_cap:
        raise CapExceeded("instance too large for the monotonicity sweep")
    if not problem.feasibility(frozenset(), frozenset()):
        return CheckReport(False, "the empty set does not serve the empty client set")
    element_sets = [frozenset(members(mask, problem.elements))
                    for mask in range(1 << len(problem.elements))]
    for mask in range(1 << len(problem.clients)):
        S = frozenset(members(mask, problem.clients))
        for F in element_sets:
            if not problem.feasibility(F, S):
                continue
            for e in problem.elements:
                if e not in F and not problem.feasibility(F | {e}, S):
                    return CheckReport(False,
                                       f"adding {e!r} broke feasibility for "
                                       f"{sorted(map(str, S))}")
    return CheckReport(True)

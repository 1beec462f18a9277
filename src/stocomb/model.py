"""Client-element problems, scenario distributions, and exhaustive oracles.

A problem instance is a finite client set, a finite element set with
nonnegative first-stage prices, a second-stage inflation factor, and a
feasibility oracle deciding whether an element subset serves a client
subset.  Every shipped oracle here is deliberately brute force, the reference
answers the approximation machinery is tested against, on one subset-lattice
core: ``feasible_table``, ``subset_table`` and the tie-break ``cheapest``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from . import caps
from ._kernels import bernoulli_weights
from .errors import CapExceeded, Infeasible, NumericalFailure

COST_TOL = 1e-9
PROB_TOL = 1e-12
CHUNK = 1 << 16  # variates drawn per batch when sampling many draws


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

    ``served_table()``, set by the shipped kinds' builders, returns the
    uint64 served-client table of an oracle that decomposes per client:
    entry F (an element mask) has bit j set when F serves client j, and F
    serves S exactly when it serves every client of S.  It must agree with
    ``feasibility``.  A custom oracle has none, and :func:`client_optima`
    then calls :func:`exact_opt`.
    """

    clients: tuple
    elements: tuple
    first_stage_cost: Mapping[Any, float]
    inflation: float
    feasibility: Callable[[frozenset, frozenset], bool]
    kind: str = "custom"
    payload: Mapping[str, Any] = field(default_factory=dict)
    served_table: Callable[[], np.ndarray] | None = None

    def __post_init__(self):
        if len(set(self.clients)) != len(self.clients):
            raise ValueError("duplicate client ids")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        for e in self.elements:
            if not 0.0 <= self.first_stage_cost[e] < math.inf:
                raise ValueError(f"cost of element {e!r} must be finite and >= 0")
        if not 1.0 <= self.inflation < math.inf:
            raise ValueError("inflation factor must be finite and >= 1")

    def cost(self, subset) -> float:
        # fsum is exactly rounded, so the value does not depend on the
        # (hash-seeded) iteration order of a frozenset.
        try:
            return math.fsum(self.first_stage_cost[e] for e in subset)
        except OverflowError as exc:
            raise NumericalFailure("element costs sum past the float range") from exc

    def element_index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def with_free_elements(self, free: frozenset) -> "ProblemInstance":
        """Copy of the instance with the given elements priced at zero."""
        costs = {e: (0.0 if e in free else self.first_stage_cost[e])
                 for e in self.elements}
        return replace(self, first_stage_cost=costs)


def variates(rng: np.random.Generator, below, shape) -> np.ndarray:
    """Uniform floats in [0, 1) when ``below`` is None, else integers in
    [0, below), read from ``rng`` row-major: in the order, and to the stream
    position, of as many scalar ``rng.random()`` or ``rng.integers(below)``
    calls."""
    return rng.random(shape) if below is None else rng.integers(below, size=shape)


def membership(sets, universe: tuple) -> np.ndarray:
    """Boolean rows, one per set, of which ``universe`` items it holds."""
    return np.array([[j in s for j in universe] for s in sets],
                    dtype=bool).reshape(len(sets), len(universe))


class ScenarioDistribution:
    """Black-box distribution over client subsets; see the three variants.

    A variant reads ``width`` variates of its ``below`` kind (see
    :func:`variates`) per draw, and ``decode`` maps the last axis of a
    variate array to membership rows over ``universe``.  ``sample`` decodes
    its rows with ``decode`` too, so scalar and batched draws cannot drift.
    """

    width = 1
    below = None
    universe = ()

    def decode(self, variates: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, rounds: int = 1) -> frozenset:
        """The union of ``rounds`` independent draws, one by default, read
        from ``rng`` in batches of at most ``CHUNK`` variates; deterministic
        for a fixed generator state."""
        hit = np.zeros(len(self.universe), dtype=bool)
        batch = max(1, CHUNK // max(self.width, 1))
        for start in range(0, rounds, batch):
            k = min(batch, rounds - start)
            hit |= self.decode(variates(rng, self.below, (k, self.width))).any(axis=0)
        return frozenset(itertools.compress(self.universe, hit))

    def support(self) -> list[tuple[frozenset, float]]:
        """All (subset, probability) pairs of the distribution."""
        raise NotImplementedError


@dataclass(frozen=True)
class Explicit(ScenarioDistribution):
    """Finitely supported distribution given as (subset, probability) pairs."""

    outcomes: tuple

    def __post_init__(self):
        outs = tuple((frozenset(s), float(p)) for s, p in self.outcomes)
        object.__setattr__(self, "outcomes", outs)
        total = sum(p for _, p in outs)
        if not all(p >= 0.0 for _, p in outs):
            raise ValueError("scenario probabilities must be numbers >= 0")
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total}, not 1")

    @functools.cached_property
    def universe(self) -> tuple:
        return tuple(dict.fromkeys(j for s, _ in self.outcomes for j in s))

    @functools.cached_property
    def _table(self):
        return (np.cumsum([p for _, p in self.outcomes]),
                membership([s for s, _ in self.outcomes], self.universe))

    def decode(self, variates):
        """The first outcome whose running probability sum (added in order)
        exceeds u, so zero-probability outcomes are never drawn; the last
        outcome when the sum falls short of u."""
        acc, table = self._table
        i = np.searchsorted(acc, variates[..., 0], side="right")
        return table[np.minimum(i, acc.size - 1)]

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

    @property
    def width(self) -> int:
        return len(self.marginals)

    @property
    def universe(self) -> tuple:
        return self.clients()

    @functools.cached_property
    def _p(self) -> np.ndarray:
        return np.array([p for _, p in self.marginals], dtype=float)

    def decode(self, variates):
        """Client i is in when its own variate u_i < p_i."""
        return variates < self._p

    def support(self):
        """Every subset with its product weight, in mask order; refused with
        :class:`CapExceeded` past ``caps.SUPPORT_CLIENTS`` clients."""
        clients = self.clients()
        n = len(clients)
        if n > caps.SUPPORT_CLIENTS:
            raise CapExceeded(f"2^{n} subsets exceed the enumeration cap")
        weights = bernoulli_weights(self._p)
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

    @property
    def below(self) -> int:
        return len(self.blocks)

    @functools.cached_property
    def universe(self) -> tuple:
        return tuple(j for b in self.blocks for j in b)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return membership(self.blocks, self.universe)

    def decode(self, variates):
        """Block k for the integer k."""
        return self._table[variates[..., 0]]

    def support(self):
        w = 1.0 / len(self.blocks)
        return [(b, w) for b in self.blocks]


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


def subset_table(values, combine, empty) -> np.ndarray:
    """Mask-indexed table of ``combine`` folded over each subset's values in
    index order, from ``empty``; doubles t to concat(t, combine(t, v))."""
    t = np.array([empty])
    for v in values:
        t = np.concatenate([t, combine(t, v)])
    return t


def first_decrease(values, tol: float):
    """First (mask, i), mask-major then by index, where adding item i to
    ``mask`` lowers the mask-indexed table by more than ``tol``, or None when
    the table is monotone: the one lattice-monotonicity test."""
    masks = np.arange(values.size)
    first = None
    for i in range(values.size.bit_length() - 1):
        low = masks[masks & (1 << i) == 0]
        bad = np.flatnonzero(values[low | 1 << i] < values[low] - tol)
        if bad.size and (first is None or low[bad[0]] < first[0]):
            first = (int(low[bad[0]]), i)
    return first


def feasible_table(problem: ProblemInstance, clients: frozenset,
                   base: frozenset = frozenset()) -> np.ndarray:
    """``feasibility(base | F, clients)`` for every mask F over the elements
    outside ``base`` (in ``problem.elements`` order), one oracle call each:
    the one feasibility table of the exhaustive oracles."""
    free = tuple(e for e in problem.elements if e not in base)
    return np.fromiter((problem.feasibility(base.union(members(mask, free)), clients)
                        for mask in range(1 << len(free))), dtype=bool)


def cheapest(costs, ok, tol: float) -> int:
    """The one tie-break: of the ``ok`` masks (at least one) within ``tol`` of
    their cheapest, the one with the lexicographically smallest index tuple."""
    near = np.flatnonzero(ok & (costs <= costs[ok].min() + tol))
    return min(near.tolist(), key=lambda mask: members(mask, range(mask.bit_length())))


def exact_opt(problem: ProblemInstance, clients: frozenset,
              base: frozenset = frozenset()) -> Solution:
    """Cheapest element set, on top of ``base``, serving ``clients``.

    Exhaustive search over all subsets of the non-base elements, with ties
    broken by :func:`cheapest` so the oracle is deterministic.
    """
    clients = frozenset(clients)
    base = frozenset(base)
    free = tuple(e for e in problem.elements if e not in base)
    if len(free) > caps.OPT_ELEMENTS:
        raise CapExceeded(f"2^{len(free)} candidate sets exceed the search cap")
    ok = feasible_table(problem, clients, base)
    return _cheapest_solution(problem, clients, free, ok,
                              lambda: _price_table(problem, free))


def _price_table(problem: ProblemInstance, items: tuple) -> np.ndarray:
    """First-stage cost of every mask over ``items``."""
    return subset_table([problem.first_stage_cost[e] for e in items], np.add, 0.0)


def _cheapest_solution(problem, clients, free, ok, prices) -> Solution:
    """The cheapest ``ok`` mask over ``free``, priced by ``prices()`` once the
    costs are known to sum inside the float range: the tail of
    :func:`exact_opt` and of :func:`client_optima`."""
    if not ok.any():
        raise Infeasible(f"no element subset serves {sorted(map(str, clients))}")
    problem.cost(free)  # largest sum, feasible if any is: NumericalFailure on overflow
    picked = members(cheapest(prices(), ok, COST_TOL), free)
    return Solution(frozenset(picked), problem.cost(picked))


MASK_BITS = 64  # clients a uint64 served-client table can hold


def client_optima(problem: ProblemInstance) -> Callable[[frozenset], Solution]:
    """``S -> exact_opt(problem, S)``, memoized, for every client set S.

    With a served-client table (``problem.served_table``), every S is
    priced from that one table: F serves S exactly when
    ``served[F] & S == S``, so no oracle is called.  The value, its ties
    and its exceptions are :func:`exact_opt`'s.  A problem without a table,
    a client set outside ``problem.clients``, more than ``MASK_BITS``
    clients or more than ``caps.OPT_ELEMENTS`` elements fall back to
    :func:`exact_opt` itself.  Nothing is built before the first call.
    """
    bit = {j: 1 << i for i, j in enumerate(problem.clients)}
    tabled = (problem.served_table is not None and len(bit) <= MASK_BITS
              and len(problem.elements) <= caps.OPT_ELEMENTS)
    served = functools.cache(lambda: problem.served_table())
    prices = functools.cache(lambda: _price_table(problem, problem.elements))

    @functools.cache
    def opt(clients: frozenset) -> Solution:
        if not (tabled and clients <= bit.keys()):
            return exact_opt(problem, clients)
        want = np.uint64(sum(bit[j] for j in clients))
        return _cheapest_solution(problem, clients, problem.elements,
                                  served() & want == want, prices)

    return lambda clients: opt(frozenset(clients))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive property sweep."""

    ok: bool
    failure: str | None = None


def guard_sweep(problem: ProblemInstance, sweep: str):
    """Raise :class:`CapExceeded` unless ``problem`` fits the exhaustive
    sweeps over all client subsets (``caps.SUBADD_CLIENTS`` clients and
    ``caps.SUBADD_ELEMENTS`` elements)."""
    if (len(problem.clients) > caps.SUBADD_CLIENTS
            or len(problem.elements) > caps.SUBADD_ELEMENTS):
        raise CapExceeded(f"instance too large for the {sweep} sweep")


def check_subadditive(problem: ProblemInstance) -> CheckReport:
    """Verify, for every pair of client sets, that optimal solutions combine.

    Checks both that the union of the two optima is feasible for the union
    of the client sets and that optimal costs are subadditive.
    """
    guard_sweep(problem, "subadditivity")
    subsets = [frozenset(members(mask, problem.clients))
               for mask in range(1 << len(problem.clients))]
    optimum = client_optima(problem)
    opt = {S: optimum(S) for S in subsets}
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


def check_monotone_feasibility(problem: ProblemInstance) -> CheckReport:
    """Exhaustively verify monotonicity of the oracle and Sols({}) != {}."""
    guard_sweep(problem, "monotonicity")
    if not problem.feasibility(frozenset(), frozenset()):
        return CheckReport(False, "the empty set does not serve the empty client set")
    for mask in range(1 << len(problem.clients)):
        S = frozenset(members(mask, problem.clients))
        broken = first_decrease(feasible_table(problem, S), 0.0)
        if broken is not None:
            return CheckReport(False,
                               f"adding {problem.elements[broken[1]]!r} broke "
                               f"feasibility for {sorted(map(str, S))}")
    return CheckReport(True)

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
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from . import caps
from ._kernels import bernoulli_weights
from .errors import CapExceeded, Infeasible, NumericalFailure

COST_TOL = 1e-9
PROB_TOL = 1e-12
CHUNK = 1 << 16  # variates drawn per batch when sampling many draws
BLOCK = 1 << 12  # masks per block of a lattice table built block by block
MASK_BITS = 64  # clients a uint64 served-client mask can hold


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

    ``served``, set by the shipped kinds' builders, is the block function of
    an oracle that decomposes per client: uint64 element masks F in, uint64
    masks of the clients each F serves out, and F serves S exactly when it
    serves every client of S.  It must agree with ``feasibility``.  Custom
    oracles and instances past ``MASK_BITS`` clients have none.

    What does not depend on the prices, the served table over every element
    mask, the element index and whatever a solver keeps through
    :meth:`structure`, is built on first use and shared with every
    :meth:`with_free_elements` copy.  The price table is built on first use
    and kept on the instance alone.  A :func:`dataclasses.replace` copy
    starts with neither.
    """

    clients: tuple
    elements: tuple
    first_stage_cost: Mapping[Any, float]
    inflation: float
    feasibility: Callable[[frozenset, frozenset], bool]
    kind: str = "custom"
    payload: Mapping[str, Any] = field(default_factory=dict)
    served: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.clients) > MASK_BITS:
            object.__setattr__(self, "served", None)
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

    @functools.cached_property
    def _structure(self) -> dict:
        return {}

    def structure(self, name: str, build: Callable[["ProblemInstance"], Any]):
        """``build(self)``, built on the first call for ``name`` and then kept
        for this instance and every :meth:`with_free_elements` copy: only for
        what does not depend on the prices."""
        kept = self._structure
        if name not in kept:
            kept[name] = build(self)
        return kept[name]

    @property
    def _served_table(self) -> np.ndarray:
        return self.structure("served", served_table)

    @functools.cached_property
    def _prices(self) -> np.ndarray:
        return _price_table(self, self.elements)

    def element_index(self) -> dict:
        """Each element's position in ``elements`` (shared: do not mutate)."""
        return self.structure("element_index",
                              lambda p: {e: i for i, e in enumerate(p.elements)})

    def with_free_elements(self, free: frozenset) -> "ProblemInstance":
        """Copy of the instance with the given elements priced at zero.

        Every price of the copy is one this instance validated, or 0.0, so
        the copy skips ``__post_init__``.  It shares this instance's
        structure and starts without its price table."""
        costs = {e: (0.0 if e in free else self.first_stage_cost[e])
                 for e in self.elements}
        copy = object.__new__(ProblemInstance)
        copy.__dict__.update(self.__dict__, first_stage_cost=costs,
                             _structure=self._structure)
        copy.__dict__.pop("_prices", None)
        return copy


def membership(sets, universe: tuple) -> np.ndarray:
    """Boolean rows, one per set, of which ``universe`` items it holds."""
    return np.array([[j in s for j in universe] for s in sets],
                    dtype=bool).reshape(len(sets), len(universe))


class ScenarioDistribution:
    """Black-box distribution over client subsets; see the three variants.

    A variant reads ``width`` uniform floats in [0, 1) per draw, and
    ``decode`` maps the last axis of a float array to membership rows over
    ``universe``.  ``rng.random(shape)`` reads the stream row-major, in the
    order and to the position of as many scalar ``rng.random()`` calls, so
    batches of draws read it in per-draw order.  ``sample`` decodes its rows
    with ``decode`` too, so scalar and batched draws cannot drift.
    """

    width = 1
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
            hit |= self.decode(rng.random((k, self.width))).any(axis=0)
        return frozenset(itertools.compress(self.universe, hit))

    def support(self) -> list[tuple[frozenset, float]]:
        """All (subset, probability) pairs of the distribution."""
        raise NotImplementedError

    @property
    def support_size(self) -> int:
        """How many pairs ``support`` lists, counted without listing them."""
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

    @property
    def support_size(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class IndependentBernoulli(ScenarioDistribution):
    """Each client appears independently with its own marginal probability."""

    marginals: tuple

    def __post_init__(self):
        items = (self.marginals.items() if isinstance(self.marginals, Mapping)
                 else self.marginals)
        pairs = tuple((j, float(p)) for j, p in items)
        object.__setattr__(self, "marginals", pairs)
        if len({j for j, _ in pairs}) != len(pairs):
            raise ValueError("duplicate client ids")
        for j, p in pairs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"marginal for {j!r} outside [0, 1]")

    @property
    def width(self) -> int:
        return len(self.marginals)

    @functools.cached_property
    def universe(self) -> tuple:
        return tuple(j for j, _ in self.marginals)

    @functools.cached_property
    def _p(self) -> np.ndarray:
        return np.array([p for _, p in self.marginals], dtype=float)

    def decode(self, variates):
        """Client i is in when its own variate u_i < p_i."""
        return variates < self._p

    def support(self):
        """Every subset with its product weight, in mask order; refused with
        :class:`CapExceeded` past ``caps.SUPPORT_CLIENTS`` clients."""
        n = len(self.universe)
        if n > caps.SUPPORT_CLIENTS:
            raise CapExceeded(f"2^{n} subsets exceed the enumeration cap")
        weights = bernoulli_weights(self._p)
        return [(frozenset(members(mask, self.universe)), float(w))
                for mask, w in enumerate(weights)]

    @property
    def support_size(self) -> int:
        return 1 << self.width


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

    @functools.cached_property
    def universe(self) -> tuple:
        return tuple(j for b in self.blocks for j in b)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return membership(self.blocks, self.universe)

    def decode(self, variates):
        """Block floor(k u) of the k blocks, or the last block should k u
        round up to k."""
        k = len(self.blocks)
        i = (variates[..., 0] * k).astype(np.intp)
        return self._table[np.minimum(i, k - 1)]

    def support(self):
        w = 1.0 / len(self.blocks)
        return [(b, w) for b in self.blocks]

    @property
    def support_size(self) -> int:
        return len(self.blocks)


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
    """Mask-indexed table of the ufunc ``combine`` folded over each subset's
    values in index order, from ``empty``, in ``empty``'s dtype; each
    doubling fills the upper half in place, combine(t[:h], v) into
    t[h:2h]."""
    t = np.empty(1 << len(values), dtype=np.asarray(empty).dtype)
    t[0] = empty
    h = 1
    for v in values:
        combine(t[:h], v, out=t[h:2 * h])
        h *= 2
    return t


def first_decrease(values, tol: float):
    """First (row, mask, i), row-major, then mask-major, then by index, where
    adding item i to ``mask`` lowers row ``row`` of the 2-D table of
    mask-indexed rows by more than ``tol``, or None when every row is
    monotone: the one lattice-monotonicity test."""
    masks = np.arange(values.shape[1])
    first = None
    for i in range(values.shape[1].bit_length() - 1):
        low = masks[masks & (1 << i) == 0]
        bad = values[:, low | 1 << i] < values[:, low] - tol
        if bad.any():
            row, col = divmod(int(bad.argmax()), low.size)
            if first is None or (row, int(low[col])) < first[:2]:
                first = (row, int(low[col]), i)
    return first


def feasible_table(problem: ProblemInstance, client_sets) -> np.ndarray:
    """Row r holds ``feasibility(F, client_sets[r])`` for every element mask
    F (in ``problem.elements`` order): the one feasibility table of the
    exhaustive oracles.

    The table is built in blocks of ``BLOCK`` masks.  The element sets of the
    low elements are built once by doubling; block h asks the oracle about
    ``top | s`` for each of them, where ``top`` holds the high elements of h,
    or about the doubled sets themselves when ``top`` is empty.  A block's
    element sets are built once and shared by every row, and no more than
    two blocks of sets are held at once.  The oracle is called once per
    (element set, client set), block by block and row by row within a block,
    so each row's calls come in mask order; with one row they are the calls
    of a per-mask loop.
    """
    split = BLOCK.bit_length() - 1
    low, high = problem.elements[:split], problem.elements[split:]
    sets = [frozenset()]
    for e in low:
        sets += [s | {e} for s in sets]
    table = np.empty((len(client_sets), 1 << len(problem.elements)), dtype=bool)
    for h in range(1 << len(high)):
        top = frozenset(members(h, high))
        asked = list(map(top.union, sets)) if top else sets
        block = slice(h * len(sets), (h + 1) * len(sets))
        for row, clients in zip(table, client_sets):
            row[block] = np.fromiter(map(problem.feasibility, asked,
                                         itertools.repeat(clients)),
                                     dtype=bool, count=len(sets))
    return table


def served_table(problem: ProblemInstance) -> np.ndarray:
    """``problem.served`` over every element mask 0 .. 2^|X| - 1, computed on
    uint64 blocks of at most ``BLOCK`` masks so temporaries stay small."""
    out = np.empty(1 << len(problem.elements), dtype=np.uint64)
    for start in range(0, out.size, BLOCK):
        stop = min(start + BLOCK, out.size)
        out[start:stop] = problem.served(np.arange(start, stop, dtype=np.uint64))
    return out


def cheapest(costs, ok, tol: float) -> int:
    """The one tie-break: of the ``ok`` masks (at least one) within ``tol`` of
    their cheapest, the one with the lexicographically smallest index tuple."""
    near = np.flatnonzero(ok & (costs <= costs[ok].min() + tol))
    return min(near.tolist(), key=lambda mask: members(mask, range(mask.bit_length())))


def exact_opt(problem: ProblemInstance, clients: frozenset) -> Solution:
    """Cheapest element set serving ``clients``, by exhaustive search with
    ties broken by :func:`cheapest`.  F serves them when the served table
    holds all their bits at F, if the problem has one and they are its
    clients; otherwise ``feasibility`` is asked once per element set F.
    """
    clients = frozenset(clients)
    elements = problem.elements
    if len(elements) > caps.OPT_ELEMENTS:
        raise CapExceeded(f"2^{len(elements)} candidate sets exceed the search cap")
    bits = [1 << i for i, j in enumerate(problem.clients) if j in clients]
    if problem.served is not None and len(bits) == len(clients):
        want = np.uint64(sum(bits))
        ok = problem._served_table & want == want
    else:
        ok = feasible_table(problem, [clients])[0]
    return _cheapest_solution(problem, clients, elements, ok,
                              lambda: problem._prices)


def _price_table(problem: ProblemInstance, items: tuple) -> np.ndarray:
    """First-stage cost of every mask over ``items``."""
    return subset_table([problem.first_stage_cost[e] for e in items], np.add, 0.0)


def _cheapest_solution(problem, clients, free, ok, prices) -> Solution:
    """The cheapest ``ok`` mask over ``free``, priced by ``prices()`` once the
    costs are known to sum inside the float range: the tail of
    :func:`exact_opt` and of the two-stage optimum's recourse."""
    if not ok.any():
        raise Infeasible(f"no element subset serves {sorted(map(str, clients))}")
    problem.cost(free)  # largest sum, feasible if any is: NumericalFailure on overflow
    picked = members(cheapest(prices(), ok, COST_TOL), free)
    return Solution(frozenset(picked), problem.cost(picked))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive property sweep."""

    ok: bool
    failure: str | None = None


def client_sets(problem: ProblemInstance, sweep: str) -> list[frozenset]:
    """Every client set of ``problem``, in mask order: the one enumeration of
    the exhaustive sweeps.  Raises :class:`CapExceeded`, naming ``sweep``,
    unless ``problem`` fits them (``caps.SUBADD_CLIENTS`` clients and
    ``caps.SUBADD_ELEMENTS`` elements)."""
    if (len(problem.clients) > caps.SUBADD_CLIENTS
            or len(problem.elements) > caps.SUBADD_ELEMENTS):
        raise CapExceeded(f"instance too large for the {sweep} sweep")
    return [frozenset(members(mask, problem.clients))
            for mask in range(1 << len(problem.clients))]


def check_subadditive(problem: ProblemInstance) -> CheckReport:
    """Verify, for every pair of client sets, that optimal solutions combine.

    Checks both that the union of the two optima is feasible for the union
    of the client sets and that optimal costs are subadditive.  Both tests
    are symmetric in the pair, so T runs from S onward in mask order; the
    first failing ordered pair always has S at or before T.
    """
    subsets = client_sets(problem, "subadditivity")
    opt = {S: exact_opt(problem, S) for S in subsets}
    for i, S in enumerate(subsets):
        for T in subsets[i:]:
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
    """Exhaustively verify monotonicity of the oracle and Sols({}) != {}.

    One feasibility table over every client set and one
    :func:`first_decrease` pass over it: a failing sweep asks the oracle
    about every client set before it reports the first failure, in client
    set, then element set, then element order.
    """
    subsets = client_sets(problem, "monotonicity")
    if not problem.feasibility(frozenset(), frozenset()):
        return CheckReport(False, "the empty set does not serve the empty client set")
    broken = first_decrease(feasible_table(problem, subsets), 0.0)
    if broken is not None:
        row, _, i = broken
        return CheckReport(False,
                           f"adding {problem.elements[i]!r} broke "
                           f"feasibility for {sorted(map(str, subsets[row]))}")
    return CheckReport(True)

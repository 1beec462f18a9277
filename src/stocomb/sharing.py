"""Cost-sharing functions, ordered schemes, and their exhaustive checkers.

Two flavors live here.  A *cost-share function* ``xi(S, j)`` splits the cost
of serving a client set among its members; the checkers certify fairness
(shares never exceed the exact optimum) and measure strictness (how well
shares cover augmentation costs).  An *ordered scheme* ``chi(i, S, order)``
additionally depends on a total order on S; ``check_scheme`` measures its
summability and budget-balance ratios and verifies cross-monotonicity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import caps
from .errors import CapExceeded
from .model import (
    COST_TOL,
    CheckReport,
    ProblemInstance,
    client_optima,
    client_sets,
    members,
)
from .model import exact_opt  # noqa: F401 - kept importable: tracers patch it here by name
from .rng import stream
from .setfun import check_monotone, check_submodular
from .solvers import ApproxAlgorithm

RATIO_TOL = 1e-12
EXHAUSTIVE_ORDERS = 5   # subsets up to this size get every ordering in check_scheme
SAMPLED_ORDERS = 60     # random orderings drawn for each larger subset
ORDER_SEED = 0          # seed of those draws

# xi(S, j): share of client j in the cost of serving S.
CostShareFunction = Callable[[frozenset, object], float]


@dataclass(frozen=True)
class OrderedCostShareScheme:
    """chi(i, S, order) with the summability/balance factors it claims.

    ``certified`` is set by constructions whose claims were verified, such
    as the marginal scheme of a checked monotone submodular function.
    """

    chi: Callable[[object, frozenset, tuple], float]
    eta: float
    beta: float
    certified: bool = False

    def __call__(self, i, subset, order):
        return self.chi(i, frozenset(subset), tuple(order))


def total_share(xi: CostShareFunction, subset: frozenset) -> float:
    return sum(xi(subset, j) for j in subset)


def check_fairness(xi: CostShareFunction, problem: ProblemInstance) -> CheckReport:
    """Verify sum of shares <= exact optimum cost (within ``COST_TOL``) for
    every client subset."""
    subsets = client_sets(problem, "cost-share")
    optimum = client_optima(problem)
    for S in subsets:
        opt = optimum(S)
        if total_share(xi, S) > opt.cost + COST_TOL:
            return CheckReport(
                False, f"shares for {sorted(map(str, S))} exceed the optimum")
    return CheckReport(True)


def check_support(xi: CostShareFunction, problem: ProblemInstance) -> bool:
    """Shares must vanish for clients outside the served set."""
    for S in client_sets(problem, "cost-share"):
        for j in problem.clients:
            if j not in S and xi(S, j) > 0.0:
                return False
    return True


def _strictness(xi, alg, problem, singletons_only):
    subsets = client_sets(problem, "cost-share")
    solved = {S: alg.solve(problem, S) for S in subsets}
    if singletons_only:
        additions = [frozenset({j}) for j in problem.clients]
    else:
        additions = subsets
    worst = 0.0
    for S in subsets:
        base = solved[S].chosen
        for T in additions:
            if not T:
                continue
            union = S | T
            aug_cost = alg.augment(problem, base, union).cost
            share = sum(xi(union, j) for j in T)
            if share <= RATIO_TOL:
                if aug_cost > 1e-9:
                    return math.inf
                continue
            worst = max(worst, aug_cost / share)
    return worst


def measure_strictness(xi: CostShareFunction, alg: ApproxAlgorithm,
                       problem: ProblemInstance) -> float:
    """Worst augmentation-cost / share ratio over all set pairs.

    Returns ``inf`` when some zero-share addition needs a positive
    augmentation; pairs with zero share and zero augment cost are skipped.
    """
    return _strictness(xi, alg, problem, singletons_only=False)


def measure_unistrictness(xi: CostShareFunction, alg: ApproxAlgorithm,
                          problem: ProblemInstance) -> float:
    """Same ratio restricted to single-client additions."""
    return _strictness(xi, alg, problem, singletons_only=True)


def equal_split_shares(problem: ProblemInstance) -> CostShareFunction:
    """Exact optimum split evenly over the served clients."""
    optimum = client_optima(problem)

    def xi(subset: frozenset, j) -> float:
        subset = frozenset(subset)
        if j not in subset:
            return 0.0
        return optimum(subset).cost / len(subset)

    return xi


def zero_shares() -> CostShareFunction:
    return lambda subset, j: 0.0


def marginal_scheme(f, ground: tuple) -> OrderedCostShareScheme:
    """Order-marginal scheme of a monotone submodular function.

    ``chi(i, S, order)`` is the increase of f when i arrives at its position
    in the order.  The function is checked exhaustively (ground sets up to
    ``caps.MARGINAL_SCHEME`` elements), after which the scheme is certified
    with both factors 1.
    """
    if len(ground) > caps.MARGINAL_SCHEME:
        raise CapExceeded(f"marginal-scheme certification enumerates up to "
                          f"2^{caps.MARGINAL_SCHEME} sets")
    check_monotone(f, ground)
    check_submodular(f, ground)

    def chi(i, subset: frozenset, order: tuple) -> float:
        if i not in subset:
            raise ValueError(f"{i!r} is not in the served set")
        if frozenset(order) != subset:
            raise ValueError("order must enumerate exactly the served set")
        pos = order.index(i)
        return f(frozenset(order[:pos + 1])) - f(frozenset(order[:pos]))

    return OrderedCostShareScheme(chi=chi, eta=1.0, beta=1.0, certified=True)


@dataclass(frozen=True)
class SchemeReport:
    """Measured factors of an ordered scheme against a cost function."""

    eta_hat: float
    beta_hat: float
    cross_monotone: bool
    witness: str | None = None


def _orderings(subset_tuple: tuple, rng):
    if len(subset_tuple) <= EXHAUSTIVE_ORDERS:
        yield from itertools.permutations(subset_tuple)
    else:
        seen = set()
        for _ in range(SAMPLED_ORDERS):
            perm = tuple(rng.permutation(len(subset_tuple)))
            order = tuple(subset_tuple[k] for k in perm)
            if order not in seen:
                seen.add(order)
                yield order


def check_scheme(scheme, f, ground: tuple, *,
                 order_universe=None,
                 cross_pair_filter=None) -> SchemeReport:
    """Measure eta-hat, beta-hat, and cross-monotonicity of ``scheme``.

    By default every ordering of every subset up to ``EXHAUSTIVE_ORDERS``
    elements is swept; larger subsets get ``SAMPLED_ORDERS`` seeded random
    orderings.  ``order_universe`` may supply global orderings of the ground
    set instead, in which case each subset inherits its induced orderings;
    ``cross_pair_filter(S, T)`` can restrict which nested pairs the
    cross-monotonicity sweep visits.  Costs and shares within ``COST_TOL``
    of zero count as zero, and so do share increases within it.
    """
    if len(ground) > caps.SCHEME_CLIENTS:
        raise CapExceeded("ground set too large for the scheme sweep")
    chi = scheme.chi if isinstance(scheme, OrderedCostShareScheme) else scheme
    rng = stream(ORDER_SEED, "scheme-orders")
    n = len(ground)

    def orders_of(subset_tuple):
        if order_universe is not None:
            induced = []
            for glob in order_universe:
                order = tuple(x for x in glob if x in subset_tuple)
                if order not in induced:
                    induced.append(order)
            return induced
        return list(_orderings(subset_tuple, rng))

    eta_hat = 0.0
    beta_hat = 0.0
    witness = None
    subsets = [members(mask, ground) for mask in range(1, 1 << n)]
    order_cache = {sub: orders_of(sub) for sub in subsets}

    for sub in subsets:
        S = frozenset(sub)
        fS = f(S)
        for order in order_cache[sub]:
            prefix = 0.0
            for l, i in enumerate(order, start=1):
                prefix += chi(i, frozenset(order[:l]), order[:l])
            full = sum(chi(i, S, order) for i in order)
            if fS <= COST_TOL:
                if prefix > COST_TOL:
                    eta_hat = math.inf
                    witness = witness or f"positive prefix sum on zero-cost set {sub}"
            else:
                eta_hat = max(eta_hat, prefix / fS)
            if full <= COST_TOL:
                if fS > COST_TOL:
                    beta_hat = math.inf
                    witness = witness or f"zero total share on {sub} with positive cost"
            else:
                beta_hat = max(beta_hat, fS / full)

    cross_ok = True
    for sub in subsets:
        T = frozenset(sub)
        for order_T in order_cache[sub]:
            for r in range(1, len(sub)):
                for keep in itertools.combinations(order_T, r):
                    S = frozenset(keep)
                    if cross_pair_filter is not None and not cross_pair_filter(S, T):
                        continue
                    order_S = tuple(x for x in order_T if x in S)
                    for i in order_S:
                        if chi(i, S, order_S) < chi(i, T, order_T) - COST_TOL:
                            cross_ok = False
                            witness = witness or (
                                f"share of {i!r} grows from {sorted(map(str, S))} "
                                f"to {sorted(map(str, T))}")
    return SchemeReport(eta_hat, beta_hat, cross_ok, witness)

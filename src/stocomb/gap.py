"""Worst-case versus independent expectations of a monotone set function.

Fixing per-item marginals, the worst-case expectation is the optimum of an
LP over all distributions with those marginals (one variable per subset),
solved by column generation over the subset table; the correlation gap is
its ratio to the expectation under the independent product measure.  The
split operation, which clones items into equal-marginal copies, preserves
the worst case and can only shrink the independent side, and cost-sharing
schemes transfer to split instances by paying only the earliest copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import caps
from ._kernels import bernoulli_weights
from .errors import CapExceeded, DegenerateInstance, NotMonotone, UncertifiedScheme
from .lp import OPTIMAL, ColumnMaster
# ``solve_lp`` is not called here; it stays a module attribute because
# perfbench/tracing.py patches ``gap.solve_lp`` by name.
from .lp import solve_lp  # noqa: F401
from .model import members, subset_table
from .setfun import E_RATIO, check_monotone, from_table, table
from .sharing import OrderedCostShareScheme, SchemeReport

GAP_TOL = 1e-9
SPLIT_TOL = 1e-7      # worst-case values a split must preserve
PRICE_TOL = 1e-9      # relative reduced-cost tolerance of the pricing step
PRICE_COLUMNS = 8     # most negative columns added per pricing round


@dataclass(frozen=True)
class GapInstance:
    """Ground set, nondecreasing cost oracle, and per-item marginals."""

    ground: tuple
    f: Callable[[frozenset], float]
    marginals: Mapping

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "marginals", dict(self.marginals))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("duplicate ground items")
        for i in self.ground:
            p = self.marginals[i]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"marginal of {i!r} outside [0, 1]")

    def marginal_vector(self) -> np.ndarray:
        return np.array([self.marginals[i] for i in self.ground])

    @cached_property
    def _table(self) -> np.ndarray:
        """Mask-indexed table of ``f``, built once and shared by the
        worst-case and independent expectations."""
        return table(self.f, self.ground)


@dataclass(frozen=True)
class GapReport:
    worst_case: float
    independent: float
    kappa: float
    bound: float
    worst_distribution: dict


@dataclass(frozen=True)
class SplitMap:
    """How many equal-marginal copies each item becomes."""

    copies: Mapping

    def __post_init__(self):
        object.__setattr__(self, "copies", dict(self.copies))
        for i, n in self.copies.items():
            if n < 1 or int(n) != n:
                raise ValueError(f"copy count for {i!r} must be a positive integer")

    def ground_of(self, inst: GapInstance) -> tuple:
        return tuple((i, k) for i in inst.ground
                     for k in range(1, self.copies.get(i, 1) + 1))


def priced_columns(reduced: np.ndarray, value: float) -> np.ndarray:
    """The columns that join the master: those with reduced cost below
    ``-PRICE_TOL * max(1, |value|)``, the ``PRICE_COLUMNS`` most negative
    first, ties in index order."""
    new = np.flatnonzero(reduced < -PRICE_TOL * max(1.0, abs(value)))
    if new.size > PRICE_COLUMNS:
        # Only candidates up to the PRICE_COLUMNS-th smallest reduced cost,
        # ties included, can be among the first PRICE_COLUMNS.
        candidates = reduced[new]
        kth = np.partition(candidates, PRICE_COLUMNS - 1)[PRICE_COLUMNS - 1]
        new = new[candidates <= kth]
    return new[np.argsort(reduced[new], kind="stable")[:PRICE_COLUMNS]]


def systematic_segments(p) -> list:
    """``(mask, length)`` of each segment of systematic sampling (Madow
    1949) with marginals ``p``, in circle order.

    Item i holds the arc [c_i, c_{i+1}) of a circle of length 1, where
    c_i = p_0 + ... + p_{i-1}.  The cut points c_k mod 1 split the circle
    into at most n + 1 segments, and each segment's mask holds the items
    whose arc holds it (its midpoint).  A uniform point on the circle draws
    each item with its marginal, so the lengths are a distribution over
    the masks that meets ``p``.  The sum runs mod 1, so each arc misses
    its marginal by at most two roundings below 1, and an arc of marginal
    1 ends exactly where it starts.
    """
    laps, points = [0], [0.0]
    lap, frac = 0, 0.0
    for q in p:
        if frac >= 1.0 - q:  # the arc passes 0: next lap
            frac -= 1.0 - q
            lap += 1
        else:
            frac += q
        laps.append(lap)
        points.append(frac)
    cuts = sorted(set(points))  # cuts[0] == 0.0
    m = len(cuts)
    index = {x: k for k, x in enumerate(cuts)}
    # Arc ends as segment indices on the unrolled circle; an arc of length
    # 1 spans all m segments.
    ends = [k * m + index[x] for k, x in zip(laps, points)]
    masks = [0] * m
    for i, (a, b) in enumerate(zip(ends, ends[1:])):
        for j in range(a, min(b, a + m)):
            masks[j % m] |= 1 << i
    return list(zip(masks, [b - a for a, b in zip(cuts, cuts[1:] + [1.0])]))


def start_columns(p) -> np.ndarray:
    """The restricted master's first columns: the empty set, then the
    distinct masks of :func:`systematic_segments` in circle order."""
    masks = [mask for mask, _ in systematic_segments(p)]
    return np.array(list(dict.fromkeys([0] + masks)))


def worst_case_expectation(inst: GapInstance):
    """Optimal value and attaining distribution of the fixed-marginal LP.

    Maximizes the expectation of f over all subset distributions whose item
    marginals match the instance: one column per subset, one equality row
    per item plus the total mass, passed to the simplex as equality rows.
    Solved by column generation (Gilmore & Gomory 1961).  The restricted
    master starts from :func:`start_columns`: the empty set and the support
    of systematic sampling, which always carries a feasible distribution.
    Systematic sampling spreads the items as far apart as the marginals
    allow, so few rounds remain; the comonotone chain, for a submodular f,
    would start at the least expectation the marginals allow (the Lovasz
    extension).  The first solve is offered the columns after the empty
    set as its basis; when they are n + 1 independent nonempty masks their
    levels are the segment lengths, and it runs phase 2 alone (Bixby
    1992); otherwise the kernel refuses the basis and runs phase 1 from
    the artificial basis.  Each round
    prices all 2^n subsets at once against the master's free-signed duals
    y (items) and y0 (mass), reduced cost
    -f(S) - (sum of y over S + y0) with the sums tabulated by doubling.  The
    subsets whose reduced cost is below ``-PRICE_TOL * max(1, |value|)``
    are sorted, stably, by reduced cost and the first ``PRICE_COLUMNS``
    join the master (:func:`priced_columns`).  The loop stops when there is
    none: the duals are then feasible for the full LP, so the master's
    value is its optimum.  Adding columns keeps the master's basis primal
    feasible, so each round re-optimizes it from the last basis (phase 2 of
    the simplex alone, :class:`~stocomb.lp.ColumnMaster`) instead of solving
    it from scratch.
    """
    n = len(inst.ground)
    if n > caps.GAP_CLIENTS:
        raise CapExceeded("ground set too large for the worst-case LP")
    values = inst._table
    p = inst.marginal_vector()
    cols = start_columns(p.tolist())
    in_master = np.zeros(1 << n, dtype=bool)

    def rows(masks):
        """Equality rows: item marginals, then total mass."""
        return np.vstack([(masks >> np.arange(n)[:, None]) & 1, np.ones(masks.size)])

    # Positions 1..n+1 are the nonempty segments.  With fewer than n + 2
    # columns (the empty set is a segment, two segments share a mask, or
    # there are fewer) the kernel refuses the basis by its index check, and
    # with dependent masks by its singular solve; both run phase 1.
    master = ColumnMaster(rows(cols), np.append(p, 1.0), -values[cols], n + 1,
                          list(range(1, n + 2)))
    while True:
        in_master[cols] = True
        res = master.result
        if res.status != OPTIMAL:
            raise DegenerateInstance(f"worst-case LP ended {res.status}")
        y = res.duals
        reduced = -values - (subset_table(y[:n], np.add, 0.0) + y[n])
        # The master already prices its own columns; skipping them makes
        # every round add new ones, so the loop ends within 2^n columns.
        reduced[in_master] = np.inf
        new = priced_columns(reduced, res.value)
        if new.size == 0:
            break
        cols = np.concatenate([cols, new])
        master.add_columns(rows(new), -values[new])
    dist = {frozenset(members(int(mask), inst.ground)): float(a)
            for mask, a in sorted(zip(cols, res.primal)) if a > 1e-12}
    return -res.value, dist


def independent_expectation(inst: GapInstance) -> float:
    """Expectation of f under the independent product measure (exact)."""
    if len(inst.ground) > caps.SUPPORT_CLIENTS:
        raise CapExceeded("exact product expectation needs 2^|V| terms")
    return float(bernoulli_weights(inst.marginal_vector()) @ inst._table)


def correlation_gap(inst: GapInstance, eta: float = 1.0,
                    beta: float = 1.0) -> GapReport:
    """Worst-case over independent expectation, with the claimed bound."""
    worst, dist = worst_case_expectation(inst)
    indep = independent_expectation(inst)
    if indep <= 1e-12:
        raise DegenerateInstance("independent expectation is zero; ratio undefined")
    return GapReport(
        worst_case=worst,
        independent=indep,
        kappa=worst / indep,
        bound=eta * beta * E_RATIO,
        worst_distribution=dist,
    )


def split(inst: GapInstance, split_map: SplitMap) -> GapInstance:
    """Clone items into equal-marginal copies; cost looks only at originals."""
    ground = split_map.ground_of(inst)
    if len(ground) > caps.SUPPORT_CLIENTS:
        raise CapExceeded(f"{len(ground)} copies are too many to tabulate")
    marginals = {(i, k): inst.marginals[i] / split_map.copies.get(i, 1)
                 for (i, k) in ground}
    # originals[mask]: the mask of the original items ``mask`` holds a copy of.
    bit = {i: 1 << b for b, i in enumerate(inst.ground)}
    originals = subset_table([bit[i] for i, _k in ground], np.bitwise_or, 0)
    return GapInstance(ground=ground, f=from_table(inst._table[originals], ground),
                       marginals=marginals)


def split_scheme(scheme: OrderedCostShareScheme,
                 split_map: SplitMap) -> OrderedCostShareScheme:
    """Transfer an ordered scheme to a split instance.

    Scanning the order, the first copy of each original inherits that
    original's share in the projected instance; every later copy gets zero.
    """
    base_chi = scheme.chi

    def chi(copy, subset: frozenset, order: tuple) -> float:
        if copy not in subset:
            raise ValueError(f"{copy!r} is not in the served set")
        if frozenset(order) != frozenset(subset):
            raise ValueError("order must enumerate exactly the served set")
        reps: dict = {}  # each original's first copy, in order
        for c in order:
            reps.setdefault(c[0], c)
        if reps[copy[0]] != copy:
            return 0.0
        return base_chi(copy[0], frozenset(reps), tuple(reps))

    return OrderedCostShareScheme(chi=chi, eta=scheme.eta, beta=scheme.beta,
                                  certified=scheme.certified)


@dataclass(frozen=True)
class SplitReport:
    monotone: bool
    worst_case_preserved: bool
    independent_shrinks: bool
    original_worst: float
    split_worst: float
    original_independent: float
    split_independent: float

    @property
    def ok(self) -> bool:
        return (self.monotone and self.worst_case_preserved
                and self.independent_shrinks)


def check_split_invariants(inst: GapInstance, split_map: SplitMap) -> SplitReport:
    """Monotonicity transfer, worst-case preservation (within ``SPLIT_TOL``),
    independent shrinkage."""
    if len(split_map.ground_of(inst)) > caps.GAP_CLIENTS:
        raise CapExceeded("split instance too large for the worst-case LP")
    new = split(inst, split_map)
    try:
        check_monotone(new.f, new.ground, tol=0.0)
        monotone = True
    except NotMonotone:
        monotone = False
    worst_old, _ = worst_case_expectation(inst)
    worst_new, _ = worst_case_expectation(new)
    ind_old = independent_expectation(inst)
    ind_new = independent_expectation(new)
    return SplitReport(
        monotone=monotone,
        worst_case_preserved=abs(worst_old - worst_new) <= SPLIT_TOL,
        independent_shrinks=ind_new <= ind_old + GAP_TOL,
        original_worst=worst_old,
        split_worst=worst_new,
        original_independent=ind_old,
        split_independent=ind_new,
    )


def verify_gap_bound(inst: GapInstance, eta: float, beta: float,
                     certificate) -> bool:
    """True when kappa stays within eta * beta * e/(e-1) (small slack).

    ``certificate`` must be evidence that some (eta, beta) scheme exists for
    this cost function: either a measured :class:`SchemeReport` within the
    claimed factors, or a certified scheme construction.
    """
    if certificate is None:
        raise UncertifiedScheme("no scheme evidence supplied")
    if isinstance(certificate, SchemeReport):
        if (certificate.eta_hat > eta + GAP_TOL
                or certificate.beta_hat > beta + GAP_TOL
                or not certificate.cross_monotone):
            raise UncertifiedScheme("measured factors exceed the claimed ones")
    elif isinstance(certificate, OrderedCostShareScheme):
        if not certificate.certified:
            raise UncertifiedScheme("scheme construction is not certified")
        if certificate.eta > eta + GAP_TOL or certificate.beta > beta + GAP_TOL:
            raise UncertifiedScheme("scheme claims weaker factors than requested")
    else:
        raise UncertifiedScheme(f"unrecognized certificate {certificate!r}")
    report = correlation_gap(inst, eta=eta, beta=beta)
    return report.kappa <= report.bound + 1e-6

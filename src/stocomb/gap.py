"""Worst-case versus independent expectations of a monotone set function.

Fixing per-item marginals, the worst-case expectation is the optimum of an
LP over all distributions with those marginals (one variable per subset),
solved by one revised simplex that prices the whole subset table at every
pivot, from the systematic-sampling basis; the correlation gap is its
ratio to the expectation under the independent product measure.  The
split operation, which clones items into equal-marginal copies, preserves
the worst case and can only shrink the independent side, and cost-sharing
schemes transfer to split instances by paying only the earliest copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import _kernels, caps
from ._kernels import bernoulli_weights
from .errors import (CapExceeded, DegenerateInstance, NotMonotone,
                     NumericalFailure, UncertifiedScheme)
from .lp import PIVOT_TOL, max_pivots
# ``solve_lp`` is not called here; it stays a module attribute because
# perfbench/tracing.py patches ``gap.solve_lp`` by name.
from .lp import solve_lp  # noqa: F401
from .model import members, subset_table
from .setfun import E_RATIO, check_monotone, from_table, table
from .sharing import OrderedCostShareScheme, SchemeReport

GAP_TOL = 1e-9        # scheme factors; and independent shrinkage, per max|f|
SPLIT_TOL = 1e-7      # worst-case values a split must preserve, per max|f|
PRICE_TOL = 1e-9      # reduced-cost tolerance of the pricing step, per max|f|
BOUND_SLACK = 1e-6    # kappa may exceed the claimed bound by this much


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


def systematic_basis(p):
    """``(masks, B, level)``: the worst-case LP's start basis for marginals
    ``p``, over the n item rows and then the mass row.

    The columns of B are the k segments of :func:`systematic_segments` at
    their lengths, then the artificial e_r, at level zero, of each of the
    n + 1 - k item rows r that is no r_j, where r_j (j >= 1) is the least
    item whose arc ends at cut j.  ``masks`` holds each column's subset,
    and -1 - r for e_r.  B is nonsingular: ordered by r_j, the differences
    seg_j - seg_{j-1} are triangular, with -1 at row r_j (an item ends at
    one cut, and one that starts at cut j follows one that ends there),
    and segment 0 holds the mass row.
    """
    segments = systematic_segments(p)
    n, k = len(p), len(segments)
    seg = [mask for mask, _ in segments]
    ends = [a & ~b for a, b in zip(seg, seg[1:])]
    cut_rows = {(e & -e).bit_length() - 1 for e in ends}
    art = [r for r in range(n) if r not in cut_rows]
    # e_r is column 1 << r without the mass row's 1.
    cols = np.array(seg + [1 << r for r in art])
    B = np.vstack([(cols >> np.arange(n)[:, None]) & 1, np.arange(n + 1) < k])
    level = np.array([length for _, length in segments] + [0.0] * len(art))
    return np.array(seg + [-1 - r for r in art]), B, level


def worst_case_expectation(inst: GapInstance):
    """Optimal value and attaining distribution of the fixed-marginal LP.

    Maximizes the expectation of f over all subset distributions whose item
    marginals match the instance: one column per subset, one equality row
    per item plus the total mass.  A revised simplex (Dantzig & Orchard-Hays
    1954) solves it over all 2^n subsets, keeping only B^-1 and the basic
    levels.  It starts at a crash basis (Bixby 1992),
    :func:`systematic_basis`: the segments of systematic sampling, a
    feasible distribution that spreads the items as far apart as the
    marginals allow, completed by artificials at level zero.

    Each pivot prices every subset against the duals y = c_B B^-1,
    reduced cost -f(S) - (sum of y over S + y0), y0 the mass row's, with the
    sums tabulated by doubling; it stops when none is below
    ``-PRICE_TOL * max|f|``.  The most negative subset enters, or right
    after a degenerate pivot the first eligible one (Bland): a cycle has
    only degenerate pivots, hence Bland's choices, so it cannot occur.  The
    least ratio leaves, ties within 1e-12 to the smallest basic mask, but a
    basic artificial (at level zero, ranked as mask -1 - r for row r) that
    the column reaches leaves first; artificials never enter.  The mass row
    makes the basic entries of B^-1 a sum to 1, so some row always leaves.
    """
    n = len(inst.ground)
    if n > caps.GAP_CLIENTS:
        raise CapExceeded("ground set too large for the worst-case LP")
    values = inst._table
    p = inst.marginal_vector()
    masks, B, level = systematic_basis(p.tolist())
    items = np.arange(n)
    costs = np.where(masks < 0, 0.0, -values[masks])  # artificials cost 0
    # [B^-1 | x_B | B^-1 a_q]: one pivot updates B^-1 and the levels.
    R = np.hstack([np.linalg.inv(B), level[:, None], np.empty((n + 1, 1))])
    tol = PRICE_TOL * np.abs(values).max()
    degenerate = False
    for _ in range(max_pivots(n + 1, 1 << n) + 1):
        y = costs @ R[:, :n + 1]
        reduced = -values - (subset_table(y[:n], np.add, 0.0) + y[n])
        eligible = np.flatnonzero(reduced < -tol)
        if not eligible.size:
            break
        q = eligible[0] if degenerate else reduced.argmin()
        R[:, -1] = d = R[:, :n + 1] @ np.append((q >> items) & 1, 1.0)
        reach = (masks < 0) & (np.abs(d) > PIVOT_TOL)
        rows = np.flatnonzero(reach | (d > PIVOT_TOL))
        ratios = np.where(reach[rows], 0.0, R[rows, n + 1] / d[rows])
        best = ratios.min()
        tie = rows[ratios <= best + 1e-12]
        r = tie[masks[tie].argmin()]
        _kernels._pivot(R, r, n + 2)
        masks[r], costs[r] = q, -values[q]
        degenerate = best <= 1e-12
    else:
        raise NumericalFailure("worst-case LP hit the pivot limit")
    level = R[:, n + 1]
    dist = {frozenset(members(int(mask), inst.ground)): float(a)
            for mask, a in sorted(zip(masks, level)) if mask >= 0 and a > 1e-12}
    return -float(costs @ level), dist


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
    if indep <= 1e-12 * np.abs(inst._table).max():
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
    """Monotonicity transfer, worst-case preservation (within ``SPLIT_TOL``)
    and independent shrinkage (within ``GAP_TOL``), both tolerances relative
    to max|f|."""
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
    scale = np.abs(inst._table).max()
    return SplitReport(
        monotone=monotone,
        worst_case_preserved=abs(worst_old - worst_new) <= SPLIT_TOL * scale,
        independent_shrinks=ind_new <= ind_old + GAP_TOL * scale,
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
    return report.kappa <= report.bound + BOUND_SLACK

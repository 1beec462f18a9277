"""Sample-average pipeline over two-stage stochastic linear programs.

An instance carries first-stage prices over a finite box (the only
polytope: there are no extra linear rows) and a list of scenario blocks;
each block prices extra purchases and auxiliary variables and couples them
to the first stage through a nonnegative technology matrix.  The
expected-cost objective is convex and piecewise linear, its
subgradients come for free from the recourse duals, and the minimizer here
is a multi-cut L-shaped (cutting-plane) method that solves the sampled
problem to a certified gap.  The deterministic-equivalent LP (one big
program expanding all scenarios) is the exact oracle everything is measured
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CapExceeded, Infeasible, NumericalFailure, Unbounded
from .lp import (
    FEAS_TOL,
    INFEASIBLE,
    MAX_CONSTRAINTS,
    MAX_VARIABLES,
    ColumnMaster,
    LinearProgram,
    UNBOUNDED,
    solve_lp,
    solve_prepared,
)
from .model import PROB_TOL
CUT_TOL = 1e-9  # relative slack before a recourse value violates its cut
MAX_ITERATIONS = 10_000  # cutting-plane rounds before minimize gives up
OMEGA_TOL = 1e-7  # absolute slack of the relaxed subgradient inequality


def _vector(value, what: str) -> np.ndarray:
    """``value`` as a float vector; a number or a nested list is refused."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{what} must be a list of numbers")
    return v


def _matrix(value, rows: int, cols: int, what: str) -> np.ndarray:
    """``value`` as a rows x cols float matrix; ``[]`` is the empty one."""
    v = np.asarray(value, dtype=float)
    if v.size == 0 and rows * cols == 0:
        return v.reshape(rows, cols)
    if v.shape != (rows, cols):
        raise ValueError(f"{what} must be {rows} rows of {cols} numbers")
    return v


@dataclass(frozen=True)
class ScenarioBlock:
    """One scenario: probability, recourse prices, and its constraint block.

    The recourse LP for first-stage vector x is

        min recourse_cost . r + aux_cost . s
        s.t. technology @ r + coupling @ s >= requirement - technology @ x,
             r, s >= 0

    ``technology`` must be entrywise nonnegative.
    """

    probability: float
    recourse_cost: np.ndarray
    aux_cost: np.ndarray
    coupling: np.ndarray      # multiplies the auxiliary variables
    technology: np.ndarray    # multiplies both recourse purchases and x
    requirement: np.ndarray

    def __post_init__(self):
        for name in ("recourse_cost", "aux_cost", "requirement"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))
        k = self.requirement.size
        m = self.recourse_cost.size
        n = self.aux_cost.size
        tech = _matrix(self.technology, k, m, "technology")
        coup = _matrix(self.coupling, k, n, "coupling")
        object.__setattr__(self, "technology", tech)
        object.__setattr__(self, "coupling", coup)
        for name in ("recourse_cost", "aux_cost", "coupling", "technology",
                     "requirement"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"scenario {name} must be finite")
        if (tech < 0).any():
            raise ValueError("technology matrix must be nonnegative")
        if not 0.0 <= self.probability < math.inf:
            raise ValueError("scenario probability must be finite and >= 0")

    @cached_property
    def recourse_lp(self) -> tuple:
        """``(A, c)`` of the recourse LP, built on first use: the stacked
        ``[technology, coupling]`` and the matching prices."""
        return (np.hstack([self.technology, self.coupling]),
                np.concatenate([self.recourse_cost, self.aux_cost]))


@dataclass(frozen=True)
class Polytope:
    """A finite box lower <= x <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lower, "lower")
        hi = _vector(self.upper, "upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise ValueError("lower and upper bounds differ in length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if (lo > hi).any():
            raise ValueError("a lower bound exceeds its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return not ((x < self.lower - tol).any() or (x > self.upper + tol).any())


def unit_box(m: int) -> Polytope:
    return Polytope(np.zeros(m), np.ones(m))


@dataclass(frozen=True)
class StochasticLPInstance:
    first_stage_cost: np.ndarray
    polytope: Polytope
    scenarios: tuple

    def __post_init__(self):
        w = _vector(self.first_stage_cost, "first_stage_cost")
        object.__setattr__(self, "first_stage_cost", w)
        if not np.isfinite(w).all():
            raise ValueError("first-stage costs must be finite")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.polytope.dim != w.size:
            raise ValueError("polytope dimension must match the cost vector")
        total = sum(b.probability for b in self.scenarios)
        if self.scenarios and abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total}, not 1")
        for b in self.scenarios:
            if b.recourse_cost.size != w.size:
                raise ValueError("recourse cost length must match the first stage")

    def probabilities(self) -> np.ndarray:
        return np.array([b.probability for b in self.scenarios])

    def price_ratio(self) -> float:
        """max(1, worst scenario-to-first-stage price ratio), the lambda bound."""
        worst = 1.0
        w = self.first_stage_cost
        for b in self.scenarios:
            for e in range(w.size):
                if w[e] > 0:
                    worst = max(worst, b.recourse_cost[e] / w[e])
                elif b.recourse_cost[e] > 0:
                    return math.inf
        return worst

    def lipschitz_bound(self) -> float:
        return self.price_ratio() * float(np.linalg.norm(self.first_stage_cost))


def recourse_value(instance: StochasticLPInstance, index: int, x):
    """Optimal recourse cost and dual vector for one scenario at x."""
    block = instance.scenarios[index]
    A, c = block.recourse_lp
    rhs = block.requirement - block.technology @ np.asarray(x, dtype=float)
    status, _, duals, value = solve_prepared(A, rhs, c)
    if status == 1:
        raise Infeasible(f"recourse LP infeasible in scenario {index}")
    if status == 2:
        raise Unbounded(f"recourse LP unbounded in scenario {index}")
    return value, duals


def _evaluate(instance, x, weights):
    """h(x) and ``(index, recourse value, duals)`` per weighted scenario."""
    total = float(instance.first_stage_cost @ x)
    parts = []
    for i, w in enumerate(weights):
        if w == 0.0:
            continue
        value, duals = recourse_value(instance, i, x)
        total += w * value
        parts.append((i, value, duals))
    return total, parts


def h_exact(instance: StochasticLPInstance, x) -> float:
    """First-stage cost plus the probability-weighted exact recourse values."""
    return _evaluate(instance, np.asarray(x, dtype=float), instance.probabilities())[0]


def subgradient_at(instance: StochasticLPInstance, x) -> np.ndarray:
    """Dual-formula subgradient: first-stage prices minus the
    probability-weighted pullback of the recourse duals through each
    technology matrix."""
    x = np.asarray(x, dtype=float)
    weights = instance.probabilities()
    d = instance.first_stage_cost.astype(float).copy()
    for i, _, duals in _evaluate(instance, x, weights)[1]:
        d -= weights[i] * (instance.scenarios[i].technology.T @ duals)
    return d


def sample_size(m: int, price_ratio: float, lipschitz: float, radius: float,
                epsilon: float, delta: float, gamma: float) -> int:
    """Sample count sufficient for the high-probability guarantee.

    Derived from the dyadic level count ceil(log2(2 K R / epsilon)), the
    per-level subgradient slack omega = gamma / (8 levels), and a union
    bound over the extended grid of spacing epsilon / (K levels sqrt(m));
    astronomically conservative by design and exercised here only as a
    formula.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if not (0 < gamma <= 1):
        raise ValueError("gamma must lie in (0, 1]")
    if min(epsilon, lipschitz, radius) <= 0:
        raise ValueError("epsilon, lipschitz, and radius must be positive")
    levels = max(1, math.ceil(math.log2(2.0 * lipschitz * radius / epsilon)))
    omega = gamma / (8.0 * levels)
    spacing = epsilon / (lipschitz * levels * math.sqrt(m))
    grid_bound = levels * (2.0 * radius / spacing) ** (2 * m)
    lead = 4.0 * (1.0 + price_ratio) ** 2 / (3.0 * omega ** 2)
    return math.ceil(lead * math.log(2.0 * m * grid_bound / delta))


def build_sample_average(instance: StochasticLPInstance, n_samples: int,
                         rng) -> StochasticLPInstance:
    """Instance reweighted by empirical scenario frequencies.

    Scenarios never sampled are dropped; the rest keep their order with
    probability count/n.
    """
    probs = instance.probabilities()
    counts = rng.multinomial(n_samples, probs)
    blocks = tuple(replace(b, probability=c / n_samples)
                   for b, c in zip(instance.scenarios, counts) if c)
    return StochasticLPInstance(instance.first_stage_cost, instance.polytope, blocks)


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    converged: bool
    iterations: int
    trace: tuple = field(repr=False, default=())


def minimize(instance: StochasticLPInstance, tolerance: float = 1e-6) -> MinimizeResult:
    """Multi-cut L-shaped (cutting-plane) minimization over the box polytope.

    Each iteration evaluates every weighted scenario's recourse LP at the
    current point x and, where the master's theta_s falls short of the
    recourse value, adds the dual cut

        theta_s >= duals_s . (requirement_s - technology_s @ x).

    The master LP minimizes first-stage cost plus the weighted thetas over
    the box; its optimum is a lower bound on the objective and its minimizer
    is the next point.  It is kept as its LP dual over z = x - lower, with a
    column mu_i per finite box width and a column lambda_c per cut
    theta_s + g_c . z >= rhs_c:

        min  width . mu - rhs . lambda
        s.t. sum of lambda_c over the cuts of scenario s = p_s   (theta_s free)
             mu_i - sum_c g_ci lambda_c >= -first_stage_cost_i   (per z_i)

    Cuts only add columns, so the first iteration solves it cold and later
    ones re-optimize from the last basis (:class:`ColumnMaster`); its row
    duals are -theta and z.  The run is ``converged`` once the best value is
    within ``tolerance`` of the bound, or once no cut is violated (the master
    is exact at its own minimizer); else it stops after ``MAX_ITERATIONS``
    with the best point evaluated, starting from the box midpoint.  The
    trace has one row per iteration: (iteration, value at the iteration's
    point, lower bound after the iteration's cuts).
    """
    poly = instance.polytope
    weights = instance.probabilities()
    m = poly.dim
    p = weights[weights != 0.0]
    k = p.size
    # A width past the float range bounds nothing.
    width = poly.upper - poly.lower
    finite = np.isfinite(width)
    master = None
    cuts = 0
    theta = np.full(k, -np.inf)
    lower = -math.inf
    x = 0.5 * (poly.lower + poly.upper)
    best_x, best_value = x, math.inf
    trace = []
    for t in range(1, MAX_ITERATIONS + 1):
        value, parts = _evaluate(instance, x, weights)
        if value < best_value:
            best_x, best_value = x, value
        cut_of, slopes, costs = [], [], []
        for j, (i, q, duals) in enumerate(parts):
            if q <= theta[j] + CUT_TOL * max(1.0, abs(q)):
                continue
            block = instance.scenarios[i]
            g = block.technology.T @ duals
            cut_of.append(j)
            slopes.append(g)
            costs.append(-float(duals @ block.requirement - g @ poly.lower))
        if cut_of or t == 1:
            cuts += len(cut_of)
            if cuts > MAX_CONSTRAINTS or m + 2 * k > MAX_VARIABLES:
                raise CapExceeded(f"cutting-plane master would hold {cuts} "
                                  f"cuts over {m + 2 * k} columns")
            A = np.vstack([np.eye(k)[:, cut_of], -np.reshape(slopes, (len(cut_of), m)).T])
            _check_overflow("cutting-plane master LP", A, np.array(costs))
            if master is None:
                box = np.eye(k + m, m, -k)[:, finite]
                master = ColumnMaster(np.hstack([box, A]),
                                      np.concatenate([p, -instance.first_stage_cost]),
                                      np.concatenate([width[finite], costs]), k)
            else:
                master.add_columns(A, costs)
            res = master.result
            # An infeasible dual means an unbounded master, and vice versa.
            if res.status == INFEASIBLE:
                raise Unbounded("cutting-plane master LP is unbounded")
            if res.status == UNBOUNDED:
                raise Infeasible("cutting-plane master LP is infeasible")
            lower = float(instance.first_stage_cost @ poly.lower) - res.value
            # A master vertex on a face of the box lies on it exactly.
            x = poly.lower + res.duals[k:]
            x = np.where(x - poly.lower <= FEAS_TOL, poly.lower,
                         np.where(poly.upper - x <= FEAS_TOL, poly.upper, x))
            theta = -res.duals[:k]
        converged = best_value - lower <= tolerance or (not cut_of and t > 1)
        trace.append((t, float(value), float(lower)))
        if converged:
            break
    return MinimizeResult(best_x, best_value, converged, t, tuple(trace))


def check_omega_subgradient(instance: StochasticLPInstance, x, d, omega: float):
    """Exact test of the relaxed subgradient inequality

        h(y) - h(x) >= d . (y - x) - omega h(x)   for every y in the box.

    h(y) - d . y is the objective with first-stage prices c - d, so its
    minimum over the box is one deterministic-equivalent LP, whose minimizer
    is the witness.  Returns ``(slack, witness)``: that minimum minus
    h(x) - d . x - omega h(x).  d passes when the slack is at least
    ``-OMEGA_TOL``; a failing witness violates the inequality.
    """
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    hx = h_exact(instance, x)
    low, witness = solve_deterministic_equivalent(
        replace(instance, first_stage_cost=instance.first_stage_cost - d))
    return low - (hx - d @ x - omega * hx), witness


# -- Facility-location encoding and the deterministic equivalent -------------

@dataclass(frozen=True)
class TwoStageUFL:
    """Facility-location data for the stochastic-LP encoding.

    Opening a facility costs ``open_cost`` now or ``second_open_cost`` after
    the scenario is revealed; ``service_cost[i, j]`` prices assigning client
    j to facility i.  Scenarios list (client subset, probability).
    """

    facilities: tuple
    clients: tuple
    open_cost: np.ndarray
    second_open_cost: np.ndarray
    service_cost: np.ndarray
    scenarios: tuple

    def __post_init__(self):
        object.__setattr__(self, "open_cost",
                           np.asarray(self.open_cost, dtype=float))
        object.__setattr__(self, "second_open_cost",
                           np.asarray(self.second_open_cost, dtype=float))
        object.__setattr__(self, "service_cost",
                           _matrix(self.service_cost, len(self.facilities),
                                   len(self.clients), "service_cost"))
        object.__setattr__(self, "scenarios",
                           tuple((frozenset(s), float(p)) for s, p in self.scenarios))


def encode_ufl(data: TwoStageUFL) -> StochasticLPInstance:
    """Stochastic-LP blocks for two-stage facility location.

    Per scenario, auxiliary variables are the assignments of active clients;
    each client needs its assignments to sum to at least one, and an
    assignment is allowed only up to the opened mass of its facility,
    first-stage or recourse.
    """
    nf = len(data.facilities)
    blocks = []
    for subset, p in data.scenarios:
        active = [t for t, j in enumerate(data.clients) if j in subset]
        na = len(active)
        # Rows: coverage per active client (its assignments sum to >= 1),
        # then linking per assignment (i, j) at column i * na + j (facility
        # i is opened in some stage).
        blocks.append(ScenarioBlock(
            probability=p,
            recourse_cost=data.second_open_cost,
            aux_cost=data.service_cost[:, active].ravel(),
            coupling=np.vstack([np.tile(np.eye(na), nf),
                                np.diag(np.full(nf * na, -1.0))]),
            technology=np.vstack([np.zeros((na, nf)),
                                  np.repeat(np.eye(nf), na, axis=0)]),
            requirement=np.concatenate([np.ones(na), np.zeros(nf * na)]),
        ))
    return StochasticLPInstance(
        first_stage_cost=data.open_cost,
        polytope=unit_box(nf),
        scenarios=tuple(blocks),
    )


def deterministic_equivalent(instance: StochasticLPInstance) -> LinearProgram:
    """One LP over (z, all scenario variables) with the exact objective.

    The first-stage columns are shifted to z = x - lower, so the box becomes
    0 <= z <= upper - lower: the last rows are -z_i >= lower_i - upper_i, one
    per box width within the float range, and the lower bound needs none.
    The objective omits the constant first_stage_cost . lower.  With a zero
    lower bound z is x.  An LP past the dense size of :mod:`stocomb.lp`
    raises :class:`CapExceeded` before anything is allocated.
    """
    m = instance.first_stage_cost.size
    poly = instance.polytope
    width = poly.upper - poly.lower
    finite = np.isfinite(width)
    sizes = [(b.recourse_cost.size, b.aux_cost.size) for b in instance.scenarios]
    nvar = m + sum(mr + ns for mr, ns in sizes)
    rows_n = sum(b.requirement.size for b in instance.scenarios)
    total = rows_n + int(finite.sum())
    if total > MAX_CONSTRAINTS or nvar > MAX_VARIABLES:
        raise CapExceeded(f"deterministic equivalent would hold {total} rows "
                          f"over {nvar} columns")
    A = np.zeros((rows_n, nvar))
    b_vec = np.zeros(rows_n)
    c = np.zeros(nvar)
    c[:m] = instance.first_stage_cost
    col = m
    row = 0
    for blk, (mr, ns) in zip(instance.scenarios, sizes):
        k = blk.requirement.size
        A[row:row + k, :m] = blk.technology
        A[row:row + k, col:col + mr] = blk.technology
        A[row:row + k, col + mr:col + mr + ns] = blk.coupling
        b_vec[row:row + k] = blk.requirement
        c[col:col + mr] = blk.probability * blk.recourse_cost
        c[col + mr:col + mr + ns] = blk.probability * blk.aux_cost
        col += mr + ns
        row += k
    if poly.lower.any():
        b_vec -= A[:, :m] @ poly.lower
    _check_overflow("deterministic equivalent", A, b_vec)
    return LinearProgram(c, np.vstack([A, -np.eye(m, nvar)[finite]]),
                         np.concatenate([b_vec, -width[finite]]))


def _check_overflow(what: str, *arrays):
    """LP data is built from finite input; an entry that left the float
    range is a :class:`NumericalFailure`, not bad input."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalFailure(f"{what} data overflow the float range")


def solve_deterministic_equivalent(instance: StochasticLPInstance):
    """Exact optimum (value, x) of the two-stage objective."""
    res = solve_lp(deterministic_equivalent(instance))
    if res.status == INFEASIBLE:
        raise Infeasible("deterministic equivalent is infeasible")
    if res.status == UNBOUNDED:
        raise Unbounded("deterministic equivalent is unbounded")
    m = instance.first_stage_cost.size
    lower = instance.polytope.lower
    return (res.value + float(instance.first_stage_cost @ lower),
            lower + res.primal[:m])

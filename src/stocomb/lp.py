"""Self-contained dense LP solver returning primal, value, and duals.

Problems are stated as ``min c.y`` subject to ``A y >= b`` with ``y >= 0``;
a bound on a variable is one more row.  Two-phase primal simplex with
Bland's rule guarantees termination.  The LPs this library solves are
small (the cutting-plane master, recourse LPs and deterministic
equivalents, within ``MAX_VARIABLES`` columns and ``MAX_CONSTRAINTS``
rows); the tableau kernel is the vectorized numpy code in
:mod:`stocomb._kernels`.

``solve_lp`` and ``solve_prepared`` solve from scratch.  A
:class:`KeptBasis` holds the optimal basis of a ``solve_prepared`` solve
and prices the same LP at another right-hand side without a solve, for as
long as that basis stays optimal: the recourse LPs, whose right-hand side
moves with the first stage.  A :class:`ColumnMaster` keeps its optimal
tableau: the L-shaped master's dual, which gains a column per cut, is
re-optimized from its last basis.  Its leading rows may be equalities,
which the kernel takes natively.  Every first solve is one kernel call
from phase 1.  Every solve, cold or resumed, stops at the pivot limit
``max_pivots`` of its own (possibly widened) shape and raises
:class:`NumericalFailure` there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import simplex_kernel, simplex_resume
from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8

MAX_VARIABLES = 4096
MAX_CONSTRAINTS = 512


@dataclass(frozen=True)
class LinearProgram:
    """``min objective . y`` s.t. ``constraints @ y >= rhs``, ``y >= 0``."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", A)
        object.__setattr__(self, "rhs", b)
        if A.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent LP dimensions: A is {A.shape}, "
                f"b has {b.size}, c has {c.size}"
            )
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("LP data must be finite")
        if c.size > MAX_VARIABLES or b.size > MAX_CONSTRAINTS:
            raise ValueError("LP exceeds supported dense size")


@dataclass(frozen=True)
class LPResult:
    status: str
    primal: np.ndarray | None
    value: float | None
    duals: np.ndarray | None


def max_pivots(m: int, n: int) -> int:
    """Pivot limit of an LP with ``m`` rows and ``n`` columns."""
    return 200 + 50 * (m + n)


def _checked(out):
    """Pass the kernel's result through; raise at the pivot limit."""
    if out[0] == 3:
        raise NumericalFailure(f"simplex hit the pivot limit after {out[4]} pivots")
    return out


def _result(status, x, duals, value) -> LPResult:
    if status == 1:
        return LPResult(INFEASIBLE, None, None, None)
    if status == 2:
        return LPResult(UNBOUNDED, None, None, None)
    return LPResult(OPTIMAL, x, value, duals)


def solve_prepared(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Low-level entry: arrays in, ``(status, x, duals, value, tableau)`` out.

    Always a cold solve.  Used directly by the recourse loop, which rebuilds
    only the right-hand side between solves and keeps an optimal
    ``tableau`` as a :class:`KeptBasis` (``tableau`` is ``None`` unless
    status is 0).  Raises :class:`NumericalFailure` on pivot-limit
    exhaustion.
    """
    status, x, duals, value, _pivots, tableau = _checked(simplex_kernel(
        np.ascontiguousarray(A, dtype=np.float64),
        np.ascontiguousarray(b, dtype=np.float64),
        np.ascontiguousarray(c, dtype=np.float64),
        PIVOT_TOL, FEAS_TOL, max_pivots(*A.shape)))
    return status, x, duals, value, tableau


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp``; at OPTIMAL the result satisfies strong duality."""
    status, x, duals, value, _tableau = solve_prepared(lp.constraints, lp.rhs,
                                                       lp.objective)
    return _result(status, x, duals, value)


@dataclass(frozen=True)
class KeptBasis:
    """The optimal basis of a solved ``min c.y`` s.t. ``A y >= b``,
    ``y >= 0`` (the leading rows may be equalities), kept to price the
    same LP at another right-hand side without a solve.

    Only ``b`` moves, so the reduced costs and the duals stay as they were,
    and the basis stays optimal at a new ``b`` exactly when its levels
    B^-1 (row_sign * b) are nonnegative and every row still held by an
    artificial stays at zero ("bunching": Wets, 1983; Birge & Louveaux,
    *Introduction to Stochastic Programming*, 2011, ch. 5).  It is read
    off the kernel's final tableau, whose artificial block is B^-1.
    """

    inverse: np.ndarray     # B^-1, each column times its row's sign
    cost: np.ndarray        # the price of each row's basic column
    artificial: np.ndarray  # the rows whose basic column is an artificial
    duals: np.ndarray

    @classmethod
    def of(cls, tableau, c: np.ndarray, value: float, duals: np.ndarray):
        """The basis of an optimal kernel ``tableau`` (as ``solve_prepared``
        returns it) for costs ``c``, with its optimal ``value`` and
        ``duals``.

        ``None`` when an entry of the tableau left the float range, or when
        the basic prices times the tableau's own levels miss ``value``:
        such a solve lost its precision, and its basis prices nothing.
        """
        W, basis, row_sign, surplus = tableau
        if not np.isfinite(W).all():
            return None
        prices = np.zeros(W.shape[1] - 1)  # surplus and artificials cost 0
        prices[:c.size] = c
        cost = prices[basis]
        own = _fsum_products(cost, W[:-1, -1])
        if own is None or not abs(own - value) <= FEAS_TOL * max(1.0, abs(value)):
            return None
        art = c.size + surplus  # first artificial column
        return cls(W[:-1, art:art + row_sign.size] * row_sign, cost,
                   (basis >= art).nonzero()[0], duals)

    def value_at(self, b: np.ndarray):
        """The optimal value at right-hand side ``b``, ``math.fsum`` of the
        basic prices times the levels, or ``None`` when the basis is not
        optimal there or the value leaves the float range.

        The levels are elementwise products summed by numpy, with no BLAS
        call, so they do not depend on the machine's BLAS.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            levels = (self.inverse * b).sum(axis=1)
        if not levels.min(initial=0.0) >= 0.0 or (
                self.artificial.size and levels[self.artificial].any()):
            return None
        return _fsum_products(self.cost, levels)


def _fsum_products(a: np.ndarray, b: np.ndarray):
    """``math.fsum`` of the elementwise products of ``a`` and ``b``, or
    ``None`` when it is not finite."""
    try:
        total = math.fsum(map(operator.mul, a.tolist(), b.tolist()))
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        return None
    return total if math.isfinite(total) else None


class ColumnMaster:
    """``min c.y`` s.t. ``A y >= b``, ``y >= 0``, where the first ``eq``
    rows hold with equality, solved once and then re-optimized from its
    last basis as columns are appended.

    ``result`` is the :class:`LPResult` of the current columns, in the
    order they were added, and ``pivots`` the pivot count of the last cold
    solve or resume.  The duals of the equality rows have either sign.
    Only an optimal master takes more columns.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 eq: int = 0):
        A = np.ascontiguousarray(A, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        c = np.ascontiguousarray(c, dtype=np.float64)
        self._set(simplex_kernel(A, b, c, PIVOT_TOL, FEAS_TOL,
                                 max_pivots(*A.shape), eq))

    def _set(self, out):
        status, x, duals, value, self.pivots, self._tableau = _checked(out)
        self.result = _result(status, x, duals, value)

    def add_columns(self, A: np.ndarray, c: np.ndarray) -> LPResult:
        """Append the columns ``A`` with costs ``c`` and re-optimize from
        the current basis."""
        if self._tableau is None:
            raise ValueError(f"a {self.result.status} master takes no columns")
        A = np.ascontiguousarray(A, dtype=np.float64)
        n = self.result.primal.size + A.shape[1]
        self._set(simplex_resume(self._tableau, A,
                                 np.ascontiguousarray(c, dtype=np.float64),
                                 PIVOT_TOL, max_pivots(A.shape[0], n)))
        return self.result

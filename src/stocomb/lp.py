"""Self-contained dense LP solver returning primal, value, and duals.

Problems are stated as ``min c.y`` subject to ``A y >= b`` with ``y >= 0``
and optional per-variable upper bounds.  Two-phase primal simplex with
Bland's rule guarantees termination.  The LPs this library solves are
small (cutting-plane and column-generation masters, recourse LPs and
deterministic equivalents, within ``MAX_VARIABLES`` columns and
``MAX_CONSTRAINTS`` rows); the tableau kernel is the vectorized numpy
code in :mod:`stocomb._kernels`.

``solve_lp`` and ``solve_prepared`` solve from scratch.  A
:class:`ColumnMaster` keeps its optimal tableau, so a column-generation
master that only gains columns is re-optimized from its last basis rather
than solved again.  Every solve, cold or resumed, stops at the pivot limit
``max_pivots`` of its own (possibly widened) shape and raises
:class:`NumericalFailure` there.
"""

from __future__ import annotations

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
    upper_bounds: np.ndarray | None = None

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
        if self.upper_bounds is not None:
            u = np.asarray(self.upper_bounds, dtype=float)
            object.__setattr__(self, "upper_bounds", u)
            if u.size != c.size:
                raise ValueError("upper_bounds length must match objective")
        if c.size > MAX_VARIABLES or b.size > MAX_CONSTRAINTS:
            raise ValueError("LP exceeds supported dense size")


@dataclass(frozen=True)
class LPResult:
    status: str
    primal: np.ndarray | None
    value: float | None
    duals: np.ndarray | None


def max_pivots(m: int, n: int) -> int:
    """Default pivot limit of an LP with ``m`` rows and ``n`` columns."""
    return 200 + 50 * (m + n)


def _checked(out):
    """Pass the kernel's result through; raise at the pivot limit."""
    if out[0] == 3:
        raise NumericalFailure(f"simplex hit the pivot limit after {out[4]} pivots")
    return out


def _result(status, x, duals, value, n_rows) -> LPResult:
    if status == 1:
        return LPResult(INFEASIBLE, None, None, None)
    if status == 2:
        return LPResult(UNBOUNDED, None, None, None)
    return LPResult(OPTIMAL, x, value, duals[:n_rows])


def solve_prepared(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                   pivot_limit: int | None = None):
    """Low-level entry: arrays in, ``(status, x, duals, value)`` out.

    Used directly by hot loops that rebuild only the right-hand side between
    solves.  Raises :class:`NumericalFailure` on pivot-limit exhaustion.
    """
    if pivot_limit is None:
        pivot_limit = max_pivots(*A.shape)
    status, x, duals, value, _pivots, _tableau = _checked(simplex_kernel(
        np.ascontiguousarray(A, dtype=np.float64),
        np.ascontiguousarray(b, dtype=np.float64),
        np.ascontiguousarray(c, dtype=np.float64),
        PIVOT_TOL, FEAS_TOL, pivot_limit))
    return status, x, duals, value


def solve_lp(lp: LinearProgram, pivot_limit: int | None = None) -> LPResult:
    """Solve ``lp``; at OPTIMAL the result satisfies strong duality.

    Finite upper bounds are appended internally as extra rows; the reported
    duals cover the caller's rows only.
    """
    A, b, c = lp.constraints, lp.rhs, lp.objective
    n_user = b.size
    if lp.upper_bounds is not None:
        finite = np.isfinite(lp.upper_bounds)
        if finite.any():
            rows = -np.eye(c.size)[finite]
            A = np.vstack([A, rows])
            b = np.concatenate([b, -lp.upper_bounds[finite]])
    status, x, duals, value = solve_prepared(A, b, c, pivot_limit)
    return _result(status, x, duals, value, n_user)


class ColumnMaster:
    """``min c.y`` s.t. ``A y >= b``, ``y >= 0``, solved once and then
    re-optimized from its last basis as columns are appended.

    ``result`` is the :class:`LPResult` of the current columns, in the
    order they were added, and ``pivots`` the pivot count of the last cold
    solve or resume.  Only an optimal master takes more columns.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray):
        A = np.ascontiguousarray(A, dtype=np.float64)
        self._set(simplex_kernel(A, np.ascontiguousarray(b, dtype=np.float64),
                                 np.ascontiguousarray(c, dtype=np.float64),
                                 PIVOT_TOL, FEAS_TOL, max_pivots(*A.shape)))

    def _set(self, out):
        status, x, duals, value, self.pivots, self._tableau = _checked(out)
        self.result = _result(status, x, duals, value, duals.size)

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

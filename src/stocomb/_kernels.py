"""Hot numeric kernels, written in vectorized numpy.

The dense simplex kernel below carries the sample-average pipeline (every
cutting-plane iteration solves one small recourse LP per scenario and one
master LP) and the restricted masters of the correlation-gap column
generation, which it re-optimizes from the last basis as columns arrive.
``bernoulli_weights`` is the library's one product-measure table:
independent-Bernoulli supports, independent boosting draws and the
independent expectation of the correlation gap all read it.

Kernel conventions
------------------
``simplex_kernel(A, b, c, tol, feas_tol, pivot_limit)`` solves

    min c.x   subject to   A x >= b,  x >= 0

by two-phase primal simplex on a dense tableau with Bland's anticycling rule
and returns ``(status, x, duals, value, pivots, tableau)`` where status is
0 = optimal, 1 = infeasible, 2 = unbounded, 3 = pivot limit reached.
Duals are reported per input row and are nonnegative at optimality.  The
tableau columns are structural, surplus, artificial and right-hand side;
the artificial block holds B^-1 of the current basis.  At optimality
``tableau`` is ``(T, obj, basis, row_sign)``, otherwise ``None``.

``simplex_resume(tableau, A, c, tol, pivot_limit)`` appends the columns
``A`` with costs ``c`` to an optimal tableau and re-optimizes from its
basis by phase 2 alone (added columns keep the basis primal feasible); it
returns the same tuple, counting only its own pivots, and leaves the input
tableau untouched.  Both run the one Bland pivot loop ``_bland``.
"""

from __future__ import annotations

import numpy as np

_HUGE = np.int64(1) << 60

# There is no compiled kernel; the constant stays for benchmark records
# that report it.
HAVE_JIT = False


def _pivot(T, r, q):
    """Pivot tableau ``T`` on entry (r, q); returns the scaled pivot row."""
    piv_row = T[r] / T[r, q]
    factors = T[:, q].copy()
    factors[r] = 0.0
    T -= np.outer(factors, piv_row)
    T[r] = piv_row
    T[:, q] = 0.0
    T[r, q] = 1.0
    return piv_row


def _bland(T, obj, basis, enter_max, tol, pivots, pivot_limit):
    """Primal simplex with Bland's rule from the feasible basis ``basis``.

    Columns below ``enter_max`` may enter.  ``T``, ``obj`` and ``basis`` are
    updated in place; returns ``(status, pivots)`` with status 0 = optimal,
    2 = unbounded (the entering column has no positive entry) or 3 = the
    running pivot count passed ``pivot_limit``.
    """
    rhs_col = T.shape[1] - 1
    while True:
        negative = obj[:enter_max] < -tol
        if not negative.any():
            return 0, pivots  # reduced costs nonnegative: optimal
        q = int(np.argmax(negative))  # Bland: first eligible column
        col = T[:, q]
        valid = col > tol
        if not valid.any():
            return 2, pivots
        safe = np.where(valid, col, 1.0)
        ratios = np.where(valid, T[:, rhs_col] / safe, np.inf)
        best = ratios.min()
        tie = ratios <= best + 1e-12
        r = int(np.argmin(np.where(tie, basis, _HUGE)))  # smallest basis var
        pivots += 1
        if pivots > pivot_limit:
            return 3, pivots
        piv_row = _pivot(T, r, q)
        if obj[q] != 0.0:
            obj -= obj[q] * piv_row
            obj[q] = 0.0
        basis[r] = q


def _read_off(status, tableau, pivots):
    """The kernel's result tuple for ``tableau`` at ``status``."""
    T, obj, basis, row_sign = tableau
    m = row_sign.size
    n = T.shape[1] - 1 - 2 * m
    if status != 0:
        return status, np.zeros(n), np.zeros(m), 0.0, pivots, None
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    value = -obj[-1]
    # Row multipliers read off the artificial columns, mapped back through
    # the row sign applied during setup.
    duals = -obj[n + m:n + 2 * m] * row_sign
    return 0, x, duals, value, pivots, tableau


def simplex_kernel(A, b, c, tol, feas_tol, pivot_limit):
    m, n = A.shape
    ncols = n + 2 * m  # structural + surplus + artificial
    rhs_col = ncols

    T = np.zeros((m, ncols + 1))
    basis = np.arange(n + m, n + 2 * m).astype(np.int64)
    row_sign = np.where(b >= 0.0, 1.0, -1.0)
    T[:, :n] = row_sign.reshape(m, 1) * A
    for i in range(m):
        T[i, n + i] = -row_sign[i]
        T[i, n + m + i] = 1.0
    T[:, rhs_col] = row_sign * b

    # Phase 1 minimizes the artificial sum; with every artificial basic the
    # reduced-cost row starts as c1 minus the column sums.
    obj = np.zeros(ncols + 1)
    colsum = T.sum(axis=0)
    obj[:] = -colsum
    obj[n + m:ncols] += 1.0
    tableau = (T, obj, basis, row_sign)

    # Artificials never enter.  The phase-1 objective is bounded below by 0,
    # so an unbounded ray there cannot happen; it is reported as a failure.
    status, pivots = _bland(T, obj, basis, n + m, tol, 0, pivot_limit)
    if status != 0:
        return _read_off(3, tableau, pivots)
    if -obj[rhs_col] > feas_tol:
        return _read_off(1, tableau, pivots)
    # Pivot artificials out where a nonzero column allows it; rows that
    # stay artificial are redundant and remain at level zero.
    for i in range(m):
        if basis[i] >= n + m:
            q = -1
            for j in range(n + m):
                if abs(T[i, j]) > tol:
                    q = j
                    break
            if q >= 0:
                _pivot(T, i, q)
                basis[i] = q

    # Install the phase-2 objective: rebuild reduced costs from c.
    obj[:] = 0.0
    obj[:n] = c
    for i in range(m):
        bi = basis[i]
        if bi < n and c[bi] != 0.0:
            obj -= c[bi] * T[i]
    status, pivots = _bland(T, obj, basis, n + m, tol, pivots, pivot_limit)
    return _read_off(status, tableau, pivots)


def simplex_resume(tableau, A, c, tol, pivot_limit):
    """Append the columns ``A`` (costs ``c``) to an optimal tableau and
    re-optimize from its basis with phase 2 alone."""
    T, obj, basis, row_sign = tableau
    m, k = A.shape
    n = T.shape[1] - 1 - 2 * m
    # The artificial block holds B^-1, so a new column's entries are
    # B^-1 (row_sign a) and its reduced cost is c + obj[artificials] . (row_sign a).
    signed = row_sign.reshape(m, 1) * A
    inverse = T[:, n + m:n + 2 * m]
    T = np.concatenate([T[:, :n], inverse @ signed, T[:, n:]], axis=1)
    obj = np.concatenate([obj[:n], c + obj[n + m:n + 2 * m] @ signed, obj[n:]])
    basis = np.where(basis >= n, basis + k, basis)
    tableau = (T, obj, basis, row_sign)
    # Appending columns keeps the basis primal feasible, so phase 1 is skipped.
    status, pivots = _bland(T, obj, basis, n + k + m, tol, 0, pivot_limit)
    return _read_off(status, tableau, pivots)


def bernoulli_weights(p):
    """Probability of every subset (as a bit mask) under independent marginals."""
    n = p.shape[0]
    size = 1 << n
    idx = np.arange(size)
    w = np.ones(size)
    for i in range(n):
        has = (idx >> i) & 1
        w *= np.where(has == 1, p[i], 1.0 - p[i])
    return w

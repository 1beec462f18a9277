"""Hot numeric kernels, written in vectorized numpy.

The dense simplex kernel below carries the sample-average pipeline (every
cutting-plane iteration solves one small recourse LP per scenario and one
master LP) and the restricted masters of the correlation-gap column
generation.  ``bernoulli_weights`` is the library's one product-measure
table: independent-Bernoulli supports, independent boosting draws and the
independent expectation of the correlation gap all read it.

Kernel conventions
------------------
``simplex_kernel(A, b, c, tol, feas_tol, pivot_limit)`` solves

    min c.x   subject to   A x >= b,  x >= 0

by two-phase primal simplex on a dense tableau with Bland's anticycling rule
and returns ``(status, x, duals, value, pivots)`` where status is
0 = optimal, 1 = infeasible, 2 = unbounded, 3 = pivot limit reached.
Duals are reported per input row and are nonnegative at optimality.
"""

from __future__ import annotations

import numpy as np

_HUGE = np.int64(1) << 60

# There is no compiled kernel; the constant stays for benchmark records
# that report it.
HAVE_JIT = False


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

    pivots = 0
    enter_max = n + m  # artificials never enter
    for _phase in range(2):
        while True:
            negative = obj[:enter_max] < -tol
            if not negative.any():
                break  # reduced costs nonnegative: phase optimal
            q = int(np.argmax(negative))  # Bland: first eligible column
            col = T[:, q]
            valid = col > tol
            if not valid.any():
                if _phase == 0:
                    # Phase-1 objective is bounded below by 0; cannot happen.
                    return 3, np.zeros(n), np.zeros(m), 0.0, pivots
                return 2, np.zeros(n), np.zeros(m), 0.0, pivots
            safe = np.where(valid, col, 1.0)
            ratios = np.where(valid, T[:, rhs_col] / safe, np.inf)
            best = ratios.min()
            tie = ratios <= best + 1e-12
            r = int(np.argmin(np.where(tie, basis, _HUGE)))  # smallest basis var
            pivots += 1
            if pivots > pivot_limit:
                return 3, np.zeros(n), np.zeros(m), 0.0, pivots

            piv_row = T[r] / T[r, q]
            factors = T[:, q].copy()
            factors[r] = 0.0
            T -= np.outer(factors, piv_row)
            T[r] = piv_row
            T[:, q] = 0.0
            T[r, q] = 1.0
            if obj[q] != 0.0:
                obj -= obj[q] * piv_row
                obj[q] = 0.0
            basis[r] = q

        if _phase == 1:
            break

        # End of phase 1.
        if -obj[rhs_col] > feas_tol:
            return 1, np.zeros(n), np.zeros(m), 0.0, pivots
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
                    piv_row = T[i] / T[i, q]
                    factors = T[:, q].copy()
                    factors[i] = 0.0
                    T -= np.outer(factors, piv_row)
                    T[i] = piv_row
                    T[:, q] = 0.0
                    T[i, q] = 1.0
                    basis[i] = q

        # Install the phase-2 objective: rebuild reduced costs from c.
        obj[:] = 0.0
        obj[:n] = c
        for i in range(m):
            bi = basis[i]
            if bi < n and c[bi] != 0.0:
                obj -= c[bi] * T[i]

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, rhs_col]
    value = -obj[rhs_col]
    # Row multipliers read off the artificial columns, mapped back through
    # the row sign applied during setup.
    duals = -obj[n + m:ncols] * row_sign
    return 0, x, duals, value, pivots


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

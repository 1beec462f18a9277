"""Hot numeric kernels, written in vectorized numpy.

The dense simplex kernel below carries the sample-average pipeline: it
solves each scenario's small recourse LP at the first cutting-plane
iteration and again only once the basis kept from its last solve stops
being optimal (:class:`stocomb.lp.KeptBasis` reads that basis off the
final tableau), solves the master LP once and resumes it after each round
of cuts.  ``_pivot`` also runs the correlation-gap LP's revised simplex
pivots, so every pivot of the library goes through it.
``bernoulli_weights`` is the library's one product-measure table:
independent-Bernoulli supports, independent boosting draws and the
independent expectation of the correlation gap all read it.

Kernel conventions
------------------
``simplex_kernel(A, b, c, tol, feas_tol, pivot_limit, eq=0)`` solves

    min c.x   subject to   A[:eq] x = b[:eq],  A[eq:] x >= b[eq:],  x >= 0

by two-phase primal simplex on a dense tableau with Bland's anticycling rule
and returns ``(status, x, duals, value, pivots, tableau)`` where status is
0 = optimal, 1 = infeasible, 2 = unbounded, 3 = pivot limit reached.
Duals are reported per input row; at optimality those of the ``>=`` rows
are nonnegative and those of the equality rows have either sign.  The
tableau columns are structural, surplus (one per ``>=`` row, none for an
equality row), artificial (one per row) and right-hand side; the
artificial block holds B^-1 of the current basis.  The reduced-cost row is
the tableau's last row, so one rank-1 update per pivot updates both.  At
optimality ``tableau`` is ``(W, basis, row_sign, surplus)``: the
constraint rows stacked over the reduced-cost row, the basic column of
each row, the sign each row was multiplied by to make its right-hand side
nonnegative, and the number of surplus columns; otherwise it is ``None``.

``simplex_resume(tableau, A, c, tol, pivot_limit)`` appends the columns
``A`` with costs ``c`` to an optimal tableau and re-optimizes from its
basis by phase 2 alone (added columns keep the basis primal feasible); it
returns the same tuple, counting only its own pivots, and leaves the input
tableau untouched.

Both run the one Bland pivot loop ``_bland``.  An artificial still basic
after phase 1 sits at level zero in a row that no column below the
artificials reaches; ``_drive_out`` pivots it out as soon as one does
(after phase 1, and for each resume's new columns), so phase 2 never
lifts it off zero.
"""

from __future__ import annotations

import numpy as np

# There is no compiled kernel; the constant stays for benchmark records
# that report it.
HAVE_JIT = False


def _pivot(T, r, q):
    """Pivot tableau ``T`` on entry (r, q) in place."""
    piv_row = T[r] / T[r, q]
    factors = T[:, q].copy()
    factors[r] = 0.0
    T -= factors[:, None] * piv_row
    T[r] = piv_row
    T[:, q] = 0.0
    T[r, q] = 1.0


def _bland(W, basis, enter_max, tol, pivots, pivot_limit):
    """Primal simplex with Bland's rule from the feasible basis ``basis``.

    ``W`` is the tableau with the reduced-cost row last; columns below
    ``enter_max`` may enter.  ``W`` and ``basis`` are updated in place;
    returns ``(status, pivots)`` with status 0 = optimal, 2 = unbounded
    (the entering column has no positive entry) or 3 = the running pivot
    count passed ``pivot_limit``.
    """
    obj = W[-1, :enter_max]
    T = W[:-1]
    rhs = T[:, -1]
    while True:
        entering = (obj < -tol).nonzero()[0]
        if not entering.size:
            return 0, pivots  # reduced costs nonnegative: optimal
        q = entering[0]  # Bland: first eligible column
        col = T[:, q]
        rows = (col > tol).nonzero()[0]
        if not rows.size:
            return 2, pivots
        ratios = rhs[rows] / col[rows]
        # Ties within 1e-12 of the least ratio go to the smallest basis
        # index.  A least ratio of +inf ties every row, a NaN none, and then
        # row 0 leaves.
        best = ratios.min()
        if best == np.inf:
            r = basis.argmin()
        elif best != best:
            r = 0
        else:
            tie = rows[ratios <= best + 1e-12]
            r = tie[basis[tie].argmin()]
        pivots += 1
        if pivots > pivot_limit:
            return 3, pivots
        _pivot(W, r, q)
        basis[r] = q


def _read_off(status, tableau, pivots):
    """The kernel's result tuple for ``tableau`` at ``status``."""
    W, basis, row_sign, surplus = tableau
    m = row_sign.size
    n = W.shape[1] - 1 - surplus - m
    if status != 0:
        return status, np.zeros(n), np.zeros(m), 0.0, pivots, None
    art = n + surplus
    level = np.zeros(art + m)  # every column's level; structural ones first
    level[basis] = W[:-1, -1]
    x = level[:n]
    value = -W[-1, -1]
    # Row multipliers read off the artificial columns, mapped back through
    # the row sign applied during setup.
    duals = -W[-1, art:art + m] * row_sign
    return 0, x, duals, value, pivots, tableau


def _drive_out(W, basis, art, tol):
    """Pivot each basic artificial (at level zero) out on the first column
    below ``art`` with a nonzero entry in its row.  A row that stays
    artificial is zero in every such column, so phase 2 keeps it at zero."""
    for i in (basis >= art).nonzero()[0]:
        nonzero = np.flatnonzero(np.abs(W[i, :art]) > tol)
        if nonzero.size:
            _pivot(W, i, nonzero[0])
            basis[i] = nonzero[0]


def _tableau(A, b, eq):
    """``(W, row_sign, surplus)`` of the LP: the constraint rows
    [row_sign A | surplus | I | row_sign b] over a zero reduced-cost row."""
    m, n = A.shape
    surplus = m - eq
    art = n + surplus  # first artificial column
    W = np.zeros((m + 1, art + m + 1))
    T = W[:-1]
    row_sign = np.where(b >= 0.0, 1.0, -1.0)
    T[:, :n] = row_sign.reshape(m, 1) * A
    np.fill_diagonal(T[eq:, n:], -row_sign[eq:])  # surplus block
    np.fill_diagonal(T[:, art:], 1.0)  # artificial block
    T[:, -1] = row_sign * b
    return W, row_sign, surplus


def _install_objective(W, basis, c):
    """Set the reduced-cost row to the phase-2 objective ``c`` priced out
    against the basic rows."""
    obj = W[-1]
    obj[:] = 0.0
    obj[:c.size] = c
    for i in range(basis.size):
        bi = basis[i]
        if bi < c.size and c[bi] != 0.0:
            obj -= c[bi] * W[i]


def simplex_kernel(A, b, c, tol, feas_tol, pivot_limit, eq=0):
    m, n = A.shape
    W, row_sign, surplus = _tableau(A, b, eq)
    art = n + surplus
    basis = np.arange(art, art + m, dtype=np.int64)
    obj = W[-1]

    # Phase 1 minimizes the artificial sum; with every artificial basic the
    # reduced-cost row starts as c1 minus the column sums.
    obj[:] = -W[:-1].sum(axis=0)
    obj[art:-1] += 1.0
    tableau = (W, basis, row_sign, surplus)

    # Artificials never enter.  The phase-1 objective is bounded below by 0,
    # so an unbounded ray cannot happen; it is reported as failure.
    status, pivots = _bland(W, basis, art, tol, 0, pivot_limit)
    if status != 0:
        return _read_off(3, tableau, pivots)
    if -obj[-1] > feas_tol:
        return _read_off(1, tableau, pivots)
    _drive_out(W, basis, art, tol)

    _install_objective(W, basis, c)
    status, pivots = _bland(W, basis, art, tol, pivots, pivot_limit)
    return _read_off(status, tableau, pivots)


def simplex_resume(tableau, A, c, tol, pivot_limit):
    """Append the columns ``A`` (costs ``c``) to an optimal tableau and
    re-optimize from its basis with phase 2 alone."""
    W, basis, row_sign, surplus = tableau
    m, k = A.shape
    n = W.shape[1] - 1 - surplus - m
    art = n + surplus
    # The artificial block holds B^-1, so a new column's entries are
    # B^-1 (row_sign a) and its reduced cost is c + obj[artificials] . (row_sign a).
    signed = row_sign.reshape(m, 1) * A
    added = np.empty((m + 1, k))
    added[:-1] = W[:-1, art:art + m] @ signed
    added[-1] = c + W[-1, art:art + m] @ signed
    W = np.concatenate([W[:, :n], added, W[:, n:]], axis=1)
    basis = np.where(basis >= n, basis + k, basis)
    tableau = (W, basis, row_sign, surplus)
    # Appending columns keeps the basis primal feasible, so phase 1 is
    # skipped.  A row whose artificial stayed basic was zero in every old
    # column; a new column may reach it, and is then pivoted in there.
    _drive_out(W, basis, art + k, tol)
    status, pivots = _bland(W, basis, art + k, tol, 0, pivot_limit)
    return _read_off(status, tableau, pivots)


def bernoulli_weights(p):
    """Probability of every subset (as a bit mask) under independent marginals.

    Built by doubling: item i's factor multiplies the table of items below
    it, which fills the masks without bit i, then those with it.
    """
    w = np.ones(1)
    for pi in p:
        w = np.concatenate([w * (1.0 - pi), w * pi])
    return w

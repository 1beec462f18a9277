"""Enumeration caps: the fixed size bounds of the exhaustive oracles.

Every exhaustive oracle checks its input size against one of these
constants and raises :class:`stocomb.errors.CapExceeded` above it, before
it enumerates anything.  The values keep each oracle in the seconds range
on a laptop.  The sample-average pipeline enumerates nothing: its LPs are
bounded by the dense size of :mod:`stocomb.lp`.
"""

OPT_ELEMENTS = 24        # 2^|X| subsets in the exact optimizer
SUPPORT_CLIENTS = 20     # 2^|V| subsets when enumerating a product distribution
SUBADD_CLIENTS = 5       # clients in the subadditivity, monotonicity, solver and cost-share sweeps
SUBADD_ELEMENTS = 12     # elements in those sweeps
DRAWS = 10 ** 6          # sampling rounds, and union_law's convolution work in exact policy evaluation
TWO_STAGE = 10 ** 6      # 2^|X| * support size in the two-stage optimum search
SCHEME_CLIENTS = 6       # ground-set size for the scheme checker
MARGINAL_SCHEME = 10     # ground-set size for the marginal-scheme certification
GAP_CLIENTS = 12         # ground-set size for the worst-case distribution LP

"""Set functions over a finite ground set: builtins, tables, and checkers.

Functions take a frozenset and return a float.  ``table`` materializes a
function as a dense array indexed by bit mask (bit i = i-th ground element),
which is what the exhaustive gap oracles operate on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import caps
from .errors import CapExceeded, NotMonotone, NotSubmodular, SchemaError
from .model import first_decrease, members, subset_table

MONO_TOL = 1e-9
TABLE_ITEMS = 16  # most ground elements of an explicit ``table`` payload
COVERAGE_UNIVERSE = 6  # universe items of a random coverage function


def table(f, ground: tuple) -> np.ndarray:
    """Dense table of f over all subsets of ``ground``, indexed by mask.

    A function built by :func:`from_table` over the same ground set hands
    back its stored (read-only) array; any other function is called once
    per subset.
    """
    if isinstance(f, TableFunction) and f.ground == tuple(ground):
        return f.values
    out = np.empty(1 << len(ground))
    for mask in range(out.size):
        out[mask] = f(frozenset(members(mask, ground)))
    return out


class TableFunction:
    """Set function backed by a dense mask-indexed table over ``ground``."""

    __slots__ = ("values", "ground", "_index")

    def __init__(self, values: np.ndarray, ground: tuple):
        self.values = values
        self.ground = ground
        self._index = {g: i for i, g in enumerate(ground)}

    def __call__(self, subset: frozenset) -> float:
        mask = 0
        for item in subset:
            mask |= 1 << self._index[item]
        return float(self.values[mask])


def from_table(values, ground: tuple) -> TableFunction:
    """Set function backed by a dense mask-indexed table (copied, read-only)."""
    values = np.array(values, dtype=float)
    if values.size != 1 << len(ground):
        raise SchemaError(
            f"table needs {1 << len(ground)} values for {len(ground)} elements, "
            f"got {values.size}")
    if not np.isfinite(values).all():
        raise SchemaError("table values must be finite")
    values.flags.writeable = False
    return TableFunction(values, tuple(ground))


def cardinality(ground: tuple) -> TableFunction:
    """f(S) = |S|, a table over ``ground``."""
    if len(ground) > caps.SUPPORT_CLIENTS:
        raise CapExceeded(f"a table over {len(ground)} items exceeds the cap")
    return from_table(subset_table(np.ones(len(ground)), np.add, 0.0), ground)


def coverage(cover: dict, weights: dict) -> TableFunction:
    """Weighted coverage: f(S) = total weight of the union of covered items,
    summed in ``weights`` order; a table over the keys of ``cover``."""
    ground = tuple(cover)
    if len(ground) > caps.SUPPORT_CLIENTS:
        raise CapExceeded(f"a table over {len(ground)} items exceeds the cap")
    if not set().union(*map(set, cover.values())) <= weights.keys():
        raise ValueError("every covered item needs a weight")
    values = np.zeros(1 << len(ground))
    for u, w in weights.items():
        values += w * subset_table([u in cover[g] for g in ground], np.logical_or, False)
    return from_table(values, ground)


def weighted_rank(weights: dict, cap: float) -> TableFunction:
    """f(S) = min(sum of weights over S, cap), summed in key order: each key
    covers itself, and the coverage is capped; submodular for cap >= 0."""
    f = coverage({g: {g} for g in weights}, weights)
    return from_table(np.minimum(f.values, cap), f.ground)


def check_monotone(f, ground: tuple, tol: float = MONO_TOL):
    """Raise :class:`NotMonotone` unless f is nondecreasing (exhaustive)."""
    vals = table(f, ground)
    broken = first_decrease(vals, tol)
    if broken is not None:
        mask, i = broken
        raise NotMonotone(f"adding {ground[i]!r} to mask {mask:b} decreases the value")
    return vals


def check_submodular(f, ground: tuple, tol: float = MONO_TOL):
    """Raise :class:`NotSubmodular` on the first violated (mask, i < j) pair."""
    vals = table(f, ground)
    masks = np.arange(vals.size)
    first = None
    for i, j in itertools.combinations(range(len(ground)), 2):
        low = masks[masks & (1 << i | 1 << j) == 0]
        lhs = vals[low | 1 << i] + vals[low | 1 << j]
        rhs = vals[low | 1 << i | 1 << j] + vals[low]
        bad = np.flatnonzero(lhs < rhs - tol)
        if bad.size and (first is None or low[bad[0]] < first[0]):
            first = (int(low[bad[0]]), i, j)
    if first is not None:
        mask, i, j = first
        raise NotSubmodular(f"pair ({ground[i]!r}, {ground[j]!r}) on mask {mask:b} "
                            "violates diminishing returns")
    return vals


def random_coverage(ground: tuple, rng):
    """Random weighted coverage of ``COVERAGE_UNIVERSE`` items; monotone, submodular."""
    cover = {}
    for g in ground:
        k = int(rng.integers(1, COVERAGE_UNIVERSE + 1))
        cover[g] = frozenset(int(u) for u in rng.choice(COVERAGE_UNIVERSE, size=k,
                                                        replace=False))
    weights = {u: float(np.round(rng.uniform(0.2, 1.5), 6))
               for u in range(COVERAGE_UNIVERSE)}
    return coverage(cover, weights)


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return value


def from_json(payload: dict, ground: tuple):
    """Build one of the named set functions from its JSON payload."""
    kind = payload.get("kind")
    try:
        if kind == "cardinality":
            return cardinality(ground)
        if kind == "coverage":
            return coverage({g: payload["cover"][str(g)] for g in ground},
                            {u: _finite(w, "coverage weight")
                             for u, w in payload["weights"].items()})
        if kind == "weighted_rank":
            return weighted_rank({g: _finite(payload["weights"][str(g)], "weight")
                                  for g in ground}, _finite(payload["cap"], "cap"))
    except KeyError as exc:
        raise SchemaError(f"{kind} payload missing {exc}") from exc
    if kind == "table":
        if len(ground) > TABLE_ITEMS:
            raise SchemaError(f"explicit tables support at most {TABLE_ITEMS} elements")
        return from_table(payload.get("values", ()), ground)
    raise SchemaError(f"unknown set-function kind {kind!r}")


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


E_RATIO = math.e / (math.e - 1.0)

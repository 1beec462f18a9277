"""Set functions over a finite ground set: builtins, tables, and checkers.

Functions take a frozenset and return a float.  ``table`` materializes a
function as a dense array indexed by bit mask (bit i = i-th ground element),
which is what the exhaustive gap oracles operate on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotMonotone, NotSubmodular, SchemaError
from .model import members

MONO_TOL = 1e-9


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


def cardinality():
    return lambda subset: float(len(subset))


def coverage(cover: dict, weights: dict):
    """Weighted coverage: f(S) = total weight of the union of covered items."""
    cover = {k: frozenset(v) for k, v in cover.items()}

    def f(subset: frozenset) -> float:
        hit = set()
        for item in subset:
            hit |= cover[item]
        return float(sum(weights[u] for u in hit))

    return f


def weighted_rank(weights: dict, cap: float):
    """f(S) = min(sum of weights over S, cap); submodular for cap >= 0."""

    def f(subset: frozenset) -> float:
        return float(min(sum(weights[i] for i in subset), cap))

    return f


def check_monotone(f, ground: tuple, tol: float = MONO_TOL):
    """Raise :class:`NotMonotone` unless f is nondecreasing (exhaustive)."""
    vals = table(f, ground)
    n = len(ground)
    for mask in range(1 << n):
        for i in range(n):
            if not (mask >> i) & 1 and vals[mask | (1 << i)] < vals[mask] - tol:
                raise NotMonotone(
                    f"adding {ground[i]!r} to mask {mask:b} decreases the value")
    return vals


def check_submodular(f, ground: tuple, tol: float = MONO_TOL):
    """Raise :class:`NotSubmodular` on a violated diminishing-returns pair."""
    vals = table(f, ground)
    n = len(ground)
    for mask in range(1 << n):
        for i in range(n):
            if (mask >> i) & 1:
                continue
            for j in range(i + 1, n):
                if (mask >> j) & 1:
                    continue
                lhs = vals[mask | (1 << i)] + vals[mask | (1 << j)]
                rhs = vals[mask | (1 << i) | (1 << j)] + vals[mask]
                if lhs < rhs - tol:
                    raise NotSubmodular(
                        f"pair ({ground[i]!r}, {ground[j]!r}) on mask {mask:b} "
                        "violates diminishing returns")
    return vals


def random_coverage(ground: tuple, rng, universe_size: int = 6):
    """Random weighted-coverage function; monotone and submodular."""
    cover = {}
    for g in ground:
        k = int(rng.integers(1, universe_size + 1))
        cover[g] = frozenset(int(u) for u in rng.choice(universe_size, size=k,
                                                        replace=False))
    weights = {u: float(np.round(rng.uniform(0.2, 1.5), 6))
               for u in range(universe_size)}
    return coverage(cover, weights)


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return value


def from_json(payload: dict, ground: tuple):
    """Build one of the named set functions from its JSON payload."""
    kind = payload.get("kind")
    if kind == "cardinality":
        return cardinality()
    if kind == "coverage":
        try:
            cover = {g: payload["cover"][str(g)] for g in ground}
            weights = {u: _finite(w, "coverage weight")
                       for u, w in payload["weights"].items()}
        except KeyError as exc:
            raise SchemaError(f"coverage payload missing {exc}") from exc
        return coverage(cover, weights)
    if kind == "weighted_rank":
        try:
            weights = {g: _finite(payload["weights"][str(g)], "weight")
                       for g in ground}
            cap = _finite(payload["cap"], "cap")
        except KeyError as exc:
            raise SchemaError(f"weighted_rank payload missing {exc}") from exc
        return weighted_rank(weights, cap)
    if kind == "table":
        if len(ground) > 16:
            raise SchemaError("explicit tables support at most 16 ground elements")
        return from_table(payload.get("values", ()), ground)
    raise SchemaError(f"unknown set-function kind {kind!r}")


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


E_RATIO = math.e / (math.e - 1.0)

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
from .errors import CapExceeded, NotMonotone, NotSubmodular, SchemaError, list_of_ids
from .model import first_decrease, members, subset_table

MONO_TOL = 1e-9
TABLE_ITEMS = 16  # most ground elements of an explicit ``table`` payload
COVERAGE_UNIVERSE = 6  # universe items of a random coverage function
WORD_ITEMS = 63  # covered items per int64 word of a coverage union table
WORD = (1 << WORD_ITEMS) - 1


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
    summed in ``weights`` order; a table over the keys of ``cover``.

    The covered items take bits in ``weights`` order, ``WORD_ITEMS`` to a
    word.  For each word one table holds every subset's union of cover
    masks, and each item's weight is added where its bit is set.
    """
    ground = tuple(cover)
    if len(ground) > caps.SUPPORT_CLIENTS:
        raise CapExceeded(f"a table over {len(ground)} items exceeds the cap")
    covered = set().union(*map(set, cover.values()))
    if not covered <= weights.keys():
        raise ValueError("every covered item needs a weight")
    items = [(u, w) for u, w in weights.items() if u in covered]
    bit = {u: 1 << k for k, (u, _) in enumerate(items)}
    masks = [sum(bit[u] for u in set(cover[g])) for g in ground]
    values = np.zeros(1 << len(ground))
    for start in range(0, len(items), WORD_ITEMS):
        unions = subset_table([m >> start & WORD for m in masks], np.bitwise_or, 0)
        for k, (_, w) in enumerate(items[start:start + WORD_ITEMS]):
            np.add(values, w, out=values, where=(unions & 1 << k).astype(bool))
    return from_table(values, ground)


def weighted_rank(weights: dict, cap: float) -> TableFunction:
    """f(S) = min(sum of weights over S, cap), summed in key order: each key
    covers itself, and the coverage is capped; submodular for cap >= 0."""
    f = coverage({g: {g} for g in weights}, weights)
    return from_table(np.minimum(f.values, cap), f.ground)


def check_monotone(f, ground: tuple, tol: float = MONO_TOL):
    """Raise :class:`NotMonotone` unless f is nondecreasing (exhaustive)."""
    vals = table(f, ground)
    broken = first_decrease(vals[None], tol)
    if broken is not None:
        _, mask, i = broken
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


def random_coverage(ground: tuple, rng) -> dict:
    """JSON payload of a random weighted coverage of ``COVERAGE_UNIVERSE``
    items (monotone, submodular), for :func:`from_json`.  The items are the
    strings "0", "1", ..., so they match the JSON keys of their weights."""
    cover = {}
    for g in ground:
        k = int(rng.integers(1, COVERAGE_UNIVERSE + 1))
        cover[str(g)] = [str(u) for u in rng.choice(COVERAGE_UNIVERSE, size=k,
                                                    replace=False)]
    weights = {str(u): float(np.round(rng.uniform(0.2, 1.5), 6))
               for u in range(COVERAGE_UNIVERSE)}
    return {"kind": "coverage", "cover": cover, "weights": weights}


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
            return coverage({g: list_of_ids(payload["cover"][str(g)], f"cover of {g!r}")
                             for g in ground},
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

"""Shared helpers: independent brute-force oracles the library is tested against.

Everything here is deliberately written from scratch (union-find, coverage,
enumeration) so that a library bug cannot hide behind a shared code path.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stocomb.fixtures import cov3, edge1, tri3


def powerset(items):
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def connected(edge_list, targets) -> bool:
    """Union-free connectivity check used as the Steiner oracle."""
    targets = set(targets)
    if len(targets) <= 1:
        return True
    comp = {v: {v} for e in edge_list for v in e}
    for t in targets:
        comp.setdefault(t, {t})
    changed = True
    while changed:
        changed = False
        for u, v in edge_list:
            if comp[u] is not comp[v]:
                merged = comp[u] | comp[v]
                for w in merged:
                    comp[w] = merged
                changed = True
    first = next(iter(targets))
    return all(v in comp[first] for v in targets)


def brute_force_min_cost(elements, costs, feasible):
    """Exhaustive minimum over element subsets; None when infeasible."""
    best = None
    for F in powerset(elements):
        if feasible(F):
            c = sum(costs[e] for e in F)
            if best is None or c < best:
                best = c
    return best


# -- The per-module loops the library's shared subset helpers replaced --------
# ``stocomb.model.members`` and ``stocomb._kernels.bernoulli_weights`` are the
# only mask-to-subset and product-measure code in the library; these are the
# loops they replaced, kept as oracles the helpers must match bit for bit.

def iter_bits(mask: int, items: tuple):
    i = 0
    while mask:
        if mask & 1:
            yield items[i]
        mask >>= 1
        i += 1


def mask_subset(ground: tuple, mask: int) -> frozenset:
    return frozenset(ground[i] for i in range(len(ground)) if (mask >> i) & 1)


def loop_table(f, ground: tuple) -> np.ndarray:
    n = len(ground)
    out = np.empty(1 << n)
    for mask in range(1 << n):
        out[mask] = f(frozenset(ground[i] for i in range(n) if (mask >> i) & 1))
    return out


def loop_product_support(clients: tuple, probs: list) -> list:
    """Independent-Bernoulli support, one (subset, probability) per mask."""
    n = len(clients)
    out = []
    for mask in range(1 << n):
        p = 1.0
        for i in range(n):
            p *= probs[i] if (mask >> i) & 1 else 1.0 - probs[i]
        out.append((frozenset(clients[i] for i in range(n) if (mask >> i) & 1), p))
    return out


def loop_boosted_draw_space(boosted: list) -> list:
    """Independent-boosting draws with positive probability, in mask order."""
    out = []
    for mask in range(1 << len(boosted)):
        p = 1.0
        members = []
        for i, (j, pj) in enumerate(boosted):
            if (mask >> i) & 1:
                p *= pj
                members.append(j)
            else:
                p *= 1.0 - pj
        if p > 0.0:
            out.append((frozenset(members), p))
    return out


@pytest.fixture
def tri3_problem():
    return tri3()


@pytest.fixture
def cov3_problem():
    return cov3()


@pytest.fixture
def edge1_pair():
    return edge1(q=0.5, sigma=2.0)


def criterion_line(number: int, name: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:2d}] {status}  {name}")


def vertex_oracle_lp(c, A, b):
    """Min over basic feasible points of {A y >= b, y >= 0}.

    Returns (feasible, best value).  Independent of the simplex code.
    """
    n = c.size
    rows = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    feasible = False
    for idx in itertools.combinations(range(rows.shape[0]), n):
        M = rows[list(idx)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        y = np.linalg.solve(M, rhs[list(idx)])
        if (rows @ y >= rhs - 1e-9).all():
            feasible = True
            v = float(c @ y)
            if best is None or v < best:
                best = v
    return feasible, best

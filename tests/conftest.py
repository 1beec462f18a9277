"""Shared helpers: independent brute-force oracles the library is tested against.

Everything here is deliberately written from scratch (union-find, coverage,
enumeration) so that a library bug cannot hide behind a shared code path.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from stocomb.boosting import (
    IndBoostPolicyBuilder,
    PolicyEvaluation,
    TwoStageOptimum,
    union_law,
)
from stocomb.errors import DegenerateInstance, Infeasible, NotMonotone, NotSubmodular
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.gap import PRICE_TOL, systematic_segments
from stocomb.generate import random_problem
from stocomb.io import dump_instance
from stocomb.lp import FEAS_TOL, OPTIMAL, ColumnMaster, LinearProgram, solve_lp
from stocomb.model import (
    COST_TOL,
    CheckReport,
    Explicit,
    IndependentBernoulli,
    Solution,
    client_sets,
    exact_opt,
    members,
    subset_table,
)
from stocomb.saa import (
    CUT_TOL,
    ScenarioBlock,
    StochasticLPInstance,
    _evaluate,
    unit_box,
)
from stocomb.solvers import algorithm_for


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


def loop_coverage(cover: dict, weights: dict):
    """Weighted coverage called per subset, summing in ``weights`` order."""
    def f(subset):
        hit = set().union(*(cover[g] for g in subset))
        return float(sum(w for u, w in weights.items() if u in hit))
    return f


def concat_subset_table(values, combine, empty) -> np.ndarray:
    """The doubling ``model.subset_table`` replaced: t grows to
    concat(t, combine(t, v)) for each value, from ``[empty]``."""
    t = np.array([empty])
    for v in values:
        t = np.concatenate([t, combine(t, v)])
    return t


def item_loop_coverage(cover: dict, weights: dict) -> np.ndarray:
    """The coverage table ``setfun.coverage`` replaced: in ``weights``
    order, each universe item adds its weight times the table of subsets
    that cover it."""
    ground = tuple(cover)
    values = np.zeros(1 << len(ground))
    for u, w in weights.items():
        values += w * concat_subset_table([u in cover[g] for g in ground],
                                          np.logical_or, False)
    return values


def loop_weighted_rank(weights: dict, cap: float):
    """min(sum of weights over the subset, cap), summing in key order."""
    return lambda subset: float(min(sum(w for g, w in weights.items()
                                        if g in subset), cap))


def loop_bernoulli_weights(p) -> np.ndarray:
    """Product-measure table, one pass over all 2^n masks per item."""
    n = p.shape[0]
    size = 1 << n
    idx = np.arange(size)
    w = np.ones(size)
    for i in range(n):
        has = (idx >> i) & 1
        w *= np.where(has == 1, p[i], 1.0 - p[i])
    return w


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


def loop_union_draw_space(law, rounds: int) -> dict:
    """Weight of the union of ``rounds`` draws of ``law``, zero weights
    included, by walking every ordered tuple of its outcomes: the
    enumeration that ``boosting.union_law`` replaced."""
    out: dict = {}
    for combo in itertools.product(law.support(), repeat=rounds):
        union: frozenset = frozenset()
        p = 1.0
        for s, q in combo:
            union |= s
            p *= q
        out[union] = out.get(union, 0.0) + p
    return out


# -- The per-subset loops of the exhaustive property checks -------------------
# ``setfun.check_monotone`` and ``model.check_monotone_feasibility`` share the
# one lattice-monotonicity helper ``model.first_decrease``, and
# ``setfun.check_submodular`` tests every pair with numpy.  These are the
# loops they replaced, kept as oracles: same verdict, exception and message.

def loop_check_monotone(vals, ground: tuple, tol: float):
    n = len(ground)
    for mask in range(1 << n):
        for i in range(n):
            if not (mask >> i) & 1 and vals[mask | (1 << i)] < vals[mask] - tol:
                raise NotMonotone(
                    f"adding {ground[i]!r} to mask {mask:b} decreases the value")
    return vals


def loop_first_decrease(values, tol: float):
    """``model.first_decrease`` on a 2-D table, one row at a time."""
    n = values.shape[1].bit_length() - 1
    for row in range(values.shape[0]):
        for mask in range(1 << n):
            for i in range(n):
                if not (mask >> i) & 1 and values[row, mask | (1 << i)] < values[row, mask] - tol:
                    return row, mask, i
    return None


def loop_check_submodular(vals, ground: tuple, tol: float):
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


def loop_check_monotone_feasibility(problem) -> CheckReport:
    """Calls the oracle again at F | {e} for every feasible F."""
    if not problem.feasibility(frozenset(), frozenset()):
        return CheckReport(False, "the empty set does not serve the empty client set")
    element_sets = [mask_subset(problem.elements, mask)
                    for mask in range(1 << len(problem.elements))]
    for mask in range(1 << len(problem.clients)):
        S = mask_subset(problem.clients, mask)
        for F in element_sets:
            if not problem.feasibility(F, S):
                continue
            for e in problem.elements:
                if e not in F and not problem.feasibility(F | {e}, S):
                    return CheckReport(False,
                                       f"adding {e!r} broke feasibility for "
                                       f"{sorted(map(str, S))}")
    return CheckReport(True)


# -- The exhaustive optimizers' per-subset loops ------------------------------
# ``model.exact_opt`` reads the served-client table, or tabulates
# feasibility once (``model.feasible_table``) for a problem without one;
# ``boosting.exact_two_stage_opt`` tabulates feasibility once.  Both price
# the lattice with numpy and break ties with ``model.cheapest``.  These are the loops they replaced:
# one oracle call per subset, and one exact optimum per (first stage,
# scenario) pair, each with its own sequential tolerance tie-break.

def loop_feasible_table(problem, clients) -> np.ndarray:
    """One element set per mask: the generator ``model.feasible_table`` used
    before it built sets in blocks."""
    return np.fromiter((problem.feasibility(frozenset(members(mask, problem.elements)),
                                            clients)
                        for mask in range(1 << len(problem.elements))), dtype=bool)


def loop_exact_opt(problem, clients, base=frozenset()):
    """The cheapest set of elements outside ``base`` that serves ``clients``
    on top of ``base``: ``model.exact_opt``'s loop when ``base`` is empty,
    and otherwise the reference for exact augmentation costs."""
    clients = frozenset(clients)
    base = frozenset(base)
    free = tuple(e for e in problem.elements if e not in base)
    index = {e: i for i, e in enumerate(problem.elements)}
    best = None
    for mask in range(1 << len(free)):
        picked = tuple(iter_bits(mask, free))
        if not problem.feasibility(base | frozenset(picked), clients):
            continue
        c = problem.cost(picked)
        key = tuple(index[e] for e in picked)
        if (best is None or c < best[0] - COST_TOL
                or (c <= best[0] + COST_TOL and key < best[1])):
            best = (c, key, frozenset(picked))
    if best is None:
        raise Infeasible(f"no element subset serves {sorted(map(str, clients))}")
    return Solution(best[2], best[0])


def loop_exact_two_stage_opt(problem, dist, sigma=None):
    if sigma is None:
        sigma = problem.inflation
    support = dist.support()
    n = len(problem.elements)
    best = None
    for mask in range(1 << n):
        first = mask_subset(problem.elements, mask)
        value = problem.cost(first)
        try:
            for realized, p in support:
                if p != 0.0:
                    value += sigma * p * loop_exact_opt(problem, realized, first).cost
        except Infeasible:
            continue
        key = tuple(i for i in range(n) if (mask >> i) & 1)
        if best is None or value < best[0] - 1e-12 or (
                value < best[0] + 1e-12 and key < best[1]):
            best = (value, key, first)
    if best is None:
        raise Infeasible("no first-stage set admits feasible recourse everywhere")
    return TwoStageOptimum(best[0], best[2])


# -- The set oracles the shipped bitmask oracles replaced ----------------------
# Each shipped ``feasible`` closure (``stocomb.problems``) reads F and S as
# int bitmasks built with the instance.  These are the closures they
# replaced, which read them as sets, rebuilt from a shipped kind's payload.

class LoopUnionFind:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def loop_steiner_feasible(vertices, edges, root):
    def feasible(F, S):
        targets = S | {root} if S else frozenset()
        if len(targets) <= 1:
            return True
        uf = LoopUnionFind(vertices)
        for e in F:
            u, v = edges[e]
            uf.union(u, v)
        it = iter(targets)
        rep = uf.find(next(it))
        return all(uf.find(v) == rep for v in it)

    return feasible


def loop_set_cover_feasible(sets):
    def feasible(F, S):
        covered = set()
        for e in F:
            covered |= sets[e]
        return S <= covered

    return feasible


def loop_vertex_cover_feasible(edges):
    def feasible(F, S):
        return all(edges[c][0] in F or edges[c][1] in F for c in S)

    return feasible


def loop_ufl_feasible(clients, assignments):
    by_client = {j: [] for j in clients}
    for a, (i, j) in assignments.items():
        by_client[j].append((a, i))

    def feasible(F, S):
        for j in S:
            if not any(a in F and i in F for a, i in by_client[j]):
                return False
        return True

    return feasible


def loop_feasibility(problem):
    """The set oracle of a shipped kind's ``problem``."""
    payload = problem.payload
    if problem.kind == "steiner":
        return loop_steiner_feasible(problem.clients, payload["edges"], payload["root"])
    if problem.kind == "set_cover":
        return loop_set_cover_feasible(payload["sets"])
    if problem.kind == "vertex_cover":
        return loop_vertex_cover_feasible(payload["edges"])
    return loop_ufl_feasible(problem.clients, payload["assignments"])


# -- The per-client-set sweeps -----------------------------------------------
# ``check_subadditive``, ``check_fairness``, ``equal_split_shares`` and
# ``empirical_alpha`` price every client set with ``model.exact_opt``, which
# reads the problem's one served-client table (``model.served_table``).
# These are their plain loops, which call ``exact_opt`` wherever they need an
# optimum, and the table written with one oracle call per (element set,
# client): same reports, same exceptions.

def loop_served_table(problem) -> np.ndarray:
    """Bit j of entry F is ``feasibility(F, {j})``."""
    out = np.zeros(1 << len(problem.elements), dtype=np.uint64)
    for mask in range(out.size):
        F = mask_subset(problem.elements, mask)
        for j, client in enumerate(problem.clients):
            if problem.feasibility(F, frozenset({client})):
                out[mask] |= np.uint64(1 << j)
    return out


def loop_check_subadditive(problem) -> CheckReport:
    subsets = client_sets(problem, "subadditivity")
    opt = {S: exact_opt(problem, S) for S in subsets}
    for S in subsets:
        for T in subsets:
            union = S | T
            if not problem.feasibility(opt[S].chosen | opt[T].chosen, union):
                return CheckReport(False,
                                   f"union of optima for {sorted(map(str, S))} and "
                                   f"{sorted(map(str, T))} is not feasible for their union")
            if opt[union].cost > opt[S].cost + opt[T].cost + COST_TOL:
                return CheckReport(False,
                                   f"cost of the union of {sorted(map(str, S))} and "
                                   f"{sorted(map(str, T))} exceeds the sum of parts")
    return CheckReport(True)


def loop_check_fairness(xi, problem, tol=1e-9) -> CheckReport:
    for S in client_sets(problem, "cost-share"):
        opt = exact_opt(problem, S)
        if sum(xi(S, j) for j in S) > opt.cost + tol:
            return CheckReport(
                False, f"shares for {sorted(map(str, S))} exceed the optimum")
    return CheckReport(True)


def loop_equal_split_shares(problem):
    cache = {}

    def xi(subset, j):
        subset = frozenset(subset)
        if j not in subset:
            return 0.0
        if subset not in cache:
            cache[subset] = exact_opt(problem, subset).cost
        return cache[subset] / len(subset)

    return xi


def loop_empirical_alpha(problem, alg=None) -> float:
    subsets = client_sets(problem, "solver")
    if alg is None:
        alg = algorithm_for(problem)
    worst = 1.0
    for S in subsets:
        opt = exact_opt(problem, S)
        got = alg.solve(problem, S)
        if opt.cost <= 1e-12:
            if got.cost > 1e-12:
                return math.inf
            continue
        worst = max(worst, got.cost / opt.cost)
    return worst


# -- The run-by-run Monte-Carlo loop -----------------------------------------
# ``boosting.evaluate_policy`` draws its runs in batches, decodes them with
# numpy and prices each distinct (drawn, realized) pair once.  This is the
# loop it replaced, with each law's scalar sampler written out as it was:
# same mean and halfwidth bit for bit, same stream position, same exception.

def loop_sample(dist, rng) -> frozenset:
    if isinstance(dist, Explicit):
        u = rng.random()
        acc = 0.0
        for s, p in dist.outcomes:
            acc += p
            if u < acc:
                return s
        return dist.outcomes[-1][0]
    if isinstance(dist, IndependentBernoulli):
        return frozenset(j for j, p in dist.marginals if rng.random() < p)
    k = len(dist.blocks)
    return dist.blocks[min(int(k * rng.random()), k - 1)]


def loop_sample_draw(builder, dist, sigma, rng) -> frozenset:
    if isinstance(builder, IndBoostPolicyBuilder):
        return frozenset(j for j, p in builder.marginals
                         if rng.random() < min(1.0, sigma * p))
    drawn = frozenset()
    for _ in range(int(math.floor(sigma))):
        drawn |= loop_sample(dist, rng)
    return drawn


def loop_monte_carlo(problem, builder, dist, sigma, rng, runs) -> PolicyEvaluation:
    policies = {}
    costs = np.empty(runs)
    for t in range(runs):
        drawn = loop_sample_draw(builder, dist, sigma, rng)
        if drawn not in policies:
            policies[drawn] = builder.policy(drawn)
        realized = loop_sample(dist, rng)
        costs[t] = loop_policy_cost(problem, policies[drawn], realized, sigma)
    mean = float(costs.mean())
    half = 2.5758293035489004 * float(costs.std(ddof=1)) / math.sqrt(runs)
    return PolicyEvaluation(mean, "monte_carlo", half)


# -- The per-pair policy pricing ----------------------------------------------
# ``TwoStagePolicy.cost`` prices a policy's first stage once and keeps it.
# This prices it again for every (draw, realization) pair, as the evaluation
# loop did, and ``loop_evaluate_policy`` is that loop in exact mode.

def loop_policy_cost(problem, policy, realized, sigma) -> float:
    patch = policy.recourse(realized)
    if not problem.feasibility(policy.first_stage | patch, realized):
        raise Infeasible(
            f"policy does not serve realization {sorted(map(str, realized))}")
    return problem.cost(policy.first_stage) + sigma * problem.cost(patch)


def loop_evaluate_policy(builder, dist, mode="exact", rng=None,
                         runs=10_000) -> PolicyEvaluation:
    problem = builder.problem
    if mode == "monte_carlo":
        return loop_monte_carlo(problem, builder, dist, problem.inflation, rng, runs)
    support = [(realized, p) for realized, p in dist.support() if p != 0.0]
    total = 0.0
    for drawn, p_draw in union_law(*builder.draw_law(dist)):
        policy = builder.policy(drawn)
        for realized, p_real in support:
            total += p_draw * p_real * loop_policy_cost(problem, policy, realized,
                                                        problem.inflation)
    return PolicyEvaluation(total, "exact")


# -- The comonotone chain ----------------------------------------------------
# ``gap.worst_case_expectation`` starts from the segments of systematic
# sampling (``gap.systematic_basis``).  This is the start they replaced: the
# nested prefixes of the items sorted by decreasing marginal, which for a
# submodular f carry the least expectation the marginals allow.

def chain_basis(p):
    """``(masks, B, level)`` of the chain, as ``gap.systematic_basis``
    returns them: n + 1 prefixes, the empty set first, and no artificial."""
    p = np.asarray(p, dtype=float)
    order = np.argsort(-p, kind="stable")
    masks = np.concatenate([[0], np.cumsum(1 << order)])
    B = np.vstack([(masks >> np.arange(p.size)[:, None]) & 1, np.ones(masks.size)])
    q = np.concatenate([[1.0], p[order], [0.0]])
    return masks, B, q[:-1] - q[1:]


# -- The cold column-generation loop ----------------------------------------
# ``gap.worst_case_expectation`` runs one revised simplex over all 2^n
# subsets from the systematic-sampling basis.  Before it, a restricted
# master over the empty set and the segment masks gained up to
# ``PRICE_COLUMNS`` of the most negative subsets per pricing round.  This
# loop solves every round's master from scratch with ``solve_lp``: same
# start, with the reduced-cost test floored at 1.

def segment_columns(p):
    """The restricted master's first columns: the empty set, then the
    distinct segment masks of systematic sampling in circle order."""
    masks = [mask for mask, _ in systematic_segments(p)]
    return np.array(list(dict.fromkeys([0] + masks)))


PRICE_COLUMNS = 8  # most negative columns added per pricing round

def cold_worst_case(inst):
    n = len(inst.ground)
    values = inst._table
    p = inst.marginal_vector()
    cols = segment_columns(p)
    in_master = np.zeros(1 << n, dtype=bool)
    rhs = np.append(p, 1.0)
    rhs = np.concatenate([rhs, -rhs])
    while True:
        in_master[cols] = True
        A = np.vstack([(cols >> np.arange(n)[:, None]) & 1, np.ones(cols.size)])
        res = solve_lp(LinearProgram(-values[cols], np.vstack([A, -A]), rhs))
        if res.status != OPTIMAL:
            raise DegenerateInstance(f"worst-case LP ended {res.status}")
        y = res.duals[:n + 1] - res.duals[n + 1:]
        reduced = -values - (subset_table(y[:n], np.add, 0.0) + y[n])
        reduced[in_master] = np.inf
        new = np.argsort(reduced, kind="stable")[:PRICE_COLUMNS]
        new = new[reduced[new] < -PRICE_TOL * max(1.0, abs(res.value))]
        if new.size == 0:
            break
        cols = np.concatenate([cols, new])
    dist = {frozenset(members(int(mask), inst.ground)): float(a)
            for mask, a in sorted(zip(cols, res.primal)) if a > 1e-12}
    return -res.value, dist


# -- The cold cutting-plane master ------------------------------------------
# ``saa.minimize`` keeps its master as the LP dual on one ``lp.ColumnMaster``
# and re-optimizes it from the last basis after each round of cuts.  This is
# the loop it replaced, which rebuilt the primal master every round, split
# each free theta as theta+ - theta- and solved it cold with ``solve_lp``,
# the box widths as rows -z >= lower - upper: same start, cuts and stop test.

def cold_master_minimize(instance, tolerance=1e-6, max_iterations=10_000):
    """``(x, value, converged, iterations, lower)`` of the cold loop."""
    poly = instance.polytope
    weights = instance.probabilities()
    m = poly.dim
    p = weights[weights != 0.0]
    k = p.size
    cost = np.concatenate([instance.first_stage_cost, p, -p])
    width = poly.upper - poly.lower
    finite = np.isfinite(width)
    box = -np.eye(m, cost.size)[finite]
    rows, rhs = [], []
    theta = np.full(k, -np.inf)
    lower = -math.inf
    x = 0.5 * (poly.lower + poly.upper)
    best_x, best_value = x, math.inf
    converged = False
    t = 0
    for t in range(1, max_iterations + 1):
        value, parts = _evaluate(instance, x, weights)
        if value < best_value:
            best_x, best_value = x, value
        added = False
        for j, (i, q, duals) in enumerate(parts):
            if q <= theta[j] + CUT_TOL * max(1.0, abs(q)):
                continue
            block = instance.scenarios[i]
            g = block.technology.T @ duals
            row = np.zeros(m + 2 * k)
            row[:m] = g
            row[m + j] = 1.0
            row[m + k + j] = -1.0
            rows.append(row)
            rhs.append(float(duals @ block.requirement - g @ poly.lower))
            added = True
        if added or t == 1:
            A = np.vstack([np.reshape(rows, (len(rows), cost.size)), box])
            b = np.concatenate([rhs, -width[finite]])
            res = solve_lp(LinearProgram(cost, A, b))
            assert res.status == OPTIMAL
            lower = res.value + float(instance.first_stage_cost @ poly.lower)
            x = poly.lower + res.primal[:m]
            x = np.where(x - poly.lower <= FEAS_TOL, poly.lower,
                         np.where(poly.upper - x <= FEAS_TOL, poly.upper, x))
            theta = res.primal[m:m + k] - res.primal[m + k:]
        converged = best_value - lower <= tolerance or (not added and t > 1)
        if converged:
            break
    return best_x, best_value, converged, t, lower


# -- The simplex kernel before native equality rows ---------------------------
# ``stocomb._kernels`` takes its first ``eq`` rows as equalities, keeps the
# reduced-cost row as the tableau's last row and runs a leaner Bland loop.
# This is the kernel it replaced, for ``>=`` rows only; with ``eq = 0`` the
# new kernel must return the same (status, x, duals, value, pivots) bit for
# bit.

_HUGE = np.int64(1) << 60


def ge_pivot(T, r, q):
    piv_row = T[r] / T[r, q]
    factors = T[:, q].copy()
    factors[r] = 0.0
    T -= np.outer(factors, piv_row)
    T[r] = piv_row
    T[:, q] = 0.0
    T[r, q] = 1.0
    return piv_row


def ge_bland(T, obj, basis, enter_max, tol, pivots, pivot_limit):
    rhs_col = T.shape[1] - 1
    while True:
        negative = obj[:enter_max] < -tol
        if not negative.any():
            return 0, pivots
        q = int(np.argmax(negative))
        col = T[:, q]
        valid = col > tol
        if not valid.any():
            return 2, pivots
        safe = np.where(valid, col, 1.0)
        ratios = np.where(valid, T[:, rhs_col] / safe, np.inf)
        best = ratios.min()
        tie = ratios <= best + 1e-12
        r = int(np.argmin(np.where(tie, basis, _HUGE)))
        pivots += 1
        if pivots > pivot_limit:
            return 3, pivots
        piv_row = ge_pivot(T, r, q)
        if obj[q] != 0.0:
            obj -= obj[q] * piv_row
            obj[q] = 0.0
        basis[r] = q


def ge_read_off(status, tableau, pivots):
    T, obj, basis, row_sign = tableau
    m = row_sign.size
    n = T.shape[1] - 1 - 2 * m
    if status != 0:
        return status, np.zeros(n), np.zeros(m), 0.0, pivots, None
    level = np.zeros(n + 2 * m)
    level[basis] = T[:, -1]
    x = level[:n]
    value = -obj[-1]
    duals = -obj[n + m:n + 2 * m] * row_sign
    return 0, x, duals, value, pivots, tableau


def ge_simplex_kernel(A, b, c, tol, feas_tol, pivot_limit):
    m, n = A.shape
    ncols = n + 2 * m
    rhs_col = ncols
    T = np.zeros((m, ncols + 1))
    basis = np.arange(n + m, n + 2 * m).astype(np.int64)
    row_sign = np.where(b >= 0.0, 1.0, -1.0)
    T[:, :n] = row_sign.reshape(m, 1) * A
    np.fill_diagonal(T[:, n:], -row_sign)
    np.fill_diagonal(T[:, n + m:], 1.0)
    T[:, rhs_col] = row_sign * b
    obj = np.zeros(ncols + 1)
    colsum = T.sum(axis=0)
    obj[:] = -colsum
    obj[n + m:ncols] += 1.0
    tableau = (T, obj, basis, row_sign)
    status, pivots = ge_bland(T, obj, basis, n + m, tol, 0, pivot_limit)
    if status != 0:
        return ge_read_off(3, tableau, pivots)
    if -obj[rhs_col] > feas_tol:
        return ge_read_off(1, tableau, pivots)
    for i in range(m):
        if basis[i] >= n + m:
            nonzero = np.flatnonzero(np.abs(T[i, :n + m]) > tol)
            if nonzero.size:
                ge_pivot(T, i, nonzero[0])
                basis[i] = nonzero[0]
    obj[:] = 0.0
    obj[:n] = c
    for i in range(m):
        bi = basis[i]
        if bi < n and c[bi] != 0.0:
            obj -= c[bi] * T[i]
    status, pivots = ge_bland(T, obj, basis, n + m, tol, pivots, pivot_limit)
    return ge_read_off(status, tableau, pivots)


def ge_simplex_resume(tableau, A, c, tol, pivot_limit):
    T, obj, basis, row_sign = tableau
    m, k = A.shape
    n = T.shape[1] - 1 - 2 * m
    signed = row_sign.reshape(m, 1) * A
    inverse = T[:, n + m:n + 2 * m]
    T = np.concatenate([T[:, :n], inverse @ signed, T[:, n:]], axis=1)
    obj = np.concatenate([obj[:n], c + obj[n + m:n + 2 * m] @ signed, obj[n:]])
    basis = np.where(basis >= n, basis + k, basis)
    tableau = (T, obj, basis, row_sign)
    status, pivots = ge_bland(T, obj, basis, n + k + m, tol, 0, pivot_limit)
    return ge_read_off(status, tableau, pivots)


# -- The doubled-row correlation-gap master ------------------------------------
# ``gap.worst_case_expectation`` hands the simplex its n + 1 equality rows
# as they are.  This column-generation loop doubles each equality into a
# >= pair, reads the duals as differences and sorts the whole reduced-cost
# table, re-optimizing one ``lp.ColumnMaster`` per round: same start and
# stop test as the cold loop.

def sort_first_pricing(reduced, value):
    new = np.argsort(reduced, kind="stable")[:PRICE_COLUMNS]
    return new[reduced[new] < -PRICE_TOL * max(1.0, abs(value))]


def doubled_worst_case(inst):
    n = len(inst.ground)
    values = inst._table
    p = inst.marginal_vector()
    cols = segment_columns(p)
    in_master = np.zeros(1 << n, dtype=bool)
    rhs = np.append(p, 1.0)
    rhs = np.concatenate([rhs, -rhs])

    def rows(masks):
        A = np.vstack([(masks >> np.arange(n)[:, None]) & 1, np.ones(masks.size)])
        return np.vstack([A, -A])

    master = ColumnMaster(rows(cols), rhs, -values[cols])
    while True:
        in_master[cols] = True
        res = master.result
        if res.status != OPTIMAL:
            raise DegenerateInstance(f"worst-case LP ended {res.status}")
        y = res.duals[:n + 1] - res.duals[n + 1:]
        reduced = -values - (subset_table(y[:n], np.add, 0.0) + y[n])
        reduced[in_master] = np.inf
        new = sort_first_pricing(reduced, res.value)
        if new.size == 0:
            break
        cols = np.concatenate([cols, new])
        master.add_columns(rows(new), -values[new])
    dist = {frozenset(members(int(mask), inst.ground)): float(a)
            for mask, a in sorted(zip(cols, res.primal)) if a > 1e-12}
    return -res.value, dist


# -- The loop ``stocomb.saa.encode_ufl`` replaced -----------------------------
# The library builds each facility-location block from whole identity and
# repeat matrices; this entry-by-entry version is the oracle it must match
# bit for bit.

def loop_encode_ufl(data):
    """Two-stage facility-location blocks, filled one entry at a time."""
    nf = len(data.facilities)
    blocks = []
    for subset, p in data.scenarios:
        active = [j for j in data.clients if j in subset]
        cindex = {j: t for t, j in enumerate(active)}
        na = len(active)
        nvar_aux = nf * na
        rows = na + nf * na
        coupling = np.zeros((rows, nvar_aux))
        technology = np.zeros((rows, nf))
        requirement = np.zeros(rows)
        # Coverage: for each active client, assignments sum to >= 1.
        for j in active:
            r = cindex[j]
            for i in range(nf):
                coupling[r, i * na + cindex[j]] = 1.0
            requirement[r] = 1.0
        # Linking: assignment (i, j) needs facility i opened in some stage.
        for i in range(nf):
            for j in active:
                r = na + i * na + cindex[j]
                coupling[r, i * na + cindex[j]] = -1.0
                technology[r, i] = 1.0
                requirement[r] = 0.0
        aux_cost = np.array([data.service_cost[i, data.clients.index(j)]
                             for i in range(nf) for j in active])
        blocks.append(ScenarioBlock(
            probability=p,
            recourse_cost=data.second_open_cost,
            aux_cost=aux_cost if na else np.zeros(0),
            coupling=coupling if na else np.zeros((rows, 0)),
            technology=technology,
            requirement=requirement,
        ))
    return StochasticLPInstance(
        first_stage_cost=data.open_cost,
        polytope=unit_box(nf),
        scenarios=tuple(blocks),
    )


# -- Numeric leaves and containers of instance files --------------------------

def numeric_paths(node, path=()):
    """Key/index paths of every int or float leaf (booleans excluded)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from numeric_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from numeric_paths(child, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def container_paths(node, path=()):
    """Key/index paths of every object- or list-valued node below the root."""
    if isinstance(node, (dict, list)):
        if path:
            yield path
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from container_paths(child, path + (key,))


def substituted(payload, path, value):
    """A copy of ``payload`` with the node at ``path`` set to ``value``."""
    copy = json.loads(json.dumps(payload))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


# -- Instance files whose ids name nothing ------------------------------------

MALFORMED_IDS = ("steiner_endpoint", "vertex_cover_endpoint", "ufl_facility",
                 "ufl_client")


def malformed_ids(case: str) -> dict:
    """A dumped instance with one id that names nothing of its kind."""
    if case == "steiner_endpoint":
        payload = dump_instance(tri3())
        payload["problem"]["edges"]["e13"] = ["1", "ghost"]
    elif case == "vertex_cover_endpoint":
        payload = dump_instance(random_problem("vertex_cover", 3, 4, seed=1))
        payload["problem"]["edges"]["g0"][1] = "ghost"
    else:
        payload = dump_instance(random_problem("ufl", 2, 2, seed=1))
        end = 0 if case == "ufl_facility" else 1
        payload["problem"]["assignments"]["f0~c0"][end] = "ghost"
    return payload


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


def zero_rhs_lp(rng):
    """``(c, A, b)`` with every row active at the origin, so pivots from it
    are degenerate; positive costs put the optimum 0 there."""
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    A = np.round(rng.uniform(-1, 1, (m, n)), 2)
    b = np.zeros(m)
    c = np.round(rng.uniform(0.1, 1, n), 2)
    return c, A, b


def equality_pair_lp(rng):
    """``(c, A, b)`` with k feasible equalities written as +/- row pairs,
    the worst-case-LP pattern; the first k rows are the equalities."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 3))
    E = np.round(rng.uniform(0, 1, (k, n)), 2)
    x_feas = np.round(rng.uniform(0, 1, n), 2)
    d = E @ x_feas  # guarantees feasibility
    A = np.vstack([E, -E])
    b = np.concatenate([d, -d])
    c = np.round(rng.uniform(0.1, 2, n), 2)
    return c, A, b


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

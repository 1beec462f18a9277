"""Deterministic approximation algorithms for the four problem kinds.

Every solver is a pure function ``(problem, clients) -> Solution`` with
deterministic lexicographic tie-breaking, and every algorithm augments a
partial solution by re-solving with the already-owned elements priced at
zero.  Claimed approximation factors are validated empirically against the
exhaustive optimizer, not proven here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .errors import Disconnected, Infeasible
from .model import ProblemInstance, Solution, client_sets, exact_opt
from .setfun import harmonic


@dataclass(frozen=True)
class ApproxAlgorithm:
    """A solver, its augmentation routine, and the factor it claims."""

    name: str
    alpha: float
    solve: Callable[[ProblemInstance, frozenset], Solution]
    augment: Callable[[ProblemInstance, frozenset, frozenset], Solution]


def augment(alg: ApproxAlgorithm, problem: ProblemInstance,
            base: frozenset, clients: frozenset) -> Solution:
    """Extend ``base`` to serve ``clients`` by re-solving with base free.

    The returned solution holds only the newly purchased elements, priced at
    the problem's real first-stage costs.  This is also the body of the
    ``augment`` field of every algorithm :func:`algorithm_for` builds.
    """
    base = frozenset(base)
    sol = alg.solve(problem.with_free_elements(base), frozenset(clients))
    extra = sol.chosen - base
    return Solution(extra, problem.cost(extra))


# -- Steiner tree ----------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _dijkstra(vertices, adjacency, costs, source, vindex):
    # Strict-improvement relaxation keeps the predecessor graph acyclic even
    # on zero-cost edges; pop and adjacency order make the paths
    # deterministic.
    dist = {v: math.inf for v in vertices}
    pred = {v: None for v in vertices}  # (edge id, previous vertex)
    dist[source] = 0.0
    heap = [(0.0, vindex[source], source)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for e, v in adjacency[u]:
            nd = d + costs[e]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = (e, u)
                heapq.heappush(heap, (nd, vindex[v], v))
    return dist, pred


def _steiner_graph(problem: ProblemInstance) -> tuple:
    """(vertex index, adjacency): each vertex's (edge, neighbour) pairs in
    neighbour index order."""
    vindex = {v: i for i, v in enumerate(problem.clients)}
    adjacency = {v: [] for v in problem.clients}
    for e, (u, v) in problem.payload["edges"].items():
        adjacency[u].append((e, v))
        adjacency[v].append((e, u))
    for v in adjacency:
        adjacency[v].sort(key=lambda item: vindex[item[1]])
    return vindex, adjacency


def steiner_solve(problem: ProblemInstance, clients: frozenset) -> Solution:
    """Metric-closure MST heuristic for the rooted Steiner tree (factor 2).

    Builds shortest-path distances between terminals (the clients plus the
    root), takes an MST of that closure, expands its edges back into paths,
    and prunes the union down to a tree.
    """
    payload = problem.payload
    edges = payload["edges"]
    targets = (frozenset(clients) | {payload["root"]}) if clients else frozenset()
    terminals = sorted(targets, key=problem.clients.index)
    if len(terminals) <= 1:
        return Solution(frozenset(), 0.0)

    vindex, adjacency = problem.structure("steiner_graph", _steiner_graph)
    costs = problem.first_stage_cost

    spaths = {t: _dijkstra(problem.clients, adjacency, costs, t, vindex)
              for t in terminals}
    root_dist = spaths[terminals[0]][0]
    for t in terminals:
        if math.isinf(root_dist[t]):
            raise Disconnected(f"terminal {t!r} unreachable")

    # Prim's MST over the metric closure, starting from the first terminal.
    in_tree = {terminals[0]}
    closure_edges = []
    while len(in_tree) < len(terminals):
        best = None
        for a in sorted(in_tree, key=vindex.get):
            da = spaths[a][0]
            for b in terminals:
                if b in in_tree:
                    continue
                cand = (da[b], vindex[a], vindex[b])
                if best is None or cand < best[0]:
                    best = (cand, a, b)
        _, a, b = best
        in_tree.add(b)
        closure_edges.append((a, b))

    chosen = set()
    for a, b in closure_edges:
        _, pred = spaths[a]
        v = b
        while pred[v] is not None:
            e, u = pred[v]
            chosen.add(e)
            v = u

    # The union of paths may contain cycles: take its MST, then drop
    # non-terminal leaves.
    uf = _UnionFind(v for e in chosen for v in edges[e])
    tree = set()
    eindex = problem.element_index()
    for e in sorted(chosen, key=lambda e: (costs[e], eindex[e])):
        if uf.union(*edges[e]):
            tree.add(e)

    term_set = set(terminals)
    while True:
        degree = {}
        for e in tree:
            for v in edges[e]:
                degree[v] = degree.get(v, 0) + 1
        leaves = {v for v, d in degree.items() if d == 1 and v not in term_set}
        if not leaves:
            break
        tree = {e for e in tree if not (set(edges[e]) & leaves)}

    chosen = frozenset(tree)
    return Solution(chosen, problem.cost(chosen))


# -- Uncapacitated facility location ---------------------------------------

def ufl_solve(problem: ProblemInstance, clients: frozenset) -> Solution:
    """Greedy star pricing: repeatedly buy the (facility, client batch) star
    with the cheapest price per newly served client."""
    clients = frozenset(clients)
    if not clients:
        return Solution(frozenset(), 0.0)
    payload = problem.payload
    facilities = payload["facilities"]
    if not problem.elements:
        raise Infeasible("no elements available")
    eindex = problem.element_index()
    costs = problem.first_stage_cost
    neighbors = {i: [] for i in facilities}
    reachable = set()
    for a, (i, j) in payload["assignments"].items():
        neighbors[i].append((a, j))
        reachable.add(j)
    if not clients <= reachable:
        missing = sorted(map(str, clients - reachable))
        raise Infeasible(f"clients without any assignment option: {missing}")

    unserved = set(clients)
    opened = set()
    chosen = set()
    while unserved:
        best = None  # ((ratio, facility index, batch size), facility, batch)
        for i in facilities:
            stars = sorted(((costs[a], eindex[a], a, j) for a, j in neighbors[i]
                            if j in unserved))
            if not stars:
                continue
            opening = 0.0 if i in opened else costs[i]
            run = 0.0
            for k, (ca, _, _, _) in enumerate(stars, start=1):
                run += ca
                cand = ((opening + run) / k, eindex[i], k)
                if best is None or cand < best[0]:
                    best = (cand, i, stars[:k])
        if best is None:
            raise Infeasible("greedy ran out of assignable clients")
        _, i, batch = best
        if i not in opened:
            opened.add(i)
            chosen.add(i)
        for _, _, a, j in batch:
            chosen.add(a)
            unserved.discard(j)
    chosen = frozenset(chosen)
    return Solution(chosen, problem.cost(chosen))


# -- Set cover ---------------------------------------------------------------

def set_cover_solve(problem: ProblemInstance, clients: frozenset) -> Solution:
    """Greedy cost-effectiveness cover (harmonic-number factor)."""
    clients = frozenset(clients)
    sets = problem.payload["sets"]
    eindex = problem.element_index()
    costs = problem.first_stage_cost
    uncovered = set(clients)
    chosen = set()
    while uncovered:
        best = None
        for e in problem.elements:
            gain = len(sets[e] & uncovered)
            if gain == 0:
                continue
            cand = (costs[e] / gain, eindex[e])
            if best is None or cand < best[0]:
                best = (cand, e)
        if best is None:
            raise Infeasible(f"cannot cover {sorted(map(str, uncovered))}")
        e = best[1]
        chosen.add(e)
        uncovered -= sets[e]
    chosen = frozenset(chosen)
    return Solution(chosen, problem.cost(chosen))


# -- Vertex cover ------------------------------------------------------------

def vertex_cover_solve(problem: ProblemInstance, clients: frozenset) -> Solution:
    """LP-free pricing 2-approximation: charge each uncovered edge against
    the residual prices of its endpoints; saturated vertices enter the cover."""
    edges = problem.payload["edges"]
    eindex = problem.element_index()
    residual = dict(problem.first_stage_cost)
    cover = set()
    for c in sorted(frozenset(clients), key=problem.clients.index):
        u, v = edges[c]
        if u in cover or v in cover:
            continue
        pay = min(residual[u], residual[v])
        residual[u] -= pay
        residual[v] -= pay
        saturated = sorted((w for w in (u, v) if residual[w] == 0.0),
                           key=eindex.get)
        cover.add(saturated[0])  # one endpoint suffices to cover this edge
    cover = frozenset(cover)
    return Solution(cover, problem.cost(cover))


_SOLVERS = {
    "steiner": (steiner_solve, 2.0),
    "ufl": (ufl_solve, 3.0),
    "set_cover": (set_cover_solve, None),  # harmonic number of |V|
    "vertex_cover": (vertex_cover_solve, 2.0),
}


def algorithm_for(problem: ProblemInstance) -> ApproxAlgorithm:
    """The shipped approximation algorithm matching the problem kind."""
    if problem.kind not in _SOLVERS:
        raise ValueError(f"no shipped solver for problem kind {problem.kind!r}")
    solve, alpha = _SOLVERS[problem.kind]
    if alpha is None:
        alpha = harmonic(len(problem.clients))
    alg = ApproxAlgorithm(name=problem.kind, alpha=alpha, solve=solve, augment=None)
    return replace(alg, augment=partial(augment, alg))


def empirical_alpha(problem: ProblemInstance, alg: ApproxAlgorithm | None = None) -> float:
    """Worst observed solver/optimum cost ratio over every client subset
    (within the ``caps.SUBADD_*`` sweep bounds)."""
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

"""Constructors for the four shipped problem kinds.

Each builder returns a :class:`~stocomb.model.ProblemInstance` whose payload
carries the kind-specific structure used by the deterministic solvers and by
the JSON serializer.  All four feasibility oracles are monotone in the
element set.

Facility location is encoded with two element flavors: one element per
facility (opening it) and one per usable (facility, client) pair (the
assignment).  A client is served when some facility element and a matching
assignment element are both present, which makes the cost of a solution a
plain sum of element prices.
"""

from __future__ import annotations

from typing import Mapping

from .model import ProblemInstance


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


def steiner_problem(vertices, edges: Mapping, costs: Mapping,
                    sigma: float = 1.0, root=None) -> ProblemInstance:
    """Rooted Steiner tree: clients are vertices, elements are edges.

    ``edges`` maps edge id -> (u, v).  An element set serves a client set S
    when S together with the root lies in one connected component of the
    chosen edges.  Rooting is what lets feasible solutions for S and T
    combine into one for their union, which the sampling guarantees rely on;
    the root defaults to the first vertex.
    """
    vertices = tuple(vertices)
    edges = {e: (u, v) for e, (u, v) in edges.items()}
    if root is None:
        root = vertices[0]
    if root not in vertices:
        raise ValueError(f"root {root!r} is not a vertex")

    def feasible(F: frozenset, S: frozenset) -> bool:
        targets = S | {root} if S else frozenset()
        if len(targets) <= 1:
            return True
        uf = _UnionFind(vertices)
        for e in F:
            u, v = edges[e]
            uf.union(u, v)
        it = iter(targets)
        rep = uf.find(next(it))
        return all(uf.find(v) == rep for v in it)

    return ProblemInstance(
        clients=vertices,
        elements=tuple(edges),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        kind="steiner",
        payload={"edges": edges, "root": root},
    )


def set_cover_problem(clients, sets: Mapping, costs: Mapping,
                      sigma: float = 1.0) -> ProblemInstance:
    """Set cover: elements are the sets of the collection."""
    sets = {e: frozenset(members) for e, members in sets.items()}

    def feasible(F: frozenset, S: frozenset) -> bool:
        covered = set()
        for e in F:
            covered |= sets[e]
        return S <= covered

    return ProblemInstance(
        clients=tuple(clients),
        elements=tuple(sets),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        kind="set_cover",
        payload={"sets": sets},
    )


def vertex_cover_problem(vertices, edges: Mapping, costs: Mapping,
                         sigma: float = 1.0) -> ProblemInstance:
    """Vertex cover: clients are edges, elements are vertices."""
    vertices = tuple(vertices)
    edges = {c: (u, v) for c, (u, v) in edges.items()}

    def feasible(F: frozenset, S: frozenset) -> bool:
        return all(edges[c][0] in F or edges[c][1] in F for c in S)

    return ProblemInstance(
        clients=tuple(edges),
        elements=vertices,
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        kind="vertex_cover",
        payload={"edges": edges},
    )


def ufl_problem(clients, facilities, open_costs: Mapping,
                assignments: Mapping, assign_costs: Mapping,
                sigma: float = 1.0) -> ProblemInstance:
    """Uncapacitated facility location in the element encoding.

    ``assignments`` maps assignment-element id -> (facility id, client id);
    ``open_costs`` and ``assign_costs`` price the two element flavors.
    """
    facilities = tuple(facilities)
    assignments = {a: (i, j) for a, (i, j) in assignments.items()}
    by_client: dict = {j: [] for j in clients}
    for a, (i, j) in assignments.items():
        by_client[j].append((a, i))

    def feasible(F: frozenset, S: frozenset) -> bool:
        for j in S:
            if not any(a in F and i in F for a, i in by_client[j]):
                return False
        return True

    costs = dict(open_costs)
    costs.update(assign_costs)
    return ProblemInstance(
        clients=tuple(clients),
        elements=facilities + tuple(assignments),
        first_stage_cost=costs,
        inflation=sigma,
        feasibility=feasible,
        kind="ufl",
        payload={"facilities": facilities, "assignments": assignments},
    )

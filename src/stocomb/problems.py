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

Beside its oracle, each builder gives the instance a served-client table
(``ProblemInstance.served_table``) built with numpy from the payload: entry
F has bit j set when element set F serves client j.  Every shipped oracle
decomposes per client, so F serves S exactly when ``served[F] & S == S``.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .model import ProblemInstance, subset_table

BLOCK = 1 << 12  # element masks per numpy block of a served table built by blocks
ONE = np.uint64(1)


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


def _check_ends(edges: Mapping, vertices: tuple):
    """ValueError unless both ends of every edge (id -> (u, v)) are vertices."""
    known = set(vertices)
    for e, ends in edges.items():
        for v in ends:
            if v not in known:
                raise ValueError(f"edge {e!r} names {v!r}, which is not a vertex")


def _fold_table(client_masks) -> np.ndarray:
    """Served table of elements that each serve a fixed client mask: the
    ``bitwise_or`` of the masks of F's elements, for every element set F."""
    return subset_table([np.uint64(m) for m in client_masks], np.bitwise_or,
                        np.uint64(0))


def _by_block(n: int, served: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``served(masks)`` over every element mask 0 .. 2^n - 1, computed on
    uint64 blocks of at most ``BLOCK`` masks so temporaries stay small."""
    out = np.empty(1 << n, dtype=np.uint64)
    for start in range(0, out.size, BLOCK):
        stop = min(start + BLOCK, out.size)
        out[start:stop] = served(np.arange(start, stop, dtype=np.uint64))
    return out


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
    _check_ends(edges, vertices)

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

    def served() -> np.ndarray:
        # The vertices joined to the root: |V| - 1 relaxation passes over
        # the edges reach every vertex that a path from the root reaches.
        pos = {v: np.uint64(i) for i, v in enumerate(vertices)}
        ends = [(np.uint64(k), pos[u], pos[v]) for k, (u, v) in enumerate(edges.values())]

        def reach(masks):
            has = [masks >> k & ONE for k, _, _ in ends]
            out = np.full(masks.size, ONE << pos[root])
            for _ in range(len(vertices) - 1):
                for h, (_, u, v) in zip(has, ends):
                    out |= h * ((out >> u & ONE) << v | (out >> v & ONE) << u)
            return out

        return _by_block(len(ends), reach)

    return ProblemInstance(
        clients=vertices,
        elements=tuple(edges),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served_table=served,
        kind="steiner",
        payload={"edges": edges, "root": root},
    )


def set_cover_problem(clients, sets: Mapping, costs: Mapping,
                      sigma: float = 1.0) -> ProblemInstance:
    """Set cover: elements are the sets of the collection."""
    clients = tuple(clients)
    sets = {e: frozenset(members) for e, members in sets.items()}

    def feasible(F: frozenset, S: frozenset) -> bool:
        covered = set()
        for e in F:
            covered |= sets[e]
        return S <= covered

    def served() -> np.ndarray:
        # A set may list ids that are not clients; they serve no client.
        bit = {j: 1 << i for i, j in enumerate(clients)}
        return _fold_table(sum(bit[j] for j in sets[e] if j in bit) for e in sets)

    return ProblemInstance(
        clients=clients,
        elements=tuple(sets),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served_table=served,
        kind="set_cover",
        payload={"sets": sets},
    )


def vertex_cover_problem(vertices, edges: Mapping, costs: Mapping,
                         sigma: float = 1.0) -> ProblemInstance:
    """Vertex cover: clients are edges, elements are vertices."""
    vertices = tuple(vertices)
    edges = {c: (u, v) for c, (u, v) in edges.items()}
    _check_ends(edges, vertices)

    def feasible(F: frozenset, S: frozenset) -> bool:
        return all(edges[c][0] in F or edges[c][1] in F for c in S)

    def served() -> np.ndarray:
        bits = [(1 << i, ends) for i, ends in enumerate(edges.values())]
        return _fold_table(sum(b for b, ends in bits if w in ends) for w in vertices)

    return ProblemInstance(
        clients=tuple(edges),
        elements=vertices,
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served_table=served,
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
    clients = tuple(clients)
    facilities = tuple(facilities)
    assignments = {a: (i, j) for a, (i, j) in assignments.items()}
    for a, (i, j) in assignments.items():
        if i not in facilities:
            raise ValueError(f"assignment {a!r} names {i!r}, which is not a facility")
    by_client: dict = {j: [] for j in clients}
    for a, (i, j) in assignments.items():
        by_client[j].append((a, i))

    def feasible(F: frozenset, S: frozenset) -> bool:
        for j in S:
            if not any(a in F and i in F for a, i in by_client[j]):
                return False
        return True

    elements = facilities + tuple(assignments)

    def served() -> np.ndarray:
        pos = {e: np.uint64(k) for k, e in enumerate(elements)}
        client_pos = {j: np.uint64(k) for k, j in enumerate(clients)}
        pairs = [(pos[a], pos[i], client_pos[j]) for a, (i, j) in assignments.items()]

        def serve(masks):
            out = np.zeros_like(masks)
            for a, i, j in pairs:  # j is served where a and i are both chosen
                out |= (masks >> a & masks >> i & ONE) << j
            return out

        return _by_block(len(elements), serve)

    costs = dict(open_costs)
    costs.update(assign_costs)
    return ProblemInstance(
        clients=clients,
        elements=elements,
        first_stage_cost=costs,
        inflation=sigma,
        feasibility=feasible,
        served_table=served,
        kind="ufl",
        payload={"facilities": facilities, "assignments": assignments},
    )

"""Constructors for the four shipped problem kinds.

Each builder returns a :class:`~stocomb.model.ProblemInstance` whose payload
carries the kind-specific structure used by the deterministic solvers and by
the JSON serializer.  All four feasibility oracles are monotone in the
element set.  Each reads F and S as Python int bitmasks, through id bits and
per-element masks built once with the instance.

Facility location is encoded with two element flavors: one element per
facility (opening it) and one per usable (facility, client) pair (the
assignment).  A client is served when some facility element and a matching
assignment element are both present, which makes the cost of a solution a
plain sum of element prices.

Beside its oracle, each builder gives the instance its block function
(``ProblemInstance.served``), written with numpy from the payload: bit j of
``served(F)`` is set when element mask F serves client j.  Every shipped
oracle decomposes per client, so F serves S exactly when it serves each
client of S.  Set cover, vertex cover and facility location serve a client
once F holds one of its patterns, so :func:`_pattern_kind` writes both.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .model import ProblemInstance

ONE = np.uint64(1)


def _check_ends(edges: Mapping, vertices: tuple):
    """ValueError unless both ends of every edge (id -> (u, v)) are vertices."""
    known = set(vertices)
    for e, ends in edges.items():
        for v in ends:
            if v not in known:
                raise ValueError(f"edge {e!r} names {v!r}, which is not a vertex")


def _union(masks: Mapping, items) -> int:
    """The ``|`` of ``masks[x]`` over ``items``: the int bitmask the oracles
    read a set of ids as."""
    out = 0
    for x in items:
        out |= masks[x]
    return out


def _pattern_kind(clients: tuple, elements: tuple, patterns: Mapping):
    """The feasibility oracle and block function of a kind whose client is
    served once F holds one of its patterns.

    ``patterns`` maps every id the oracle answers (each client, and any other
    id the kind lists) to tuples of element ids.  The one-element patterns of
    an id are read as one mask of elements any of which serves it, the longer
    ones as masks F must hold whole.  Only ``clients`` get served bits.
    """
    bit = {e: 1 << k for k, e in enumerate(elements)}
    any_of = {j: _union(bit, (p[0] for p in ps if len(p) == 1))
              for j, ps in patterns.items()}
    whole = {j: [_union(bit, p) for p in ps if len(p) != 1]
             for j, ps in patterns.items()}

    def feasible(F: frozenset, S: frozenset) -> bool:
        chosen = _union(bit, F)
        for j in S:
            if not any_of[j] & chosen:
                for m in whole[j]:
                    if m & chosen == m:
                        break
                else:
                    return False
        return True

    def served(masks):
        out = np.zeros_like(masks)
        for k, j in enumerate(clients):
            hit = masks & np.uint64(any_of[j]) != 0
            for m in map(np.uint64, whole[j]):
                hit |= masks & m == m
            out |= hit.astype(np.uint64) << np.uint64(k)
        return out

    return feasible, served


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
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    edge_mask = {e: bit[u] | bit[v] for e, (u, v) in edges.items()}

    def feasible(F: frozenset, S: frozenset) -> bool:
        # The root's reach absorbs every edge of F that touches it, pass
        # after pass, until S is inside it or a pass absorbs nothing.
        need = _union(bit, S)
        reach = bit[root]
        todo = [edge_mask[e] for e in F]
        while need & ~reach:
            rest = []
            for m in todo:
                if m & reach:
                    reach |= m
                else:
                    rest.append(m)
            if len(rest) == len(todo):
                return False
            todo = rest
        return True

    # The vertices joined to the root: |V| - 1 relaxation passes over the
    # edges reach every vertex that a path from the root reaches.
    pos = {v: np.uint64(i) for i, v in enumerate(vertices)}
    ends = [(np.uint64(k), pos[u], pos[v]) for k, (u, v) in enumerate(edges.values())]

    def served(masks):
        has = [masks >> k & ONE for k, _, _ in ends]
        out = np.full(masks.size, ONE << pos[root])
        for _ in range(len(vertices) - 1):
            for h, (_, u, v) in zip(has, ends):
                out |= h * ((out >> u & ONE) << v | (out >> v & ONE) << u)
        return out

    return ProblemInstance(
        clients=vertices,
        elements=tuple(edges),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served=served,
        kind="steiner",
        payload={"edges": edges, "root": root},
    )


def set_cover_problem(clients, sets: Mapping, costs: Mapping,
                      sigma: float = 1.0) -> ProblemInstance:
    """Set cover: elements are the sets of the collection."""
    clients = tuple(clients)
    sets = {e: frozenset(members) for e, members in sets.items()}
    # Every client, and every id a set lists, is answered.
    patterns: dict = {j: [] for j in clients}
    for e, members in sets.items():
        for j in members:
            patterns.setdefault(j, []).append((e,))
    feasible, served = _pattern_kind(clients, tuple(sets), patterns)
    return ProblemInstance(
        clients=clients,
        elements=tuple(sets),
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served=served,
        kind="set_cover",
        payload={"sets": sets},
    )


def vertex_cover_problem(vertices, edges: Mapping, costs: Mapping,
                         sigma: float = 1.0) -> ProblemInstance:
    """Vertex cover: clients are edges, elements are vertices."""
    vertices = tuple(vertices)
    edges = {c: (u, v) for c, (u, v) in edges.items()}
    _check_ends(edges, vertices)
    feasible, served = _pattern_kind(
        tuple(edges), vertices, {c: ((u,), (v,)) for c, (u, v) in edges.items()})
    return ProblemInstance(
        clients=tuple(edges),
        elements=vertices,
        first_stage_cost=dict(costs),
        inflation=sigma,
        feasibility=feasible,
        served=served,
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
        if j not in clients:
            raise ValueError(f"assignment {a!r} names {j!r}, which is not a client")
    elements = facilities + tuple(assignments)
    patterns: dict = {j: [] for j in clients}
    for a, (i, j) in assignments.items():
        patterns[j].append((a, i))
    feasible, served = _pattern_kind(clients, elements, patterns)
    costs = dict(open_costs)
    costs.update(assign_costs)
    return ProblemInstance(
        clients=clients,
        elements=elements,
        first_stage_cost=costs,
        inflation=sigma,
        feasibility=feasible,
        served=served,
        kind="ufl",
        payload={"facilities": facilities, "assignments": assignments},
    )

"""Reproducible random instance generators.

Each generator takes explicit size parameters plus a seed and returns fully
built objects; the CLI serializes them through :mod:`stocomb.io`, except gap
instances, which it writes as :func:`random_gap_payload` describes them.  Every
generated instance satisfies its own validity checks by construction:
graphs come out connected, every client is coverable, and gap instances use
monotone submodular coverage functions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .gap import GapInstance
from .model import Explicit, IndependentBernoulli, ProblemInstance, members
from .problems import (
    set_cover_problem,
    steiner_problem,
    ufl_problem,
    vertex_cover_problem,
)
from .rng import stream
from .saa import ScenarioBlock, StochasticLPInstance, unit_box
from .setfun import from_json, random_coverage

EXPLICIT_SUPPORT = 4  # most client sets of a random explicit distribution, {} included


def _cost(rng) -> float:
    return float(np.round(rng.uniform(0.1, 2.0), 4))


def random_problem(kind: str, n_clients: int, n_elements: int,
                   seed: int, sigma: float = 1.0) -> ProblemInstance:
    """One random instance of the requested kind within the given sizes."""
    rng = stream(seed, f"gen-{kind}")
    if kind == "steiner":
        problem = _random_steiner(n_clients, n_elements, rng)
    elif kind == "set_cover":
        problem = _random_set_cover(n_clients, n_elements, rng)
    elif kind == "vertex_cover":
        problem = _random_vertex_cover(n_clients, n_elements, rng)
    elif kind == "ufl":
        problem = _random_ufl(n_clients, n_elements, rng)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    if sigma != 1.0:
        problem = replace(problem, inflation=sigma)
    return problem


def _random_steiner(n_vertices: int, n_edges: int, rng) -> ProblemInstance:
    """Random spanning tree plus extra edges, so the graph is connected."""
    n_vertices = max(n_vertices, 2)
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    pairs = []
    for i in range(1, n_vertices):
        j = int(rng.integers(i))
        pairs.append((vertices[j], vertices[i]))
    existing = {frozenset(p) for p in pairs}
    attempts = 0
    while len(pairs) < max(n_edges, n_vertices - 1) and attempts < 50:
        i, j = rng.choice(n_vertices, size=2, replace=False)
        key = frozenset((vertices[int(i)], vertices[int(j)]))
        attempts += 1
        if key not in existing:
            existing.add(key)
            pairs.append((vertices[int(i)], vertices[int(j)]))
    edges = {f"e{k}": p for k, p in enumerate(pairs)}
    costs = {e: _cost(rng) for e in edges}
    return steiner_problem(vertices, edges, costs)


def _random_set_cover(n_clients: int, n_sets: int, rng) -> ProblemInstance:
    clients = tuple(f"c{i}" for i in range(n_clients))
    n_sets = max(n_sets, 1)
    sets = {}
    for k in range(n_sets):
        size = int(rng.integers(1, n_clients + 1))
        members = rng.choice(n_clients, size=size, replace=False)
        sets[f"s{k}"] = tuple(clients[int(i)] for i in members)
    # Guarantee coverage: sweep uncovered clients into the last set.
    covered = set().union(*map(set, sets.values()))
    missing = [c for c in clients if c not in covered]
    if missing:
        last = f"s{n_sets - 1}"
        sets[last] = tuple(sorted(set(sets[last]) | set(missing)))
    costs = {s: _cost(rng) for s in sets}
    return set_cover_problem(clients, sets, costs)


def _random_vertex_cover(n_edges: int, n_vertices: int, rng) -> ProblemInstance:
    n_vertices = max(n_vertices, 2)
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    edges = {}
    seen = set()
    k = 0
    guard = 0
    while k < n_edges and guard < 20 * n_edges:
        guard += 1
        i, j = rng.choice(n_vertices, size=2, replace=False)
        key = frozenset((int(i), int(j)))
        if key in seen:
            continue
        seen.add(key)
        edges[f"g{k}"] = (vertices[int(i)], vertices[int(j)])
        k += 1
    costs = {v: _cost(rng) for v in vertices}
    return vertex_cover_problem(vertices, edges, costs)


def _random_ufl(n_clients: int, n_facilities: int, rng) -> ProblemInstance:
    n_facilities = max(n_facilities, 1)
    clients = tuple(f"c{j}" for j in range(n_clients))
    facilities = tuple(f"f{i}" for i in range(n_facilities))
    open_costs = {i: _cost(rng) for i in facilities}
    assignments = {}
    assign_costs = {}
    for i in facilities:
        for j in clients:
            a = f"{i}~{j}"
            assignments[a] = (i, j)
            assign_costs[a] = _cost(rng)
    return ufl_problem(clients, facilities, open_costs, assignments,
                       assign_costs)


def random_explicit_distribution(clients: tuple, seed: int) -> Explicit:
    """Random distribution on at most ``EXPLICIT_SUPPORT`` client sets,
    always including a chance of the empty realization."""
    rng = stream(seed, "gen-dist-explicit")
    subsets = [frozenset()]
    for _ in range(EXPLICIT_SUPPORT - 1):
        mask = int(rng.integers(1 << len(clients)))
        subsets.append(frozenset(members(mask, clients)))
    subsets = sorted(set(subsets), key=lambda s: sorted(map(str, s)))
    weights = rng.uniform(0.05, 1.0, len(subsets))
    weights = np.round(weights / weights.sum(), 8)
    weights[-1] = 1.0 - float(weights[:-1].sum())
    return Explicit(tuple(zip(subsets, map(float, weights))))


def random_marginals(clients: tuple, seed: int) -> IndependentBernoulli:
    rng = stream(seed, "gen-dist-independent")
    return IndependentBernoulli(tuple(
        (j, float(np.round(rng.uniform(0.05, 0.6), 6))) for j in clients))


def random_gap_payload(n_ground: int, seed: int) -> dict:
    """A gap instance file: a random coverage cost and random marginals."""
    rng = stream(seed, "gen-gap")
    ground = [f"i{k}" for k in range(n_ground)]
    set_function = random_coverage(ground, rng)
    marginals = {i: float(np.round(rng.uniform(0.1, 0.9), 6)) for i in ground}
    return {"ground": ground, "marginals": marginals, "set_function": set_function}


def random_gap_instance(n_ground: int, seed: int) -> GapInstance:
    """Monotone submodular coverage cost with random marginals, built from
    :func:`random_gap_payload`."""
    payload = random_gap_payload(n_ground, seed)
    ground = tuple(payload["ground"])
    return GapInstance(ground, from_json(payload["set_function"], ground),
                       payload["marginals"])


def random_stochastic_lp(m: int, n_scenarios: int, seed: int,
                         with_aux: bool = False) -> StochasticLPInstance:
    """Random always-feasible two-stage LP over the unit box.

    Technology matrices are nonnegative with a positive entry in every row,
    so recourse purchases alone can always satisfy the requirements, and
    scenario prices are a multiple of the first-stage prices so the price
    ratio stays bounded.
    """
    rng = stream(seed, "gen-slp")
    w = np.round(rng.uniform(0.4, 1.5, m), 4)
    raw = rng.dirichlet(np.ones(n_scenarios))
    probs = np.round(raw, 6)
    probs[-1] = 1.0 - probs[:-1].sum()
    blocks = []
    for s in range(n_scenarios):
        k = int(rng.integers(1, m + 2))
        tech = np.round(rng.uniform(0.0, 1.5, (k, m)), 4)
        for r in range(k):
            if tech[r].max() <= 0:
                tech[r, int(rng.integers(m))] = 1.0
        req = np.round(rng.uniform(0.3, 2.0, k), 4)
        ratio = float(np.round(rng.uniform(1.2, 3.0), 4))
        if with_aux and rng.random() < 0.7:
            n_aux = int(rng.integers(1, 3))
            coupling = np.round(rng.uniform(0.0, 1.2, (k, n_aux)), 4)
            aux_cost = np.round(rng.uniform(0.2, 1.5, n_aux), 4)
        else:
            coupling = np.zeros((k, 0))
            aux_cost = np.zeros(0)
        blocks.append(ScenarioBlock(
            probability=float(probs[s]),
            recourse_cost=ratio * w,
            aux_cost=aux_cost,
            coupling=coupling,
            technology=tech,
            requirement=req,
        ))
    return StochasticLPInstance(w, unit_box(m), tuple(blocks))

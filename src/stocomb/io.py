"""JSON schemas for instances and reports.

Three file formats, documented field by field in the README:

* client-element instances: clients, priced elements, inflation factor, a
  kind-specific problem payload, and an optional scenario distribution;
* stochastic-LP instances: first-stage costs, a finite box, and dense
  scenario blocks (matrices as row-major nested lists);
* gap instances: ground set, marginals, and a named or tabulated set
  function.

Reports are serialized with sorted keys and a trailing newline so that
reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .errors import NumericalFailure, SchemaError
from .gap import GapInstance
from .model import (
    Explicit,
    IndependentBernoulli,
    KPartition,
    ProblemInstance,
    ScenarioDistribution,
)
from .problems import (
    set_cover_problem,
    steiner_problem,
    ufl_problem,
    vertex_cover_problem,
)
from .saa import Polytope, ScenarioBlock, StochasticLPInstance
from .setfun import from_json as setfun_from_json


def _schema_checked(what: str):
    """Loader decorator: data the model constructors reject (a ``ValueError``,
    such as probabilities that do not sum to 1 or a number that is not
    finite) or a payload of the wrong shape (such as ``null``, a number, a
    string or a list where an object belongs) is reported as a
    :class:`SchemaError`."""

    def decorate(load):
        @functools.wraps(load)
        def checked(payload):
            try:
                return load(payload)
            except (TypeError, KeyError, ValueError, AttributeError) as exc:
                raise SchemaError(f"malformed {what}: {exc}") from exc

        return checked

    return decorate


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise SchemaError(f"missing field {key!r} in {where}")
    return payload[key]


def load_distribution(payload: dict) -> ScenarioDistribution:
    kind = _require(payload, "kind", "distribution")
    if kind == "explicit":
        outcomes = _require(payload, "outcomes", "distribution")
        return Explicit(tuple((frozenset(o["subset"]), float(o["prob"]))
                              for o in outcomes))
    if kind == "independent":
        marg = _require(payload, "marginals", "distribution")
        return IndependentBernoulli(tuple((j, float(p)) for j, p in marg.items()))
    if kind == "k_partition":
        blocks = _require(payload, "blocks", "distribution")
        return KPartition(tuple(frozenset(b) for b in blocks))
    raise SchemaError(f"unknown distribution kind {kind!r}")


def dump_distribution(dist: ScenarioDistribution) -> dict:
    if isinstance(dist, Explicit):
        return {"kind": "explicit",
                "outcomes": [{"subset": sorted(s), "prob": p}
                             for s, p in dist.outcomes]}
    if isinstance(dist, IndependentBernoulli):
        return {"kind": "independent", "marginals": dict(dist.marginals)}
    if isinstance(dist, KPartition):
        return {"kind": "k_partition", "blocks": [sorted(b) for b in dist.blocks]}
    raise SchemaError(f"cannot serialize distribution {dist!r}")


@_schema_checked("instance")
def load_instance(payload: dict):
    """Parse a client-element instance; returns (problem, distribution|None)."""
    clients = tuple(_require(payload, "clients", "instance"))
    elements = _require(payload, "elements", "instance")
    costs = {e["id"]: float(e["cost"]) for e in elements}
    order = tuple(e["id"] for e in elements)
    sigma = float(_require(payload, "sigma", "instance"))
    problem = _require(payload, "problem", "instance")
    kind = _require(problem, "kind", "problem")

    if kind == "steiner":
        edges = {e: tuple(uv) for e, uv in _require(problem, "edges", "problem").items()}
        _check_ids(order, edges, "edges")
        inst = steiner_problem(clients, {e: edges[e] for e in order}, costs,
                               sigma, root=problem.get("root"))
    elif kind == "set_cover":
        sets = {e: tuple(m) for e, m in _require(problem, "sets", "problem").items()}
        _check_ids(order, sets, "sets")
        inst = set_cover_problem(clients, {e: sets[e] for e in order}, costs, sigma)
    elif kind == "vertex_cover":
        edges = {c: tuple(uv) for c, uv in _require(problem, "edges", "problem").items()}
        if set(edges) != set(clients):
            raise SchemaError("vertex-cover edges must be keyed by client ids")
        inst = vertex_cover_problem(order, edges, costs, sigma)
    elif kind == "ufl":
        facilities = tuple(_require(problem, "facilities", "problem"))
        assigns = {a: tuple(p) for a, p in
                   _require(problem, "assignments", "problem").items()}
        if set(order) != set(facilities) | set(assigns):
            raise SchemaError(
                "element ids must be exactly the facilities plus assignments")
        open_costs = {i: costs[i] for i in facilities}
        assign_costs = {a: costs[a] for a in assigns}
        inst = ufl_problem(clients, facilities, open_costs, assigns,
                           assign_costs, sigma)
    else:
        raise SchemaError(f"unknown problem kind {kind!r}")

    dist = None
    if payload.get("distribution") is not None:
        dist = load_distribution(payload["distribution"])
        _check_distribution_clients(dist, set(inst.clients))
    return inst, dist


def _check_distribution_clients(dist: ScenarioDistribution, clients: set):
    unknown = set(dist.universe) - clients
    if unknown:
        raise SchemaError(
            f"distribution mentions unknown clients: {sorted(map(str, unknown))}")


def _check_ids(order: tuple, mapping: dict, what: str):
    if set(order) != set(mapping):
        raise SchemaError(f"element ids and {what} keys disagree")


def dump_instance(problem: ProblemInstance,
                  dist: ScenarioDistribution | None = None) -> dict:
    payload: dict = {"kind": problem.kind}
    if problem.kind == "steiner":
        payload["edges"] = {e: list(uv) for e, uv in problem.payload["edges"].items()}
        payload["root"] = problem.payload["root"]
    elif problem.kind == "set_cover":
        payload["sets"] = {e: sorted(m) for e, m in problem.payload["sets"].items()}
    elif problem.kind == "vertex_cover":
        payload["edges"] = {c: list(uv) for c, uv in problem.payload["edges"].items()}
    elif problem.kind == "ufl":
        payload["facilities"] = list(problem.payload["facilities"])
        payload["assignments"] = {a: list(p) for a, p in
                                  problem.payload["assignments"].items()}
    else:
        raise SchemaError(f"cannot serialize problem kind {problem.kind!r}")
    out = {
        "clients": list(problem.clients),
        "elements": [{"id": e, "cost": problem.first_stage_cost[e]}
                     for e in problem.elements],
        "sigma": problem.inflation,
        "problem": payload,
    }
    if dist is not None:
        out["distribution"] = dump_distribution(dist)
    return out


@_schema_checked("stochastic LP")
def load_stochastic_lp(payload: dict) -> StochasticLPInstance:
    w = np.asarray(_require(payload, "first_stage_cost", "lp instance"),
                   dtype=float)
    poly_payload = _require(payload, "polytope", "lp instance")
    if "rows" in poly_payload or "row_rhs" in poly_payload:
        raise SchemaError("the polytope is a box: rows and row_rhs are not supported")
    poly = Polytope(
        lower=np.asarray(poly_payload.get("lower", np.zeros(w.size)), dtype=float),
        upper=np.asarray(poly_payload.get("upper", np.ones(w.size)), dtype=float),
    )
    blocks = []
    for blk in _require(payload, "scenarios", "lp instance"):
        k = len(blk["requirement"])
        aux = np.asarray(blk.get("aux_cost", []), dtype=float)
        if aux.size:
            coupling = np.asarray(blk["coupling"], dtype=float).reshape(k, -1)
        else:
            coupling = np.zeros((k, 0))
        blocks.append(ScenarioBlock(
            probability=float(blk["probability"]),
            recourse_cost=np.asarray(blk["recourse_cost"], dtype=float),
            aux_cost=aux,
            coupling=coupling,
            technology=np.asarray(blk["technology"], dtype=float),
            requirement=np.asarray(blk["requirement"], dtype=float),
        ))
    if not blocks:
        raise SchemaError("no scenarios: their probabilities sum to 0, not 1")
    return StochasticLPInstance(w, poly, tuple(blocks))


def dump_stochastic_lp(instance: StochasticLPInstance) -> dict:
    poly = instance.polytope
    out: dict = {
        "first_stage_cost": instance.first_stage_cost.tolist(),
        "polytope": {
            "lower": poly.lower.tolist(),
            "upper": poly.upper.tolist(),
        },
        "scenarios": [],
    }
    for blk in instance.scenarios:
        out["scenarios"].append({
            "probability": blk.probability,
            "recourse_cost": blk.recourse_cost.tolist(),
            "aux_cost": blk.aux_cost.tolist(),
            "coupling": blk.coupling.tolist(),
            "technology": blk.technology.tolist(),
            "requirement": blk.requirement.tolist(),
        })
    return out


@_schema_checked("gap instance")
def load_gap_instance(payload: dict) -> GapInstance:
    ground = tuple(_require(payload, "ground", "gap instance"))
    marginals = {i: float(_require(payload, "marginals", "gap instance")[str(i)])
                 for i in ground}
    f = setfun_from_json(_require(payload, "set_function", "gap instance"), ground)
    return GapInstance(ground, f, marginals)


def canonical_json(obj) -> str:
    """Sorted-key JSON text; a value that is not finite (a sum that left the
    float range) is a :class:`NumericalFailure`."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailure(f"report value out of range: {exc}") from exc


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def write_text(path, text: str, overwrite: bool = False):
    """Write ``text`` to ``path``; refuse (``FileExistsError``) to replace an
    existing file unless ``overwrite`` is set.  Every report, CSV view and
    trace the CLI writes goes through here."""
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} exists; pass --overwrite to replace it")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path, obj, overwrite: bool = False):
    write_text(path, canonical_json(obj), overwrite)

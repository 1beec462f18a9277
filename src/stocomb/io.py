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
import math
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import NumericalFailure, SchemaError, list_of_ids
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
    """Loader decorator: a missing field (a ``KeyError``), data the model
    constructors reject (a ``ValueError``, such as probabilities that do not
    sum to 1 or a number that is not finite) or a payload of the wrong shape
    (such as ``null``, a number, a string or a list where an object belongs)
    is reported as a :class:`SchemaError`."""

    def decorate(load):
        @functools.wraps(load)
        def checked(payload):
            try:
                return load(payload)
            except KeyError as exc:
                raise SchemaError(f"missing field {exc} in {what}") from exc
            except (TypeError, ValueError, AttributeError) as exc:
                raise SchemaError(f"malformed {what}: {exc}") from exc

        return checked

    return decorate


@_schema_checked("distribution")
def load_distribution(payload: dict) -> ScenarioDistribution:
    kind = payload["kind"]
    if kind == "explicit":
        return Explicit(tuple((list_of_ids(o["subset"], "subset"), o["prob"])
                              for o in payload["outcomes"]))
    if kind == "independent":
        return IndependentBernoulli(tuple(payload["marginals"].items()))
    if kind == "k_partition":
        return KPartition([list_of_ids(b, "block")
                           for b in list_of_ids(payload["blocks"], "blocks")])
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
    clients = list_of_ids(payload["clients"], "clients")
    order = tuple(e["id"] for e in payload["elements"])
    costs = {e["id"]: float(e["cost"]) for e in payload["elements"]}
    if len(costs) < len(order):
        repeated = sorted({str(e) for e in order if order.count(e) > 1})
        raise SchemaError(f"repeated element ids: {repeated}")
    sigma = float(payload["sigma"])
    problem = payload["problem"]
    kind = problem["kind"]

    field = {"set_cover": "sets", "ufl": "assignments"}.get(kind, "edges")
    for key, ids in problem.get(field, {}).items():
        list_of_ids(ids, f"{field}[{key!r}]")

    if kind == "steiner":
        edges = problem["edges"]
        _check_ids(order, edges, "edges")
        inst = steiner_problem(clients, {e: edges[e] for e in order}, costs,
                               sigma, root=problem.get("root"))
    elif kind == "set_cover":
        sets = problem["sets"]
        _check_ids(order, sets, "sets")
        inst = set_cover_problem(clients, {e: sets[e] for e in order}, costs, sigma)
    elif kind == "vertex_cover":
        edges = problem["edges"]
        if set(edges) != set(clients):
            raise SchemaError("vertex-cover edges must be keyed by client ids")
        inst = vertex_cover_problem(order, edges, costs, sigma)
    elif kind == "ufl":
        facilities = list_of_ids(problem["facilities"], "facilities")
        assigns = problem["assignments"]
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
    w = np.asarray(payload["first_stage_cost"], dtype=float)
    poly_payload = payload["polytope"]
    if "rows" in poly_payload or "row_rhs" in poly_payload:
        raise SchemaError("the polytope is a box: rows and row_rhs are not supported")
    poly = Polytope(lower=poly_payload.get("lower", np.zeros(w.size)),
                    upper=poly_payload.get("upper", np.ones(w.size)))
    blocks = tuple(ScenarioBlock(
        probability=float(blk["probability"]),
        recourse_cost=blk["recourse_cost"],
        # Both or neither: each reads the other's key, so either one alone
        # is a missing field.
        aux_cost=blk["aux_cost"] if "coupling" in blk else [],
        coupling=blk["coupling"] if "aux_cost" in blk else [],
        technology=blk["technology"],
        requirement=blk["requirement"],
    ) for blk in payload["scenarios"])
    if not blocks:
        raise SchemaError("no scenarios: their probabilities sum to 0, not 1")
    return StochasticLPInstance(w, poly, blocks)


def dump_stochastic_lp(instance: StochasticLPInstance) -> dict:
    poly = instance.polytope
    arrays = ("recourse_cost", "aux_cost", "coupling", "technology", "requirement")
    return {
        "first_stage_cost": instance.first_stage_cost.tolist(),
        "polytope": {"lower": poly.lower.tolist(), "upper": poly.upper.tolist()},
        "scenarios": [{"probability": blk.probability,
                       **{name: getattr(blk, name).tolist() for name in arrays}}
                      for blk in instance.scenarios],
    }


@_schema_checked("gap instance")
def load_gap_instance(payload: dict) -> GapInstance:
    ground = tuple(list_of_ids(payload["ground"], "ground"))
    marginals = {i: float(payload["marginals"][str(i)]) for i in ground}
    f = setfun_from_json(payload["set_function"], ground)
    return GapInstance(ground, f, marginals)


def canonical_json(obj) -> str:
    """Sorted-key JSON text, the text of ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False)`` plus a newline; a value that is not
    finite (a sum that left the float range) is a :class:`NumericalFailure`.

    One recursive function writes it, so a call leaves no reference cycle
    behind (``json.dumps`` builds closures for an indented text)."""
    out: list = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"report value out of range: {x!r}")
    return float.__repr__(x)


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or key is True or key is False:
        return _JSON_CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    if isinstance(key, float):
        return _json_float(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{type(key).__name__}")


def _write_json(value, out: list, newline: str):
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for k, item in enumerate(value):
            out.append("," + inner if k else inner)
            _write_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for k, (key, item) in enumerate(sorted(value.items())):
            out.append("," + inner if k else inner)
            out.append(encode_basestring_ascii(_json_key(key)))
            out.append(": ")
            _write_json(item, out, inner)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


# A JSON escape of a UTF-16 surrogate: only text holding one can decode to
# a string that no UTF-8 writer accepts.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path) -> dict:
    """The JSON document at ``path``; a file that cannot be read, is not
    UTF-8 or is not JSON, or a string holding an unpaired surrogate escape
    (such as ``"\\ud800"``), is a :class:`SchemaError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeEncodeError as exc:
        lone = exc.object[exc.start:exc.end]
        raise SchemaError(f"{path}: unpaired surrogate escape {lone!r}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    return doc


def write_text(path, text: str, overwrite: bool = False):
    """Write ``text`` to ``path``, making its directory.  Unless
    ``overwrite`` is set the file is created exclusively, so an existing
    file is refused (``FileExistsError``), never replaced.  Any other
    failure is an ``OSError`` whose message names ``path``.  Every report,
    CSV view and trace the CLI writes goes through here."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w" if overwrite else "x", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if isinstance(exc, FileExistsError) and exc.filename == str(path):
            raise FileExistsError(
                f"{path} exists; pass --overwrite to replace it") from exc
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj, overwrite: bool = False):
    write_text(path, canonical_json(obj), overwrite)

"""JSON schema round trips and error paths."""

import numpy as np
import pytest

from stocomb.errors import SchemaError
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.generate import random_problem, random_stochastic_lp
from stocomb.io import (
    canonical_json,
    dump_distribution,
    dump_instance,
    dump_stochastic_lp,
    load_distribution,
    load_gap_instance,
    load_instance,
    load_stochastic_lp,
)
from stocomb.model import (
    Explicit,
    IndependentBernoulli,
    KPartition,
    check_subadditive,
    client_optima,
    exact_opt,
    served_table,
)
from stocomb.saa import h_exact

from conftest import MALFORMED_IDS, loop_served_table, malformed_ids


@pytest.mark.parametrize("kind", ["steiner", "ufl", "set_cover", "vertex_cover"])
def test_problem_round_trip(kind):
    sizes = (3, 1) if kind == "ufl" else (4, 5)
    problem = random_problem(kind, *sizes, seed=5)
    clone, _ = load_instance(dump_instance(problem))
    assert clone.kind == problem.kind
    assert clone.clients == problem.clients
    assert clone.elements == problem.elements
    assert clone.first_stage_cost == problem.first_stage_cost
    assert clone.inflation == problem.inflation
    # oracles agree on a sweep of (F, S) pairs
    rng = np.random.default_rng(0)
    for _ in range(50):
        fmask = int(rng.integers(1 << len(problem.elements)))
        smask = int(rng.integers(1 << len(problem.clients)))
        F = frozenset(e for i, e in enumerate(problem.elements) if (fmask >> i) & 1)
        S = frozenset(c for i, c in enumerate(problem.clients) if (smask >> i) & 1)
        assert clone.feasibility(F, S) == problem.feasibility(F, S)


@pytest.mark.parametrize("dist", [
    Explicit(((frozenset({"a"}), 0.3), (frozenset(), 0.7))),
    IndependentBernoulli((("a", 0.4), ("b", 0.9))),
    KPartition((frozenset({"a"}), frozenset({"b"}))),
])
def test_distribution_round_trip(dist):
    clone = load_distribution(dump_distribution(dist))
    assert type(clone) is type(dist)
    assert sorted(map(sorted, (s for s, _ in clone.support()))) == \
        sorted(map(sorted, (s for s, _ in dist.support())))


def test_independent_marginals_dump_the_same_from_either_form():
    pairs = IndependentBernoulli((("a", 1), ("b", 0)))
    mapping = IndependentBernoulli({"a": 1, "b": 0})
    assert mapping.marginals == (("a", 1.0), ("b", 0.0))
    assert (canonical_json(dump_distribution(mapping))
            == canonical_json(dump_distribution(pairs)))


def test_steiner_root_survives_round_trip():
    problem = tri3()
    clone, _ = load_instance(dump_instance(problem))
    assert clone.payload["root"] == problem.payload["root"]


def test_distribution_client_mismatch_rejected():
    problem, _ = edge1()
    payload = dump_instance(problem, Explicit(((frozenset({"ghost"}), 1.0),)))
    with pytest.raises(SchemaError):
        load_instance(payload)


def test_missing_fields_raise_schema_error():
    with pytest.raises(SchemaError):
        load_instance({"clients": ["a"]})
    with pytest.raises(SchemaError):
        load_distribution({"kind": "mystery"})
    with pytest.raises(SchemaError):
        load_gap_instance({"ground": ["a"]})


def test_element_id_mismatch_rejected():
    problem = cov3()
    payload = dump_instance(problem)
    payload["problem"]["sets"].pop("sA")
    with pytest.raises(SchemaError):
        load_instance(payload)


def test_stochastic_lp_round_trip():
    inst = random_stochastic_lp(2, 3, seed=8, with_aux=True)
    clone = load_stochastic_lp(dump_stochastic_lp(inst))
    assert clone.first_stage_cost == pytest.approx(inst.first_stage_cost)
    assert len(clone.scenarios) == len(inst.scenarios)
    for x in (np.zeros(2), np.array([0.3, 0.9]), np.ones(2)):
        assert h_exact(clone, x) == pytest.approx(h_exact(inst, x), abs=1e-9)


def test_gap_instance_loading():
    inst = load_gap_instance({
        "ground": ["a", "b"],
        "marginals": {"a": 0.5, "b": 0.5},
        "set_function": {"kind": "cardinality"},
    })
    assert inst.f(frozenset({"a", "b"})) == 2.0
    assert inst.marginals["a"] == 0.5


@pytest.mark.parametrize("case", MALFORMED_IDS)
def test_ids_that_name_nothing_raise_schema_error(case):
    with pytest.raises(SchemaError, match="'ghost', which is not a"):
        load_instance(malformed_ids(case))


def test_set_cover_member_that_is_not_a_client_is_accepted():
    payload = dump_instance(cov3())
    payload["problem"]["sets"]["sA"].append("ghost")
    problem, _ = load_instance(payload)
    assert problem.payload["sets"]["sA"] == {"1", "2", "ghost"}
    assert (served_table(problem) == loop_served_table(problem)).all()
    optimum = client_optima(problem)
    assert optimum({"1", "2"}) == exact_opt(problem, {"1", "2"})
    assert check_subadditive(problem).ok

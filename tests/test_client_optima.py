"""The served-client table and the sweeps that price every client set from it.

Each shipped kind's ``served_table`` must equal, bit for bit, the table
written with one oracle call per (element set, client), and
``model.client_optima`` must return what ``exact_opt`` returns (solution,
ties and exceptions) for every client set.  The four sweeps routed through
it must report what their per-client-set loops (``tests/conftest.py``)
report; on custom oracles, which have no table, the oracle must see exactly
the loops' calls.
"""

from dataclasses import replace

import numpy as np
import pytest

from stocomb.errors import CapExceeded, Infeasible, NumericalFailure
from stocomb.fixtures import cov3, tri3
from stocomb.generate import random_problem
from stocomb.model import (
    COST_TOL,
    ProblemInstance,
    Solution,
    check_subadditive,
    client_optima,
    exact_opt,
    members,
)
from stocomb.problems import (
    set_cover_problem,
    steiner_problem,
    ufl_problem,
    vertex_cover_problem,
)
from stocomb.sharing import check_fairness, equal_split_shares, zero_shares
from stocomb.solvers import ApproxAlgorithm, empirical_alpha

from conftest import (
    loop_check_fairness,
    loop_check_subadditive,
    loop_empirical_alpha,
    loop_equal_split_shares,
    loop_served_table,
)

KINDS = ("steiner", "set_cover", "vertex_cover", "ufl")


def raw_problem(kind: str, seed: int) -> ProblemInstance:
    """A random instance with |V| <= 5 and |X| <= 12 that may hold isolated
    vertices, cut-off components, parallel edges, self-loops, uncoverable
    clients, non-client set members and clients without an assignment."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def costs(ids):
        return {e: float(np.round(rng.uniform(0.0, 2.0), 2)) for e in ids}

    if kind == "steiner":
        vertices = tuple(f"v{i}" for i in range(int(rng.integers(1, 6))))
        edges = {f"e{k}": (pick(vertices), pick(vertices))
                 for k in range(int(rng.integers(0, 13)))}
        return steiner_problem(vertices, edges, costs(edges), root=pick(vertices))
    if kind == "set_cover":
        clients = tuple(f"c{j}" for j in range(int(rng.integers(1, 6))))
        pool = clients + ("stray",)
        sets = {f"s{k}": tuple(x for x in pool if rng.random() < 0.35)
                for k in range(int(rng.integers(0, 13)))}
        return set_cover_problem(clients, sets, costs(sets))
    if kind == "vertex_cover":
        vertices = tuple(f"v{i}" for i in range(int(rng.integers(1, 13))))
        edges = {f"g{k}": (pick(vertices), pick(vertices))
                 for k in range(int(rng.integers(0, 6)))}
        return vertex_cover_problem(vertices, edges, costs(vertices))
    clients = tuple(f"c{j}" for j in range(int(rng.integers(0, 6))))
    facilities = tuple(f"f{i}" for i in range(int(rng.integers(0, 4))))
    pairs = [(i, j) for i in facilities for j in clients if rng.random() < 0.5]
    assignments = {f"{i}~{j}": (i, j) for i, j in pairs[:12 - len(facilities)]}
    return ufl_problem(clients, facilities, costs(facilities), assignments,
                       costs(assignments))


HAND_BUILT = {
    "uncoverable_client": set_cover_problem(
        ("a", "b", "c"), {"s": ("a",), "t": ("a", "b")}, {"s": 1.0, "t": 2.0}),
    "isolated_vertex": steiner_problem(
        ("r", "a", "z"), {"e": ("r", "a")}, {"e": 1.0}),
    "cut_off_component": steiner_problem(
        ("r", "a", "b", "c"), {"e": ("r", "a"), "f": ("b", "c")},
        {"e": 1.0, "f": 1.0}),
    "parallel_edges": steiner_problem(
        ("r", "a", "b"), {"e": ("r", "a"), "f": ("a", "r"), "g": ("a", "b")},
        {"e": 2.0, "f": 1.0, "g": 1.0}),
    "steiner_self_loop": steiner_problem(
        ("r", "a"), {"loop": ("a", "a"), "e": ("r", "a")}, {"loop": 0.0, "e": 1.0}),
    "root_only": steiner_problem(("r",), {}, {}),
    "vertex_cover_self_loop": vertex_cover_problem(
        ("u", "v"), {"g": ("u", "u"), "h": ("u", "v")}, {"u": 1.0, "v": 0.5}),
    "client_without_assignment": ufl_problem(
        ("a", "b"), ("f",), {"f": 1.0}, {"f~a": ("f", "a")}, {"f~a": 0.5}),
    "set_cover_no_elements": set_cover_problem(("a",), {}, {}),
    "steiner_no_elements": steiner_problem(("r", "a"), {}, {}),
    "vertex_cover_no_elements": vertex_cover_problem((), {}, {}),
    "ufl_no_elements": ufl_problem(("a",), (), {}, {}, {}),
}


def client_sets(problem):
    return [frozenset(members(mask, problem.clients))
            for mask in range(1 << len(problem.clients))]


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


# -- The served-client table ---------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_served_table_matches_the_oracle_on_random_instances(kind):
    for seed in range(12):
        for problem in (raw_problem(kind, seed),
                        random_problem(kind, 3 if kind == "ufl" else 5,
                                       2 if kind == "ufl" else 8, seed)):
            table = problem.served_table()
            assert table.dtype == np.uint64
            assert np.array_equal(table, loop_served_table(problem)), (kind, seed)


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_served_table_matches_the_oracle_on_hand_built_cases(name):
    problem = HAND_BUILT[name]
    assert np.array_equal(problem.served_table(), loop_served_table(problem))


def test_served_table_reads_the_payload_not_the_oracle():
    problem = replace(cov3(), feasibility=None)
    assert problem.served_table().tolist() == [0, 3, 6, 7, 4, 7, 6, 7]


# -- client_optima against exact_opt -------------------------------------------

def assert_optima_agree(problem, extra=()):
    optimum = client_optima(problem)
    for S in client_sets(problem) + list(extra):
        assert outcome(optimum, S) == outcome(exact_opt, problem, S), S


@pytest.mark.parametrize("kind", KINDS)
def test_client_optima_is_exact_opt_on_random_instances(kind):
    for seed in range(12):
        assert_optima_agree(raw_problem(kind, seed))


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_client_optima_is_exact_opt_on_hand_built_cases(name):
    assert_optima_agree(HAND_BUILT[name])


def repriced(problem, price):
    return replace(problem, first_stage_cost={e: price(k) for k, e in
                                              enumerate(problem.elements)})


@pytest.mark.parametrize("kind", KINDS)
def test_client_optima_ties_and_tolerance_steps(kind):
    for seed in range(6):
        problem = random_problem(kind, 3 if kind == "ufl" else 4,
                                 2 if kind == "ufl" else 6, seed)
        assert_optima_agree(repriced(problem, lambda k: 1.0))
        assert_optima_agree(repriced(problem, lambda k: 1.0 + (k % 3) * COST_TOL))
        assert_optima_agree(repriced(problem, lambda k: 1.0 - (k % 2) * COST_TOL))


def test_client_optima_infeasible_message_is_exact_opts():
    problem = HAND_BUILT["uncoverable_client"]
    optimum = client_optima(problem)
    with pytest.raises(Infeasible, match=r"no element subset serves \['a', 'c'\]"):
        optimum({"a", "c"})
    assert optimum({"a", "b"}) == exact_opt(problem, {"a", "b"})


@pytest.mark.parametrize("kind", KINDS)
def test_client_optima_overflowing_costs_fail_like_exact_opt(kind):
    problem = repriced(random_problem(kind, 3, 3, 1), lambda k: 1e308)
    assert_optima_agree(problem)
    with pytest.raises(NumericalFailure):
        client_optima(problem)(frozenset())


def test_client_sets_outside_the_clients_fall_back_to_exact_opt():
    problem = cov3()
    assert_optima_agree(problem, extra=[{"ghost"}, {"1", "ghost"}])


def test_client_optima_builds_one_table_on_first_call():
    built = []
    problem = tri3()
    counted = replace(problem, served_table=lambda: built.append(1)
                      or problem.served_table())
    optimum = client_optima(counted)
    assert built == []
    for S in client_sets(problem) * 2:
        optimum(S)
    assert built == [1]


def test_custom_problems_call_exact_opt():
    problem = ProblemInstance(("x", "y"), ("a", "b", "c"),
                              {"a": 1.0, "b": 2.0, "c": 0.5}, 1.0,
                              lambda F, S: len(F) >= len(S))
    assert problem.served_table is None
    assert_optima_agree(problem)


# -- The sweeps against their per-client-set loops -----------------------------

def sweep_problems():
    for kind in KINDS:
        for seed in range(4):
            yield raw_problem(kind, seed)
            yield random_problem(kind, 3 if kind == "ufl" else 5,
                                 2 if kind == "ufl" else 7, seed, 2.0)
    yield from HAND_BUILT.values()
    yield tri3()
    yield cov3()


def scaled(xi, factor):
    return lambda S, j: factor * xi(S, j)


def test_sweeps_match_their_loops():
    for problem in sweep_problems():
        assert (outcome(check_subadditive, problem)
                == outcome(loop_check_subadditive, problem))
        for factor in (1.0, 1.5):
            assert (outcome(check_fairness, scaled(equal_split_shares(problem), factor),
                            problem)
                    == outcome(loop_check_fairness,
                               scaled(loop_equal_split_shares(problem), factor),
                               problem))
        assert (outcome(check_fairness, zero_shares(), problem)
                == outcome(loop_check_fairness, zero_shares(), problem))
        assert (outcome(empirical_alpha, problem)
                == outcome(loop_empirical_alpha, problem))


def test_the_sweep_problems_reach_passes_failures_and_exceptions():
    seen = set()
    for problem in sweep_problems():
        got = outcome(check_fairness, scaled(equal_split_shares(problem), 1.5), problem)
        seen.add(got[0] if isinstance(got, tuple) else got.ok)
    assert {True, False, Infeasible} <= seen


def recording(problem):
    """``problem`` with a custom oracle that logs every call."""
    calls = []

    def oracle(F, S):
        calls.append((F, S))
        return problem.feasibility(F, S)

    return replace(problem, feasibility=oracle, kind="custom", served_table=None,
                   payload={}), calls


def greedy_prefix(problem, clients):
    chosen = frozenset(problem.elements[:len(clients)])
    return Solution(chosen, problem.cost(chosen))


PREFIX = ApproxAlgorithm("prefix", 2.0, greedy_prefix, None)


@pytest.mark.parametrize("kind", KINDS)
def test_custom_oracles_see_the_loops_calls(kind):
    for seed in range(3):
        problem = raw_problem(kind, seed)
        runs = []
        for subadditive, fairness, shares, alpha in (
                (check_subadditive, check_fairness, equal_split_shares, empirical_alpha),
                (loop_check_subadditive, loop_check_fairness, loop_equal_split_shares,
                 loop_empirical_alpha)):
            custom, calls = recording(problem)
            results = [outcome(subadditive, custom),
                       outcome(fairness, shares(custom), custom),
                       outcome(alpha, custom, PREFIX)]
            runs.append((results, calls))
        (got, got_calls), (want, want_calls) = runs
        assert got == want
        assert got_calls == want_calls


def test_sweeps_refuse_oversized_instances_before_building_a_table():
    def forbidden():
        raise AssertionError("table built")

    big = replace(random_problem("set_cover", 6, 4, 1), served_table=forbidden)
    for sweep in (check_subadditive, lambda p: check_fairness(equal_split_shares(p), p),
                  empirical_alpha):
        with pytest.raises(CapExceeded):
            sweep(big)

"""The served-client table and the optima of client sets priced from it.

Each shipped kind's block function ``served``, read over every element mask
by ``model.served_table``, must equal, bit for bit, the table written with
one oracle call per (element set, client); past 64 clients no instance has
one.  ``model.exact_opt`` reads that table, built once per problem, for
client sets among the problem's clients, and must return what the per-mask
loop ``loop_exact_opt`` and its own oracle path return (solution, ties and
exceptions) for every client set.  The four sweeps that call it must report
what their per-client-set loops (``tests/conftest.py``) report; on custom
oracles, which have no table, the oracle must see exactly the loops' calls.
Each shipped bitmask oracle must answer every (F, S) as the set oracle it
replaced and as the served table.
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
    client_sets,
    exact_opt,
    members,
    served_table,
)
from stocomb.problems import (
    set_cover_problem,
    steiner_problem,
    ufl_problem,
    vertex_cover_problem,
)
from stocomb.sharing import check_fairness, equal_split_shares
from stocomb.solvers import ApproxAlgorithm, empirical_alpha

from conftest import (
    loop_check_fairness,
    loop_check_subadditive,
    loop_empirical_alpha,
    loop_equal_split_shares,
    loop_exact_opt,
    loop_feasibility,
    loop_served_table,
    loop_set_cover_feasible,
    zero_shares,
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
    "non_client_set_members": set_cover_problem(
        ("a", "b"), {"s": ("a", "x"), "t": ("x",), "u": ("y", "b")},
        {"s": 1.0, "t": 0.5, "u": 1.0}),
    "set_cover_no_elements": set_cover_problem(("a",), {}, {}),
    "steiner_no_elements": steiner_problem(("r", "a"), {}, {}),
    "vertex_cover_no_elements": vertex_cover_problem((), {}, {}),
    "ufl_no_elements": ufl_problem(("a",), (), {}, {}, {}),
}


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
            table = served_table(problem)
            assert table.dtype == np.uint64
            assert np.array_equal(table, loop_served_table(problem)), (kind, seed)


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_served_table_matches_the_oracle_on_hand_built_cases(name):
    problem = HAND_BUILT[name]
    assert np.array_equal(served_table(problem), loop_served_table(problem))


def test_served_table_reads_the_payload_not_the_oracle():
    problem = replace(cov3(), feasibility=None)
    assert served_table(problem).tolist() == [0, 3, 6, 7, 4, 7, 6, 7]


def test_64_clients_fill_every_served_bit():
    clients = tuple(f"c{j}" for j in range(64))
    problem = set_cover_problem(clients, {"a": clients[:40], "b": clients[30:]},
                                {"a": 1.0, "b": 1.0})
    table = served_table(problem)
    assert np.array_equal(table, loop_served_table(problem))
    assert int(table[0b10]) == ((1 << 64) - 1) ^ ((1 << 30) - 1)


def test_past_64_clients_there_is_no_block_function():
    """A uint64 mask cannot hold client 64, so no table is built, and
    exact_opt asks the oracle."""
    clients = tuple(f"c{j}" for j in range(70))
    sets = {"a": clients[:64], "b": clients[60:], "c": clients[::7], "d": clients[63:66]}
    problem = set_cover_problem(clients, sets, {"a": 3.0, "b": 1.0, "c": 2.0, "d": 0.5})
    assert problem.served is None
    high = [frozenset(clients[64:]), frozenset({"c65"}), frozenset({"c0", "c69"}),
            frozenset(clients), frozenset({"c64", "c66"})]
    for S in high:
        assert outcome(exact_opt, problem, S) == outcome(loop_exact_opt, problem, S), S
    assert exact_opt(problem, clients[65:]) == Solution(frozenset({"b"}), 1.0)
    vertices = tuple(f"v{i}" for i in range(65))
    path = {f"e{i}": (vertices[i], vertices[i + 1]) for i in range(64)}
    assert steiner_problem(vertices, path, dict.fromkeys(path, 1.0)).served is None


# -- The bitmask oracles against the set oracles they replaced ------------------

def assert_oracle_agrees(problem):
    """On every (F, S) over the instance's ids, the shipped oracle answers as
    the set oracle it replaced and as the served table."""
    loop = loop_feasibility(problem)
    served = served_table(problem).tolist()
    element_sets = [frozenset(members(f, problem.elements)) for f in range(len(served))]
    for s in range(1 << len(problem.clients)):
        S = frozenset(members(s, problem.clients))
        for f, F in enumerate(element_sets):
            got = problem.feasibility(F, S)
            assert got == loop(F, S) == (served[f] & s == s), (sorted(F), sorted(S))


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_matches_the_set_oracle_on_random_instances(kind):
    sizes = [(3, 2), (2, 3)] if kind == "ufl" else [(5, 8), (4, 6)]
    for seed in range(4):
        for n_clients, n_elements in sizes:
            assert_oracle_agrees(random_problem(kind, n_clients, n_elements, seed))
    # The raw instances bring self-loops, stray ids and unserved clients.
    small = [p for p in (raw_problem(kind, seed) for seed in range(12))
             if len(p.elements) <= 8]
    assert small
    for problem in small:
        assert_oracle_agrees(problem)


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_oracle_matches_the_set_oracle_on_hand_built_cases(name):
    assert_oracle_agrees(HAND_BUILT[name])


def test_set_cover_answers_listed_non_client_ids():
    """Ids a set lists but no client names (x, y) are answered as the set
    oracle answers them, beside the clients, yet get no served-table bit."""
    problem = HAND_BUILT["non_client_set_members"]
    loop = loop_set_cover_feasible(problem.payload["sets"])
    answers = set()
    for f in range(1 << len(problem.elements)):
        F = frozenset(members(f, problem.elements))
        for s in range(1 << 4):
            S = frozenset(members(s, ("a", "b", "x", "y")))
            got = problem.feasibility(F, S)
            assert got == loop(F, S), (sorted(F), sorted(S))
            answers.add(got)
    assert answers == {True, False}
    assert int(np.bitwise_or.reduce(served_table(problem))) == 0b11


# -- exact_opt against its loop and its oracle path ----------------------------

def assert_optima_agree(problem, extra=(), loop=True):
    """exact_opt on every client set (and on ``extra``) is the outcome of its
    oracle path (no block function) and, unless ``loop`` is false, the
    per-mask loop's outcome."""
    oracle_only = replace(problem, served=None)
    for S in client_sets(problem, "client-optima") + list(extra):
        got = outcome(exact_opt, problem, S)
        assert got == outcome(exact_opt, oracle_only, S), S
        if loop:
            assert got == outcome(loop_exact_opt, problem, S), S


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
        # Chains of near ties one COST_TOL apart are where the loop's
        # sequential tie-break and ``model.cheapest`` part ways
        # (tests/test_lattice_checks.py pins the rule), so these steps are
        # checked against exact_opt's oracle path.
        assert_optima_agree(repriced(problem, lambda k: 1.0 + (k % 3) * COST_TOL),
                            loop=False)
        assert_optima_agree(repriced(problem, lambda k: 1.0 - (k % 2) * COST_TOL),
                            loop=False)


def test_client_optima_infeasible_message_is_exact_opts():
    problem = HAND_BUILT["uncoverable_client"]
    with pytest.raises(Infeasible, match=r"no element subset serves \['a', 'c'\]"):
        exact_opt(problem, {"a", "c"})
    assert exact_opt(problem, {"a", "b"}) == loop_exact_opt(problem, {"a", "b"})


@pytest.mark.parametrize("kind", KINDS)
def test_client_optima_overflowing_costs_fail_like_exact_opt(kind):
    problem = repriced(random_problem(kind, 3, 3, 1), lambda k: 1e308)
    assert_optima_agree(problem)
    with pytest.raises(NumericalFailure):
        exact_opt(problem, frozenset())


def counting_oracle(problem):
    """``problem`` with its oracle wrapped to log its calls, served table kept."""
    calls = []

    def oracle(F, S):
        calls.append(S)
        return problem.feasibility(F, S)

    return replace(problem, feasibility=oracle), calls


def test_client_sets_outside_the_clients_fall_back_to_exact_opt():
    assert_optima_agree(cov3(), extra=[{"ghost"}, {"1", "ghost"}])
    # x is no client, but a set lists it, so the oracle answers for it.
    problem = HAND_BUILT["non_client_set_members"]
    assert_optima_agree(problem, extra=[{"x"}, {"a", "x"}, {"y", "b"}])
    counted, calls = counting_oracle(problem)
    for S in client_sets(problem, "client-optima"):
        exact_opt(counted, S)
    assert calls == []
    exact_opt(counted, {"a", "x"})
    assert calls == [{"a", "x"}] * (1 << len(problem.elements))


def served_counter(problem):
    """``problem`` with its block function wrapped to log each call; tri3
    and cov3 have three elements, so one table is one call."""
    built = []
    counted = replace(problem, served=lambda masks: built.append(1)
                      or problem.served(masks))
    return counted, built


def test_client_optima_builds_one_table_on_first_call():
    counted, built = served_counter(tri3())
    assert built == []
    for S in client_sets(counted, "client-optima") * 2:
        exact_opt(counted, S)
    assert built == [1]
    # A copy starts without the table.
    exact_opt(replace(counted, inflation=2.0), frozenset())
    assert built == [1, 1]


def test_a_fairness_check_builds_one_served_table():
    counted, built = served_counter(cov3())
    xi = equal_split_shares(counted)
    assert built == []
    assert check_fairness(xi, counted).ok
    assert built == [1]


def test_custom_problems_call_exact_opt():
    problem = ProblemInstance(("x", "y"), ("a", "b", "c"),
                              {"a": 1.0, "b": 2.0, "c": 0.5}, 1.0,
                              lambda F, S: len(F) >= len(S))
    assert problem.served is None
    assert_optima_agree(problem)
    counted, calls = counting_oracle(problem)
    exact_opt(counted, {"x"})
    assert calls == [{"x"}] * (1 << len(problem.elements))


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

    return replace(problem, feasibility=oracle, kind="custom", served=None,
                   payload={}), calls


def greedy_prefix(problem, clients):
    chosen = frozenset(problem.elements[:len(clients)])
    return Solution(chosen, problem.cost(chosen))


PREFIX = ApproxAlgorithm("prefix", 2.0, greedy_prefix, None)


def pairs_from_s_onward(problem, calls):
    """The subadditivity loop's oracle calls without the pair checks where T
    precedes S.  The loop first tabulates every client set's optimum (2^|X|
    calls each), then asks once per ordered pair (S, T) in row order."""
    n = 1 << len(problem.clients)
    table = min(len(calls), n << len(problem.elements))
    pairs = calls[table:]
    return calls[:table] + [c for k, c in enumerate(pairs) if k % n >= k // n]


def sweep_runs(problem, sweeps):
    """(outcome, oracle calls) of each sweep on a fresh recording oracle."""
    runs = []
    for sweep in sweeps:
        custom, calls = recording(problem)
        runs.append((sweep(custom), calls))
    return runs


@pytest.mark.parametrize("kind", KINDS)
def test_custom_oracles_see_the_loops_calls(kind):
    for seed in range(3):
        problem = raw_problem(kind, seed)
        got = sweep_runs(problem, (
            lambda p: outcome(check_subadditive, p),
            lambda p: outcome(check_fairness, equal_split_shares(p), p),
            lambda p: outcome(empirical_alpha, p, PREFIX)))
        want = sweep_runs(problem, (
            lambda p: outcome(loop_check_subadditive, p),
            lambda p: outcome(loop_check_fairness, loop_equal_split_shares(p), p),
            lambda p: outcome(loop_empirical_alpha, p, PREFIX)))
        assert [r for r, _ in got] == [r for r, _ in want]
        assert got[0][1] == pairs_from_s_onward(problem, want[0][1])
        assert [c for _, c in got[1:]] == [c for _, c in want[1:]]


def two_client_problem(feasibility):
    """Clients a and b, elements x (cost 1) and y (cost 5)."""
    return ProblemInstance(("a", "b"), ("x", "y"), {"x": 1.0, "y": 5.0}, 1.0,
                           feasibility)


def split_serving(F, S):
    """Each client alone is served by x, the two together only by y."""
    return not S or ("y" if S == {"a", "b"} else "x") in F


def second_opinion():
    """``split_serving`` on a first call, and yes on any repeated call: the
    union check repeats a call of the optimum's table, so it passes while the
    table's optimum for {a, b} costs more than the two parts."""
    asked = set()

    def oracle(F, S):
        again = (F, S) in asked
        asked.add((F, S))
        return again or split_serving(F, S)

    return oracle


@pytest.mark.parametrize("oracle, message", [
    (lambda: split_serving,
     "union of optima for ['a'] and ['b'] is not feasible for their union"),
    (second_opinion, "cost of the union of ['a'] and ['b'] exceeds the sum of parts"),
])
def test_custom_subadditivity_failures_are_the_loops(oracle, message):
    got = check_subadditive(two_client_problem(oracle()))
    assert got == loop_check_subadditive(two_client_problem(oracle()))
    assert got.failure == message


def test_sweeps_refuse_oversized_instances_before_building_a_table():
    def forbidden(masks):
        raise AssertionError("table built")

    big = replace(random_problem("set_cover", 6, 4, 1), served=forbidden)
    for sweep in (check_subadditive, lambda p: check_fairness(equal_split_shares(p), p),
                  empirical_alpha):
        with pytest.raises(CapExceeded):
            sweep(big)

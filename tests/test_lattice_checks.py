"""The exhaustive checks and optimizers against the loops they replaced.

``setfun.check_monotone`` and ``model.check_monotone_feasibility`` both call
``model.first_decrease``, the one lattice-monotonicity helper, and
``setfun.check_submodular`` tests every pair with numpy.  Each must give the
loop's verdict, exception type and message, on tables whose differences
land exactly on the tolerance as well as on every shipped problem kind and
on non-monotone custom oracles.

``model.exact_opt`` reads the served-client table, or the oracle through
``model.feasible_table`` when the problem has no table, and
``boosting.exact_two_stage_opt`` reads the oracle through
``model.feasible_table``; both break ties with ``model.cheapest``.
Each must pick the loop's set with a bit-identical cost, or raise the
loop's exception type, on every kind, on an oracle that does not decompose
per client, on all three distribution kinds with zero-probability and
infeasible scenarios, on exact integer ties and on 1e308 costs.  Only
near-tie chains closer than ``COST_TOL`` may differ; the last test pins the
rule there.

``model.feasible_table`` builds one row per client set over element sets
built block by block; each row must be the per-mask generator's table for
its client set, asked with the same (F, S) pairs in the same order, on
both sides of the block boundary, and the table must not hold the element
sets of the whole lattice at once.  ``model.first_decrease`` on many rows
must find the per-row loop's first failure.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    loop_check_monotone,
    loop_check_monotone_feasibility,
    loop_check_submodular,
    loop_exact_opt,
    loop_exact_two_stage_opt,
    loop_feasible_table,
    loop_first_decrease,
)
from stocomb.boosting import TwoStageOptimum, exact_two_stage_opt
from stocomb.errors import Infeasible, NumericalFailure, StocombError
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.gap import worst_case_expectation
from stocomb.generate import (
    random_explicit_distribution,
    random_gap_instance,
    random_marginals,
    random_problem,
)
from stocomb.model import (
    COST_TOL,
    Explicit,
    IndependentBernoulli,
    KPartition,
    ProblemInstance,
    check_monotone_feasibility,
    cheapest,
    exact_opt,
    feasible_table,
    first_decrease,
    members,
    subset_table,
)
from stocomb.setfun import check_monotone, check_submodular, from_table

# Table values are multiples of 1/4, so every difference is exact and these
# tolerances put many of them exactly on the boundary.
TOLERANCES = (0.0, 0.25, 0.5, 1e-9)


def outcome(check, *args):
    """('ok', table bytes) or (exception type, message)."""
    try:
        return "ok", check(*args).tobytes()
    except StocombError as exc:
        return type(exc), str(exc)


def quarter_tables(n: int) -> dict:
    rng = np.random.default_rng(300 + n)
    modular = subset_table(rng.integers(0, 4, n) * 0.25, np.add, 0.0)
    return {
        "modular": modular,                          # both, with equalities
        "capped": np.minimum(modular, 0.25 * n),     # monotone submodular
        "supermodular": modular ** 2,                # monotone only
        "random": rng.integers(0, 8, 1 << n) * 0.25,  # neither
        # Modular with dents of 0, 1/4 or 1/2: decreases that sit on the tolerances.
        "dented": modular - 0.25 * rng.integers(0, 3, 1 << n),
    }


@pytest.mark.parametrize("n", range(11))
def test_table_checks_match_loops(n):
    ground = tuple(f"g{k}" for k in np.random.default_rng(n).permutation(n))
    verdicts = set()
    for name, values in quarter_tables(n).items():
        f = from_table(values, ground)
        for tol in TOLERANCES:
            got = outcome(check_monotone, f, ground, tol)
            assert got == outcome(loop_check_monotone, f.values, ground, tol), (name, tol)
            verdicts.add(got[0])
            got = outcome(check_submodular, f, ground, tol)
            assert got == outcome(loop_check_submodular, f.values, ground, tol), (name, tol)
            verdicts.add(got[0])
    if n >= 2:
        assert len(verdicts) == 3  # ok, NotMonotone and NotSubmodular all seen


def test_difference_exactly_at_tolerance_passes():
    values = np.array([[1.0, 0.75, 0.75, 1.0]])  # each item lowers {} by 1/4
    assert first_decrease(values, 0.25) is None
    assert first_decrease(values, 0.125) == (0, 0, 0)


def test_first_decrease_is_mask_major():
    # Item 1 breaks mask 1 and item 0 breaks mask 2: the smaller mask wins.
    assert first_decrease(np.array([[0.0, 1.0, 1.0, 0.5]]), 0.0) == (0, 1, 1)


def test_first_decrease_is_row_major():
    # Row 1 breaks at mask 1 and row 2 at mask 0: the earlier row wins.
    values = np.array([[0.0, 1.0, 1.0, 1.0],
                       [0.0, 1.0, 1.0, 0.5],
                       [1.0, 0.0, 0.0, 0.0]])
    assert first_decrease(values, 0.0) == (1, 1, 1)
    assert first_decrease(values[2:], 0.0) == (0, 0, 0)
    assert first_decrease(values[:0], 0.0) is None


@pytest.mark.parametrize("n", range(7))
def test_first_decrease_on_many_rows_matches_loop(n):
    # Rows drawn from the quarter tables, dented ones among them, so several
    # rows fail and many decreases sit exactly on a tolerance; each suffix
    # of the stack moves the first failing row.
    tables = quarter_tables(n)
    names = np.random.default_rng(n).choice(list(tables), 12)
    rows = np.stack([tables[name] for name in names])
    failing_rows = set()
    for tol in TOLERANCES:
        for k in range(len(rows)):
            got = first_decrease(rows[k:], tol)
            assert got == loop_first_decrease(rows[k:], tol), (tol, k)
            if got is not None:
                failing_rows.add(got[0])
    if n >= 2:
        assert len(failing_rows) > 1


# (clients, elements) generator arguments; ufl takes facilities and adds
# one assignment element per facility and client.
SIZES = {"steiner": (4, 6), "set_cover": (3, 6), "vertex_cover": (3, 6),
         "ufl": (2, 2)}


def shipped_problems():
    out = [tri3(), cov3(), edge1()[0]]
    for kind, (clients, elements) in SIZES.items():
        for seed in range(3):
            out.append(random_problem(kind, clients, elements, seed))
    return out


@pytest.mark.parametrize("problem", shipped_problems(),
                         ids=lambda p: f"{p.kind}-{len(p.clients)}x{len(p.elements)}")
def test_monotone_feasibility_matches_loop_on_shipped_kinds(problem):
    got = check_monotone_feasibility(problem)
    assert got.ok
    assert got == loop_check_monotone_feasibility(problem)


def table_oracle(rng, n_elements: int, n_clients: int, empty_ok: bool):
    """A random, mostly non-monotone oracle: one coin per (F, S) pair."""
    coins = rng.random((1 << n_elements, 1 << n_clients)) < 0.8
    coins[0, 0] = empty_ok
    return coin_oracle(coins)


def coin_oracle(coins):
    """The oracle reading F and S as the row and column masks of ``coins``."""
    n_elements = coins.shape[0].bit_length() - 1
    n_clients = coins.shape[1].bit_length() - 1
    clients = tuple(f"c{j}" for j in range(n_clients))
    elements = tuple(f"e{i}" for i in range(n_elements))

    def mask(subset, items):
        return sum(1 << k for k, x in enumerate(items) if x in subset)

    return ProblemInstance(
        clients=clients, elements=elements,
        first_stage_cost={e: 1.0 for e in elements}, inflation=1.0,
        feasibility=lambda F, S: bool(coins[mask(F, elements), mask(S, clients)]))


@pytest.mark.parametrize("seed", range(40))
def test_monotone_feasibility_matches_loop_on_custom_oracles(seed):
    rng = np.random.default_rng(seed)
    problem = table_oracle(rng, int(rng.integers(0, 5)), int(rng.integers(0, 4)),
                           empty_ok=seed % 10 != 0)
    assert check_monotone_feasibility(problem) == loop_check_monotone_feasibility(problem)


@pytest.mark.parametrize("seed", range(20))
def test_monotone_feasibility_matches_loop_when_several_client_sets_break(seed):
    # Monotone (|F| >= |S|) for every client set but a random few, which
    # read random coins: the report names the first broken one, as the
    # loop does.
    rng = np.random.default_rng(seed)
    sizes = np.array([bin(mask).count("1") for mask in range(16)])
    coins = sizes[:, None] >= sizes[:8][None, :]
    broken = rng.choice(np.arange(1, 8), 3, replace=False)
    coins[:, broken] = rng.random((16, 3)) < 0.7
    coins[0, 0] = True
    problem = coin_oracle(coins)
    got = check_monotone_feasibility(problem)
    assert got == loop_check_monotone_feasibility(problem)
    assert not got.ok


def test_monotone_feasibility_failures_are_seen():
    reports = [check_monotone_feasibility(table_oracle(np.random.default_rng(s), 4, 2,
                                                       empty_ok=s % 10 != 0))
               for s in range(40)]
    failures = {r.failure.split(" ")[0] for r in reports if not r.ok}
    assert failures == {"adding", "the"}


def test_monotone_feasibility_tabulates_the_oracle_once():
    problem = random_problem("set_cover", 5, 8, 4)
    calls = 0

    def counting(F, S):
        nonlocal calls
        calls += 1
        return problem.feasibility(F, S)

    assert check_monotone_feasibility(replace(problem, feasibility=counting)).ok
    assert calls <= 1 + (1 << 5) * (1 << 8)


# -- feasible_table against the per-mask generator it replaced ----------------

def recorded_table(build, problem, clients):
    """``build``'s table and the (F, S) pairs it asked the oracle, in order."""
    calls = []

    def oracle(F, S):
        calls.append((F, S))
        return problem.feasibility(F, S)

    return build(replace(problem, feasibility=oracle), clients), calls


def assert_table_matches_loop(problem, client_sets):
    """One table over distinct ``client_sets``: each row's bytes, and the
    calls asked with that row's client set, are the per-mask generator's
    on that client set alone."""
    table, calls = recorded_table(feasible_table, problem, client_sets)
    assert table.shape == (len(client_sets), 1 << len(problem.elements))
    assert len(calls) == table.size
    for row, clients in zip(table, client_sets):
        want, want_calls = recorded_table(loop_feasible_table, problem, clients)
        assert row.tobytes() == want.tobytes()
        assert [call for call in calls if call[1] == clients] == want_calls


# Element counts on both sides of the 12-element block boundary.
ELEMENT_COUNTS = (0, 1, 12, 13, 14)

# (clients, elements) generator arguments giving 14 elements; ufl: 6 clients
# and 2 facilities.
TABLE_SIZES = {"steiner": (6, 14), "set_cover": (4, 14), "vertex_cover": (4, 14),
               "ufl": (6, 2)}


@pytest.mark.parametrize("kind", TABLE_SIZES)
def test_feasible_table_matches_loop_on_shipped_kinds(kind):
    problem = random_problem(kind, *TABLE_SIZES[kind], seed=7)
    client_sets = [frozenset(problem.clients[:1]), frozenset(problem.clients[::2]),
                   frozenset(problem.clients)]
    for n in ELEMENT_COUNTS:
        # The oracle answers any element subset, so a prefix of the
        # elements is an instance on n elements.
        prefix = replace(problem, elements=problem.elements[:n])
        assert_table_matches_loop(prefix, client_sets)


@pytest.mark.parametrize("n", ELEMENT_COUNTS)
def test_feasible_table_matches_loop_on_custom_oracles(n):
    rng = np.random.default_rng(n)
    # The random oracle's own lookup is slow, so large tables ask only the
    # cheap cardinality oracle.
    problems = [cardinality_problem(n, 3)]
    if n < 12:
        problems.append(table_oracle(rng, n, 2, True))
    for problem in problems:
        client_sets = [frozenset(problem.clients[:k]) for k in (0, 1, 3)]
        assert_table_matches_loop(problem, client_sets)


def test_feasible_table_holds_one_block_of_element_sets():
    problem = cardinality_problem(16, 1)
    tracemalloc.start()
    try:
        table = feasible_table(problem, [frozenset(problem.clients)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.sum() == (1 << 16) - 1
    # 2^16 element sets alive at once would take 2^16 empty frozensets' room.
    assert peak < (1 << 16) * sys.getsizeof(frozenset())


def test_worst_case_allocates_no_bit_matrix():
    n = 12
    inst = random_gap_instance(n, 3)
    inst._table  # the cost table is the instance's, built once
    tracemalloc.start()
    try:
        worst_case_expectation(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * n * 8  # one 2^n x n float64 array



# -- exact_opt and exact_two_stage_opt against their loops ---------------------

def solved(solve, *args):
    """(chosen set, cost bits) of a solution or two-stage optimum, or the
    exception type."""
    try:
        got = solve(*args)
    except StocombError as exc:
        return type(exc)
    if isinstance(got, TwoStageOptimum):
        return got.first_stage, got.value.hex()
    return got.chosen, got.cost.hex()


def cost_variants(problem):
    """The instance as generated, with integer costs (exact ties), with one
    cost at 1e308 and with every cost at 1e308."""
    elements = problem.elements
    yield problem
    yield replace(problem, first_stage_cost={e: float(1 + k % 3)
                                             for k, e in enumerate(elements)})
    yield replace(problem, first_stage_cost={**problem.first_stage_cost,
                                             elements[0]: 1e308})
    yield replace(problem, first_stage_cost=dict.fromkeys(elements, 1e308))


def cardinality_problem(n_elements: int, n_clients: int) -> ProblemInstance:
    """Any len(S) elements serve S: an oracle that is no union of per-client
    conditions, and infeasible for client sets larger than the element set."""
    elements = tuple(f"e{i}" for i in range(n_elements))
    return ProblemInstance(
        clients=tuple(f"c{j}" for j in range(n_clients)), elements=elements,
        first_stage_cost={e: float(1 + k % 2) for k, e in enumerate(elements)},
        inflation=2.0, feasibility=lambda F, S: len(F) >= len(S))


# (clients, elements) generator arguments at |X| = 8; ufl: 3 clients and 2
# facilities, 8 elements.
OPT_SIZES = {"steiner": (5, 8), "set_cover": (4, 8), "vertex_cover": (4, 8),
             "ufl": (3, 2)}


@pytest.mark.parametrize("kind", OPT_SIZES)
def test_exact_opt_matches_loop_on_every_kind(kind):
    problem = random_problem(kind, *OPT_SIZES[kind], seed=5)
    verdicts = set()
    for variant in cost_variants(problem):
        for mask in range(1 << len(problem.clients)):
            S = frozenset(members(mask, problem.clients))
            got = solved(exact_opt, variant, S)
            assert got == solved(loop_exact_opt, variant, S), S
            verdicts.add(got if isinstance(got, type) else "ok")
    assert verdicts == {"ok", NumericalFailure}


def test_exact_opt_matches_loop_on_a_cardinality_oracle():
    problem = cardinality_problem(6, 8)
    verdicts = set()
    for mask in range(1 << 8):
        S = frozenset(members(mask, problem.clients))
        got = solved(exact_opt, problem, S)
        assert got == solved(loop_exact_opt, problem, S), S
        verdicts.add(got if isinstance(got, type) else "ok")
    assert verdicts == {"ok", Infeasible}


def distributions(clients: tuple, seed: int):
    """Explicit, independent and partition laws over ``clients``, among them
    zero-probability scenarios (the last explicit one the whole client set)."""
    explicit = random_explicit_distribution(clients, seed)
    yield explicit
    yield Explicit(explicit.outcomes + ((frozenset(clients), 0.0),))
    yield random_marginals(clients, seed)
    yield IndependentBernoulli(tuple((j, (0.0, 1.0, 0.5)[k % 3])
                                     for k, j in enumerate(clients)))
    yield KPartition((frozenset(clients[::2]), frozenset(clients[1::2])))


def two_stage_problems():
    out = [tri3(), cov3(), edge1()[0]]
    for kind, (clients, elements) in SIZES.items():
        out.append(random_problem(kind, clients, elements, 1, sigma=3.0))
    return out


@pytest.mark.filterwarnings("error")  # an overflow to inf is no warning
@pytest.mark.parametrize("sigma", (None, 1e308))
@pytest.mark.parametrize("problem", two_stage_problems(),
                         ids=lambda p: f"{p.kind}-{len(p.clients)}x{len(p.elements)}")
def test_two_stage_opt_matches_loop(problem, sigma):
    if sigma is not None:
        problem = replace(problem, inflation=sigma)
    for variant in cost_variants(problem):
        for dist in distributions(problem.clients, len(problem.elements)):
            got = solved(exact_two_stage_opt, variant, dist)
            want = solved(loop_exact_two_stage_opt, variant, dist, variant.inflation)
            assert got == want, dist


def test_two_stage_opt_matches_loop_on_a_cardinality_oracle():
    problem = cardinality_problem(4, 6)
    verdicts = set()
    for dist in distributions(problem.clients, 1):
        for sigma in (1.0, 2.5):
            at_sigma = replace(problem, inflation=sigma)
            got = solved(exact_two_stage_opt, at_sigma, dist)
            assert got == solved(loop_exact_two_stage_opt, at_sigma, dist, sigma), dist
            verdicts.add(got if isinstance(got, type) else "ok")
    assert verdicts == {"ok", Infeasible}


def test_two_stage_opt_tabulates_the_oracle_once_per_scenario():
    problem = random_problem("set_cover", 4, 8, 4)
    for costs in (problem.first_stage_cost, dict.fromkeys(problem.elements, 1.0)):
        calls = 0

        def counting(F, S):
            nonlocal calls
            calls += 1
            return problem.feasibility(F, S)

        variant = replace(problem, first_stage_cost=costs, inflation=1.5)
        dist = random_marginals(problem.clients, 4)
        got = exact_two_stage_opt(replace(variant, feasibility=counting), dist)
        # One table per scenario; the winner's recourse is read from it.
        assert calls <= (1 << 4) * (1 << 8)
        # Equal prices tie many recourse sets: each scenario's recourse cost
        # is still the exact optimum's on top of the chosen first stage.
        want = variant.cost(got.first_stage)
        for S, p in dist.support():
            if p != 0.0:
                want += 1.5 * p * loop_exact_opt(variant, S, base=got.first_stage).cost
        assert got.value.hex() == want.hex()


def test_cheapest_takes_the_smallest_index_tuple_within_tol():
    costs = np.array([0.0, 1.0, 1.0, 1.0, 0.5])  # {}, {0}, {1}, {0, 1}, {2}
    ok = np.array([False, False, True, True, True])
    assert cheapest(costs, ok, 0.5) == 3  # (0, 1) < (1,) < (2,)
    assert cheapest(costs, ok, 0.4) == 4
    ok[1] = True
    assert cheapest(costs, ok, 0.5) == 1  # (0,) < (0, 1)


def test_near_tie_chain_goes_to_the_smallest_tuple_within_tol_of_the_minimum():
    # Singletons a, b, c at 1 + 1.2 tol, 1 + 0.6 tol and 1.  The loop's
    # sequential rule keeps a over b (b is not lower by more than tol), then
    # takes c (lower than a by more than tol).  ``cheapest`` takes the
    # smallest index tuple within tol of the minimum, b.
    tol = COST_TOL
    problem = ProblemInstance(
        clients=("x",), elements=("a", "b", "c"),
        first_stage_cost={"a": 1.0 + 1.2 * tol, "b": 1.0 + 0.6 * tol, "c": 1.0},
        inflation=1.0, feasibility=lambda F, S: len(F) >= len(S))
    assert exact_opt(problem, {"x"}).chosen == {"b"}
    assert loop_exact_opt(problem, {"x"}).chosen == {"c"}

"""The exhaustive property checks against the per-subset loops they replaced.

``setfun.check_monotone`` and ``model.check_monotone_feasibility`` both call
``model.first_decrease``, the one lattice-monotonicity helper, and
``setfun.check_submodular`` tests every pair with numpy.  Each must give the
loop's verdict, exception type and message, on tables whose differences
land exactly on the tolerance as well as on every shipped problem kind and
on non-monotone custom oracles.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    loop_check_monotone,
    loop_check_monotone_feasibility,
    loop_check_submodular,
)
from stocomb.errors import StocombError
from stocomb.fixtures import cov3, edge1, tri3
from stocomb.gap import worst_case_expectation
from stocomb.generate import random_gap_instance, random_problem
from stocomb.model import (
    ProblemInstance,
    check_monotone_feasibility,
    first_decrease,
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
    values = np.array([1.0, 0.75, 0.75, 1.0])  # each item lowers {} by 1/4
    assert first_decrease(values, 0.25) is None
    assert first_decrease(values, 0.125) == (0, 0)


def test_first_decrease_is_mask_major():
    # Item 1 breaks mask 1 and item 0 breaks mask 2: the smaller mask wins.
    assert first_decrease(np.array([0.0, 1.0, 1.0, 0.5]), 0.0) == (1, 1)


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


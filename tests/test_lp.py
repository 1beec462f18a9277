"""LP solver: spec examples, duality properties, and the vertex oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import equality_pair_lp, vertex_oracle_lp, zero_rhs_lp
from stocomb import lp as lp_module
from stocomb.errors import NumericalFailure
from stocomb.lp import (
    INFEASIBLE,
    ColumnMaster,
    LinearProgram,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
)


def lp(c, A, b, u=None):
    return LinearProgram(np.asarray(c, float), np.asarray(A, float),
                         np.asarray(b, float),
                         None if u is None else np.asarray(u, float))


def test_single_constraint():
    res = solve_lp(lp([1.0], [[1.0]], [3.0]))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.primal[0] == pytest.approx(3.0, abs=1e-9)
    assert res.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_two_constraints_with_duals():
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.25])
    res = solve_lp(lp(c, A, b))
    assert res.status == OPTIMAL
    feasible, oracle = vertex_oracle_lp(c, A, b)
    assert feasible and oracle == pytest.approx(1.0, abs=1e-9)
    assert res.value == pytest.approx(oracle, abs=1e-7)
    assert res.duals == pytest.approx([1.0, 0.0], abs=1e-9)


def test_infeasible_system():
    res = solve_lp(lp([1.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp(lp([-1.0], [[1.0]], [0.0]))
    assert res.status == UNBOUNDED


def test_upper_bounds_become_rows():
    res = solve_lp(lp([-1.0, -2.0], [[1.0, 0.0]], [0.0], u=[2.0, 1.5]))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-5.0, abs=1e-9)
    assert len(res.duals) == 1  # user rows only


def test_pivot_limit_raises():
    with pytest.raises(NumericalFailure):
        solve_lp(lp([1.0, 1.0], [[1.0, 1.0]], [1.0]), pivot_limit=0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        lp([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        lp([np.inf], [[1.0]], [1.0])


def _random_lp(rng, m, n):
    A = np.round(rng.uniform(-1, 2, (m, n)), 3)
    b = np.round(rng.uniform(-1, 2, m), 3)
    c = np.round(rng.uniform(0.05, 2, n), 3)  # positive costs keep it bounded
    return c, A, b


def test_random_lps_against_vertex_oracle():
    rng = np.random.default_rng(0)
    optimal = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, A, b = _random_lp(rng, m, n)
        res = solve_lp(lp(c, A, b))
        feasible, oracle = vertex_oracle_lp(c, A, b)
        if not feasible:
            assert res.status == INFEASIBLE
            continue
        optimal += 1
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(oracle, abs=1e-7)
    assert optimal > 100  # the generator must actually exercise the solver


def test_duality_properties_on_random_lps():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, A, b = _random_lp(rng, m, n)
        res = solve_lp(lp(c, A, b))
        if res.status != OPTIMAL:
            continue
        checked += 1
        scale = 1e-7 * (1 + abs(res.value))
        # strong duality
        assert abs(c @ res.primal - b @ res.duals) <= scale
        # dual sign and complementary slackness
        slack = A @ res.primal - b
        assert (res.duals >= -1e-9).all()
        assert (res.duals * slack <= scale).all()
        # primal feasibility
        assert (slack >= -1e-8).all() and (res.primal >= -1e-8).all()
    assert checked > 100


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_two_variable_lps_match_oracle(seed):
    rng = np.random.default_rng(seed)
    c, A, b = _random_lp(rng, 2, 2)
    res = solve_lp(lp(c, A, b))
    feasible, oracle = vertex_oracle_lp(c, A, b)
    if feasible:
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(oracle, abs=1e-7)
    else:
        assert res.status == INFEASIBLE



# -- Re-optimizing a master after appending columns ---------------------------

def resume_matches_cold(c, A, b, rng):
    """Solve on a leading subset of the columns, append the rest in random
    chunks and resume after each; the end must match a cold solve of the
    full LP.  False when the leading subset alone is infeasible."""
    split = int(rng.integers(1, c.size))
    master = ColumnMaster(A[:, :split], b, c[:split])
    if master.result.status != OPTIMAL:
        return False
    while split < c.size:
        stop = int(rng.integers(split + 1, c.size + 1))
        res = master.add_columns(A[:, split:stop], c[split:stop])
        split = stop
    cold = solve_lp(lp(c, A, b))
    assert res.status == cold.status == OPTIMAL
    assert res.value == pytest.approx(cold.value, abs=1e-9)
    x, y = res.primal, res.duals
    slack = A @ x - b
    reduced = c - A.T @ y
    assert (x >= -1e-9).all() and (slack >= -1e-9).all()
    assert (y >= -1e-9).all() and (reduced >= -1e-9).all()
    assert (np.abs(y * slack) <= 1e-9).all()
    assert (np.abs(x * reduced) <= 1e-9).all()
    return True


def test_resume_matches_cold_solve_on_random_lps():
    rng = np.random.default_rng(2)
    resumed = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        resumed += resume_matches_cold(*_random_lp(rng, m, n), rng)
    for _ in range(20):
        m, n = int(rng.integers(6, 17)), int(rng.integers(10, 51))
        resumed += resume_matches_cold(*_random_lp(rng, m, n), rng)
    assert resumed > 100


def test_resume_matches_cold_solve_on_degenerate_lps():
    rng = np.random.default_rng(3)
    resumed = 0
    for _ in range(60):
        resumed += resume_matches_cold(*zero_rhs_lp(rng), rng)
        resumed += resume_matches_cold(*equality_pair_lp(rng), rng)
    assert resumed > 80


def test_resume_without_improving_columns_makes_no_pivot():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(50):
        c, A, b = _random_lp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        master = ColumnMaster(A, b, c)
        if master.result.status != OPTIMAL:
            continue
        before = master.result
        # Copies of the columns at a higher cost have reduced cost >= 1.
        res = master.add_columns(A, c + 1.0)
        assert master.pivots == 0
        assert res.value == before.value
        assert (res.primal[:c.size] == before.primal).all()
        assert (res.primal[c.size:] == 0.0).all()
        checked += 1
    assert checked > 20


def test_resume_past_the_pivot_limit_raises(monkeypatch):
    # min x1 + x2/2 s.t. x1 + x2 >= 1, starting from x1 alone: the new
    # column prices out, so re-optimizing needs one pivot.
    master = ColumnMaster(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    assert master.result.value == pytest.approx(1.0)
    monkeypatch.setattr(lp_module, "max_pivots", lambda m, n: 0)
    with pytest.raises(NumericalFailure):
        master.add_columns(np.array([[1.0]]), np.array([0.5]))


def test_only_an_optimal_master_takes_columns():
    master = ColumnMaster(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]),
                          np.array([1.0]))
    assert master.result.status == INFEASIBLE
    with pytest.raises(ValueError):
        master.add_columns(np.array([[1.0], [0.0]]), np.array([1.0]))

"""LP solver: spec examples, duality properties, and the vertex oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vertex_oracle_lp
from stocomb.errors import NumericalFailure
from stocomb.lp import (
    INFEASIBLE,
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


"""Simplex stress cases: degeneracy, equality pairs, odd shapes."""

import numpy as np
import pytest

from conftest import equality_pair_lp, vertex_oracle_lp, zero_rhs_lp
from stocomb.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp, solve_prepared


def test_no_constraint_rows():
    # Empty-scenario recourse blocks produce zero-row LPs.
    status, x, duals, value, _tableau = solve_prepared(
        np.zeros((0, 3)), np.zeros(0), np.array([1.0, 2.0, 3.0]))
    assert status == 0
    assert value == 0.0
    assert x == pytest.approx([0.0, 0.0, 0.0])
    assert duals.size == 0


def test_redundant_rows_are_harmless():
    # The same constraint stacked five times plus its scaled copies.
    A = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0], [0.5, 0.5]])
    b = np.array([1.0] * 5 + [2.0, 0.5])
    c = np.array([1.0, 2.0])
    res = solve_lp(LinearProgram(c, A, b))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert abs(c @ res.primal - b @ res.duals) <= 1e-7 * (1 + abs(res.value))


def test_zero_rhs_degeneracy():
    # Many rows active at the origin force degenerate pivots; Bland's rule
    # must still terminate at the right value.
    rng = np.random.default_rng(5)
    for _ in range(50):
        c, A, b = zero_rhs_lp(rng)
        res = solve_lp(LinearProgram(c, A, b))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-9)


def test_equality_encoded_rows():
    # Equalities written as +/- row pairs, the worst-case-LP pattern.
    rng = np.random.default_rng(6)
    for trial in range(60):
        c, A, b = equality_pair_lp(rng)
        k = b.size // 2
        res = solve_lp(LinearProgram(c, A, b))
        assert res.status == OPTIMAL, trial
        assert (np.abs(A[:k] @ res.primal - b[:k]) <= 1e-7).all()
        feasible, oracle = vertex_oracle_lp(c, A, b)
        assert feasible
        assert res.value == pytest.approx(oracle, abs=1e-7)


def test_mixed_sign_rhs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = np.round(rng.uniform(-2, 2, (m, n)), 2)
        b = np.round(rng.uniform(-2, 2, m), 2)
        c = np.round(rng.uniform(0.05, 2, n), 2)
        res = solve_lp(LinearProgram(c, A, b))
        feasible, oracle = vertex_oracle_lp(c, A, b)
        if feasible:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(oracle, abs=1e-7)
        else:
            assert res.status == INFEASIBLE


def test_larger_instances_self_consistent():
    # No oracle at this size; check feasibility, duality, slackness.
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = int(rng.integers(6, 17)), int(rng.integers(10, 51))
        A = rng.uniform(-1, 2, (m, n))
        b = rng.uniform(-1, 2, m)
        c = rng.uniform(0.05, 2, n)
        res = solve_lp(LinearProgram(c, A, b))
        if res.status != OPTIMAL:
            assert res.status == INFEASIBLE
            continue
        scale = 1e-7 * (1 + abs(res.value))
        assert (A @ res.primal - b >= -1e-8).all()
        assert (res.primal >= -1e-8).all()
        assert abs(c @ res.primal - b @ res.duals) <= scale
        assert (res.duals >= -1e-9).all()


def test_tiny_costs_and_rhs_scaling():
    # The solver should behave across magnitudes typical of probabilities.
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        c = np.array([1.0 * scale])
        A = np.array([[1.0]])
        b = np.array([3.0 * scale])
        res = solve_lp(LinearProgram(c, A, b))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(3.0 * scale ** 2, rel=1e-9)

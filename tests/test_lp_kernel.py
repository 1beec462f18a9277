"""The simplex kernel against the >=-only kernel it replaced, and its
native equality rows against doubled >= pairs and the vertex oracle.

With no equality rows the kernel must return the same (status, x, duals,
value, pivots) as ``conftest.ge_simplex_kernel`` bit for bit, raise the
same numpy warnings, and leave every CLI exit code as it was, on the
stress LPs, on column-generation resume sequences and on the overflowing
facility-location LPs of the ±1e308 boundary sweep.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    equality_pair_lp,
    ge_simplex_kernel,
    ge_simplex_resume,
    numeric_paths,
    substituted,
    vertex_oracle_lp,
    zero_rhs_lp,
)
from stocomb import _kernels, lp
from stocomb.cli import main
from stocomb.lp import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    ColumnMaster,
    LinearProgram,
    max_pivots,
    solve_lp,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def recorded(fn, *args):
    """``fn(*args)`` and the set of (category, message) warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {(w.category, str(w.message)) for w in caught}


def key(out):
    """The comparable part of a kernel result, as bytes where it is a float."""
    status, x, duals, value, pivots, _tableau = out
    return (status, x.tobytes(), duals.tobytes(), np.float64(value).tobytes(),
            pivots)


def both(A, b, c, pivot_limit=None):
    """Cold solves by the kernel and by the >=-only kernel, compared."""
    A, b, c = (np.ascontiguousarray(v, dtype=np.float64) for v in (A, b, c))
    if pivot_limit is None:
        pivot_limit = max_pivots(*A.shape)
    new, new_warned = recorded(_kernels.simplex_kernel, A, b, c,
                               PIVOT_TOL, FEAS_TOL, pivot_limit)
    old, old_warned = recorded(ge_simplex_kernel, A, b, c,
                               PIVOT_TOL, FEAS_TOL, pivot_limit)
    assert key(new) == key(old)
    assert new_warned == old_warned
    return new, old


def stress_lps():
    """``(c, A, b)`` of the LPs in test_lp.py and test_lp_stress.py."""
    yield np.array([1.0, 2.0, 3.0]), np.zeros((0, 3)), np.zeros(0)
    yield (np.array([1.0, 2.0]), np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0], [0.5, 0.5]]),
           np.array([1.0] * 5 + [2.0, 0.5]))
    rng = np.random.default_rng(5)
    for _ in range(50):
        yield zero_rhs_lp(rng)
    rng = np.random.default_rng(6)
    for _ in range(60):
        yield equality_pair_lp(rng)
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = np.round(rng.uniform(-2, 2, (m, n)), 2)
        b = np.round(rng.uniform(-2, 2, m), 2)
        yield np.round(rng.uniform(0.05, 2, n), 2), A, b
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = int(rng.integers(6, 17)), int(rng.integers(10, 51))
        A = rng.uniform(-1, 2, (m, n))
        b = rng.uniform(-1, 2, m)
        yield rng.uniform(0.05, 2, n), A, b
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        yield np.array([scale]), np.array([[1.0]]), np.array([3.0 * scale])
    yield np.array([-1.0]), np.array([[1.0]]), np.array([0.0])  # unbounded
    yield np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])  # infeasible


def random_lp(rng, m, n):
    A = np.round(rng.uniform(-1, 2, (m, n)), 3)
    b = np.round(rng.uniform(-1, 2, m), 3)
    c = np.round(rng.uniform(0.05, 2, n), 3)
    return c, A, b


class TestNoEqualityRowsBitIdentical:
    def test_stress_lps(self):
        statuses = set()
        for c, A, b in stress_lps():
            new, _ = both(A, b, c)
            statuses.add(new[0])
        assert statuses == {0, 1, 2}

    def test_pivot_limit(self):
        rng = np.random.default_rng(9)
        hit = 0
        for _ in range(40):
            c, A, b = random_lp(rng, 4, 4)
            for limit in (0, 1, 2):
                new, _ = both(A, b, c, limit)
                hit += new[0] == 3
        assert hit > 20

    def test_resume_sequences(self):
        rng = np.random.default_rng(10)
        resumes = 0
        for trial in range(150):
            if trial % 3 == 0:
                c, A, b = zero_rhs_lp(rng)
            elif trial % 3 == 1:
                c, A, b = equality_pair_lp(rng)
            else:
                c, A, b = random_lp(rng, int(rng.integers(1, 8)), int(rng.integers(2, 12)))
            split = int(rng.integers(1, c.size))
            new, old = both(A[:, :split], b, c[:split])
            while new[0] == 0 and split < c.size:
                stop = int(rng.integers(split + 1, c.size + 1))
                cols = np.ascontiguousarray(A[:, split:stop])
                limit = max_pivots(A.shape[0], stop)
                new, new_warned = recorded(_kernels.simplex_resume, new[5], cols,
                                           c[split:stop], PIVOT_TOL, limit)
                old, old_warned = recorded(ge_simplex_resume, old[5], cols,
                                           c[split:stop], PIVOT_TOL, limit)
                assert key(new) == key(old)
                assert new_warned == old_warned
                resumes += 1
                split = stop
        assert resumes > 150

    @pytest.mark.parametrize("value", [1e308, -1e308], ids=["1e308", "-1e308"])
    def test_overflowing_saa_lps(self, value, monkeypatch, capsys, tmp_path):
        """Every numeric leaf of saa_ufl.json set to ``value`` in turn, as in
        the CLI boundary sweep: each kernel call and exit code must match.
        The cutting-plane master has equality rows, which the >=-only
        kernel cannot take, so both sides solve it with the kernel; every
        >=-only call (recourse LPs, deterministic equivalent) is compared.
        The recourse loop keeps the kernel's tableau, whose layout the
        >=-only kernel does not share, so the reference run compares both
        kernels on each such call (results and warnings, in ``both``) and
        goes on with the kernel's result; it must then make the same calls,
        exit code and output as a run of the kernel alone."""
        payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
        bad = tmp_path / "bad.json"

        def run(kernel):
            calls = []

            def traced(*args):
                out, warned = recorded(kernel, *args)
                calls.append((key(out), warned))
                return out

            def cli():
                try:
                    return main(["run-saa", "--instance", str(bad),
                                 "--samples", "50", "--seed", "1"])
                except SystemExit as exc:
                    return exc.code

            monkeypatch.setattr(lp, "simplex_kernel", traced)
            code, warned = recorded(cli)
            return code, warned, capsys.readouterr().out, calls

        def reference(A, b, c, tol, feas_tol, pivot_limit, eq=0):
            if eq:
                return _kernels.simplex_kernel(A, b, c, tol, feas_tol,
                                               pivot_limit, eq)
            new, _ = both(A, b, c, pivot_limit)
            return new

        warned = 0
        for path in numeric_paths(payload):
            bad.write_text(json.dumps(substituted(payload, path, value)))
            new = run(_kernels.simplex_kernel)
            ref = run(reference)
            assert ref[:3] == new[:3], path
            assert [k for k, _ in ref[3]] == [k for k, _ in new[3]], path
            warned += any(w for _, w in new[3])
        assert warned > 0  # the sweep reaches the overflowing pivots


# -- Native equality rows -------------------------------------------------------

def equality_lp(rng):
    """``(c, A, b, eq)``: ``eq`` feasible equality rows over >= rows, with
    right-hand sides of both signs."""
    n = int(rng.integers(2, 6))
    eq = int(rng.integers(1, 3))
    ge = int(rng.integers(0, 3))
    x_feas = np.round(rng.uniform(0, 1, n), 2)
    E = np.round(rng.uniform(-1, 1, (eq, n)), 2)
    G = np.round(rng.uniform(-1, 1, (ge, n)), 2)
    A = np.vstack([E, G])
    b = np.concatenate([E @ x_feas, G @ x_feas - np.round(rng.uniform(0, 0.5, ge), 2)])
    return np.round(rng.uniform(0.1, 2, n), 2), A, b, eq


def doubled(A, b, eq):
    """The same system with each equality written as a >= pair."""
    return (np.vstack([A[:eq], -A[:eq], A[eq:]]),
            np.concatenate([b[:eq], -b[:eq], b[eq:]]))


def assert_optimal_certificate(c, A, b, eq, res):
    """Primal and dual feasibility with free duals on the equality rows,
    >= duals nonnegative, and strong duality."""
    x, y = res.primal, res.duals
    slack = A @ x - b
    assert (x >= -1e-9).all()
    assert (np.abs(slack[:eq]) <= 1e-9).all()
    assert (slack[eq:] >= -1e-9).all() and (y[eq:] >= -1e-9).all()
    assert (c - A.T @ y >= -1e-9).all()
    assert abs(c @ x - b @ y) <= 1e-9 * (1 + abs(res.value))


class TestEqualityRows:
    def test_against_doubled_rows_and_vertex_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            c, A, b, eq = equality_lp(rng)
            res = ColumnMaster(A, b, c, eq).result
            A2, b2 = doubled(A, b, eq)
            ref = solve_lp(LinearProgram(c, A2, b2))
            assert res.status == ref.status == OPTIMAL, trial
            assert res.value == pytest.approx(ref.value, abs=1e-9)
            feasible, oracle = vertex_oracle_lp(c, A2, b2)
            assert feasible and res.value == pytest.approx(oracle, abs=1e-7)
            assert res.duals.size == b.size
            assert_optimal_certificate(c, A, b, eq, res)

    def test_resume_matches_cold(self):
        rng = np.random.default_rng(12)
        resumed = 0
        for _ in range(150):
            c, A, b, eq = equality_lp(rng)
            split = int(rng.integers(1, c.size))
            master = ColumnMaster(A[:, :split], b, c[:split], eq)
            if master.result.status != OPTIMAL:
                continue
            while split < c.size:
                stop = int(rng.integers(split + 1, c.size + 1))
                res = master.add_columns(A[:, split:stop], c[split:stop])
                split = stop
            cold = ColumnMaster(A, b, c, eq).result
            assert res.status == cold.status == OPTIMAL
            assert res.value == pytest.approx(cold.value, abs=1e-9)
            assert_optimal_certificate(c, A, b, eq, res)
            resumed += 1
        assert resumed > 50

    def test_infeasible_equalities(self):
        # x1 = 1 and x1 = 2; and x1 + x2 = -1 with x >= 0.
        master = ColumnMaster(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]),
                              np.array([1.0]), 2)
        assert master.result.status == INFEASIBLE
        master = ColumnMaster(np.array([[1.0, 1.0]]), np.array([-1.0]),
                              np.array([1.0, 1.0]), 1)
        assert master.result.status == INFEASIBLE

    def test_negative_dual_on_an_equality_row(self):
        # max x s.t. x = 2: min -x, dual of the row is -1.
        res = ColumnMaster(np.array([[1.0]]), np.array([2.0]), np.array([-1.0]), 1).result
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-2.0)
        assert res.duals == pytest.approx([-1.0])

    def test_resume_keeps_rows_left_artificial_at_zero(self):
        # The first column meets both rows alone, so one row's artificial
        # stays basic at zero; the added column reaches that row with a
        # negative entry and must not lift the artificial off zero.
        master = ColumnMaster(np.array([[1.0], [1.0]]), np.ones(2), np.zeros(1), 2)
        res = master.add_columns(np.array([[1.0], [-1.0]]), np.array([-1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0)
        assert_optimal_certificate(np.array([0.0, -1.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                                   np.ones(2), 2, res)

    def test_resume_from_a_rank_one_start(self):
        # Start from one feasible column A x / c x, which leaves every other
        # equality row artificial, then add the original columns in chunks.
        rng = np.random.default_rng(14)
        for _ in range(150):
            c, A, b, eq = equality_lp(rng)
            x = np.round(rng.uniform(0, 1, c.size), 2)
            A, b = A[:eq], A[:eq] @ x
            master = ColumnMaster((A @ x)[:, None], b, np.array([c @ x]), eq)
            assert master.result.status == OPTIMAL
            split = 0
            while split < c.size:
                stop = int(rng.integers(split + 1, c.size + 1))
                res = master.add_columns(A[:, split:stop], c[split:stop])
                split = stop
            full_c = np.append(c @ x, c)
            full_A = np.hstack([(A @ x)[:, None], A])
            cold = ColumnMaster(full_A, b, full_c, eq).result
            assert res.status == cold.status == OPTIMAL
            assert res.value == pytest.approx(cold.value, abs=1e-9)
            assert_optimal_certificate(full_c, full_A, b, eq, res)

    def test_redundant_equality_rows(self):
        # The same equality three times: two rows stay artificial at zero.
        A = np.array([[1.0, 1.0]] * 3)
        res = ColumnMaster(A, np.ones(3), np.array([1.0, 2.0]), 3).result
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert_optimal_certificate(np.array([1.0, 2.0]), A, np.ones(3), 3, res)

"""Sample-average pipeline: recourse values, subgradients, guarantees."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import cold_master_minimize, loop_encode_ufl
from stocomb import saa
from stocomb.cli import main
from stocomb.errors import Infeasible, SchemaError
from stocomb.generate import random_stochastic_lp
from stocomb.io import load_stochastic_lp
from stocomb.lp import ColumnMaster
from stocomb.model import exact_opt
from stocomb.problems import ufl_problem
from stocomb.rng import stream
from stocomb.saa import (
    Polytope,
    ScenarioBlock,
    StochasticLPInstance,
    TwoStageUFL,
    build_sample_average,
    check_omega_subgradient,
    encode_ufl,
    h_exact,
    minimize,
    recourse_value,
    sample_size,
    solve_deterministic_equivalent,
    subgradient_at,
    unit_box,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def one_dim_instance(price=1.0, requirement=1.0, probability=1.0):
    block = ScenarioBlock(probability=probability, recourse_cost=[price],
                          aux_cost=[], coupling=np.zeros((1, 0)),
                          technology=[[1.0]], requirement=[requirement])
    return StochasticLPInstance([1.0], unit_box(1), (block,))


def negative_recourse_instance():
    """One scenario whose recourse value is -x (h is minimized at x = 1)."""
    return StochasticLPInstance([0.5], unit_box(1), (ScenarioBlock(
        probability=1.0, recourse_cost=[2.0], aux_cost=[-1.0],
        coupling=[[-1.0]], technology=[[1.0]], requirement=[0.0]),))


def boxed(inst, lower, upper):
    return StochasticLPInstance(inst.first_stage_cost,
                                Polytope(np.array(lower), np.array(upper)),
                                inst.scenarios)


class TestRecourse:
    def test_requirement_already_met(self):
        inst = one_dim_instance(requirement=0.5)
        value, _ = recourse_value(inst, 0, [0.75])
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_one_dim_closed_form(self):
        inst = one_dim_instance()
        value, duals = recourse_value(inst, 0, [0.25])
        assert value == pytest.approx(0.75)
        assert duals[0] == pytest.approx(1.0)

    def test_ufl_encoding_matches_combinatorial_solver(self):
        # At x = 0 the single-scenario recourse equals the deterministic
        # facility-location optimum computed by the exhaustive oracle.
        data = TwoStageUFL(
            facilities=("f0", "f1"), clients=("c0", "c1"),
            open_cost=[0.7, 0.9], second_open_cost=[0.7, 0.9],
            service_cost=[[0.2, 1.0], [0.8, 0.3]],
            scenarios=((frozenset({"c0", "c1"}), 1.0),))
        inst = encode_ufl(data)
        value, _ = recourse_value(inst, 0, [0.0, 0.0])

        problem = ufl_problem(
            clients=("c0", "c1"), facilities=("f0", "f1"),
            open_costs={"f0": 0.7, "f1": 0.9},
            assignments={f"a{i}{j}": (f"f{i}", f"c{j}")
                         for i in range(2) for j in range(2)},
            assign_costs={"a00": 0.2, "a01": 1.0, "a10": 0.8, "a11": 0.3})
        oracle = exact_opt(problem, frozenset({"c0", "c1"})).cost
        assert value == pytest.approx(oracle, abs=1e-7)


class TestObjective:
    def test_no_scenarios_is_linear(self):
        inst = StochasticLPInstance([2.0, 3.0], unit_box(2), ())
        assert h_exact(inst, [0.5, 0.5]) == pytest.approx(2.5)
        assert subgradient_at(inst, [0.5, 0.5]) == pytest.approx([2.0, 3.0])

    def test_single_scenario_sum(self):
        inst = one_dim_instance()
        assert h_exact(inst, [0.25]) == pytest.approx(0.25 + 0.75)

    def test_symmetric_scenarios_average(self):
        a = ScenarioBlock(probability=0.5, recourse_cost=[2.0], aux_cost=[],
                          coupling=np.zeros((1, 0)), technology=[[1.0]],
                          requirement=[1.0])
        b = ScenarioBlock(probability=0.5, recourse_cost=[2.0], aux_cost=[],
                          coupling=np.zeros((1, 0)), technology=[[1.0]],
                          requirement=[0.5])
        both = StochasticLPInstance([1.0], unit_box(1), (a, b))
        only_a = StochasticLPInstance([1.0], unit_box(1),
                                      (ScenarioBlock(1.0, [2.0], [], np.zeros((1, 0)),
                                                     [[1.0]], [1.0]),))
        only_b = StochasticLPInstance([1.0], unit_box(1),
                                      (ScenarioBlock(1.0, [2.0], [], np.zeros((1, 0)),
                                                     [[1.0]], [0.5]),))
        x = [0.3]
        recourse_a = h_exact(only_a, x) - 0.3
        recourse_b = h_exact(only_b, x) - 0.3
        assert h_exact(both, x) - 0.3 == pytest.approx(
            0.5 * recourse_a + 0.5 * recourse_b)

    def test_midpoint_convexity(self):
        # 100 random segments per instance.
        for seed in range(5):
            inst = random_stochastic_lp(2, 3, seed, with_aux=True)
            rng = stream(seed, "segments")
            for _ in range(20):
                x = rng.uniform(0, 1, 2)
                y = rng.uniform(0, 1, 2)
                mid = 0.5 * (x + y)
                assert h_exact(inst, mid) <= (
                    0.5 * h_exact(inst, x) + 0.5 * h_exact(inst, y) + 1e-7)


class TestSubgradient:
    def test_flat_region_slope(self):
        # On x < 1 the dual is 1, so the subgradient of x + (1 - x) is 0;
        # matches the finite-difference slope.
        inst = one_dim_instance()
        d = subgradient_at(inst, [0.5])
        fd = (h_exact(inst, [0.6]) - h_exact(inst, [0.4])) / 0.2
        assert d[0] == pytest.approx(fd, abs=1e-9)
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_inequality_on_random_instances(self):
        for seed in range(5):
            inst = random_stochastic_lp(2, 3, seed + 50, with_aux=True)
            rng = stream(seed, "pairs")
            for _ in range(100):
                x = rng.uniform(0, 1, 2)
                slack, _ = check_omega_subgradient(inst, x, subgradient_at(inst, x),
                                                   0.0)
                assert slack >= -1e-7

    def test_norm_bound(self):
        for seed in range(10):
            inst = random_stochastic_lp(3, 3, seed + 80, with_aux=True)
            lam = inst.price_ratio()
            wnorm = np.linalg.norm(inst.first_stage_cost)
            rng = stream(seed, "norm")
            for _ in range(10):
                d = subgradient_at(inst, rng.uniform(0, 1, 3))
                assert np.linalg.norm(d) <= lam * wnorm + 1e-9

    def test_unbiased_over_resamples(self):
        # Empirical subgradients average to the exact one, componentwise
        # within three standard errors.
        inst = random_stochastic_lp(2, 4, 7)
        x = np.array([0.4, 0.6])
        exact = subgradient_at(inst, x)
        rng = stream(9, "resample")
        samples = np.array([_empirical_subgradient(inst, x, rng)
                            for _ in range(1000)])
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert (np.abs(mean - exact) <= 3 * stderr + 1e-9).all()

    def test_lipschitz_bound_on_random_pairs(self):
        for seed in range(5):
            inst = random_stochastic_lp(2, 3, seed + 200)
            bound = inst.lipschitz_bound()
            rng = stream(seed, "lip")
            for _ in range(40):
                x = rng.uniform(0, 1, 2)
                y = rng.uniform(0, 1, 2)
                assert (abs(h_exact(inst, x) - h_exact(inst, y))
                        <= bound * np.linalg.norm(x - y) + 1e-7)


def _empirical_subgradient(inst, x, rng):
    return subgradient_at(build_sample_average(inst, 40, rng), x)


class TestSampleSize:
    def test_frozen_regression_value(self):
        # Golden value pinned from the first run of the formula.
        assert sample_size(2, 2.0, 1.0, 1.0, 0.1, 0.1, 0.2) == 12050541

    def test_decreasing_in_delta(self):
        n1 = sample_size(2, 2.0, 1.0, 1.0, 0.1, 0.1, 0.2)
        n2 = sample_size(2, 2.0, 1.0, 1.0, 0.1, 0.05, 0.2)
        assert n2 >= n1

    @pytest.mark.parametrize("delta, gamma, epsilon", [
        (0.0, 0.2, 0.1), (1.0, 0.2, 0.1), (0.1, 0.0, 0.1), (0.1, 1.5, 0.1),
        (0.1, 0.2, 0.0)])
    def test_out_of_range_parameters_are_refused(self, delta, gamma, epsilon):
        with pytest.raises(ValueError):
            sample_size(2, 2.0, 1.0, 1.0, epsilon, delta, gamma)

    def test_lambda_doubling_identity(self):
        # The count scales by r = ((1 + 2 lam) / (1 + lam))^2 before its
        # ceiling, so the two ceilings leave at most r + 1 between them.
        lam = 2.0
        a = sample_size(2, lam, 1.0, 1.0, 0.1, 0.1, 0.2)
        b = sample_size(2, 2 * lam, 1.0, 1.0, 0.1, 0.1, 0.2)
        r = ((1 + 2 * lam) / (1 + lam)) ** 2
        assert abs(b - r * a) <= r + 1


class TestSampleAverage:
    def test_single_scenario(self):
        inst = one_dim_instance()
        sampled = build_sample_average(inst, 50, stream(0, "b"))
        assert len(sampled.scenarios) == 1
        assert sampled.scenarios[0].probability == pytest.approx(1.0)

    def test_two_scenarios_concentrate(self):
        inst = random_stochastic_lp(1, 2, 3)
        probs = inst.probabilities()
        hits = 0
        for seed in range(100):
            sampled = build_sample_average(inst, 10_000, stream(seed, "c"))
            emp = {b.requirement.tobytes(): b.probability
                   for b in sampled.scenarios}
            ok = all(abs(emp.get(b.requirement.tobytes(), 0.0) - b.probability)
                     < 0.02 for b in inst.scenarios)
            hits += ok
        assert hits >= 99

    def test_deterministic_given_seed(self):
        inst = random_stochastic_lp(2, 3, 4)
        a = build_sample_average(inst, 500, stream(11, "d"))
        b = build_sample_average(inst, 500, stream(11, "d"))
        assert [blk.probability for blk in a.scenarios] == \
            [blk.probability for blk in b.scenarios]


class TestMinimize:
    def test_pure_linear_goes_to_zero(self):
        inst = StochasticLPInstance([1.0, 0.5], unit_box(2), ())
        res = minimize(inst)
        assert res.x == pytest.approx([0.0, 0.0], abs=1e-6)
        assert res.converged

    def test_decreasing_objective_goes_to_one(self):
        # h(x) = x + 2(1 - x) = 2 - x is minimized at the upper bound.
        inst = one_dim_instance(price=2.0)
        res = minimize(inst, tolerance=1e-7)
        assert res.x[0] == pytest.approx(1.0, abs=1e-4)
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_matches_deterministic_equivalent(self):
        negative = negative_recourse_instance()
        shifted = boxed(random_stochastic_lp(2, 3, 305, with_aux=True),
                        [0.2, 0.4], [0.9, 1.0])
        cases = [(random_stochastic_lp(2, 3, seed + 300, with_aux=True), 1e-7)
                 for seed in range(5)]
        cases += [(negative, 1e-7), (shifted, 1e-7),
                  (random_stochastic_lp(3, 4, 306, with_aux=True), 0.0)]
        for inst, tolerance in cases:
            res = minimize(inst, tolerance=tolerance)
            opt, _ = solve_deterministic_equivalent(inst)
            assert res.converged
            assert abs(res.value - opt) <= 1e-7
            assert inst.polytope.contains(res.x)
        # The recourse value is negative here: -x at the optimum x = 1.
        res = minimize(negative)
        assert res.value == pytest.approx(-0.5, abs=1e-7)
        assert res.x == pytest.approx([1.0], abs=1e-7)

    def test_deterministic_equivalent_honours_negative_lower_bounds(self):
        # cost [1] on [-1, 1] with no scenarios: the optimum is -1 at x = -1.
        inst = StochasticLPInstance([1.0], Polytope([-1.0], [1.0]), ())
        opt, x = solve_deterministic_equivalent(inst)
        assert (opt, list(x)) == (-1.0, [-1.0])
        shifted = boxed(random_stochastic_lp(2, 3, 307, with_aux=True),
                        [-0.5, 0.3], [0.4, 1.2])
        for inst in (inst, shifted):
            opt, x = solve_deterministic_equivalent(inst)
            res = minimize(inst, tolerance=0.0)
            assert inst.polytope.contains(x)
            assert opt == pytest.approx(res.value, abs=1e-7)
            assert opt == pytest.approx(h_exact(inst, x), abs=1e-7)

    @pytest.mark.parametrize("key", ["rows", "row_rhs"])
    def test_polytope_rows_are_a_schema_error(self, key, tmp_path, capsys):
        # The polytope is a box; run-saa refuses extra rows at load (exit 2).
        payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
        payload["polytope"][key] = [[1.0, 1.0]] if key == "rows" else [1.0]
        with pytest.raises(SchemaError):
            load_stochastic_lp(payload)
        bad = tmp_path / "rows.json"
        bad.write_text(json.dumps(payload))
        assert main(["run-saa", "--instance", str(bad), "--seed", "1"]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_matches_the_cold_master(self):
        """The warm-started dual master against the cold theta+/theta- loop
        it replaced: the same verdict, value and bound, x in the box."""
        rng = np.random.default_rng(20)
        cases = [negative_recourse_instance()]
        for seed in range(240):
            m = 1 + seed % 4
            inst = random_stochastic_lp(m, 1 + seed % 5, 2000 + seed,
                                        with_aux=seed % 2 == 0)
            if seed % 3 == 1:
                lower = np.round(rng.uniform(-1.0, 0.5, m), 3)
                inst = boxed(inst, lower,
                             lower + np.round(rng.uniform(0.1, 1.5, m), 3))
            cases.append(inst)
        for inst in cases:
            for tolerance in (1e-6, 0.0):
                res = minimize(inst, tolerance=tolerance)
                x, value, converged, _, lower = cold_master_minimize(
                    inst, tolerance)
                assert res.converged == converged
                assert len(res.trace) == res.iterations
                assert res.value == pytest.approx(value, rel=1e-9, abs=1e-12)
                assert res.trace[-1][2] == pytest.approx(lower, rel=1e-9,
                                                         abs=1e-12)
                assert inst.polytope.contains(res.x, tol=0.0)
                assert inst.polytope.contains(x, tol=0.0)

    def test_master_is_warm_started(self, monkeypatch):
        """One cold master solve per call, one resume per later iteration
        that cut, and no cold ``solve_lp``."""
        masters, resumed, evaluated = [], [], []
        evaluate = saa._evaluate

        class Spy(ColumnMaster):
            def __init__(self, *args):
                super().__init__(*args)
                masters.append(self)

            def add_columns(self, A, c):
                assert A.shape[1] == len(c) > 0
                resumed.append(len(evaluated))
                return super().add_columns(A, c)

        def counting(*args):
            evaluated.append(args)
            return evaluate(*args)

        def refused(*args):
            raise AssertionError("minimize called solve_lp")

        monkeypatch.setattr(saa, "ColumnMaster", Spy)
        monkeypatch.setattr(saa, "_evaluate", counting)
        monkeypatch.setattr(saa, "solve_lp", refused)
        resumes = 0
        for seed in range(20):
            inst = random_stochastic_lp(1 + seed % 3, 2 + seed % 4, 3000 + seed,
                                        with_aux=True)
            for tolerance, limit in ((0.0, 10_000), (0.0, 2), (1e-6, 10_000)):
                for log in (masters, resumed, evaluated):
                    log.clear()
                monkeypatch.setattr(saa, "MAX_ITERATIONS", limit)
                res = minimize(inst, tolerance=tolerance)
                assert len(masters) == 1
                assert len(evaluated) == res.iterations
                # Every iteration after the first cuts, unless it ends the
                # run because no cut was violated.
                cut_every_time = list(range(2, res.iterations + 1))
                assert resumed == cut_every_time or (
                    res.converged and resumed == cut_every_time[:-1])
                resumes += len(resumed)
        assert resumes > 20

    def test_non_convergence_flag_keeps_best_iterate(self, monkeypatch):
        monkeypatch.setattr(saa, "MAX_ITERATIONS", 1)
        inst = random_stochastic_lp(2, 3, 42)
        res = minimize(inst, tolerance=0.0)
        assert not res.converged
        assert res.iterations == 1
        assert np.isfinite(res.value)
        assert inst.polytope.contains(res.x)
        assert res.value == h_exact(inst, res.x)


class TestOmegaSubgradient:
    def test_exact_subgradient_passes(self):
        inst = random_stochastic_lp(2, 3, 17)
        x = np.array([0.5, 0.5])
        slack, witness = check_omega_subgradient(inst, x, subgradient_at(inst, x),
                                                 0.0)
        assert slack >= -saa.OMEGA_TOL
        assert inst.polytope.contains(witness)

    def test_downward_perturbation_stays_valid(self):
        # Shrinking the subgradient by at most omega * first-stage prices
        # keeps the relaxed inequality valid.
        inst = random_stochastic_lp(2, 3, 18)
        x = np.array([0.3, 0.7])
        omega = 0.05
        d = subgradient_at(inst, x)
        d_hat = d - omega * inst.first_stage_cost  # lower edge of the band
        slack, _ = check_omega_subgradient(inst, x, d_hat, omega)
        assert slack >= -saa.OMEGA_TOL

    def test_inflated_vector_fails_with_witness(self):
        inst = one_dim_instance(price=2.0)  # strictly decreasing objective
        x = np.array([0.5])
        bad = subgradient_at(inst, x) + 1.5
        slack, y = check_omega_subgradient(inst, x, bad, 0.0)
        assert slack < -saa.OMEGA_TOL
        assert inst.polytope.contains(y)
        hx = h_exact(inst, x)
        assert h_exact(inst, y) - hx < bad @ (y - x) - saa.OMEGA_TOL
        # The slack is the witness's own gap in the inequality.
        assert slack == pytest.approx(h_exact(inst, y) - hx - bad @ (y - x),
                                      abs=1e-12)

    def test_sampled_subgradients_are_omega_subgradients(self):
        # The sampled problem's subgradient at N = 320 against the exact
        # check at omega = 0.05: 10 random points on each of three 2 x 50
        # instances, and at least 27 of the 30 must pass.
        passed = 0
        for seed in range(3):
            inst = random_stochastic_lp(2, 50, seed)
            rng = stream(seed, "omega-sampled")
            for _ in range(10):
                x = rng.uniform(0, 1, 2)
                d = subgradient_at(build_sample_average(inst, 320, rng), x)
                slack, _ = check_omega_subgradient(inst, x, d, 0.05)
                passed += slack >= -saa.OMEGA_TOL
        assert passed >= 27


def arrays(inst):
    """Every array of an instance as (dtype, shape, bytes), plus probabilities."""
    out = [inst.first_stage_cost, inst.polytope.lower, inst.polytope.upper]
    for b in inst.scenarios:
        out += [np.float64(b.probability), b.recourse_cost, b.aux_cost,
                b.coupling, b.technology, b.requirement]
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


class TestUflEncoding:
    def test_single_pair_block_shape(self):
        data = TwoStageUFL(facilities=("f",), clients=("c",),
                           open_cost=[1.0], second_open_cost=[1.0],
                           service_cost=[[1.0]],
                           scenarios=((frozenset({"c"}), 1.0),))
        inst = encode_ufl(data)
        assert inst.scenarios[0].requirement.size == 2
        value, _ = recourse_value(inst, 0, [1.0])
        assert value == pytest.approx(1.0)  # facility pre-opened, assign only

    def test_opening_plus_distance(self):
        data = TwoStageUFL(facilities=("f",), clients=("c",),
                           open_cost=[1.0], second_open_cost=[1.0],
                           service_cost=[[1.0]],
                           scenarios=((frozenset({"c"}), 1.0),))
        inst = encode_ufl(data)
        value, _ = recourse_value(inst, 0, [0.0])
        assert value == pytest.approx(2.0)

    def test_h_exact_matches_two_stage_enumeration(self):
        # Cross-module oracle: at x = 0 compare against brute force over
        # per-scenario facility subsets (the LP is integral here).
        data = TwoStageUFL(
            facilities=("f0", "f1"), clients=("c0", "c1"),
            open_cost=[0.8, 1.1], second_open_cost=[0.8, 1.1],
            service_cost=[[0.2, 0.9], [0.7, 0.3]],
            scenarios=((frozenset({"c0"}), 0.5), (frozenset({"c0", "c1"}), 0.5)))
        inst = encode_ufl(data)
        opens = {"f0": 0.8, "f1": 1.1}
        dist = {("f0", "c0"): 0.2, ("f0", "c1"): 0.9,
                ("f1", "c0"): 0.7, ("f1", "c1"): 0.3}
        expected = 0.0
        for subset, p in data.scenarios:
            best = min(
                sum(opens[f] for f in facs)
                + sum(min(dist[(f, c)] for f in facs) for c in subset)
                for k in (1, 2)
                for facs in itertools.combinations(("f0", "f1"), k))
            expected += p * best
        assert h_exact(inst, [0.0, 0.0]) == pytest.approx(expected, abs=1e-7)

    def test_blocks_match_the_loop_oracle_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            nf, nc = rng.integers(1, 4), rng.integers(1, 5)
            clients = tuple(f"c{j}" for j in range(nc))
            # The empty scenario has no active client, so no assignment column.
            scenarios = [(frozenset(), 0.2)] + [
                (frozenset(c for c in clients if rng.random() < 0.5), 0.8 / 3)
                for _ in range(3)]
            data = TwoStageUFL(
                facilities=tuple(f"f{i}" for i in range(nf)), clients=clients,
                open_cost=rng.uniform(0, 2, nf),
                second_open_cost=rng.uniform(0, 3, nf),
                service_cost=rng.uniform(0, 1, (nf, nc)),
                scenarios=scenarios)
            assert arrays(encode_ufl(data)) == arrays(loop_encode_ufl(data)), trial

    @pytest.mark.parametrize("service_cost", [[[1, 2, 3], [4, 5, 6]], [1, 2, 3, 4, 5, 6]],
                             ids=["transposed", "flat"])
    def test_service_cost_of_the_wrong_shape_is_refused(self, service_cost):
        with pytest.raises(ValueError, match="service_cost must be 3 rows of 2 numbers"):
            TwoStageUFL(facilities=("f0", "f1", "f2"), clients=("a", "b"),
                        open_cost=[1.0] * 3, second_open_cost=[1.0] * 3,
                        service_cost=service_cost, scenarios=())


class TestConcentration:
    def test_sample_mean_interval_coverage(self):
        # Bounded i.i.d. variables in [-a, b], sample size from the
        # implemented formula specialized to one coordinate: the sample
        # mean must land in [mu - b c, mu + b c] with frequency >= 1-delta.
        a, b, c, delta = 1.0, 1.0, 0.3, 0.1
        alpha = max(1.0, a / b)
        n = math.ceil(4 * (1 + alpha) ** 2 / (3 * c ** 2) * math.log(2 / delta))
        rng = stream(21, "conc")
        mu = (b - a) / 2  # uniform on [-a, b]
        hits = 0
        reps = 1000
        for _ in range(reps):
            draws = rng.uniform(-a, b, n)
            hits += abs(draws.mean() - mu) <= b * c
        assert hits / reps >= 1 - delta

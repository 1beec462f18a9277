"""Correlation gap: worst-case LP, product expectations, splits, the bound."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import chain_basis, cold_worst_case, doubled_worst_case
from stocomb import _kernels, cli, gap, lp
from stocomb.errors import (
    CapExceeded,
    DegenerateInstance,
    NumericalFailure,
    UncertifiedScheme,
)
from stocomb.gap import (
    GapInstance,
    SplitMap,
    check_split_invariants,
    correlation_gap,
    independent_expectation,
    split,
    split_scheme,
    systematic_basis,
    systematic_segments,
    verify_gap_bound,
    worst_case_expectation,
)
from stocomb.generate import random_gap_instance
from stocomb.io import load_gap_instance, read_json
from stocomb.fixtures import gap2 as gap2_instance
from stocomb.lp import OPTIMAL, LinearProgram, solve_lp
from stocomb.rng import stream
from stocomb.setfun import E_RATIO, cardinality, from_table, table, weighted_rank
from stocomb.sharing import OrderedCostShareScheme, check_scheme, marginal_scheme

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def lp_vertex_oracle(inst):
    """Independent check of the worst-case LP: enumerate basic solutions of
    the marginal-constraint system and maximize the expectation."""
    n = len(inst.ground)
    size = 1 << n
    values = table(inst.f, inst.ground)
    rows = [np.array([(mask >> i) & 1 for mask in range(size)], dtype=float)
            for i in range(n)]
    rows.append(np.ones(size))
    rhs = np.array([inst.marginals[g] for g in inst.ground] + [1.0])
    A = np.vstack(rows)
    best = None
    # Basic solutions: choose |rows| columns to be possibly nonzero.
    for cols in itertools.combinations(range(size), A.shape[0]):
        M = A[:, cols]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        if (x < -1e-10).any():
            continue
        value = float(values[list(cols)] @ x)
        if best is None or value > best:
            best = value
    return best


def dense_worst_case(inst):
    """The worst-case LP with all 2^n subset columns at once, each equality
    row doubled into a >= pair: the dense solver column generation
    replaced, kept as its differential oracle."""
    n = len(inst.ground)
    size = 1 << n
    values = table(inst.f, inst.ground)
    p = inst.marginal_vector()
    rows = []
    rhs = []
    for i in range(n):
        row = np.array([(mask >> i) & 1 for mask in range(size)], dtype=float)
        rows.extend([row, -row])
        rhs.extend([p[i], -p[i]])
    ones = np.ones(size)
    rows.extend([ones, -ones])
    rhs.extend([1.0, -1.0])
    res = solve_lp(LinearProgram(-values, np.array(rows), np.array(rhs)))
    assert res.status == OPTIMAL
    return -res.value


def table_instance(n, seed, kind):
    """Table-backed instance on n items: a random coverage table
    (monotone submodular) or uniform random values (neither)."""
    base = random_gap_instance(n, seed)
    if kind == "coverage":
        values = table(base.f, base.ground)
    else:
        values = stream(seed, "gap-table").uniform(0.0, 2.0, 1 << n)
    return GapInstance(base.ground, from_table(values, base.ground),
                       base.marginals)


def scaled(inst, factor):
    """``inst`` with every value of f multiplied by ``factor``."""
    return GapInstance(inst.ground, from_table(inst._table * factor, inst.ground),
                       inst.marginals)


def assert_distribution(inst, worst, dist):
    """dist meets the marginals, has total mass 1 and attains worst."""
    assert all(p > 0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    for g in inst.ground:
        mass = sum(p for s, p in dist.items() if g in s)
        assert mass == pytest.approx(inst.marginals[g], abs=1e-9)
    assert sum(p * inst.f(s) for s, p in dist.items()) == \
        pytest.approx(worst, abs=1e-9)


def degenerate_instances():
    """Equal marginals, 0/1 marginals, constant and modular costs."""
    for n in (1, 4, 8, 12):
        ground = tuple(f"i{k}" for k in range(n))
        cov = random_gap_instance(n, 60 + n).f
        weights = {g: 0.25 * (k + 1) for k, g in enumerate(ground)}
        modular = lambda s, w=weights: float(sum(w[g] for g in s))
        constant = lambda s: 1.5
        equal = {g: 0.3 for g in ground}
        zero_one = {g: (0.0, 1.0, 0.6)[k % 3] for k, g in enumerate(ground)}
        for f in (cov, modular, constant):
            for marginals in (equal, zero_one):
                yield GapInstance(ground, f, marginals)


class TestWorstCase:
    def test_linear_function_is_marginal_sum(self):
        inst = GapInstance(("a", "b", "c"), cardinality(("a", "b", "c")),
                           {"a": 0.3, "b": 0.6, "c": 0.9})
        worst, _ = worst_case_expectation(inst)
        assert worst == pytest.approx(1.8, abs=1e-8)

    def test_gap2_against_vertex_oracle(self):
        inst = gap2_instance()
        worst, dist = worst_case_expectation(inst)
        assert worst == pytest.approx(1.0, abs=1e-9)
        assert lp_vertex_oracle(inst) == pytest.approx(1.0, abs=1e-9)
        # the attaining distribution satisfies the marginal constraints
        for g in inst.ground:
            mass = sum(p for s, p in dist.items() if g in s)
            assert mass == pytest.approx(0.5, abs=1e-8)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)

    def test_forced_point_mass(self):
        inst = GapInstance(("a", "b"), weighted_rank({"a": 1.0, "b": 1.0}, 1.0),
                           {"a": 1.0, "b": 1.0})
        worst, _ = worst_case_expectation(inst)
        assert worst == pytest.approx(inst.f(frozenset({"a", "b"})))

    def test_random_instances_match_vertex_oracle(self):
        for seed in range(12):
            inst = random_gap_instance(3, seed)
            worst, _ = worst_case_expectation(inst)
            assert worst == pytest.approx(lp_vertex_oracle(inst), abs=1e-7)

    @pytest.mark.parametrize("kind", ["coverage", "uniform"])
    def test_column_generation_matches_dense_lp(self, kind):
        for n in range(1, 13):
            inst = table_instance(n, 300 + n, kind)
            worst, dist = worst_case_expectation(inst)
            assert worst == pytest.approx(dense_worst_case(inst), abs=1e-9)
            assert_distribution(inst, worst, dist)

    def test_master_stays_a_small_part_of_the_subset_table(self, monkeypatch):
        # Wrong duals can still end at the optimum by entering every subset;
        # pricing must reach it with a small fraction of the 4096 columns,
        # one entering column per pivot.
        for kind in ("coverage", "uniform"):
            _, pivots = pivot_count(monkeypatch, worst_case_expectation,
                                    table_instance(12, 312, kind))
            assert pivots <= 256

    def test_degenerate_instances_match_dense_lp(self):
        for inst in degenerate_instances():
            worst, dist = worst_case_expectation(inst)
            assert worst == pytest.approx(dense_worst_case(inst), abs=1e-9)
            assert_distribution(inst, worst, dist)

    def test_degenerate_instances_take_both_rare_branches(self, monkeypatch):
        """Drive-outs of basic artificials and Bland choices after degenerate
        pivots both occur on the degenerate family, and every value still
        matches the dense LP."""
        counts = {"bland": 0, "drive_out": 0}
        degenerate = [False]
        pivot = _kernels._pivot

        def spy(R, r, q):
            n = R.shape[0] - 1
            if q == R.shape[1] - 1:  # a revised pivot on [B^-1 | x_B | B^-1 a]
                # Artificial k is basic in row r exactly when column k of
                # B^-1 is the unit vector e_r.
                unit = np.eye(n + 1)[r]
                drive_out = any((R[:, k] == unit).all() for k in range(n))
                counts["drive_out"] += drive_out
                counts["bland"] += degenerate[0]
                degenerate[0] = bool(drive_out or R[r, n + 1] <= 1e-12 * R[r, -1])
            pivot(R, r, q)

        monkeypatch.setattr(_kernels, "_pivot", spy)
        for inst in degenerate_instances():
            degenerate[0] = False
            worst, dist = worst_case_expectation(inst)
            assert worst == pytest.approx(dense_worst_case(inst), abs=1e-9)
            assert_distribution(inst, worst, dist)
        assert counts["bland"] > 0 and counts["drive_out"] > 0, counts

    def test_pivot_limit_raises(self, monkeypatch):
        inst = table_instance(12, 312, "uniform")  # 53 pivots
        monkeypatch.setattr(gap, "max_pivots", lambda m, n: 10)
        with pytest.raises(NumericalFailure, match="pivot limit"):
            worst_case_expectation(inst)

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        for n in (3, 7, 12):
            inst = table_instance(n, 800 + n, "uniform")
            bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
            res = optimize.linprog(
                -table(inst.f, inst.ground),
                A_eq=np.vstack([bits, np.ones(1 << n)]),
                b_eq=np.append(inst.marginal_vector(), 1.0), method="highs")
            assert res.status == 0
            assert worst_case_expectation(inst)[0] == \
                pytest.approx(-res.fun, abs=1e-9)

    def test_cap(self):
        inst = random_gap_instance(3, 0)
        ground = tuple(f"i{k}" for k in range(13))
        big = GapInstance(ground, cardinality(ground),
                          {f"i{k}": 0.5 for k in range(13)})
        with pytest.raises(CapExceeded):
            worst_case_expectation(big)


def assert_segments(p):
    """The segments of systematic sampling are a distribution over their
    masks that meets the marginals within 1e-15, and the start basis is
    nonsingular, holds the k segments at their lengths and n + 1 - k
    artificials at zero, and reproduces (p, 1) within 1e-15."""
    n = len(p)
    segments = systematic_segments(p)
    assert all(length >= 0.0 for _, length in segments)
    assert len(segments) <= n + 1
    assert math.fsum(length for _, length in segments) == pytest.approx(1.0, abs=1e-15)
    for i, q in enumerate(p):
        got = math.fsum(length for mask, length in segments if mask >> i & 1)
        assert abs(got - q) <= 1e-15
    masks, B, level = systematic_basis(p)
    k = len(segments)
    assert B.shape == (n + 1, n + 1)
    # B is a 0/1 matrix, so it is nonsingular exactly when |det B| >= 1.
    assert abs(np.linalg.det(B)) >= 0.5
    assert masks[:k].tolist() == [mask for mask, _ in segments]
    assert level[:k].tolist() == [length for _, length in segments]
    artificials = -1 - masks[k:]
    assert artificials.size == n + 1 - k and (level[k:] == 0.0).all()
    np.testing.assert_array_equal(B[:, k:], np.eye(n + 1)[:, artificials])
    assert np.abs(B @ level - np.append(p, 1.0)).max() <= 1e-15


def generated_instances(tmp_path, seed):
    for n in range(9, 13):
        path = tmp_path / f"gap_{n}.json"
        assert cli.main(["gen", "--kind", "gap", "--clients", str(n),
                         "--seed", str(seed), "--output", str(path)]) == 0
        yield load_gap_instance(read_json(path))


class TestSystematicStart:
    def test_random_marginals_are_reproduced(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            assert_segments(rng.uniform(0.0, 1.0, rng.integers(0, 13)).tolist())

    def test_edge_cases(self):
        assert systematic_segments([]) == [(0, 1.0)]
        assert systematic_segments([0.0, 0.0]) == [(0, 1.0)]
        assert systematic_segments([1.0]) == [(1, 1.0)]
        assert systematic_segments([0.5, 0.5]) == [(1, 0.5), (2, 0.5)]
        # Sum 1.5: the second arc wraps and meets the first on [0, 0.5).
        assert systematic_segments([0.75, 0.75]) == [(3, 0.5), (1, 0.25), (2, 0.25)]
        # A marginal of 1 holds the whole circle; 0 holds none of it.
        assert systematic_segments([0.3, 1.0, 0.0]) == [(3, 0.3), (2, 0.7)]
        cases = [[], [0.0], [1.0], [0.4], [0.0] * 12, [1.0] * 12,
                 [0.5] * 12, [0.25, 0.75, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4],
                 [0.9, 0.8, 0.7, 0.95], [1.0, 0.0, 0.6, 1.0, 0.3],
                 [1 / 3] * 9, [0.1] * 10, [1e-300, 0.5, 1 - 1e-16]]
        for p in cases:
            assert_segments(p)

    def test_start_basis_on_degenerate_marginals(self):
        """20,000 marginal vectors of 0-12 items, each entry a zero, a one,
        an eighth, a third or uniform: every start basis is nonsingular,
        adds n + 1 - k artificials at zero to its k segments, and
        reproduces (p, 1) within 1e-15, coinciding cuts and all."""
        rng = np.random.default_rng(22)
        grid = np.array([0.0, 1.0, *(np.arange(1, 8) / 8), 1 / 3, 2 / 3])
        sizes = rng.integers(0, 13, 20_000)
        entries = np.where(rng.random(sizes.sum()) < 0.5,
                           rng.choice(grid, sizes.sum()), rng.uniform(0.0, 1.0, sizes.sum()))
        starts = {n: [] for n in range(13)}
        for p in np.split(entries, np.cumsum(sizes)[:-1]):
            p = p.tolist()
            starts[len(p)].append((p, len(systematic_segments(p)), *systematic_basis(p)))
        for n, found in starts.items():
            p, k, masks, B, level = (np.array(v) for v in zip(*found))
            # B is a 0/1 matrix, so it is nonsingular exactly when |det B| >= 1.
            assert (np.abs(np.linalg.det(B)) >= 0.5).all()
            # The k segments come first; the n + 1 - k others are artificial.
            artificial = np.arange(n + 1) >= k[:, None]
            assert ((masks < 0) == artificial).all() and (level[artificial] == 0.0).all()
            reached = np.einsum("vij,vj->vi", B, level)
            assert np.abs(reached - np.hstack([p, np.ones((len(p), 1))])).max() <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_never_more_work_than_the_chain(self, seed, tmp_path, monkeypatch):
        """On generated instances the segment start makes no more pivots in
        total than a start from the comonotone chain, and reaches the same
        values."""
        instances = list(generated_instances(tmp_path, seed))

        def run():
            return pivot_count(monkeypatch, lambda instances: [
                worst_case_expectation(inst)[0] for inst in instances], instances)

        ours, pivots = run()
        monkeypatch.setattr(gap, "systematic_basis", chain_basis)
        chain, chain_pivots = run()
        for a, b in zip(ours, chain):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assert pivots <= chain_pivots


class TestStartBasis:
    def test_no_tableau_entry(self, monkeypatch, tmp_path):
        """The gap LP runs its revised simplex alone: it never calls the
        tableau kernel or its resume."""
        def refuse(*args):
            raise AssertionError("the gap LP called the tableau kernel")

        monkeypatch.setattr(lp, "simplex_kernel", refuse)
        monkeypatch.setattr(lp, "simplex_resume", refuse)
        monkeypatch.setattr(_kernels, "simplex_kernel", refuse)
        monkeypatch.setattr(_kernels, "simplex_resume", refuse)
        for inst in [gap2_instance(), *degenerate_instances(),
                     *generated_instances(tmp_path, 1)]:
            worst_case_expectation(inst)

    def test_generated_instances_skip_phase_1(self, tmp_path, monkeypatch):
        """The generated instances of seeds 1-3 take at most 39 pivots in
        total from the segment basis (counted at ``_kernels._pivot``; the
        kernel's first solve and the revised simplex it fed took 39 too),
        and match the cold loop."""
        instances = []
        for seed in (1, 2, 3):
            (tmp_path / str(seed)).mkdir()
            instances += generated_instances(tmp_path / str(seed), seed)
        assert len(instances) == 12
        ours, pivots = pivot_count(monkeypatch, lambda instances: [
            worst_case_expectation(inst)[0] for inst in instances], instances)
        for inst, worst in zip(instances, ours):
            cold, _ = cold_worst_case(inst)
            assert abs(worst - cold) <= 1e-12 * max(1.0, abs(cold))
        assert pivots <= 39

    def test_gap2_needs_no_phase_1(self):
        """gap2's two segments leave item row 1 to an artificial at zero,
        and that start is already optimal, with value 1."""
        masks, B, level = systematic_basis([0.5, 0.5])
        assert masks.tolist() == [1, 2, -2]
        np.testing.assert_array_equal(B, [[1, 0, 0], [0, 1, 1], [1, 1, 0]])
        assert level.tolist() == [0.5, 0.5, 0.0]
        worst, _ = worst_case_expectation(load_gap_instance(read_json(INSTANCES / "gap2.json")))
        assert worst == pytest.approx(1.0, abs=1e-9)

    def test_the_basis_is_the_segments(self):
        p = [0.3, 0.6, 0.9, 0.7]
        masks, _, level = systematic_basis(p)
        # Five segments for five rows: no artificial.
        assert masks.tolist() == [mask for mask, _ in systematic_segments(p)] \
            == [13, 14, 6, 10, 12]
        assert level.tolist() == [length for _, length in systematic_segments(p)]
        # Four segments for five rows; r_j is the item ending at cut j.
        assert systematic_basis([0.25] * 4)[0].tolist() == [1, 2, 4, 8, -4]
        # A marginal of 1 or 0 ends at no cut: both rows are artificial.
        assert systematic_basis([0.3, 1.0, 0.0])[0].tolist() == [3, 2, -2, -3]
        # One segment, the empty set: every item row is artificial.
        assert systematic_basis([0.0, 0.0])[0].tolist() == [0, -1, -2]


def assert_matches_cold(inst):
    """The warm-started column generation against the cold loop: values
    within 1e-12 relative, and a distribution that attains its value."""
    worst, dist = worst_case_expectation(inst)
    cold, _ = cold_worst_case(inst)
    assert abs(worst - cold) <= 1e-12 * max(1.0, abs(cold))
    assert_distribution(inst, worst, dist)


class TestWarmStartAgainstColdLoop:
    @pytest.mark.parametrize("kind", ["coverage", "uniform"])
    def test_table_instances(self, kind):
        for n in range(1, 13):
            assert_matches_cold(table_instance(n, 300 + n, kind))

    def test_degenerate_instances(self):
        for inst in degenerate_instances():
            assert_matches_cold(inst)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_instances(self, seed, tmp_path):
        for inst in generated_instances(tmp_path, seed):
            assert_matches_cold(inst)


def pivot_count(monkeypatch, solve, inst):
    """``solve(inst)`` and its pivots, counted at ``_kernels._pivot``, which
    every pivot of the library goes through: the kernel's and the gap LP's
    revised ones."""
    counted = [0]
    pivot = _kernels._pivot

    def counting(*args):
        counted[0] += 1
        pivot(*args)

    monkeypatch.setattr(_kernels, "_pivot", counting)
    out = solve(inst)
    monkeypatch.setattr(_kernels, "_pivot", pivot)
    return out, counted[0]


def assert_matches_doubled(monkeypatch, inst):
    """Equality rows against the doubled >= pairs they replaced: values
    within 1e-12 relative, a distribution meeting the marginals, and never
    more pivots."""
    (worst, dist), pivots = pivot_count(monkeypatch, worst_case_expectation, inst)
    (ref, _), ref_pivots = pivot_count(monkeypatch, doubled_worst_case, inst)
    assert abs(worst - ref) <= 1e-12 * max(1.0, abs(ref))
    assert_distribution(inst, worst, dist)
    assert pivots <= ref_pivots
    return pivots, ref_pivots


class TestEqualityRowsAgainstDoubledRows:
    @pytest.mark.parametrize("kind", ["coverage", "uniform"])
    def test_table_instances(self, kind, monkeypatch):
        total = ref_total = 0
        for n in range(1, 13):
            pivots, ref_pivots = assert_matches_doubled(
                monkeypatch, table_instance(n, 300 + n, kind))
            total += pivots
            ref_total += ref_pivots
        assert total < ref_total

    def test_degenerate_instances(self, monkeypatch):
        for inst in degenerate_instances():
            assert_matches_doubled(monkeypatch, inst)


class TestIndependent:
    def test_linear_function(self):
        inst = GapInstance(tuple("abcd"), cardinality(tuple("abcd")),
                           {c: 0.5 for c in "abcd"})
        assert independent_expectation(inst) == pytest.approx(2.0)

    def test_gap2_value(self):
        assert independent_expectation(gap2_instance()) == \
            pytest.approx(0.75, abs=1e-12)

    def test_deterministic_marginals(self):
        inst = GapInstance(("a", "b"), cardinality(("a", "b")), {"a": 1.0, "b": 0.0})
        assert independent_expectation(inst) == pytest.approx(
            inst.f(frozenset({"a"})))


class TestCorrelationGap:
    def test_linear_gap_is_one(self):
        inst = GapInstance(("a", "b"), cardinality(("a", "b")), {"a": 0.4, "b": 0.7})
        report = correlation_gap(inst)
        assert report.kappa == pytest.approx(1.0, abs=1e-8)

    def test_gap2_ratio(self):
        report = correlation_gap(gap2_instance())
        assert report.worst_case == pytest.approx(1.0, abs=1e-9)
        assert report.independent == pytest.approx(0.75, abs=1e-9)
        assert report.kappa == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert report.kappa <= E_RATIO
        assert report.bound == pytest.approx(E_RATIO)

    def test_kappa_at_least_one(self):
        for seed in range(20):
            inst = random_gap_instance(2 + seed % 5, seed)
            report = correlation_gap(inst)
            assert report.kappa >= 1.0 - 1e-9
            assert report.worst_case >= report.independent - 1e-9

    def test_set_function_table_built_once(self):
        base = random_gap_instance(6, 5)
        calls = []

        def f(subset):
            calls.append(subset)
            return base.f(subset)

        correlation_gap(GapInstance(base.ground, f, base.marginals))
        assert len(calls) == 1 << 6

    def test_degenerate_instance(self):
        inst = GapInstance(("a",), lambda S: 0.0, {"a": 0.5})
        with pytest.raises(DegenerateInstance):
            correlation_gap(inst)


class TestSplit:
    def test_identity_split(self):
        inst = gap2_instance()
        new = split(inst, SplitMap({"a": 1, "b": 1}))
        assert new.ground == (("a", 1), ("b", 1))
        assert new.marginals[("a", 1)] == pytest.approx(0.5)
        assert new.f(frozenset({("a", 1)})) == inst.f(frozenset({"a"}))

    def test_single_item_two_copies(self):
        inst = GapInstance(("x",), weighted_rank({"x": 1.0}, 1.0), {"x": 1.0})
        new = split(inst, SplitMap({"x": 2}))
        assert new.ground == (("x", 1), ("x", 2))
        assert all(new.marginals[c] == pytest.approx(0.5) for c in new.ground)
        worst_new, _ = worst_case_expectation(new)
        worst_old, _ = worst_case_expectation(inst)
        assert worst_new == pytest.approx(worst_old) == pytest.approx(1.0)
        assert independent_expectation(new) == pytest.approx(0.75)
        assert independent_expectation(inst) == pytest.approx(1.0)

    def test_marginal_mass_preserved(self):
        inst = random_gap_instance(3, 40)
        sm = SplitMap({g: 1 + k % 3 for k, g in enumerate(inst.ground)})
        new = split(inst, sm)
        for g in inst.ground:
            mass = sum(p for c, p in new.marginals.items() if c[0] == g)
            assert mass == pytest.approx(inst.marginals[g], abs=1e-12)

    def test_invariant_report(self):
        inst = GapInstance(("x",), weighted_rank({"x": 1.0}, 1.0), {"x": 1.0})
        report = check_split_invariants(inst, SplitMap({"x": 2}))
        assert report.ok
        assert report.monotone
        assert report.worst_case_preserved
        assert report.independent_shrinks

    def test_non_monotone_table_fails_the_report(self):
        ground = ("a", "b")
        inst = GapInstance(ground, from_table([0.0, 1.0, 1.0, 0.5], ground),
                           {"a": 0.5, "b": 0.5})
        report = check_split_invariants(inst, SplitMap({"a": 2}))
        assert report.monotone is False
        assert not report.ok

    def test_random_split_invariants(self):
        for seed in range(25):
            rng = stream(seed, "splits")
            inst = random_gap_instance(2 + seed % 4, seed + 500)
            copies = {g: int(rng.integers(1, 4)) for g in inst.ground}
            while sum(copies.values()) > 12:
                copies = {g: max(1, c - 1) for g, c in copies.items()}
            report = check_split_invariants(inst, SplitMap(copies))
            assert report.ok, (seed, copies, report)

    def test_reassignment_construction(self):
        # Rebuilding the attaining distribution for a single-item split
        # (mass spread equally over the copies) stays feasible and keeps
        # the objective value.
        for seed in range(6):
            inst = random_gap_instance(3, seed + 700)
            first = inst.ground[0]
            n1 = 3
            sm = SplitMap({first: n1})
            new = split(inst, sm)
            worst_old, dist_old = worst_case_expectation(inst)
            # transfer: sets without the split item map unchanged; sets with
            # it are spread equally over the n1 single-copy variants
            copies = [(first, k) for k in range(1, n1 + 1)]
            rename = {g: (g, 1) for g in inst.ground if g != first}
            alpha_new = {}
            for s, p in dist_old.items():
                base = frozenset(rename[g] for g in s if g != first)
                if first in s:
                    for c in copies:
                        key = base | {c}
                        alpha_new[key] = alpha_new.get(key, 0.0) + p / n1
                else:
                    alpha_new[base] = alpha_new.get(base, 0.0) + p
            # feasibility: marginals and total mass
            assert sum(alpha_new.values()) == pytest.approx(1.0, abs=1e-8)
            for c in new.ground:
                mass = sum(p for s, p in alpha_new.items() if c in s)
                assert mass == pytest.approx(new.marginals[c], abs=1e-8)
            value = sum(p * new.f(s) for s, p in alpha_new.items())
            assert value == pytest.approx(worst_old, abs=1e-8)


class TestPowerOfTwoScaling:
    """Multiplying f by 2^k is exact in binary floating point, so the gap
    pipeline must scale its expectations by 2^k and keep kappa; an absolute
    tolerance anywhere on the way breaks this at small or large k."""

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_gap_pipeline_scales_exactly(self, k):
        factor = 2.0 ** k
        for n in range(3, 11):
            for seed in range(10):
                inst = random_gap_instance(n, seed)
                base = correlation_gap(inst)
                report = correlation_gap(scaled(inst, factor))
                assert abs(report.kappa - base.kappa) <= 1e-12 * base.kappa
                assert abs(report.worst_case / factor - base.worst_case) <= \
                    1e-12 * base.worst_case
                assert abs(report.independent / factor - base.independent) <= \
                    1e-12 * base.independent
                split_map = SplitMap({inst.ground[0]: 2, inst.ground[-1]: 2})
                assert check_split_invariants(scaled(inst, factor), split_map).ok

    def test_split_invariants_hold_at_large_scale(self):
        # With absolute tolerances, rounding of worst-case values near 2^40
        # failed about half of these correct splits.
        for k in (30, 40):
            for n in range(2, 6):
                for seed in range(10):
                    inst = scaled(random_gap_instance(n, seed), 2.0 ** k)
                    split_map = SplitMap({inst.ground[0]: 2, inst.ground[-1]: 3})
                    report = check_split_invariants(inst, split_map)
                    assert report.ok, (k, n, seed, report)


class TestSplitScheme:
    def test_no_duplicates_matches_base(self):
        inst = gap2_instance()
        scheme = marginal_scheme(inst.f, inst.ground)
        transferred = split_scheme(scheme, SplitMap({"a": 1, "b": 1}))
        order = (("a", 1), ("b", 1))
        assert transferred(order[0], frozenset(order), order) == \
            scheme("a", frozenset({"a", "b"}), ("a", "b"))

    def test_only_first_copy_paid(self):
        inst = GapInstance(("x",), weighted_rank({"x": 1.0}, 1.0), {"x": 1.0})
        scheme = marginal_scheme(inst.f, inst.ground)
        transferred = split_scheme(scheme, SplitMap({"x": 2}))
        both = frozenset({("x", 1), ("x", 2)})
        for order in (((("x", 1)), (("x", 2))), ((("x", 2)), (("x", 1)))):
            shares = [transferred(c, both, order) for c in order]
            assert shares[0] == pytest.approx(1.0)
            assert shares[1] == pytest.approx(0.0)

    def test_prefix_sums_match_base_exhaustively(self):
        # For every subset and ordering of a 5-copy ground set, the prefix
        # sums of the transferred scheme telescope exactly like the base
        # scheme over the projected sets.
        inst = random_gap_instance(2, 900)
        sm = SplitMap({inst.ground[0]: 3, inst.ground[1]: 2})
        new = split(inst, sm)
        base = marginal_scheme(inst.f, inst.ground)
        transferred = split_scheme(base, sm)
        for r in range(1, 6):
            for subset in itertools.combinations(new.ground, r):
                for order in itertools.permutations(subset):
                    prefix = 0.0
                    for l in range(1, len(order) + 1):
                        prefix += transferred(order[l - 1],
                                              frozenset(order[:l]), order[:l])
                    reps = []
                    for c in order:
                        if c[0] not in reps:
                            reps.append(c[0])
                    base_prefix = 0.0
                    for l in range(1, len(reps) + 1):
                        base_prefix += base.chi(reps[l - 1],
                                                frozenset(reps[:l]),
                                                tuple(reps[:l]))
                    assert prefix == pytest.approx(base_prefix, abs=1e-12)


class TestGapBound:
    def test_gap2_with_unit_scheme(self):
        inst = gap2_instance()
        cert = check_scheme(marginal_scheme(inst.f, inst.ground),
                            inst.f, inst.ground)
        assert verify_gap_bound(inst, 1.0, 1.0, cert)

    def test_linear_function(self):
        inst = GapInstance(("a", "b"), cardinality(("a", "b")), {"a": 0.3, "b": 0.8})
        scheme = marginal_scheme(inst.f, inst.ground)
        assert verify_gap_bound(inst, 1.0, 1.0, scheme)

    def test_missing_certificate(self):
        with pytest.raises(UncertifiedScheme):
            verify_gap_bound(gap2_instance(), 1.0, 1.0, None)

    def test_weak_certificate_rejected(self):
        report = check_scheme(
            marginal_scheme(cardinality(("a", "b")), ("a", "b")),
            cardinality(("a", "b")), ("a", "b"))
        # claiming tighter factors than measured must fail
        weak = type(report)(eta_hat=2.0, beta_hat=1.0, cross_monotone=True)
        with pytest.raises(UncertifiedScheme):
            verify_gap_bound(gap2_instance(), 1.0, 1.0, weak)

    def test_uncertified_scheme_rejected(self):
        inst = gap2_instance()
        scheme = marginal_scheme(inst.f, inst.ground)
        uncertified = OrderedCostShareScheme(chi=scheme.chi, eta=1.0, beta=1.0)
        with pytest.raises(UncertifiedScheme, match="not certified"):
            verify_gap_bound(inst, 1.0, 1.0, uncertified)

    @pytest.mark.parametrize("eta, beta", [(2.0, 1.0), (1.0, 2.0)])
    def test_scheme_with_weaker_factors_rejected(self, eta, beta):
        inst = gap2_instance()
        scheme = marginal_scheme(inst.f, inst.ground)
        weaker = OrderedCostShareScheme(chi=scheme.chi, eta=eta, beta=beta,
                                        certified=True)
        with pytest.raises(UncertifiedScheme, match="weaker factors"):
            verify_gap_bound(inst, 1.0, 1.0, weaker)

    def test_unrecognized_certificate_rejected(self):
        with pytest.raises(UncertifiedScheme, match="unrecognized certificate"):
            verify_gap_bound(gap2_instance(), 1.0, 1.0, {"eta": 1.0, "beta": 1.0})

    def test_k_partition_extremality(self):
        # Uniform marginals 1/K whose attaining distribution is partition
        # shaped: the worst case equals the average block value.
        inst = gap2_instance()  # K = 2, optimal alpha is {a}, {b}
        worst, dist = worst_case_expectation(inst)
        support = list(dist)
        disjoint = all(not (s & t) for s in support for t in support if s is not t)
        assert disjoint
        assert worst == pytest.approx(
            sum(inst.f(s) for s in support) / len(support), abs=1e-8)

    def test_k_partition_extremality_on_random_instances(self):
        # Same probe over random submodular costs with marginals 1/K: when
        # the LP lands on a partition-shaped vertex, the value must match
        # the uniform block average.
        seen = 0
        for seed in range(30):
            K = 2 + seed % 3
            base = random_gap_instance(4, seed + 4000)
            inst = GapInstance(base.ground, base.f,
                               {g: 1.0 / K for g in base.ground})
            worst, dist = worst_case_expectation(inst)
            support = [s for s in dist if s]
            disjoint = all(not (s & t) for s in support
                           for t in support if s is not t)
            weights_uniform = all(abs(p - 1.0 / K) < 1e-8
                                  for s, p in dist.items() if s)
            if disjoint and weights_uniform:
                seen += 1
                assert worst == pytest.approx(
                    sum(inst.f(s) for s in support) / K, abs=1e-8)
        assert seen >= 5  # the probe must actually fire

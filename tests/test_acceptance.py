"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance N] PASS/FAIL` line (run pytest with -s to
watch them).  Violations are collected and asserted at the end of each
criterion so the line is printed even on failure.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import criterion_line, vertex_oracle_lp
from stocomb.boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    evaluate_policy,
    exact_two_stage_opt,
)
from stocomb.cli import main as cli_main
from stocomb.fixtures import edge1
from stocomb.gap import (
    GapInstance,
    SplitMap,
    check_split_invariants,
    correlation_gap,
    split,
    split_scheme,
    verify_gap_bound,
)
from stocomb.generate import (
    random_explicit_distribution,
    random_gap_instance,
    random_marginals,
    random_problem,
    random_stochastic_lp,
)
from stocomb.io import load_stochastic_lp, read_json
from stocomb.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from stocomb.model import IndependentBernoulli
from stocomb.rng import stream
from stocomb.saa import (
    build_sample_average,
    h_exact,
    minimize,
    solve_deterministic_equivalent,
    subgradient_at,
)
from stocomb.setfun import E_RATIO
from stocomb.sharing import (
    check_scheme,
    equal_split_shares,
    marginal_scheme,
    measure_strictness,
    measure_unistrictness,
)
from stocomb.solvers import algorithm_for, empirical_alpha

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"

KINDS = ("set_cover", "vertex_cover", "steiner", "ufl")


def _sizes(kind):
    # |V| <= 4 and |X| <= 5 for every kind (facility location counts both
    # the facility and its assignment edges as elements).
    if kind == "ufl":
        return 3, 1
    if kind == "vertex_cover":
        return 4, 4
    return 4, 5


def test_criterion_01_boost_and_sample_guarantee():
    start = time.perf_counter()
    violations = []

    problem, dist = edge1(q=0.5, sigma=2.0)
    alg = algorithm_for(problem)
    builder = BoostPolicyBuilder(problem, alg)
    ev = evaluate_policy(problem, builder, dist, sigma=2.0, mode="exact")
    optimum = exact_two_stage_opt(problem, dist, 2.0)
    if abs(ev.expected_cost - 1.0) > 1e-12:
        violations.append(f"EDGE1 expected cost {ev.expected_cost} != 1.0")
    if abs(optimum.value - 1.0) > 1e-12:
        violations.append(f"EDGE1 optimum {optimum.value} != 1.0")
    alpha = empirical_alpha(problem, alg)
    beta = measure_strictness(equal_split_shares(problem), alg, problem)
    if ev.expected_cost / optimum.value > alpha + beta + 1e-9:
        violations.append("EDGE1 ratio exceeds alpha + beta")

    for seed in range(50):
        kind = KINDS[seed % 4]
        sigma = float([1, 2, 3][seed % 3])
        problem = random_problem(kind, *_sizes(kind), seed=seed, sigma=sigma)
        dist = random_explicit_distribution(problem.clients, seed)
        alg = algorithm_for(problem)
        alpha = empirical_alpha(problem, alg)
        beta = measure_strictness(equal_split_shares(problem), alg, problem)
        builder = BoostPolicyBuilder(problem, alg)
        ev = evaluate_policy(problem, builder, dist, sigma=sigma, mode="exact")
        optimum = exact_two_stage_opt(problem, dist, sigma)
        if ev.expected_cost > (alpha + beta) * optimum.value + 1e-9:
            violations.append(
                f"seed {seed} ({kind}): {ev.expected_cost} > "
                f"({alpha} + {beta}) * {optimum.value}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s over the 60s budget")
    criterion_line(1, "union-of-samples policy within (alpha+beta) of optimum",
                   not violations)
    assert not violations, violations


def test_criterion_02_ind_boost_guarantee():
    start = time.perf_counter()
    violations = []
    for seed in range(50):
        kind = KINDS[seed % 4]
        sigma = float([1, 2, 3][seed % 3])
        problem = random_problem(kind, *_sizes(kind), seed=seed, sigma=sigma)
        dist = random_marginals(problem.clients, seed)
        alg = algorithm_for(problem)
        alpha = empirical_alpha(problem, alg)
        beta = measure_unistrictness(equal_split_shares(problem), alg, problem)
        builder = IndBoostPolicyBuilder(problem, alg, dist.marginals)
        ev = evaluate_policy(problem, builder, dist, sigma=sigma, mode="exact")
        optimum = exact_two_stage_opt(problem, dist, sigma)
        if ev.expected_cost > (alpha + beta) * optimum.value + 1e-9:
            violations.append(
                f"seed {seed} ({kind}): {ev.expected_cost} > "
                f"({alpha} + {beta}) * {optimum.value}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s over the 60s budget")
    criterion_line(2, "independent boosting within (alpha+beta) of optimum",
                   not violations)
    assert not violations, violations


def test_criterion_03_sampling_process_equivalence():
    violations = []
    for seed in range(10):
        clients = tuple(f"c{i}" for i in range(3))
        dist = random_explicit_distribution(clients, seed)
        support = list(dist.outcomes)
        for rounds in (1, 2, 3):
            direct: dict = {}
            for combo in itertools.product(support, repeat=rounds):
                union = frozenset().union(*(s for s, _ in combo))
                p = math.prod(q for _, q in combo)
                for realized, q in support:
                    key = (union, realized)
                    direct[key] = direct.get(key, 0.0) + p * q
            holdout: dict = {}
            k = rounds + 1
            for combo in itertools.product(support, repeat=k):
                p = math.prod(q for _, q in combo)
                for t in range(k):
                    realized = combo[t][0]
                    union = frozenset().union(
                        *(combo[i][0] for i in range(k) if i != t))
                    key = (union, realized)
                    holdout[key] = holdout.get(key, 0.0) + p / k
            for key in set(direct) | set(holdout):
                gap = abs(direct.get(key, 0.0) - holdout.get(key, 0.0))
                if gap > 1e-12:
                    violations.append(f"seed {seed} rounds {rounds}: "
                                      f"table gap {gap}")
    criterion_line(3, "draw-union law matches the hold-one-out construction",
                   not violations)
    assert not violations, violations


def test_criterion_04_dual_formula_subgradients():
    violations = []
    for seed in range(20):
        m = 1 + seed % 3
        inst = random_stochastic_lp(m, 1 + seed % 4, seed,
                                    with_aux=seed % 2 == 0)
        lam = inst.price_ratio()
        wnorm = float(np.linalg.norm(inst.first_stage_cost))
        rng = stream(seed, "acc4")
        x = rng.uniform(0, 1, m)
        d = subgradient_at(inst, x)
        if np.linalg.norm(d) > lam * wnorm + 1e-9:
            violations.append(f"seed {seed}: norm bound violated")
        hx = h_exact(inst, x)
        for _ in range(100):
            y = rng.uniform(0, 1, m)
            if h_exact(inst, y) - hx < d @ (y - x) - 1e-7:
                violations.append(f"seed {seed}: inequality violated")
                break
    criterion_line(4, "recourse duals give valid bounded subgradients",
                   not violations)
    assert not violations, violations


def test_criterion_05_sample_average_guarantee():
    start = time.perf_counter()
    violations = []
    instances = [load_stochastic_lp(read_json(INSTANCES / "saa_ufl.json"))]
    for k, (m, ns, aux) in enumerate(
            ((1, 2, False), (2, 3, True), (3, 4, True), (3, 3, False))):
        instances.append(random_stochastic_lp(m, ns, seed=100 + k, with_aux=aux))
    for idx, inst in enumerate(instances):
        opt, _ = solve_deterministic_equivalent(inst)
        hits = 0
        for trial in range(30):
            sampled = build_sample_average(inst, 2000,
                                           stream(trial, f"saa-acc-{idx}"))
            result = minimize(sampled, tolerance=1e-6)
            if h_exact(inst, result.x) <= 1.1 * opt + 0.05 * opt:
                hits += 1
        if hits < 28:
            violations.append(f"instance {idx}: only {hits}/30 trials inside")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.1f}s over the 5-minute budget")
    criterion_line(5, "sample-average minimizer lands within (1.1, +5%) of optimum",
                   not violations)
    assert not violations, violations


def test_criterion_06_correlation_gap_bound():
    start = time.perf_counter()
    violations = []

    from stocomb.setfun import weighted_rank

    gap2 = GapInstance(("a", "b"), weighted_rank({"a": 1.0, "b": 1.0}, 1.0),
                       {"a": 0.5, "b": 0.5})
    report = correlation_gap(gap2)
    for name, got, want in (("worst case", report.worst_case, 1.0),
                            ("independent", report.independent, 0.75),
                            ("ratio", report.kappa, 4.0 / 3.0)):
        if abs(got - want) > 1e-9:
            violations.append(f"GAP2 {name}: {got} != {want}")
    if report.kappa > E_RATIO + 1e-9:
        violations.append("GAP2 ratio above e/(e-1)")

    for seed in range(200):
        n = 2 + seed % 7
        inst = random_gap_instance(n, seed)
        scheme = marginal_scheme(inst.f, inst.ground)  # certifies the function
        if not verify_gap_bound(inst, 1.0, 1.0, scheme):
            violations.append(f"seed {seed}: bound violated")
    elapsed = time.perf_counter() - start
    if elapsed >= 180.0:
        violations.append(f"runtime {elapsed:.1f}s over the 3-minute budget")
    criterion_line(6, "correlation gap within e/(e-1) on certified instances",
                   not violations)
    assert not violations, violations


def test_criterion_07_split_invariants():
    violations = []
    for seed in range(100):
        rng = stream(seed, "acc7")
        inst = random_gap_instance(2 + seed % 4, seed + 1000)
        copies = {g: int(rng.integers(1, 4)) for g in inst.ground}
        while sum(copies.values()) > 12:
            copies = {g: max(1, c - 1) for g, c in copies.items()}
        report = check_split_invariants(inst, SplitMap(copies))
        if not report.monotone:
            violations.append(f"seed {seed}: split cost not monotone")
        if abs(report.original_worst - report.split_worst) > 1e-7:
            violations.append(f"seed {seed}: worst case moved by "
                              f"{abs(report.original_worst - report.split_worst)}")
        if report.split_independent > report.original_independent + 1e-9:
            violations.append(f"seed {seed}: independent expectation grew")
    criterion_line(7, "splits preserve the worst case and shrink the "
                      "independent side", not violations)
    assert not violations, violations


def test_criterion_08_scheme_transfer():
    violations = []
    for seed in range(10):
        inst = random_gap_instance(2, seed + 2000)
        plan = ((3, 2), (2, 2), (2, 3), (1, 2))[seed % 4]
        copies = {g: plan[k] for k, g in enumerate(inst.ground)}
        split_map = SplitMap(copies)
        new = split(inst, split_map)
        base = marginal_scheme(inst.f, inst.ground)
        transferred = split_scheme(base, split_map)

        # Budget balance and summability hold with equality through the
        # prefix-sum identity, for every subset and ordering.
        for r in range(1, len(new.ground) + 1):
            for subset in itertools.combinations(new.ground, r):
                fval = new.f(frozenset(subset))
                for order in itertools.permutations(subset):
                    prefix = 0.0
                    for l in range(1, len(order) + 1):
                        prefix += transferred(order[l - 1],
                                              frozenset(order[:l]), order[:l])
                    total = sum(transferred(c, frozenset(order), order)
                                for c in order)
                    reps = []
                    for c in order:
                        if c[0] not in reps:
                            reps.append(c[0])
                    base_prefix = sum(
                        base.chi(reps[l - 1], frozenset(reps[:l]),
                                 tuple(reps[:l]))
                        for l in range(1, len(reps) + 1))
                    if abs(prefix - base_prefix) > 1e-12:
                        violations.append(f"seed {seed}: prefix identity broke")
                    if abs(total - fval) > 1e-9:
                        violations.append(f"seed {seed}: budget balance broke")

        # Partial-prefix cross-monotonicity over block-respecting orders.
        kmax = max(copies.values())
        block_of = {c: c[1] for c in new.ground}
        members = {b: [c for c in new.ground if c[1] == b]
                   for b in range(1, kmax + 1)}
        pools = [list(itertools.permutations(members[b]))
                 for b in range(kmax, 0, -1)]
        universe = [tuple(itertools.chain.from_iterable(combo))
                    for combo in itertools.product(*pools)]

        def partial_prefix(S, T, _block_of=block_of, _kmax=kmax):
            return any(
                all(_block_of[c] >= k for c in S)
                and all(_block_of[c] <= k for c in T - S)
                for k in range(1, _kmax + 1))

        rep = check_scheme(transferred, new.f, new.ground,
                           order_universe=universe,
                           cross_pair_filter=partial_prefix)
        if not rep.cross_monotone:
            violations.append(f"seed {seed}: cross-monotonicity broke "
                              f"({rep.witness})")
    criterion_line(8, "transferred schemes stay balanced, summable, and "
                      "prefix cross-monotone", not violations)
    assert not violations, violations


def test_criterion_09_lp_soundness():
    violations = []
    rng = np.random.default_rng(2024)
    optimal_seen = 0
    for trial in range(500):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = np.round(rng.uniform(-1, 2, (m, n)), 3)
        b = np.round(rng.uniform(-1, 2, m), 3)
        c = np.round(rng.uniform(0.05, 2, n), 3)
        res = solve_lp(LinearProgram(c, A, b))
        feasible, oracle = vertex_oracle_lp(c, A, b)
        if not feasible:
            if res.status != INFEASIBLE:
                violations.append(f"trial {trial}: phantom solution")
            continue
        if res.status != OPTIMAL:
            violations.append(f"trial {trial}: missed a feasible optimum")
            continue
        optimal_seen += 1
        scale = 1e-7 * (1 + abs(res.value))
        if abs(res.value - oracle) > 1e-7:
            violations.append(f"trial {trial}: value off oracle by "
                              f"{abs(res.value - oracle)}")
        if abs(c @ res.primal - b @ res.duals) > scale:
            violations.append(f"trial {trial}: strong duality violated")
        slack = A @ res.primal - b
        if (res.duals < -1e-9).any() or (res.duals * slack > scale).any():
            violations.append(f"trial {trial}: complementary slackness violated")
    if optimal_seen < 250:
        violations.append(f"only {optimal_seen} optimal instances generated")
    criterion_line(9, "LP duality and vertex-oracle agreement on 500 LPs",
                   not violations)
    assert not violations, violations


def test_criterion_10_reproducible_reports(tmp_path):
    violations = []
    commands = [
        ["run-boost", "--instance", str(INSTANCES / "edge1.json"),
         "--seed", "42"],
        ["run-boost", "--instance", str(INSTANCES / "edge1.json"),
         "--seed", "42", "--mode", "monte_carlo", "--runs", "3000"],
        ["run-indboost", "--instance", str(INSTANCES / "edge1_independent.json"),
         "--seed", "7"],
        ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
         "--samples", "800", "--seed", "5"],
        ["gen", "--kind", "vertex_cover", "--clients", "4", "--elements", "4",
         "--seed", "31"],
    ]
    for idx, argv in enumerate(commands):
        a = tmp_path / f"{idx}_a.json"
        b = tmp_path / f"{idx}_b.json"
        if cli_main(argv + ["--output", str(a)]) != 0:
            violations.append(f"{argv[0]} run 1 failed")
            continue
        if cli_main(argv + ["--output", str(b)]) != 0:
            violations.append(f"{argv[0]} run 2 failed")
            continue
        if a.read_bytes() != b.read_bytes():
            violations.append(f"{argv[0]} reports differ between runs")
    criterion_line(10, "seeded reruns produce byte-identical reports",
                   not violations)
    assert not violations, violations

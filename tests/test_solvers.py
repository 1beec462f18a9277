"""Deterministic solvers: fixture values, feasibility, and empirical factors."""

import itertools

import numpy as np
import pytest

from conftest import brute_force_min_cost, connected, powerset
from stocomb.errors import Disconnected, Infeasible
from stocomb.fixtures import cov3, tri3
from stocomb.generate import random_problem
from stocomb.model import exact_opt
from stocomb.problems import steiner_problem, ufl_problem
from stocomb.solvers import (
    algorithm_for,
    augment,
    empirical_alpha,
    set_cover_solve,
    steiner_solve,
    ufl_solve,
    vertex_cover_solve,
)

KINDS = ("set_cover", "vertex_cover", "steiner", "ufl")


def _sizes(kind):
    if kind == "ufl":
        return 3, 1
    if kind == "vertex_cover":
        return 4, 4
    return 4, 5


class TestSteiner:
    def test_nothing_to_connect(self, tri3_problem):
        assert steiner_solve(tri3_problem, frozenset()).cost == 0.0
        # the root alone needs no edges
        assert steiner_solve(tri3_problem, frozenset({"1"})).cost == 0.0

    def test_tri3_terminal_pair(self, tri3_problem):
        sol = steiner_solve(tri3_problem, frozenset({"1", "3"}))
        assert sol.cost == pytest.approx(2.0)
        assert exact_opt(tri3_problem, frozenset({"1", "3"})).cost == pytest.approx(2.0)

    def test_tri3_spanning_tree(self, tri3_problem):
        # Brute-force MST over the three spanning trees of the triangle.
        edges = tri3_problem.payload["edges"]
        costs = tri3_problem.first_stage_cost
        best = min(sum(costs[e] for e in tree)
                   for tree in itertools.combinations(edges, 2)
                   if connected([edges[e] for e in tree], set(tri3_problem.clients)))
        assert best == 2.0
        assert steiner_solve(tri3_problem, frozenset(tri3_problem.clients)).cost == best

    def test_disconnected_terminal(self):
        p = steiner_problem(("a", "b", "c"), {"e": ("a", "b")}, {"e": 1.0})
        with pytest.raises(Disconnected):
            steiner_solve(p, frozenset({"a", "c"}))

    def test_cycle_in_path_union_is_cut_and_pruned(self):
        # The shortest paths v0->v6 and v0->v9 close the cycle
        # v2-v3-v7-v9-v4: the MST step drops e11, which leaves v7 and then
        # v3 as non-terminal leaves, so pruning removes e7 and then e3.
        ends = [("v0", "v1", 0), ("v1", "v2", 2), ("v1", "v5", 2), ("v2", "v3", 0),
                ("v2", "v4", 1), ("v2", "v5", 0), ("v2", "v7", 2), ("v3", "v7", 0),
                ("v4", "v9", 0), ("v5", "v6", 2), ("v7", "v8", 2), ("v7", "v9", 1)]
        p = steiner_problem([f"v{k}" for k in range(10)],
                            {f"e{k}": (u, v) for k, (u, v, _) in enumerate(ends)},
                            {f"e{k}": float(c) for k, (_, _, c) in enumerate(ends)},
                            root="v0")
        sol = steiner_solve(p, frozenset({"v0", "v6", "v9"}))
        assert sol.chosen == {"e0", "e1", "e4", "e5", "e8", "e9"}
        assert sol.cost == 5.0

    def test_output_is_a_tree(self):
        for seed in range(30):
            p = random_problem("steiner", 5, 7, seed)
            edges = p.payload["edges"]
            S = frozenset(list(p.clients)[: 1 + seed % 4])
            sol = steiner_solve(p, S)
            assert p.feasibility(sol.chosen, S)
            # tree = connected with |E| = |touched vertices| - 1
            touched = {v for e in sol.chosen for v in edges[e]}
            if touched:
                assert len(sol.chosen) == len(touched) - 1


class TestUfl:
    def test_single_facility(self):
        p = ufl_problem(clients=("c1", "c2"), facilities=("f",),
                        open_costs={"f": 1.0},
                        assignments={"a1": ("f", "c1"), "a2": ("f", "c2")},
                        assign_costs={"a1": 1.0, "a2": 1.0})
        sol = ufl_solve(p, frozenset({"c1", "c2"}))
        assert sol.cost == pytest.approx(3.0)
        assert sol.chosen == frozenset({"f", "a1", "a2"})

    def test_empty_clients(self):
        p = random_problem("ufl", 2, 2, 0)
        assert ufl_solve(p, frozenset()).cost == 0.0

    def test_greedy_within_factor_three_of_brute_force(self):
        # 100 seeded 2x2 instances against an independent facility-subset oracle.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            opens = {f"f{i}": float(np.round(rng.uniform(0.1, 2.0), 3))
                     for i in range(2)}
            dist = {(f"f{i}", f"c{j}"): float(np.round(rng.uniform(0.1, 2.0), 3))
                    for i in range(2) for j in range(2)}
            p = ufl_problem(
                clients=("c0", "c1"), facilities=("f0", "f1"),
                open_costs=opens,
                assignments={f"a{i}{j}": (f"f{i}", f"c{j}")
                             for i in range(2) for j in range(2)},
                assign_costs={f"a{i}{j}": dist[(f"f{i}", f"c{j}")]
                              for i in range(2) for j in range(2)})
            S = frozenset({"c0", "c1"})
            got = ufl_solve(p, S)
            assert p.feasibility(got.chosen, S)
            best = min(
                sum(opens[f] for f in sub)
                + sum(min(dist[(f, c)] for f in sub) for c in ("c0", "c1"))
                for k in (1, 2)
                for sub in itertools.combinations(("f0", "f1"), k))
            assert got.cost <= 3.0 * best + 1e-9

    def test_unassignable_client(self):
        p = ufl_problem(clients=("c0", "c1"), facilities=("f",),
                        open_costs={"f": 1.0},
                        assignments={"a": ("f", "c0")}, assign_costs={"a": 0.5})
        with pytest.raises(Infeasible):
            ufl_solve(p, frozenset({"c1"}))


class TestCovers:
    def test_cov3_brute_force(self, cov3_problem):
        sets = cov3_problem.payload["sets"]
        expected = brute_force_min_cost(
            cov3_problem.elements, cov3_problem.first_stage_cost,
            lambda F: set(cov3_problem.clients) <= set().union(*map(sets.get, F))
            if F else not cov3_problem.clients)
        assert expected == 2.0
        assert set_cover_solve(cov3_problem, frozenset(cov3_problem.clients)).cost == expected

    def test_empty_clients(self, cov3_problem):
        assert set_cover_solve(cov3_problem, frozenset()).cost == 0.0

    def test_uncoverable_raises(self, cov3_problem):
        from stocomb.problems import set_cover_problem

        p = set_cover_problem(("1", "2"), {"s": ("1",)}, {"s": 1.0})
        with pytest.raises(Infeasible):
            set_cover_solve(p, frozenset({"2"}))

    def test_single_edge_vertex_cover(self):
        from stocomb.problems import vertex_cover_problem

        p = vertex_cover_problem(("u", "v"), {"g": ("u", "v")},
                                 {"u": 1.0, "v": 1.0})
        sol = vertex_cover_solve(p, frozenset({"g"}))
        assert sol.cost == pytest.approx(1.0)
        assert len(sol.chosen & {"u", "v"}) >= 1


class TestAugment:
    def test_no_new_clients_is_free(self):
        for kind in KINDS:
            p = random_problem(kind, *_sizes(kind), seed=3)
            alg = algorithm_for(p)
            S = frozenset(p.clients[:2])
            base = alg.solve(p, S).chosen
            extra = augment(alg, p, base, S)
            assert extra.cost == pytest.approx(0.0)

    def test_tri3_augment(self, tri3_problem):
        # DERIVED: brute force with the base edge priced at zero.
        edges = tri3_problem.payload["edges"]
        costs = dict(tri3_problem.first_stage_cost)
        costs["e12"] = 0.0
        expected = brute_force_min_cost(
            tri3_problem.elements, costs,
            lambda F: connected([edges[e] for e in F], {"1", "3"}))
        assert expected == 1.0
        alg = algorithm_for(tri3_problem)
        extra = augment(alg, tri3_problem, frozenset({"e12"}), frozenset({"1", "3"}))
        assert extra.cost == pytest.approx(expected)
        assert extra.chosen == frozenset({"e23"})

    def test_cov3_augment(self, cov3_problem):
        alg = algorithm_for(cov3_problem)
        extra = augment(alg, cov3_problem, frozenset({"sA"}),
                        frozenset(cov3_problem.clients))
        assert extra.cost == pytest.approx(1.0)
        assert extra.chosen in (frozenset({"sB"}), frozenset({"sC"}))


class TestFeasibilityAndFactors:
    def test_random_instances_feasible_and_within_alpha(self):
        # 200 random instances across the four kinds: every solver output is
        # feasible and within its claimed factor of the exhaustive optimum.
        count = 0
        for seed in range(50):
            for kind in KINDS:
                p = random_problem(kind, *_sizes(kind), seed=seed)
                alg = algorithm_for(p)
                for S in powerset(p.clients):
                    sol = alg.solve(p, S)
                    assert p.feasibility(sol.chosen, S), (kind, seed, S)
                alpha_hat = empirical_alpha(p, alg)
                assert alpha_hat <= alg.alpha + 1e-9, (kind, seed, alpha_hat)
                count += 1
        assert count == 200

    def test_augment_output_composes(self):
        for seed in range(10):
            for kind in KINDS:
                p = random_problem(kind, *_sizes(kind), seed=seed)
                alg = algorithm_for(p)
                half = frozenset(p.clients[: len(p.clients) // 2])
                base = alg.solve(p, half).chosen
                full = frozenset(p.clients)
                extra = augment(alg, p, base, full)
                assert p.feasibility(base | extra.chosen, full)

"""Span tracing for the traced run, from outside the program.

``Tracer.install`` replaces each public function at the module (or class)
attribute its callers resolve with a wrapper that records a span, and wraps
the callables that loaders and factories return: feasibility oracles from
``cli.load_instance``, set functions from ``cli.load_gap_instance``, cost
shares from ``cli.equal_split_shares`` and solver callables from
``cli.algorithm_for``.  ``uninstall`` restores every attribute.  Nothing
under ``src/`` changes.

A span is (id, name, start, end, parent id, job id); the layer is the name
up to its first dot.  Spans are kept in memory, up to ``MAX_SPANS`` of them,
and written when the run ends; per-name call counts, inclusive and self
times are aggregated for every span, kept or not.  Self time is a span's
duration minus the time its child spans cover.  A layer's busy time is the
inclusive time of its outermost spans (spans whose parent is in another
layer).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

MAX_SPANS = 50_000

# Layers whose summed self time is reported as ``<layer>.self_s``.
SELF_LAYERS = ("lp", "saa", "model", "problems", "solvers", "sharing",
               "boosting", "gap", "setfun")


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.busy = defaultdict(float)
        self.counts = Counter()
        self.shapes = Counter()
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._job_duals = set()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs once the span is closed and returns the (possibly wrapped)
        result handed to the caller."""
        layer = name.split(".", 1)[0]
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id, layer]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                close(name, layer, frame, start, end, parent)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def _close(self, name, layer, frame, start, end, parent):
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[0]
        parent_id = None
        if parent is not None:
            parent[0] += duration
            parent_id = parent[1]
        if parent is None or parent[2] != layer:
            self.busy[layer] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], name, start, end, parent_id, self.job))
        else:
            self.dropped += 1

    def start_job(self, job: int):
        self.job = job
        self._job_duals = set()

    def end_job(self):
        self.counts["saa.distinct_duals"] += len(self._job_duals)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self):
        from stocomb import boosting, cli, gap, lp, model, saa, sharing

        patch = self._patch
        patch(lp, "simplex_kernel", "lp.kernel", self._after_kernel)
        patch(saa, "solve_prepared", "lp.solve_prepared", self._after_recourse)
        patch(saa, "solve_lp", "lp.solve_lp")
        patch(gap, "solve_lp", "lp.solve_lp")

        patch(cli, "build_sample_average", "saa.sample")
        patch(cli, "minimize", "saa.minimize", self._after_minimize)
        patch(cli, "h_exact", "saa.h_exact")
        patch(cli, "solve_deterministic_equivalent", "saa.de")

        for owner in (model, boosting, sharing, cli):
            patch(owner, "exact_opt", "model.exact_opt", self._after_exact_opt)
        patch(cli, "check_subadditive", "model.sweep")
        patch(cli, "check_monotone_feasibility", "model.sweep")

        patch(cli, "algorithm_for", "solvers.algorithm_for", self._after_algorithm)
        patch(cli, "empirical_alpha", "solvers.empirical_alpha")

        patch(cli, "equal_split_shares", "sharing.shares", self._after_shares)
        patch(cli, "check_fairness", "sharing.check_fairness")

        patch(cli, "boost_and_sample", "boosting.sample")
        patch(cli, "ind_boost", "boosting.sample")
        patch(cli, "evaluate_policy", "boosting.evaluate")
        patch(cli, "exact_two_stage_opt", "boosting.two_stage_opt")
        patch(boosting.BoostPolicyBuilder, "policy", "boosting.policy")
        patch(boosting.IndBoostPolicyBuilder, "policy", "boosting.policy")

        patch(cli, "correlation_gap", "gap.correlation_gap")
        patch(gap, "worst_case_expectation", "gap.worst_case", self._after_worst_case)
        patch(gap, "independent_expectation", "gap.independent")
        patch(gap, "table", "setfun.table")
        patch(gap, "bernoulli_weights", "kernels.bernoulli")

        patch(cli, "read_json", "io.load")
        patch(cli, "load_instance", "io.load", self._after_load_instance)
        patch(cli, "load_stochastic_lp", "io.load")
        patch(cli, "load_gap_instance", "io.load", self._after_load_gap)
        patch(cli, "write_json", "io.write")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters at the layer boundaries -----------------------------------------

    def _after_kernel(self, args, kwargs, result):
        m, n = args[0].shape
        status, pivots = result[0], result[4]
        self.counts["lp.pivots"] += pivots
        self.counts["lp.pivot_cells"] += pivots * m * (n + 2 * m + 1)
        self.counts["lp.numerical_failures"] += status == 3
        self.shapes[(m, n)] += 1
        return result

    def _after_recourse(self, args, kwargs, result):
        self.counts["saa.recourse_solves"] += 1
        duals = np.round(result[2], 9) + 0.0  # + 0.0 folds -0.0 into 0.0
        self._job_duals.add((duals.shape, duals.tobytes()))
        return result

    def _after_minimize(self, args, kwargs, result):
        self.counts["saa.iterations"] += result.iterations
        self.counts["saa.converged"] += bool(result.converged)
        return result

    def _after_exact_opt(self, args, kwargs, result):
        problem = args[0]
        base = kwargs.get("base", args[2] if len(args) > 2 else frozenset())
        free = sum(1 for e in problem.elements if e not in base)
        self.counts["model.subsets"] += 1 << free
        return result

    def _after_worst_case(self, args, kwargs, result):
        self.counts["gap.lp_columns"] += 1 << len(args[0].ground)
        return result

    def _after_feasibility(self, args, kwargs, result):
        self.counts["problems.feasible"] += bool(result)
        return result

    def _after_load_instance(self, args, kwargs, result):
        problem, dist = result
        feasibility = self.wrap("problems.feasibility", problem.feasibility,
                                self._after_feasibility)
        return replace(problem, feasibility=feasibility), dist

    def _after_load_gap(self, args, kwargs, result):
        return replace(result, f=self.wrap("setfun.f", result.f))

    def _after_algorithm(self, args, kwargs, result):
        return replace(result, solve=self.wrap("solvers.solve", result.solve),
                       augment=self.wrap("solvers.augment", result.augment))

    def _after_shares(self, args, kwargs, result):
        return self.wrap("sharing.xi", result)

    # -- results -----------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum((t for name, t in self.self_time.items()
                    if name.split(".", 1)[0] == layer), 0.0)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, calls, total, own = self.counts, self.calls, self.total, self.self_time

        def frac(num, den):
            return num / den if den else 0.0

        solves = calls["lp.kernel"]
        recourse = c["saa.recourse_solves"]
        out = {
            "lp.solves": (solves, "count"),
            "lp.pivots": (c["lp.pivots"], "count"),
            "lp.pivots_per_solve": (frac(c["lp.pivots"], solves), "pivots/solve"),
            "lp.busy_s": (self.busy["lp"], "s"),
            "lp.pivot_cells": (c["lp.pivot_cells"], "count"),
            "lp.numerical_failures": (c["lp.numerical_failures"], "count"),
            "saa.minimize_s": (own["saa.minimize"], "s"),
            "saa.iterations": (c["saa.iterations"], "count"),
            "saa.recourse_solves": (recourse, "count"),
            "saa.distinct_duals_frac": (frac(c["saa.distinct_duals"], recourse), "ratio"),
            "saa.converged_frac": (frac(c["saa.converged"], calls["saa.minimize"]), "ratio"),
            "saa.de_s": (total["saa.de"], "s"),
            "model.exact_opt_calls": (calls["model.exact_opt"], "count"),
            "model.subsets": (c["model.subsets"], "count"),
            "model.exact_opt_s": (own["model.exact_opt"], "s"),
            "model.sweep_s": (total["model.sweep"], "s"),
            "problems.feasibility_calls": (calls["problems.feasibility"], "count"),
            "problems.feasible_frac": (frac(c["problems.feasible"],
                                            calls["problems.feasibility"]), "ratio"),
            "problems.feasibility_s": (total["problems.feasibility"], "s"),
            "solvers.solve_calls": (calls["solvers.solve"], "count"),
            "solvers.augment_calls": (calls["solvers.augment"], "count"),
            "solvers.busy_s": (self.busy["solvers"], "s"),
            "sharing.xi_calls": (calls["sharing.xi"], "count"),
            "sharing.busy_s": (self.busy["sharing"], "s"),
            "boosting.policies_built": (calls["boosting.policy"], "count"),
            "boosting.evaluate_s": (own["boosting.evaluate"], "s"),
            "boosting.two_stage_opt_s": (own["boosting.two_stage_opt"], "s"),
            "gap.worst_case_s": (own["gap.worst_case"], "s"),
            "gap.independent_s": (total["gap.independent"], "s"),
            "gap.lp_columns": (c["gap.lp_columns"], "count"),
            "setfun.f_calls": (calls["setfun.f"], "count"),
            "setfun.table_s": (total["setfun.table"], "s"),
            "kernels.bernoulli_calls": (calls["kernels.bernoulli"], "count"),
            "kernels.bernoulli_s": (total["kernels.bernoulli"], "s"),
            "io.load_s": (total["io.load"], "s"),
            "io.write_s": (total["io.write"], "s"),
            "cli.self_s": (own["cli.main"], "s"),
        }
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        return out

    def shape_histogram(self) -> list:
        """Simplex traffic by constraint-matrix shape, most frequent first.

        The kernel's tableau for an m x n matrix is m x (n + 2m + 1)."""
        return [{"rows": m, "cols": n, "tableau_cols": n + 2 * m + 1,
                 "solves": count}
                for (m, n), count in sorted(self.shapes.items(),
                                            key=lambda kv: (-kv[1], kv[0]))]

    def dump(self) -> dict:
        return {
            "spans_fields": ["id", "name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "by_name": {name: {"calls": self.calls[name],
                               "total_s": self.total[name],
                               "self_s": self.self_time[name]}
                        for name in sorted(self.calls)},
            "tableau_shapes": self.shape_histogram(),
        }

"""Batch experiment runner.

Subcommands: ``gen`` (random instances), ``solve-det`` (deterministic
solver), ``run-boost`` / ``run-indboost`` (two-stage policies with exact or
Monte-Carlo evaluation), ``run-saa`` (sample-average pipeline with optional
iteration trace), ``gap`` (correlation-gap report), and ``check`` (property
suites).  Reports are canonical JSON; rerunning a command with the same seed
and inputs reproduces the report byte for byte, so wall-clock time goes to
stderr rather than into the file.  Each ``cmd_*`` returns its report and
exit code; ``main`` stamps the report with ``command``, ``config`` (the
arguments its subparser's ``echo`` default names) and ``artifact_version``,
and writes it.  ``gen`` writes its instance unstamped.

Exit codes: 0 success, 1 a check or bound failed, 2 schema error (an
unreadable input included), 3 enumeration cap exceeded, 4 solver failure
(infeasible, unbounded, numerical, or a degenerate gap instance), 5 an
output exists or cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from io import StringIO
from pathlib import Path

from . import __version__
from .boosting import (
    BoostPolicyBuilder,
    IndBoostPolicyBuilder,
    boost_and_sample,
    evaluate_policy,
    exact_two_stage_opt,
    ind_boost,
)
from .errors import (
    CapExceeded,
    DegenerateInstance,
    Infeasible,
    NumericalFailure,
    SchemaError,
    StocombError,
    Unbounded,
)
from .gap import BOUND_SLACK, correlation_gap
from .generate import (
    random_explicit_distribution,
    random_gap_payload,
    random_marginals,
    random_problem,
)
from .io import (
    canonical_json,
    dump_instance,
    load_gap_instance,
    load_instance,
    load_stochastic_lp,
    read_json,
    write_json,
    write_text,
)
from .model import (
    IndependentBernoulli,
    check_monotone_feasibility,
    check_subadditive,
    exact_opt,
)
from .rng import stream
from .saa import build_sample_average, h_exact, minimize, solve_deterministic_equivalent
from .sharing import check_fairness, equal_split_shares
from .solvers import algorithm_for, empirical_alpha
from .setfun import TABLE_ITEMS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_SOLVER = 4
EXIT_OUTPUT = 5


def _emit(report: dict, args) -> None:
    if args.format == "csv":
        text = _csv_view(report)
        if args.output:
            write_text(args.output, text, overwrite=args.overwrite)
        else:
            sys.stdout.write(text)
        return
    if args.output:
        write_json(args.output, report, overwrite=args.overwrite)
    else:
        sys.stdout.write(canonical_json(report))


def _csv(rows) -> str:
    """CSV text of ``rows``, one line each, a field quoted where it holds a
    comma, a quote or a line break."""
    out = StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _csv_view(report: dict) -> str:
    """Tabular rendering of the report's record table, where one exists."""
    if "records" in report:
        rows = [("scenario", "probability", "recourse_cost")]
        rows += [("|".join(rec["scenario"]), rec["probability"], rec["recourse_cost"])
                 for rec in report["records"]]
    elif "worst_distribution" in report:
        rows = [("subset", "probability")]
        rows += [(subset.replace(",", "|"), p)
                 for subset, p in report["worst_distribution"].items()]
    else:
        rows = [("key", "value")]
        rows += [(key, report[key]) for key in sorted(report)
                 if isinstance(report[key], (int, float, str, bool))]
    return _csv(rows)


def _config_echo(args, fields) -> dict:
    out = {}
    for k in fields:
        v = getattr(args, k)
        if v is None:
            continue
        if k == "instance":
            v = Path(v).name  # repo-relative goldens must not embed paths
        out[k] = v
    return out


def cmd_gen(args) -> tuple:
    if args.kind == "gap":
        if not 1 <= args.clients <= TABLE_ITEMS:
            raise SchemaError(f"gap instances take 1 to {TABLE_ITEMS} items, "
                              f"got {args.clients}")
        payload = random_gap_payload(args.clients, args.seed)
    else:
        if args.kind == "set_cover" and args.clients == 0:
            raise SchemaError("set-cover instances need at least one client")
        problem = random_problem(args.kind, args.clients, args.elements, args.seed)
        if args.distribution == "explicit":
            dist = random_explicit_distribution(problem.clients, args.seed)
        elif args.distribution == "independent":
            dist = random_marginals(problem.clients, args.seed)
        else:
            dist = None
        payload = dump_instance(problem, dist)
    return payload, EXIT_OK


def cmd_solve_det(args) -> tuple:
    problem, _ = load_instance(read_json(args.instance))
    clients = frozenset(problem.clients)
    if args.clients:  # a client is named by str(id), as gap marginals are
        named: dict = {}
        for j in problem.clients:
            named.setdefault(str(j), []).append(j)
        asked = set(args.clients.split(","))
        unknown = sorted(asked - named.keys())
        shared = sorted(name for name in asked - set(unknown) if len(named[name]) > 1)
        if unknown or shared:
            raise SchemaError(f"unknown clients requested: {unknown}" if unknown else
                              f"clients requested by a name two clients share: {shared}")
        clients = frozenset(named[name][0] for name in asked)
    alg = algorithm_for(problem)
    sol = alg.solve(problem, clients)
    report = {
        "kind": problem.kind,
        "served": sorted(map(str, clients)),
        "chosen": sorted(map(str, sol.chosen)),
        "cost": float(sol.cost),
        "feasible": bool(problem.feasibility(sol.chosen, clients)),
    }
    if args.exact:
        opt = exact_opt(problem, clients)
        report["exact_cost"] = float(opt.cost)
        report["ratio"] = float(sol.cost / opt.cost) if opt.cost > 0 else 1.0
    return report, EXIT_OK


def _boost_report(args, dist, builder, seeded_policy) -> dict:
    evaluation = evaluate_policy(builder, dist, args.mode,
                                 stream(args.seed, f"{args.command}-eval"), args.runs)
    support = dist.support()
    records = []
    for realized, p in sorted(support, key=lambda kv: sorted(map(str, kv[0]))):
        patch = seeded_policy.recourse(realized)
        records.append({
            "scenario": sorted(map(str, realized)),
            "probability": float(p),
            "recourse": sorted(map(str, patch)),
            "recourse_cost": float(builder.problem.cost(patch)),
        })
    optimum = exact_two_stage_opt(builder.problem, dist)
    ratio = (evaluation.expected_cost / optimum.value
             if optimum.value > 1e-12 else 1.0)
    report = {
        "seed": args.seed,
        "first_stage": sorted(map(str, seeded_policy.first_stage)),
        "records": records,
        "expected_cost": float(evaluation.expected_cost),
        "optimal_value": float(optimum.value),
        "optimal_first_stage": sorted(map(str, optimum.first_stage)),
        "ratio": float(ratio),
        "mode": evaluation.mode,
    }
    if evaluation.ci_halfwidth is not None:
        report["ci_halfwidth"] = float(evaluation.ci_halfwidth)
    return report


def cmd_run_boost(args) -> tuple:
    problem, dist = load_instance(read_json(args.instance))
    if dist is None:
        raise SchemaError("run-boost needs a distribution in the instance file")
    builder = BoostPolicyBuilder(problem, algorithm_for(problem))
    policy = boost_and_sample(builder, dist, stream(args.seed, "boost-draws"))
    return _boost_report(args, dist, builder, policy), EXIT_OK


def cmd_run_indboost(args) -> tuple:
    problem, dist = load_instance(read_json(args.instance))
    if not isinstance(dist, IndependentBernoulli):
        raise SchemaError("run-indboost needs an independent distribution")
    builder = IndBoostPolicyBuilder(problem, algorithm_for(problem), dist.marginals)
    policy = ind_boost(builder, stream(args.seed, "indboost-draws"))
    return _boost_report(args, dist, builder, policy), EXIT_OK


def cmd_run_saa(args) -> tuple:
    instance = load_stochastic_lp(read_json(args.instance))
    rng = stream(args.seed, "saa-sample")
    sampled = build_sample_average(instance, args.samples, rng)
    result = minimize(sampled, tolerance=args.tolerance)
    true_value = h_exact(instance, result.x)
    opt_value, opt_x = solve_deterministic_equivalent(instance)
    report = {
        "seed": args.seed,
        "empirical_weights": [float(b.probability) for b in sampled.scenarios],
        "solution": [float(v) for v in result.x],
        "sample_average_value": float(result.value),
        "true_value": float(true_value),
        "optimal_value": float(opt_value),
        "optimal_solution": [float(v) for v in opt_x],
        "excess_over_optimum": float(true_value - opt_value),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }
    if args.trace:
        write_text(args.trace, _csv([("iteration", "value", "lower_bound"),
                                     *result.trace]), overwrite=args.overwrite)
    return report, EXIT_OK


def cmd_gap(args) -> tuple:
    inst = load_gap_instance(read_json(args.instance))
    report_data = correlation_gap(inst, eta=args.eta, beta=args.beta)
    satisfied = report_data.kappa <= report_data.bound + BOUND_SLACK
    report = {
        "ground": list(inst.ground),
        "worst_case": float(report_data.worst_case),
        "independent": float(report_data.independent),
        "kappa": float(report_data.kappa),
        "bound": float(report_data.bound),
        "bound_satisfied": bool(satisfied),
    }
    if len(inst.ground) <= 8:
        report["worst_distribution"] = {
            ",".join(sorted(map(str, s))): float(p)
            for s, p in sorted(report_data.worst_distribution.items(),
                               key=lambda kv: ",".join(sorted(map(str, kv[0]))))
        }
    return report, EXIT_OK if satisfied else EXIT_CHECK_FAILED


def cmd_check(args) -> tuple:
    problem, _ = load_instance(read_json(args.instance))
    if args.suite == "solver":
        alg = algorithm_for(problem)
        alpha_hat = empirical_alpha(problem, alg)
        result = {"ok": bool(alpha_hat <= alg.alpha + 1e-9),
                  "claimed_alpha": float(alg.alpha),
                  "empirical_alpha": float(alpha_hat)}
    else:
        if args.suite == "subadditivity":
            rep = check_subadditive(problem)
        elif args.suite == "monotone-feasibility":
            rep = check_monotone_feasibility(problem)
        else:
            rep = check_fairness(equal_split_shares(problem), problem)
        result = {"ok": rep.ok, "failure": rep.failure}
    passed = result["ok"]
    report = {"results": {args.suite: result}, "passed": bool(passed)}
    return report, EXIT_OK if passed else EXIT_CHECK_FAILED


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (exit 2 otherwise)."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _finite_above(bound: float, strict: bool):
    """argparse type: a finite float above ``bound``, or equal to it unless
    ``strict`` (exit 2 otherwise)."""

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < bound or (strict and value == bound):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'above' if strict else 'at least'} {bound}, "
                f"got {value!r}")
        return value

    return number


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stocomb",
        description="Two-stage stochastic combinatorial optimization harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed: bool):
        p.add_argument("--output", help="write the report here (stdout otherwise)")
        p.add_argument("--overwrite", action="store_true",
                       help="allow replacing an existing output file")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report rendering (csv emits the record table)")
        if needs_seed:
            p.add_argument("--seed", type=_at_least(0), required=True,
                           help="seed for every random draw in this run")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", required=True,
                   choices=("steiner", "ufl", "set_cover", "vertex_cover", "gap"))
    p.add_argument("--clients", type=_at_least(0), default=4)
    p.add_argument("--elements", type=_at_least(0), default=5)
    p.add_argument("--distribution",
                   choices=("explicit", "independent", "none"), default="explicit")
    common(p, needs_seed=True)
    p.set_defaults(func=cmd_gen, echo=None)

    p = sub.add_parser("solve-det", help="run the deterministic solver")
    p.add_argument("--instance", required=True)
    p.add_argument("--clients", help="comma-separated client ids (default: all)")
    p.add_argument("--exact", action="store_true",
                   help="also run the exhaustive optimizer and report the ratio")
    common(p, needs_seed=False)
    p.set_defaults(func=cmd_solve_det, echo=("instance", "clients"))

    for name, fn in (("run-boost", cmd_run_boost), ("run-indboost", cmd_run_indboost)):
        p = sub.add_parser(name, help=f"evaluate the {name[4:]} policy")
        p.add_argument("--instance", required=True)
        p.add_argument("--mode", choices=("exact", "monte_carlo"), default="exact")
        p.add_argument("--runs", type=_at_least(2), default=10_000,
                       help="replications in monte_carlo mode (at least 2)")
        common(p, needs_seed=True)
        p.set_defaults(func=fn, echo=("instance", "seed", "mode", "runs"))

    p = sub.add_parser("run-saa", help="sample-average pipeline on a stochastic LP")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=_at_least(1), default=2000)
    p.add_argument("--tolerance", type=_finite_above(0.0, strict=False), default=1e-6)
    p.add_argument("--trace", help="write the per-iteration CSV trace here")
    common(p, needs_seed=True)
    p.set_defaults(func=cmd_run_saa,
                   echo=("instance", "seed", "samples", "tolerance"))

    p = sub.add_parser("gap", help="correlation-gap report for a gap instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--eta", type=_finite_above(0.0, strict=True), default=1.0)
    p.add_argument("--beta", type=_finite_above(0.0, strict=True), default=1.0)
    common(p, needs_seed=False)
    p.set_defaults(func=cmd_gap, echo=("instance", "eta", "beta"))

    p = sub.add_parser("check", help="run a property suite on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--suite", required=True,
                   choices=("subadditivity", "monotone-feasibility",
                            "solver", "fairness"))
    common(p, needs_seed=False)
    p.set_defaults(func=cmd_check, echo=("instance", "suite"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.func(args)
        if args.echo is not None:
            report.update(command=args.command, config=_config_echo(args, args.echo),
                          artifact_version=__version__)
        _emit(report, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (Infeasible, Unbounded, NumericalFailure, DegenerateInstance) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # reading maps its own failures to SchemaError
        print(str(exc), file=sys.stderr)
        return EXIT_OUTPUT
    except StocombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"wall-clock: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

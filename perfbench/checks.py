"""Output checks: each job's report against the paper's guarantees.

``check_job`` returns ``None`` for a correct job and a one-line reason
otherwise; a failed job counts in ``failed``.  ``quality`` gives the job's
achieved/optimum ratio where the workload defines one.
"""

from __future__ import annotations

import math

TOL = 1e-9
SAA_FACTOR = 1.15  # criterion 05: true value within (1.1 + 5%) of the optimum


def _saa(report: dict):
    opt, true = report["optimal_value"], report["true_value"]
    if opt > true + TOL:
        return f"optimal_value {opt!r} above true_value {true!r}"
    if true > SAA_FACTOR * opt:
        return f"true_value {true!r} above {SAA_FACTOR} x optimal_value {opt!r}"
    return None


def _two_stage(report: dict):
    opt, cost = report["optimal_value"], report["expected_cost"]
    if opt > cost + TOL:
        return f"optimal_value {opt!r} above expected_cost {cost!r}"
    return None


def _gap(report: dict):
    worst, indep = report["worst_case"], report["independent"]
    if worst < indep - TOL:
        return f"worst_case {worst!r} below independent {indep!r}"
    return None


def _validate(report: dict):
    command = report["command"]
    if command == "check":
        if report["passed"] is not True:
            return f"suite {report['config']['suite']} did not pass"
    elif command == "solve-det":
        if report["feasible"] is not True:
            return "solve-det solution infeasible"
        if report["ratio"] < 1.0 - TOL:
            return f"solve-det ratio {report['ratio']!r} below 1"
    elif command == "run-boost":
        half = report.get("ci_halfwidth")
        if not isinstance(half, (int, float)) or not math.isfinite(half):
            return f"Monte-Carlo ci_halfwidth {half!r} not finite"
    else:
        return f"unexpected command {command!r}"
    return None


CHECKS = {"saa": _saa, "two_stage": _two_stage, "gap": _gap,
          "validate": _validate}


def check_job(workload: str, code: int, report: dict | None):
    """``None`` when the job exited 0 and its report meets the guarantee."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    try:
        return CHECKS[workload](report)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def quality(workload: str, report: dict):
    """Achieved/optimum for one job, or ``None`` where it is not defined."""
    if workload == "saa":
        return report["true_value"] / report["optimal_value"]
    if workload == "two_stage":
        return report["ratio"]
    if workload == "validate" and report["command"] == "solve-det":
        return report["ratio"]
    return None

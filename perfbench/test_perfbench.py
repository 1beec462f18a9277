"""Self-tests of the benchmark's output checker and tracer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import Job, judge, run_job  # noqa: E402
from tracing import Tracer  # noqa: E402

GOOD = {
    "saa": {"command": "run-saa", "optimal_value": 1.5929, "true_value": 1.5939},
    "two_stage": {"command": "run-boost", "optimal_value": 1.0,
                  "expected_cost": 1.25, "ratio": 1.25},
    "gap": {"command": "gap", "worst_case": 1.0, "independent": 0.75},
    "validate": {"command": "check", "config": {"suite": "solver"},
                 "passed": True},
}


def job(report, code=0):
    return Job(["cmd"], 0.1, code, json.dumps(report).encode())


def failed(workload, report, code=0):
    return [i for i, _ in judge(workload, [job(report, code)])]


def test_good_reports_pass():
    for workload, report in GOOD.items():
        assert failed(workload, report) == [], workload


def test_nonzero_exit_code_fails():
    for workload, report in GOOD.items():
        assert failed(workload, report, code=1) == [0], workload


def test_missing_report_fails():
    assert judge("gap", [Job(["gap"], 0.1, 0, None)]) != []


def test_optimum_above_expected_cost_fails():
    report = dict(GOOD["two_stage"], optimal_value=1.3)
    assert failed("two_stage", report) == [0]


def test_saa_outside_criterion_05_factor_fails():
    report = dict(GOOD["saa"], true_value=1.16 * GOOD["saa"]["optimal_value"])
    assert failed("saa", report) == [0]
    report = dict(GOOD["saa"], true_value=1.0)  # below the optimum
    assert failed("saa", report) == [0]


def test_suite_not_passed_fails():
    report = dict(GOOD["validate"], passed=False)
    assert failed("validate", report) == [0]


def test_validate_solve_det_and_monte_carlo_checks():
    det = {"command": "solve-det", "feasible": True, "ratio": 1.2}
    assert failed("validate", det) == []
    assert failed("validate", dict(det, ratio=0.9)) == [0]
    assert failed("validate", dict(det, feasible=False)) == [0]
    mc = {"command": "run-boost", "ci_halfwidth": 0.01}
    assert failed("validate", mc) == []
    assert failed("validate", dict(mc, ci_halfwidth=None)) == [0]


def test_gap_worst_case_below_independent_fails():
    report = dict(GOOD["gap"], worst_case=0.5)
    assert failed("gap", report) == [0]


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("lp.kernel", lambda: sum(range(20000)))
    outer = tracer.wrap("saa.minimize", lambda: [inner() for _ in range(3)])
    outer()
    total, own = tracer.total["saa.minimize"], tracer.self_time["saa.minimize"]
    assert tracer.calls["lp.kernel"] == 3
    assert abs(total - own - tracer.total["lp.kernel"]) < 1e-9
    assert tracer.busy["lp"] == tracer.total["lp.kernel"]
    parent_id = next(s[0] for s in tracer.spans if s[1] == "saa.minimize")
    assert [s[4] for s in tracer.spans if s[1] == "lp.kernel"] == [parent_id] * 3


def test_traced_reports_identical_and_attributes_restored(tmp_path):
    from stocomb import cli, lp

    instance = str(HERE.parent / "instances" / "gap2.json")
    kernel = lp.simplex_kernel
    plain = run_job(cli.main, ["gap", "--instance", instance], tmp_path / "a.json")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_job(tracer.wrap("cli.main", cli.main),
                         ["gap", "--instance", instance], tmp_path / "b.json")
    finally:
        tracer.uninstall()
    assert lp.simplex_kernel is kernel
    assert plain.code == traced.code == 0
    assert plain.data == traced.data
    metrics = tracer.metrics()
    assert metrics["lp.solves"][0] == 1
    assert metrics["gap.lp_columns"][0] == 4
    assert metrics["setfun.f_calls"][0] == 8  # two tables of 2^2 values

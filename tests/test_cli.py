"""CLI harness: golden reports, reproducibility, generators, exit codes."""

import csv
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from stocomb import cli
from stocomb.cli import main
from stocomb.generate import random_gap_instance, random_marginals, random_problem
from stocomb.io import (
    canonical_json,
    dump_instance,
    load_gap_instance,
    load_instance,
    read_json,
)
from stocomb.model import IndependentBernoulli, check_monotone_feasibility
from stocomb.setfun import check_monotone, check_submodular
from stocomb.setfun import table as setfun_table

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = ROOT / "tests" / "golden"

DOC_EXAMPLES = [
    (["gen", "--kind", "set_cover", "--clients", "4", "--elements", "5",
      "--seed", "9"],
     "gen_set_cover.json"),
    (["run-boost", "--instance", str(INSTANCES / "edge1.json"), "--seed", "42"],
     "run_boost_edge1.json"),
    (["run-indboost", "--instance", str(INSTANCES / "edge1_independent.json"),
      "--seed", "7"],
     "run_indboost_edge1.json"),
    (["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
      "--samples", "2000", "--seed", "11"],
     "run_saa_ufl.json"),
    (["gap", "--instance", str(INSTANCES / "gap2.json")], "gap_gap2.json"),
    (["check", "--instance", str(INSTANCES / "tri3.json"),
      "--suite", "subadditivity"], "check_tri3.json"),
    (["solve-det", "--instance", str(INSTANCES / "cov3.json"), "--exact"],
     "solve_det_cov3.json"),
]


@pytest.mark.parametrize("argv,golden", DOC_EXAMPLES,
                         ids=[g.rsplit(".", 1)[0] for _, g in DOC_EXAMPLES])
def test_doc_examples_match_golden_files(argv, golden, tmp_path):
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# Every check suite on both reference instances; tri3 subadditivity is the
# README example above.
CHECK_SUITES = [(inst, suite) for inst in ("tri3", "cov3")
                for suite in ("subadditivity", "fairness", "solver",
                              "monotone-feasibility")
                if (inst, suite) != ("tri3", "subadditivity")]


@pytest.mark.parametrize("inst,suite", CHECK_SUITES,
                         ids=[f"{i}_{s}" for i, s in CHECK_SUITES])
def test_check_suites_match_golden_files(inst, suite, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--instance", str(INSTANCES / f"{inst}.json"),
                 "--suite", suite, "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"check_{inst}_{suite}.json").read_bytes()


# Monte-Carlo reports: two reference instances and a generated set cover
# over 5 clients, whose draws and realizations give 10 key bits per run.
MONTE_CARLO = [
    (["run-boost", "--instance", str(INSTANCES / "tri3.json"), "--seed", "5"],
     "run_boost_tri3_monte_carlo.json"),
    (["run-indboost", "--instance", str(INSTANCES / "edge1_independent.json"),
      "--seed", "7"],
     "run_indboost_edge1_monte_carlo.json"),
    (["run-boost", "--instance", None, "--seed", "3"],
     "run_boost_gen_set_cover_monte_carlo.json"),
]


def boosted_argv(argv, mode, tmp_path) -> list:
    """``argv`` in ``mode`` (Monte Carlo at 2000 runs), a ``None`` instance
    replaced by a generated set cover over 5 clients."""
    if None in argv:
        generated = tmp_path / "gen_set_cover.json"
        assert main(["gen", "--kind", "set_cover", "--clients", "5",
                     "--elements", "6", "--seed", "9",
                     "--output", str(generated)]) == 0
        argv = [str(generated) if a is None else a for a in argv]
    return argv + (["--mode", "monte_carlo", "--runs", "2000"]
                   if mode == "monte_carlo" else [])


@pytest.mark.parametrize("argv,golden", MONTE_CARLO,
                         ids=[g.rsplit(".", 1)[0] for _, g in MONTE_CARLO])
def test_monte_carlo_reports_match_golden_files(argv, golden, tmp_path):
    out = tmp_path / "report.json"
    code = main(boosted_argv(argv, "monte_carlo", tmp_path) + ["--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# Exact run-boost and run-indboost on reference instances, and the
# Monte-Carlo golden jobs.
BOOSTED = [(["run-boost", "--instance", str(INSTANCES / "tri3.json"), "--seed", "5"],
            "exact"),
           (["run-indboost", "--instance", str(INSTANCES / "edge1_independent.json"),
             "--seed", "7"], "exact")] + [(argv, "monte_carlo") for argv, _ in MONTE_CARLO]
BOOSTED_IDS = ["run_boost_tri3", "run_indboost_edge1"] + [
    g.rsplit(".", 1)[0] for _, g in MONTE_CARLO]


@pytest.mark.parametrize("argv,mode", BOOSTED, ids=BOOSTED_IDS)
def test_boosted_job_solves_each_draw_and_augments_each_pair_once(
        argv, mode, tmp_path, monkeypatch):
    # The seeded run, the evaluation and the report's records share one
    # builder, so no first stage is solved twice and no (first stage,
    # target) pair is augmented twice.
    argv = boosted_argv(argv, mode, tmp_path)
    solves, augments = [], []
    shipped = cli.algorithm_for

    def algorithm_for(problem):
        alg = shipped(problem)

        def solve(problem, clients):
            solves.append(frozenset(clients))
            return alg.solve(problem, clients)

        def augment(problem, base, clients):
            augments.append((frozenset(base), frozenset(clients)))
            return alg.augment(problem, base, clients)

        return replace(alg, solve=solve, augment=augment)

    monkeypatch.setattr(cli, "algorithm_for", algorithm_for)
    assert main(argv + ["--output", str(tmp_path / "report.json")]) == 0
    assert solves and len(solves) == len(set(solves))
    assert augments and len(augments) == len(set(augments))


@pytest.mark.parametrize("argv,mode", BOOSTED, ids=BOOSTED_IDS)
def test_boosted_job_leaves_no_cyclic_garbage(argv, mode, tmp_path):
    # A policy that held its builder would make a cycle through the
    # builder's memo, left for the collector after every job.
    argv = boosted_argv(argv, mode, tmp_path) + ["--output", str(tmp_path / "r.json")]
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_edge1_report_values(tmp_path):
    out = tmp_path / "r.json"
    main(["run-boost", "--instance", str(INSTANCES / "edge1.json"),
          "--seed", "42", "--output", str(out)])
    report = json.loads(out.read_text())
    assert report["expected_cost"] == pytest.approx(1.0)
    assert report["optimal_value"] == pytest.approx(1.0)
    assert report["ratio"] == pytest.approx(1.0)


def test_gap2_report_values(tmp_path):
    out = tmp_path / "r.json"
    main(["gap", "--instance", str(INSTANCES / "gap2.json"),
          "--output", str(out)])
    report = json.loads(out.read_text())
    assert report["kappa"] == pytest.approx(4.0 / 3.0)
    assert report["bound"] == pytest.approx(1.5819767068693265)
    assert report["bound_satisfied"] is True


def test_reports_are_byte_reproducible(tmp_path):
    for argv in (["run-boost", "--instance", str(INSTANCES / "edge1.json"),
                  "--seed", "3", "--mode", "monte_carlo", "--runs", "2000"],
                 ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
                  "--samples", "500", "--seed", "5"],
                 ["gen", "--kind", "set_cover", "--clients", "4",
                  "--elements", "4", "--seed", "9"]):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        a.unlink(), b.unlink()


def test_refuses_to_overwrite(tmp_path):
    out = tmp_path / "r.json"
    argv = ["gap", "--instance", str(INSTANCES / "gap2.json"),
            "--output", str(out)]
    assert main(argv) == 0
    assert main(argv) == 5
    assert main(argv + ["--overwrite"]) == 0


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"clients\": [1]}")
    assert main(["solve-det", "--instance", str(bad)]) == 2
    notjson = tmp_path / "x.json"
    notjson.write_text("{nope")
    assert main(["solve-det", "--instance", str(notjson)]) == 2


@pytest.mark.parametrize("argv", [
    ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
     "--samples", "0", "--seed", "1"],
    ["run-boost", "--instance", str(INSTANCES / "edge1.json"), "--seed", "1",
     "--mode", "monte_carlo", "--runs", "1"],
    ["run-indboost", "--instance", str(INSTANCES / "edge1_independent.json"),
     "--seed", "1", "--mode", "monte_carlo", "--runs", "1"],
    ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
     "--samples", "many", "--seed", "1"],
], ids=["samples-0", "boost-runs-1", "indboost-runs-1", "samples-not-int"])
def test_bad_counts_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("clients,elements,seed", [(5, 7, 2), (4, 6, 1)])
def test_reports_do_not_depend_on_hash_seed(clients, elements, seed, tmp_path):
    """Cost sums over frozensets must not follow the hash-seeded set order."""
    problem = random_problem("steiner", clients, elements, seed=seed, sigma=2.0)
    inst = tmp_path / "inst.json"
    inst.write_text(canonical_json(
        dump_instance(problem, random_marginals(problem.clients, seed))))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    reports = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-m", "stocomb", "run-indboost",
             "--instance", str(inst), "--seed", "3"],
            env=env, capture_output=True, check=True, timeout=120)
        reports.append(run.stdout)
    assert reports[0] == reports[1]


def _edit_explicit_prob(d):
    d["distribution"]["outcomes"][0]["prob"] = 0.4


# cov3.json's clients are 1, 2, 3 and its elements sA, sB, sC.
MALFORMED = {
    "probabilities-sum-0.9": ("run-boost", "edge1.json", _edit_explicit_prob,
                              "probabilities sum to 0.9"),
    "marginal-1.5": ("run-indboost", "edge1_independent.json",
                     lambda d: d["distribution"]["marginals"].update(j=1.5),
                     "outside [0, 1]"),
    "sigma-0.5": ("solve-det", "edge1.json", lambda d: d.update(sigma=0.5),
                  "inflation factor"),
    "negative-cost": ("solve-det", "edge1.json",
                      lambda d: d["elements"][0].update(cost=-1.0), "cost of element"),
    "gap-marginal-1.5": ("gap", "gap2.json",
                         lambda d: d["marginals"].update(a=1.5), "outside [0, 1]"),
    "unknown-problem-kind": ("solve-det", "cov3.json",
                             lambda d: d["problem"].update(kind="knapsack"),
                             "unknown problem kind 'knapsack'"),
    "vertex-cover-edges-not-clients": (
        "solve-det", "cov3.json",
        lambda d: d.update(problem={"kind": "vertex_cover", "edges": {
            "1": ["sA", "sB"], "2": ["sB", "sC"], "4": ["sA", "sC"]}}),
        "keyed by client ids"),
    "ufl-elements-not-facilities-plus-assignments": (
        "solve-det", "cov3.json",
        lambda d: d.update(problem={"kind": "ufl", "facilities": ["sA"],
                                    "assignments": {"sB": ["sA", "1"]}}),
        "exactly the facilities plus assignments"),
    "missing-problem-sets": ("solve-det", "cov3.json",
                             lambda d: d["problem"].pop("sets"),
                             "missing field 'sets'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exit_2(case, tmp_path, capsys):
    command, source, edit, message = MALFORMED[case]
    payload = json.loads((INSTANCES / source).read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = [command, "--instance", str(bad)]
    if command.startswith("run-"):
        argv += ["--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("schema error: ") and message in err[0], err


def test_indboost_requires_independent_distribution():
    code = main(["run-indboost", "--instance", str(INSTANCES / "edge1.json"),
                 "--seed", "1"])
    assert code == 2


def test_unknown_client_rejected():
    code = main(["solve-det", "--instance", str(INSTANCES / "tri3.json"),
                 "--clients", "1,99"])
    assert code == 2


@pytest.mark.parametrize("suite", ["monotone-feasibility", "solver", "fairness"])
def test_remaining_check_suites_pass_on_fixtures(suite, tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", "--instance", str(INSTANCES / "cov3.json"),
                 "--suite", suite, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


class TestGen:
    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--kind", "steiner", "--clients", "5",
                         "--elements", "7", "--seed", "13",
                         "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_instances_round_trip(self, tmp_path):
        for kind in ("steiner", "ufl", "set_cover", "vertex_cover"):
            out = tmp_path / f"{kind}.json"
            assert main(["gen", "--kind", kind, "--clients", "4",
                         "--elements", "5", "--seed", "2",
                         "--output", str(out)]) == 0
            problem, dist = load_instance(read_json(out))
            assert problem.kind == kind
            assert dist is not None

    def test_generated_steiner_is_connected(self):
        # Connectivity is equivalent to feasibility of the full client set.
        for seed in range(20):
            p = random_problem("steiner", 5, 6, seed)
            assert p.feasibility(frozenset(p.elements), frozenset(p.clients))
            assert check_monotone_feasibility(p).ok

    def test_generated_gap_instances_are_submodular(self):
        for seed in range(20):
            inst = random_gap_instance(4, seed)
            check_monotone(inst.f, inst.ground)
            check_submodular(inst.f, inst.ground)

    def test_gen_gap_writes_table(self, tmp_path):
        out = tmp_path / "gap.json"
        assert main(["gen", "--kind", "gap", "--clients", "4",
                     "--seed", "3", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["set_function"]["kind"] == "coverage"
        # the file holds the coverage's description, whose table is the
        # generator's own, bit for bit
        loaded = load_gap_instance(payload)
        assert (setfun_table(loaded.f, loaded.ground).tobytes()
                == setfun_table(random_gap_instance(4, 3).f, loaded.ground).tobytes())
        # the generated file feeds straight back into the gap command
        report_path = tmp_path / "gapreport.json"
        assert main(["gap", "--instance", str(out),
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["bound_satisfied"] is True


    def test_gen_independent_feeds_run_indboost(self, tmp_path):
        out = tmp_path / "ind.json"
        assert main(["gen", "--kind", "set_cover", "--clients", "3",
                     "--elements", "4", "--distribution", "independent",
                     "--seed", "4", "--output", str(out)]) == 0
        _, dist = load_instance(read_json(out))
        assert isinstance(dist, IndependentBernoulli)
        assert main(["run-indboost", "--instance", str(out), "--seed", "1",
                     "--output", str(tmp_path / "r.json")]) == 0

    def test_gen_without_distribution_is_refused_by_run_boost(self, tmp_path):
        out = tmp_path / "none.json"
        assert main(["gen", "--kind", "steiner", "--clients", "3",
                     "--elements", "4", "--distribution", "none",
                     "--seed", "4", "--output", str(out)]) == 0
        assert "distribution" not in json.loads(out.read_text())
        assert main(["run-boost", "--instance", str(out), "--seed", "1"]) == 2


def test_gap_bound_violation_exit_code(tmp_path):
    # A supermodular table busts e/(e-1): kappa = 2 for an AND-shaped cost.
    inst = tmp_path / "and.json"
    inst.write_text(json.dumps({
        "ground": ["a", "b"],
        "marginals": {"a": 0.5, "b": 0.5},
        "set_function": {"kind": "table", "values": [0.0, 0.0, 0.0, 1.0]},
    }))
    out = tmp_path / "report.json"
    assert main(["gap", "--instance", str(inst), "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["kappa"] == pytest.approx(2.0, abs=1e-8)
    assert report["bound_satisfied"] is False


def test_csv_format(tmp_path):
    out = tmp_path / "records.csv"
    assert main(["run-boost", "--instance", str(INSTANCES / "edge1.json"),
                 "--seed", "42", "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario,probability,recourse_cost"
    assert len(lines) == 3


def test_csv_fields_are_quoted(tmp_path):
    # A client id holding a comma stays one field when read back.
    inst = tmp_path / "comma.json"
    inst.write_text(json.dumps({
        "clients": ["a,b", "c"],
        "elements": [{"id": "e1", "cost": 1.0}, {"id": "e2", "cost": 2.0}],
        "sigma": 2.0,
        "problem": {"kind": "set_cover", "sets": {"e1": ["a,b"], "e2": ["c"]}},
        "distribution": {"kind": "explicit", "outcomes": [
            {"subset": ["a,b"], "prob": 0.5}, {"subset": ["a,b", "c"], "prob": 0.5}]},
    }))
    argv = ["run-boost", "--instance", str(inst), "--seed", "1"]
    out, report = tmp_path / "records.csv", tmp_path / "report.json"
    assert main(argv + ["--format", "csv", "--output", str(out)]) == 0
    assert main(argv + ["--output", str(report)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    records = json.loads(report.read_text())["records"]
    assert rows == [["scenario", "probability", "recourse_cost"]] + [
        ["|".join(r["scenario"]), repr(r["probability"]), repr(r["recourse_cost"])]
        for r in records]
    assert rows[1][0] == "a,b"


def test_gap_csv_lists_the_worst_distribution(tmp_path):
    argv = ["gap", "--instance", str(INSTANCES / "gap2.json")]
    csv, report = tmp_path / "gap.csv", tmp_path / "gap.json"
    assert main(argv + ["--format", "csv", "--output", str(csv)]) == 0
    assert main(argv + ["--output", str(report)]) == 0
    lines = csv.read_text().splitlines()
    assert lines == ["subset,probability", "a,0.5", "b,0.5"]
    worst = json.loads(report.read_text())["worst_distribution"]
    assert [f"{s},{p!r}" for s, p in worst.items()] == lines[1:]


def test_check_csv_lists_the_scalar_fields(tmp_path):
    argv = ["check", "--instance", str(INSTANCES / "tri3.json"),
            "--suite", "subadditivity"]
    csv, report = tmp_path / "check.csv", tmp_path / "check.json"
    assert main(argv + ["--format", "csv", "--output", str(csv)]) == 0
    assert main(argv + ["--output", str(report)]) == 0
    fields = json.loads(report.read_text())
    scalars = sorted(k for k, v in fields.items() if not isinstance(v, dict))
    assert scalars == ["artifact_version", "command", "passed"]
    assert csv.read_text().splitlines() == (
        ["key,value"] + [f"{k},{fields[k]}" for k in scalars])


def test_saa_trace_csv(tmp_path):
    out = tmp_path / "r.json"
    trace = tmp_path / "trace.csv"
    assert main(["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
                 "--samples", "200", "--seed", "1", "--output", str(out),
                 "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,value,lower_bound"
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])  # parses as numbers


def test_readme_quick_tour_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick tour", "exec"), {})
    assert capsys.readouterr().out == "1.0 1.0\n"


def test_readme_library_references_resolve():
    # Every backticked `stocomb.<module>` or `stocomb.<module>.<name>` names
    # a module of the package and, where a name follows, one of its attributes.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = set(re.findall(r"`stocomb\.(\w+)(?:\.(\w+))?", text))
    assert refs
    for module, name in sorted(refs):
        mod = importlib.import_module(f"stocomb.{module}")
        assert not name or hasattr(mod, name), f"stocomb.{module}.{name}"

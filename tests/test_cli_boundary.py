"""CLI boundary sweep: malformed values get an exit code, never a traceback.

Every numeric leaf and every object- or list-valued field of every reference
instance is replaced, one at a time, by each value of ``SUBSTITUTES``; the
instance's command then runs in process and must return one of the
documented exit codes 0-4.  Costs large enough to overflow a sum, non-finite
command-line numbers and oversized requests get the same treatment.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stocomb.cli import main
from stocomb.generate import random_problem, random_stochastic_lp
from stocomb.io import (
    dump_instance,
    dump_stochastic_lp,
    load_gap_instance,
    read_json,
    write_json,
)
from stocomb.lp import MAX_CONSTRAINTS
from stocomb.setfun import TABLE_ITEMS

from conftest import (
    MALFORMED_IDS,
    container_paths,
    malformed_ids,
    numeric_paths,
    substituted,
)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"

COMMANDS = {
    "cov3.json": ["solve-det", "--exact"],
    "tri3.json": ["check", "--suite", "subadditivity"],
    "edge1.json": ["run-boost", "--seed", "1"],
    "edge1_independent.json": ["run-indboost", "--seed", "1"],
    "gap2.json": ["gap"],
    "saa_ufl.json": ["run-saa", "--samples", "50", "--seed", "1"],
}
SUBSTITUTES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
               "null": None, "-1": -1, "0": 0, "2": 2,
               "1e308": 1e308, "-1e308": -1e308,
               "string": "x", "list": [], "object": {}}
EXIT_CODES = {0, 1, 2, 3, 4}


def stocomb_env(**extra) -> dict:
    """Environment for a subprocess that imports stocomb from ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def exit_code(argv, capsys) -> int:
    """Exit code of ``main(argv)``, counting argparse's exit as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


def test_every_instance_is_swept():
    assert sorted(COMMANDS) == sorted(p.name for p in INSTANCES.glob("*.json"))


@pytest.mark.parametrize("label", list(SUBSTITUTES))
@pytest.mark.parametrize("source", list(COMMANDS))
def test_numeric_leaf_substitution(source, label, tmp_path, capsys):
    payload = json.loads((INSTANCES / source).read_text())
    command = COMMANDS[source]
    bad = tmp_path / "bad.json"
    failures = []
    for path in [*numeric_paths(payload), *container_paths(payload)]:
        bad.write_text(json.dumps(substituted(payload, path, SUBSTITUTES[label])))
        argv = command[:1] + ["--instance", str(bad)] + command[1:]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            failures.append(f"{path}: {type(exc).__name__}: {exc}")
        else:
            if code not in EXIT_CODES:
                failures.append(f"{path}: exit {code}")
        capsys.readouterr()
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("sigma,mode,runs", [
    (1e308, "exact", ["--runs", "100"]),
    (1e308, "monte_carlo", ["--runs", "100"]),
    # 10^6 draws in each of the default 10,000 Monte-Carlo runs.
    (1e6, "monte_carlo", []),
], ids=["exact", "monte_carlo", "monte_carlo_default_runs"])
def test_huge_sigma_exits_3_without_hanging(sigma, mode, runs, tmp_path):
    payload = json.loads((INSTANCES / "edge1.json").read_text())
    payload["sigma"] = sigma
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    run = subprocess.run(
        [sys.executable, "-m", "stocomb", "run-boost", "--instance", str(inst),
         "--seed", "1", "--mode", mode] + runs,
        env=stocomb_env(), capture_output=True, timeout=30)
    assert run.returncode == 3, run.stderr.decode()
    assert b"cap exceeded" in run.stderr


def huge_costs(payload):
    """Every first-stage cost of the instance set to 1e308."""
    copy = json.loads(json.dumps(payload))
    if "elements" in copy:
        for element in copy["elements"]:
            element["cost"] = 1e308
    else:
        copy["first_stage_cost"] = [1e308] * len(copy["first_stage_cost"])
    return copy


@pytest.mark.parametrize("source", ["cov3.json", "tri3.json", "edge1.json",
                                    "edge1_independent.json", "saa_ufl.json"])
def test_every_cost_huge_exits_without_traceback(source, tmp_path, capsys):
    payload = huge_costs(json.loads((INSTANCES / source).read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    command = COMMANDS[source]
    assert exit_code(command[:1] + ["--instance", str(bad)] + command[1:],
                     capsys) in EXIT_CODES


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["gap", "--instance", str(INSTANCES / "gap2.json"), "--eta"],
    ["gap", "--instance", str(INSTANCES / "gap2.json"), "--beta"],
    ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"), "--samples", "5",
     "--seed", "1", "--tolerance"],
], ids=["eta", "beta", "tolerance"])
def test_non_finite_arguments_exit_2(argv, value, capsys):
    assert exit_code(argv + [value], capsys) == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "set_cover", "--seed", "-1"],
    ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"), "--seed", "-1"],
    ["gen", "--kind", "steiner", "--clients", "-2", "--seed", "1"],
    ["gen", "--kind", "steiner", "--elements", "-1", "--seed", "1"],
    ["gen", "--kind", "set_cover", "--clients", "0", "--seed", "1"],
    ["gap", "--instance", str(INSTANCES / "gap2.json"), "--eta=0"],
    ["gap", "--instance", str(INSTANCES / "gap2.json"), "--eta=-1e-3"],
    ["gap", "--instance", str(INSTANCES / "gap2.json"), "--beta=0"],
    ["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"), "--seed", "1",
     "--tolerance=-1e-3"],
], ids=["gen_seed", "run_saa_seed", "clients", "elements", "set_cover_no_client",
        "eta_zero", "eta_negative", "beta_zero", "tolerance_negative"])
def test_out_of_range_arguments_exit_2(argv, capsys):
    assert exit_code(argv, capsys) == 2


SUITES = ("subadditivity", "monotone-feasibility", "solver", "fairness")
ID_COMMANDS = [["solve-det", "--exact"]] + [["check", "--suite", s] for s in SUITES]


@pytest.mark.parametrize("command", ID_COMMANDS, ids=["solve_det"] + list(SUITES))
@pytest.mark.parametrize("case", MALFORMED_IDS)
def test_ids_that_name_nothing_exit_2(case, command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_json(bad, malformed_ids(case))
    assert exit_code(command[:1] + ["--instance", str(bad)] + command[1:], capsys) == 2


@pytest.mark.parametrize("command", ID_COMMANDS, ids=["solve_det"] + list(SUITES))
def test_set_cover_member_that_is_not_a_client_exits_0(command, tmp_path, capsys):
    payload = json.loads((INSTANCES / "cov3.json").read_text())
    payload["problem"]["sets"]["sA"].append("ghost")
    inst = tmp_path / "inst.json"
    write_json(inst, payload)
    assert exit_code(command[:1] + ["--instance", str(inst)] + command[1:], capsys) == 0


@pytest.mark.parametrize("kind", ["steiner", "ufl", "set_cover", "vertex_cover"])
def test_repeated_element_id_exits_2(kind, tmp_path, capsys):
    payload = dump_instance(random_problem(kind, 3, 2 if kind == "ufl" else 4, seed=1))
    first = payload["elements"][0]["id"]
    payload["elements"].append({"id": first, "cost": 50.0})
    inst = tmp_path / "inst.json"
    write_json(inst, payload)
    assert main(["solve-det", "--instance", str(inst), "--exact"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"schema error: repeated element ids: [{first!r}]"]


# One-client instances with one-character ids, so that a string of ids
# would read as a list of them.
VERTEX_COVER = {"clients": ["e"], "sigma": 1.0,
                "elements": [{"id": "a", "cost": 1.0}, {"id": "d", "cost": 2.0}],
                "problem": {"kind": "vertex_cover", "edges": {"e": ["d", "a"]}}}
UFL = {"clients": ["a"], "sigma": 1.0,
       "elements": [{"id": "f", "cost": 1.0}, {"id": "x", "cost": 0.5}],
       "problem": {"kind": "ufl", "facilities": ["f"],
                   "assignments": {"x": ["f", "a"]}}}
# (instance, path, string, field named in the error)
STRING_IDS = {
    "clients": ("cov3.json", ("clients",), "123", "clients"),
    "set_cover_set": ("cov3.json", ("problem", "sets", "sA"), "12", "sets['sA']"),
    "steiner_edge": ("tri3.json", ("problem", "edges", "e12"), "12", "edges['e12']"),
    "vertex_cover_edge": (VERTEX_COVER, ("problem", "edges", "e"), "da", "edges['e']"),
    "ufl_facilities": (UFL, ("problem", "facilities"), "f", "facilities"),
    "ufl_assignment": (UFL, ("problem", "assignments", "x"), "fa", "assignments['x']"),
    "explicit_subset": ("edge1.json", ("distribution", "outcomes", 0, "subset"), "j",
                        "subset"),
    "partition_block": ("edge1.json", ("distribution",),
                        {"kind": "k_partition", "blocks": ["j"]}, "block"),
    "gap_ground": ("gap2.json", ("ground",), "ab", "ground"),
}


def run_payload(command, payload, tmp_path, capsys):
    """(exit code, stderr lines) of ``command`` on ``payload``."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    code = main(command[:1] + ["--instance", str(inst)] + command[1:])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("case", list(STRING_IDS))
def test_string_where_a_list_of_ids_belongs_exits_2(case, tmp_path, capsys):
    source, path, value, what = STRING_IDS[case]
    if isinstance(source, str):
        payload, command = json.loads((INSTANCES / source).read_text()), COMMANDS[source]
    else:
        payload, command = source, ["solve-det", "--exact"]
    assert run_payload(command, payload, tmp_path, capsys)[0] == 0
    code, err = run_payload(command, substituted(payload, path, value), tmp_path,
                            capsys)
    assert code == 2
    assert err == [f"schema error: {what} must be a list of ids, not str"]


@pytest.mark.parametrize("cover", ["uv", {"u": 1}], ids=["str", "dict"])
def test_coverage_cover_that_is_not_a_list_exits_2(cover, tmp_path, capsys):
    """A cover entry must list its universe items: a string would read as
    its characters and an object as its keys."""
    payload = json.loads((INSTANCES / "gap2.json").read_text())
    payload["set_function"] = {"kind": "coverage", "cover": {"a": ["u", "v"], "b": ["u"]},
                               "weights": {"u": 1, "v": 1}}
    assert run_payload(["gap"], payload, tmp_path, capsys)[0] == 0
    payload["set_function"]["cover"]["a"] = cover
    code, err = run_payload(["gap"], payload, tmp_path, capsys)
    assert code == 2
    assert err == [f"schema error: cover of 'a' must be a list of ids, "
                   f"not {type(cover).__name__}"]


def test_repeated_gap_ground_item_exits_2(tmp_path, capsys):
    payload = json.loads((INSTANCES / "gap2.json").read_text())
    payload["ground"] = ["a", "a"]
    code, err = run_payload(["gap"], payload, tmp_path, capsys)
    assert code == 2
    assert err == ["schema error: malformed gap instance: duplicate ground items"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_escaped_surrogate_pair_loads_and_renders(fmt, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text((INSTANCES / "edge1.json").read_text()
                    .replace('"j"', '"\\ud83d\\ude00"'))
    out = tmp_path / "report"
    assert main(["run-boost", "--instance", str(inst), "--seed", "1",
                 "--format", fmt, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        assert json.loads(text)["records"][1]["scenario"] == ["\U0001F600"]
    else:
        assert "\U0001F600,0.5," in text


def test_stochastic_lp_without_scenarios_exits_2(tmp_path, capsys):
    payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
    payload["scenarios"] = []
    inst = tmp_path / "inst.json"
    write_json(inst, payload)
    assert main(["run-saa", "--instance", str(inst), "--samples", "50",
                 "--seed", "1"]) == 2
    assert "no scenarios" in capsys.readouterr().err


VECTOR_FIELDS = [("first_stage_cost",), ("polytope", "lower"), ("polytope", "upper"),
                 ("scenarios", 2, "recourse_cost"), ("scenarios", 2, "aux_cost"),
                 ("scenarios", 2, "requirement")]


@pytest.mark.parametrize("number", [2, -1])
@pytest.mark.parametrize("path", VECTOR_FIELDS, ids=lambda p: ".".join(map(str, p)))
def test_number_for_a_stochastic_lp_vector_exits_2(path, number, tmp_path, capsys):
    payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
    inst = tmp_path / "inst.json"
    write_json(inst, substituted(payload, path, number))
    assert main(["run-saa", "--instance", str(inst), "--samples", "50",
                 "--seed", "1"]) == 2
    assert "must be a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("present, missing", [("aux_cost", "coupling"),
                                              ("coupling", "aux_cost")])
def test_auxiliary_field_without_its_partner_is_named(present, missing, tmp_path,
                                                       capsys):
    payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
    del payload["scenarios"][0][missing]
    assert present in payload["scenarios"][0]
    inst = tmp_path / "inst.json"
    write_json(inst, payload)
    assert main(["run-saa", "--instance", str(inst), "--samples", "50",
                 "--seed", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"schema error: missing field {missing!r} in stochastic LP"]


@pytest.mark.parametrize("form", ["transposed", "flat"])
@pytest.mark.parametrize("field", ["technology", "coupling"])
def test_stochastic_lp_matrix_of_another_shape_exits_2(field, form, tmp_path,
                                                       capsys):
    # Scenario 0's matrices are 3 x 2; the same six numbers in another
    # shape would read as another model.
    payload = json.loads((INSTANCES / "saa_ufl.json").read_text())
    matrix = payload["scenarios"][0][field]
    assert [len(row) for row in matrix] == [2, 2, 2]
    payload["scenarios"][0][field] = (
        [list(col) for col in zip(*matrix)] if form == "transposed"
        else [v for row in matrix for v in row])
    inst = tmp_path / "inst.json"
    write_json(inst, payload)
    assert main(["run-saa", "--instance", str(inst), "--samples", "50",
                 "--seed", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"schema error: malformed stochastic LP: {field} must be 3 rows of 2 numbers"]


def test_oversized_deterministic_equivalent_exits_3(tmp_path, capsys):
    inst = random_stochastic_lp(3, 200, seed=5)
    assert sum(b.requirement.size for b in inst.scenarios) > MAX_CONSTRAINTS
    path = tmp_path / "big.json"
    write_json(path, dump_stochastic_lp(inst))
    assert main(["run-saa", "--instance", str(path), "--samples", "50",
                 "--seed", "1"]) == 3
    assert "cap exceeded: deterministic equivalent" in capsys.readouterr().err


def test_zero_independent_expectation_exits_4(tmp_path, capsys):
    inst = tmp_path / "degenerate.json"
    inst.write_text(json.dumps({
        "ground": ["a", "b"], "marginals": {"a": 0.0, "b": 0.0},
        "set_function": {"kind": "weighted_rank", "weights": {"a": 1, "b": 1},
                         "cap": 1.0}}))
    assert main(["gap", "--instance", str(inst)]) == 4
    assert "solver failure" in capsys.readouterr().err


def test_gap_at_a_small_cost_scale_exits_0(tmp_path, capsys):
    """The zero test on the independent expectation is relative to the
    largest cost: gap2 with costs of 1e-13 has gap2's kappa."""
    payload = json.loads((INSTANCES / "gap2.json").read_text())
    function = payload["set_function"]
    function["cap"] *= 1e-13
    function["weights"] = {i: w * 1e-13 for i, w in function["weights"].items()}
    out = tmp_path / "report.json"
    assert run_payload(["gap", "--output", str(out)], payload, tmp_path, capsys)[0] == 0
    golden = read_json(ROOT / "tests" / "golden" / "gap_gap2.json")
    assert read_json(out)["kappa"] == golden["kappa"]


def test_gen_gap_refuses_unloadable_sizes(tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert exit_code(["gen", "--kind", "gap", "--clients", str(TABLE_ITEMS + 1),
                      "--seed", "1", "--output", str(out)], capsys) == 2
    assert not out.exists()
    assert exit_code(["gen", "--kind", "gap", "--clients", str(TABLE_ITEMS),
                      "--seed", "1", "--output", str(out)], capsys) == 0
    assert len(load_gap_instance(read_json(out)).ground) == TABLE_ITEMS


def test_gen_gap_refuses_an_empty_ground_set(tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert exit_code(["gen", "--kind", "gap", "--clients", "0", "--seed", "1",
                      "--output", str(out)], capsys) == 2
    assert not out.exists()
    assert exit_code(["gen", "--kind", "gap", "--clients", "1", "--seed", "1",
                      "--output", str(out)], capsys) == 0
    assert main(["gap", "--instance", str(out)]) == 0


def test_coverage_item_without_weight_exits_2(tmp_path, capsys):
    payload = {"ground": ["a", "b"], "marginals": {"a": 0.5, "b": 0.5},
               "set_function": {"kind": "coverage",
                                "cover": {"a": ["u"], "b": ["u", "v"]},
                                "weights": {"u": 1.0}}}
    inst = tmp_path / "cov.json"
    inst.write_text(json.dumps(payload))
    assert exit_code(["gap", "--instance", str(inst)], capsys) == 2


HASH_SEED_INSTANCES = {
    "coverage": {"kind": "coverage",
                 "cover": {f"i{k}": [f"u{(k * 5 + d) % 11}" for d in range(4)]
                           for k in range(8)},
                 "weights": {f"u{u}": 0.1 + 0.07 * u for u in range(11)}},
    "weighted_rank": {"kind": "weighted_rank",
                      "weights": {f"i{k}": 0.1 + 0.13 * k for k in range(8)},
                      "cap": 3.3},
}

HASH_SEED_PROBE = """
import hashlib, sys
from stocomb.cli import main
from stocomb.io import load_gap_instance, read_json
from stocomb.setfun import TABLE_ITEMS
from stocomb.io import load_gap_instance, read_json
from stocomb.setfun import table
inst = load_gap_instance(read_json(sys.argv[1]))
print(hashlib.sha256(table(inst.f, inst.ground).tobytes()).hexdigest())
main(["gap", "--instance", sys.argv[1]])
"""


@pytest.mark.parametrize("kind", list(HASH_SEED_INSTANCES))
def test_set_function_reports_ignore_the_hash_seed(kind, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "ground": [f"i{k}" for k in range(8)],
        "marginals": {f"i{k}": 0.15 + 0.1 * k for k in range(8)},
        "set_function": HASH_SEED_INSTANCES[kind]}))
    outputs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE, str(inst)],
            env=stocomb_env(PYTHONHASHSEED=seed),
            capture_output=True, timeout=60)
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def path_case(case: str, tmp_path) -> tuple:
    """(argv, exit code, path the message names) of one unreadable input or
    unwritable output.  A permission-denied file is no case here: root
    reads and writes it anyway."""
    gap = ["gap", "--instance", str(INSTANCES / "gap2.json")]
    if case == "missing_instance":
        path = tmp_path / "missing.json"
        return ["gap", "--instance", str(path)], 2, path
    if case == "directory_instance":
        return ["gap", "--instance", str(tmp_path)], 2, tmp_path
    if case == "not_utf8_instance":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"ground": ["é"]}'.encode("latin-1"))
        return ["gap", "--instance", str(path)], 2, path
    if case == "unpaired_surrogate_instance":
        # No UTF-8 writer takes the decoded id, so no view could print it.
        path = tmp_path / "surrogate.json"
        path.write_text((INSTANCES / "edge1.json").read_text()
                        .replace('"j"', '"\\ud800"'))
        return (["run-boost", "--instance", str(path), "--seed", "1",
                 "--format", "csv"], 2, path)
    if case == "directory_output":
        return gap + ["--output", str(tmp_path), "--overwrite"], 5, tmp_path
    if case == "directory_trace":
        return (["run-saa", "--instance", str(INSTANCES / "saa_ufl.json"),
                 "--samples", "5", "--seed", "1", "--trace", str(tmp_path),
                 "--overwrite"], 5, tmp_path)
    afile = tmp_path / "afile"  # a regular file where a directory belongs
    afile.write_text("")
    return gap + ["--output", str(afile / "x.json")], 5, afile / "x.json"


@pytest.mark.parametrize("case", ["missing_instance", "directory_instance",
                                  "not_utf8_instance", "unpaired_surrogate_instance",
                                  "directory_output", "directory_trace",
                                  "file_as_output_directory"])
def test_unreadable_inputs_and_unwritable_outputs(case, tmp_path, capsys):
    argv, expected, path = path_case(case, tmp_path)
    assert main(argv) == expected  # an escaping exception fails here
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(path) in err[0], err

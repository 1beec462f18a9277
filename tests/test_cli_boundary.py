"""CLI boundary sweep: malformed numbers get an exit code, never a traceback.

Every numeric leaf of every reference instance is replaced, one at a time,
by each value of ``SUBSTITUTES``; the instance's command then runs in
process and must return one of the documented exit codes 0-4.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stocomb.cli import main

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
               "null": None, "-1": -1, "0": 0, "2": 2}
EXIT_CODES = {0, 1, 2, 3, 4}


def numeric_paths(node, path=()):
    """Key/index paths of every int or float leaf (booleans excluded)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from numeric_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from numeric_paths(child, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def substituted(payload, path, value):
    copy = json.loads(json.dumps(payload))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


def test_every_instance_is_swept():
    assert sorted(COMMANDS) == sorted(p.name for p in INSTANCES.glob("*.json"))


@pytest.mark.parametrize("label", list(SUBSTITUTES))
@pytest.mark.parametrize("source", list(COMMANDS))
def test_numeric_leaf_substitution(source, label, tmp_path, capsys):
    payload = json.loads((INSTANCES / source).read_text())
    command = COMMANDS[source]
    bad = tmp_path / "bad.json"
    failures = []
    for path in numeric_paths(payload):
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


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_huge_sigma_exits_3_without_hanging(mode, tmp_path):
    payload = json.loads((INSTANCES / "edge1.json").read_text())
    payload["sigma"] = 1e308
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "stocomb", "run-boost", "--instance", str(inst),
         "--seed", "1", "--mode", mode, "--runs", "100"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=30)
    assert run.returncode == 3, run.stderr.decode()
    assert b"cap exceeded" in run.stderr

"""The benchmark's traced run wraps orbitref functions by name; every name
it lists in `perfbench/spans.py` must exist, or a traced run crashes.  Its
ops call the CLI; every flag `perfbench/workloads.py` passes must exist, or
a benchmark run fails."""

import argparse
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _targets() -> dict:
    # read the literal without importing the harness
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS literal")


def test_span_targets_exist():
    targets = _targets()
    assert targets
    missing = []
    for module_name, names in targets.items():
        module = importlib.import_module(f"orbitref.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{name}")
    assert not missing, f"bench span targets missing: {missing}"


def test_workload_flags_exist():
    from orbitref.cli import build_parser

    # read the literals without importing the harness
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    flags = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith("--")}
    assert flags
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {option for parser in commands.choices.values()
               for option in parser._option_string_actions}
    assert flags <= options, f"bench flags missing: {sorted(flags - options)}"


@pytest.mark.slow
def test_perfbench_smoke_passes():
    # the traced run's hooks also read result attributes, such as
    # Orbref0Result.orbref0_size and ScanResult.scanned / from_cache, which
    # the name check above does not see; the smoke run exercises them
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: all checks passed" in proc.stdout

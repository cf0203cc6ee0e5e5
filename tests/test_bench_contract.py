"""The benchmark's traced run wraps orbitref functions by name; every name
it lists in `perfbench/spans.py` must exist, or a traced run crashes."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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

"""Code that only the tests call does not belong in src/: every function,
method and class that src/orbitref defines is referenced somewhere in
src/orbitref, by a name, an attribute or a string constant, or is a span
target of perfbench.  An import is no use, so a re-export from
`__init__.py` does not count.  A method is matched by its bare name: any
other use of that name counts for it."""

import ast
from pathlib import Path

from test_bench_contract import _targets

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitref"

# helpers that the tests build their fixtures with; no src/ code calls them
TEST_HELPERS = {"Matrix.apply", "Matrix.zeros", "SpectralProfile.from_blocks",
                "OrbitSet.scaled_matrices"}


def _definitions(node, prefix=""):
    """(qualified name, name) of every def and class below node; special
    methods are called by the language and left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_definition_is_referenced_in_src():
    # perfbench traces these by name, so they stay in src/
    defined, referenced = [], {name.rsplit(".", 1)[-1]
                               for names in _targets().values() for name in names}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(f"{path.stem}: {qualified}", qualified, name)
                    for qualified, name in _definitions(tree)]
        referenced.update(_references(tree))
    unused = {qualified for _, qualified, name in defined if name not in referenced}
    extra = sorted(where for where, qualified, _ in defined
                   if qualified in unused - TEST_HELPERS)
    assert unused == TEST_HELPERS, (
        f"defined in src/ but never referenced there: {extra}; "
        f"allowlisted but gone or now used: {sorted(TEST_HELPERS - unused)}")

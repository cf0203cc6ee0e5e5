"""Code that only the tests call does not belong in src/: every function,
method and class that src/orbitref defines is referenced somewhere in
src/orbitref, or is a span target of perfbench.  A module-level function
or class counts as referenced only by a load of its name, or by an
attribute of a package-module alias such as `gi.gaussian_roots`; a
dataclass field, keyword argument or string of the same name does not
count.  A method is matched by its bare name: any name, attribute or
string constant of that name counts for it.  An import is no use, so a
re-export from `__init__.py` does not count."""

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


def _references(tree, modules):
    """(loads, names) of one module: the loads of a bare name and the
    attributes of an alias of one of `modules`, which count for a
    module-level definition, and every name, attribute and string
    constant, which count for a method."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
               for alias in node.names if alias.name in modules}
    loads, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
            if isinstance(node.ctx, ast.Load):
                loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return loads, names


def test_every_src_definition_is_referenced_in_src():
    # perfbench traces these by name, so they stay in src/
    traced = {name.rsplit(".", 1)[-1] for names in _targets().values() for name in names}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined, loads, names = [], set(traced), set(traced)
    for stem, tree in trees.items():
        defined += [(f"{stem}: {qualified}", qualified, name)
                    for qualified, name in _definitions(tree)]
        module_loads, module_names = _references(tree, trees)
        loads |= module_loads
        names |= module_names
    unused = {qualified for _, qualified, name in defined
              if name not in (names if "." in qualified else loads)}
    extra = sorted(where for where, qualified, _ in defined
                   if qualified in unused - TEST_HELPERS)
    assert unused == TEST_HELPERS, (
        f"defined in src/ but never referenced there: {extra}; "
        f"allowlisted but gone or now used: {sorted(TEST_HELPERS - unused)}")

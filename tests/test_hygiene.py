"""Static checks on the package source, using only the stdlib `ast`.

- every module-level private function or class is referenced somewhere
  in the package outside its own body (no dead helpers), and so is every
  module-level private constant outside its own assignment;
- no float literal and no float(...) call appears anywhere, since every
  decision is made in exact rational arithmetic.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fiberatlas"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _names_used(node):
    """Every identifier node refers to: names, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _defined(node):
    """The names a module-level statement binds: a function or class
    name, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _unreferenced_private(kinds):
    """Private module-level names bound by statements of `kinds` that no
    code refers to outside the statement itself."""
    modules = _modules()
    total = Counter()
    for tree in modules.values():
        total.update(_names_used(tree))
    unused = []
    for fname, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            for name in _defined(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                inside = sum(1 for n in _names_used(node) if n == name)
                if total[name] == inside:
                    unused.append(f"{fname}:{node.lineno} {name}")
    return unused


def test_private_module_level_definitions_are_used():
    unused = _unreferenced_private((ast.FunctionDef, ast.ClassDef))
    assert not unused, "private definitions with no reference: " + ", ".join(unused)


def test_private_module_level_constants_are_used():
    unused = _unreferenced_private((ast.Assign, ast.AnnAssign))
    assert not unused, "private constants with no reference: " + ", ".join(unused)


def test_no_floating_point_in_source():
    found = []
    for fname, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{fname}:{node.lineno} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{fname}:{node.lineno} float(...) call")
    assert not found, "floating point in source: " + ", ".join(found)

"""Static checks over the package sources, with the stdlib ast module.

* Every name in a module's __all__ is defined there.  perfbench/tracing.py
  wraps each layer through __all__, so a stale entry breaks a traced run.
* No module imports a name it never uses.  A re-export listed in __all__
  counts as a use.
* Every private module-level function or class is referenced from src/
  outside its own definition; otherwise it is dead, or reached only by tests.
* The only sympy name the package uses is isprime; the rest of sympy is the
  tests' reference.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "heightzero").glob("*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _bound(node):
    """The names an import statement binds; none for other statements."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _defined(tree):
    """Names bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        names.update(_bound(node))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    tree = ast.parse(path.read_text())
    missing = sorted(set(_exported(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ names nothing for {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = set(_exported(tree))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    unused = [
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        for name in _bound(node)
        if name not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


def _references(trees):
    """(name, node) for every name read and attribute taken in the trees."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Attribute):
                yield node.attr, node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    refs = list(_references(ast.parse(p.read_text()) for p in SOURCES))
    unreferenced = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(name == node.name and id(n) not in inside for name, n in refs):
            unreferenced.append(f"{node.name} (line {node.lineno})")
    assert not unreferenced, f"{path.name}: private names unreferenced in src/ {unreferenced}"


def _sympy_names(tree):
    """The sympy names a module takes: imported from sympy, or read as an
    attribute of an imported sympy module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            prefix = "" if node.module == "sympy" else node.module + "."
            yield from (prefix + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "sympy":
                    if a.name != "sympy":
                        yield a.name
                    aliases.add(a.asname or "sympy")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield node.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sympy_is_used_only_for_isprime(path):
    names = sorted(set(_sympy_names(ast.parse(path.read_text()))) - {"isprime"})
    assert not names, f"{path.name}: sympy names other than isprime {names}"

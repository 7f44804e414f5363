"""Static checks over the package sources, with the stdlib ast module.

* Every name in a module's __all__ is defined there.  perfbench/tracing.py
  wraps each layer through __all__, so a stale entry breaks a traced run.
* No module imports a name it never uses.  A re-export listed in __all__
  counts as a use.
* Every private module-level function or class is referenced from src/
  outside its own definition; otherwise it is dead, or reached only by tests.
* So is every public module-level function or class, and every public
  method of a public class, except the names in UNREFERENCED_PUBLIC.  Code
  that only tests reach belongs in tests/ (oracles.py, subgroups.py).
* Every defaulted parameter is passed by at least one call in src/; a
  default no caller overrides is a constant, not a parameter.  Only the
  console-script entry point cli.main is exempt.
* Every defaulted parameter is also left unset by at least one call in src/;
  a default every caller overrides is never used, and the parameter is
  required.
* Every import sits at module level: no Import or ImportFrom node lies
  outside the module body, so a module's dependencies are its first lines.
* No module imports sympy, and numpy is the only third-party package any
  module imports; every other import is relative or from the standard
  library.  sympy is the tests' reference, and importing the CLI loads
  neither sympy nor mpmath.
* The package modules form layers, pinned in LAYERS: cyclotomic and modular
  import no package module, fields, groups and blocks import only
  cyclotomic, and chartab imports only cyclotomic, fields, groups and
  modular.  The arithmetic of Z/n (nu_p, the units, subgroup closure) thus
  has one home, below every layer that uses it.
"""

import ast
import os
import subprocess
import sys
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


def _referenced_outside(node, refs):
    """Whether some reference names the definition outside its own body."""
    inside = {id(n) for n in ast.walk(node)}
    return any(name == node.name and id(n) not in inside for name, n in refs)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    refs = list(_references(ast.parse(p.read_text()) for p in SOURCES))
    unreferenced = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not _referenced_outside(node, refs):
            unreferenced.append(f"{node.name} (line {node.lineno})")
    assert not unreferenced, f"{path.name}: private names unreferenced in src/ {unreferenced}"


# public names that nothing in src/ references, each kept for a reason
UNREFERENCED_PUBLIC = {
    "fields.field_from_values": "perfbench/tracing.py reports it by name (NAMED); "
    "without it in __all__ every traced run raises KeyError in Tracer.metrics",
    "fields.AbelianField.is_subfield_of": "tests/test_acceptance.py calls it as a "
    "method, and that gate changes only in its imports",
}


def _public_definitions(tree):
    """(qualified name, node) for each public module-level function or class
    and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_definition_is_referenced(path):
    refs = list(_references(ast.parse(p.read_text()) for p in SOURCES))
    unreferenced = {
        f"{path.stem}.{qualname}": node.lineno
        for qualname, node in _public_definitions(ast.parse(path.read_text()))
        if not _referenced_outside(node, refs)
    }
    allowed = {name for name in UNREFERENCED_PUBLIC if name.startswith(f"{path.stem}.")}
    unexpected = sorted(f"{name} (line {unreferenced[name]})" for name in unreferenced.keys() - allowed)
    assert not unexpected, f"public names unreferenced in src/ {unexpected}"
    stale = sorted(allowed - unreferenced.keys())
    assert not stale, f"UNREFERENCED_PUBLIC names referenced or gone: {stale}"


# functions whose defaults no call in src/ needs to pass
ENTRY_POINTS = {
    "cli.main": "the console-script entry point, called with no arguments",
}


def _defaulted(tree):
    """(qualified name, callee name, parameter, position, line) for each
    defaulted parameter of a function in the tree.  The callee name is what a
    call writes: the class for __init__.  The position counts the arguments a
    call passes, so it skips a method's self; it is None for keyword-only
    parameters."""
    owner = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        qualname = f"{cls}.{node.name}" if cls else node.name
        callee = cls if node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        skip = 1 if cls and not static else 0
        positional = node.args.posonlyargs + node.args.args
        for i in range(len(positional) - len(node.args.defaults), len(positional)):
            yield qualname, callee, positional[i].arg, i - skip, node.lineno
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, callee, arg.arg, None, node.lineno


def _passes(call, param, position):
    """Whether the call may set the parameter: by keyword, through **kwargs,
    or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _calls(trees):
    """(callee name, call) for every call of a name or an attribute."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    yield node.func.id, node
                elif isinstance(node.func, ast.Attribute):
                    yield node.func.attr, node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_passed_by_some_call(path):
    calls = list(_calls(ast.parse(p.read_text()) for p in SOURCES))
    unset = [
        f"{qualname}({param}=) (line {line})"
        for qualname, callee, param, position, line in _defaulted(ast.parse(path.read_text()))
        if f"{path.stem}.{qualname}" not in ENTRY_POINTS
        and not any(name == callee and _passes(call, param, position) for name, call in calls)
    ]
    assert not unset, f"{path.name}: defaults no call in src/ passes {unset}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_default_is_left_unset_by_some_call(path):
    calls = list(_calls(ast.parse(p.read_text()) for p in SOURCES))
    always = [
        f"{qualname}({param}=) (line {line})"
        for qualname, callee, param, position, line in _defaulted(ast.parse(path.read_text()))
        if f"{path.stem}.{qualname}" not in ENTRY_POINTS
        and not any(name == callee and not _passes(call, param, position) for name, call in calls)
    ]
    assert not always, f"{path.name}: defaults every call in src/ passes {always}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{path.name}: imports outside the module body at {nested}"


def _imported_packages(tree):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_sympy(path):
    assert "sympy" not in set(_imported_packages(ast.parse(path.read_text()))), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_the_only_third_party_import(path):
    packages = set(_imported_packages(ast.parse(path.read_text())))
    third_party = sorted(packages - sys.stdlib_module_names - {"numpy"})
    assert not third_party, f"{path.name}: third-party imports {third_party}"


def test_importing_the_cli_loads_no_sympy():
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    probe = (
        "import sys, heightzero.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('sympy', 'mpmath'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# package modules each layer may import; reports and cli sit above them all
LAYERS = {
    "cyclotomic": set(),
    "modular": set(),
    "fields": {"cyclotomic"},
    "groups": {"cyclotomic"},
    "blocks": {"cyclotomic"},
    "chartab": {"cyclotomic", "fields", "groups", "modular"},
}


def _package_imports(tree):
    """The package modules a module imports.  Imports of the package are
    relative: an absolute one fails the third-party rule above."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (a.name for a in node.names)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem in LAYERS], ids=lambda p: p.name)
def test_each_layer_imports_only_the_layers_below_it(path):
    imported = set(_package_imports(ast.parse(path.read_text())))
    extra = sorted(imported - LAYERS[path.stem])
    assert not extra, f"{path.name} imports {extra}; it may import only {sorted(LAYERS[path.stem])}"

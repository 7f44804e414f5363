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
* The builtin id is used only in the functions of ID_USERS: a table's
  values are interned in one place, chartab._intern, and every other
  per-value reader indexes them through the table's cells.
* CycElt.embed is called only in the functions of EMBED_USERS: chartab._intern
  writes every table value at the table exponent, so no reader of a table
  handles a value's modulus again.
* Every import sits at module level: no Import or ImportFrom node lies
  outside the module body, so a module's dependencies are its first lines.
* No module imports a third-party package: every import is relative or
  from the standard library.  sympy is the tests' reference, and importing
  the CLI loads no module outside the standard library and heightzero; the
  CLI runs with every installed third-party package made unimportable.
* The package modules form layers, pinned in LAYERS: cyclotomic and modular
  import no package module, fields, groups and blocks import only
  cyclotomic, and chartab imports only cyclotomic, fields, groups and
  modular.  The arithmetic of Z/n (nu_p, the units, subgroup closure) thus
  has one home, below every layer that uses it.
"""

import ast
import hashlib
import os
import pkgutil
import site
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


# functions in src/ that may use the builtin id, each for a reason
ID_USERS = {
    "chartab._intern": "the one owner of value identity: one id() pass makes "
    "equal values one index of CharacterTable.values",
    "cli._chunks": "a container placed at several array positions of one output "
    "is encoded once per indentation",
}


def _reads_id(node):
    return isinstance(node, ast.Name) and node.id == "id"


def _calls_embed(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "embed"


def _users(path, uses):
    """Where the file has a node for which uses holds: each module-level
    function or method of a module-level class that does, by qualified
    name; a use anywhere else is named after its class or the module."""

    def has(node):
        return any(map(uses, ast.walk(node)))

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if has(item):
                    name = item.name if isinstance(item, ast.FunctionDef) else "<body>"
                    yield f"{path.stem}.{node.name}.{name}"
        elif has(node):
            name = node.name if isinstance(node, ast.FunctionDef) else "<module>"
            yield f"{path.stem}.{name}"


def test_id_is_used_only_where_value_identity_is_owned():
    users = {name for path in SOURCES for name in _users(path, _reads_id)}
    unexpected = sorted(users - ID_USERS.keys())
    assert not unexpected, f"id() outside ID_USERS: {unexpected}"
    stale = sorted(ID_USERS.keys() - users)
    assert not stale, f"ID_USERS names that use no id(): {stale}"


# functions in src/ that may call CycElt.embed, each for a reason
EMBED_USERS = {
    "chartab._intern": "the one owner of the value modulus: each distinct value "
    "of a CharacterTable is written at the table exponent once",
    "fields.field_from_values": "loose values, outside any table, meet at the lcm "
    "of their moduli for the Galois scan",
    "cyclotomic.CycElt._unify": "arithmetic on two values runs at the lcm of their moduli",
}


def test_embed_is_called_only_where_the_value_modulus_is_owned():
    users = {name for path in SOURCES for name in _users(path, _calls_embed)}
    unexpected = sorted(users - EMBED_USERS.keys())
    assert not unexpected, f".embed() outside EMBED_USERS: {unexpected}"
    stale = sorted(EMBED_USERS.keys() - users)
    assert not stale, f"EMBED_USERS names that call no .embed(): {stale}"


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
def test_no_third_party_import(path):
    packages = set(_imported_packages(ast.parse(path.read_text())))
    third_party = sorted(packages - sys.stdlib_module_names)
    assert not third_party, f"{path.name}: third-party imports {third_party}"


def test_importing_the_cli_loads_no_sympy():
    # nor any module outside the standard library and heightzero; what the
    # interpreter loads before the import (site's .pth hooks) is not counted
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    probe = (
        "import sys; before = set(sys.modules); import heightzero.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('sympy', 'mpmath')))); "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] not in sys.stdlib_module_names | {'heightzero'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["table", "--group", "sl2:7", "--method", "dixon"],
         "7db6eb9242f87a0ec75e4dec9998da4513ca2ade5997755c6a1c9fbdb99caef5"),
        (["realize", "--field", "cyclo:13", "--p", "2", "--cross-check"],
         "f87dd2464f7b0fa1011001b40dbe1b6025ede65a373322edbb7afac7f6f51096"),
    ],
)
def test_the_cli_runs_with_every_third_party_package_stubbed_out(tmp_path, argv, digest):
    # a stub that raises ImportError, first on PYTHONPATH, for each top-level
    # package installed in site-packages but heightzero itself; packages the
    # interpreter imports at start-up, before any heightzero code, keep
    # their own
    startup = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True, check=True
    ).stdout.split()
    sites = [*site.getsitepackages(), site.getusersitepackages()]
    names = [m.name for m in pkgutil.iter_modules(sites) if m.ispkg and m.name.isidentifier()]
    names = [name for name in names if name not in {*startup, "heightzero"} and not name.startswith("_")]
    stubs = tmp_path / "stubs"
    for name in names:
        (stubs / name).mkdir(parents=True)
        (stubs / name / "__init__.py").write_text("raise ImportError('stubbed out')\n")
    src = SOURCES[0].parent.parent
    env = dict(os.environ, PYTHONPATH=f"{stubs}{os.pathsep}{src}")
    if names:  # the stubs shadow the installed packages
        probe = subprocess.run([sys.executable, "-c", f"import {names[0]}"], env=env, capture_output=True)
        assert probe.returncode != 0
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "heightzero.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

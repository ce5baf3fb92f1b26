"""The public surface of modlie is what the program reaches.  Every name
in a module's __all__ must resolve there (bench/tracing.py calls getattr
on each, so a stale entry would crash every traced run), and must be
used by the program: read in src/modlie outside its own definition, or
named in bench/*.py.  A docstring mention, an unused import or a test is
not a use.  The allowlist holds the names an open ROADMAP item will
call; each says which.  What a deletion leaves behind is caught too:
every imported name is read or re-exported where it is imported, and
every private top-level function or class is read by the program."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import modlie

SRC = pathlib.Path(modlie.__file__).parent
BENCH = SRC.parent.parent / "bench"

ALLOWED = {
    "commalg.mult_operator",      # item 3: constructors of the family of A
    "commalg.scale_derivation",   # item 3
    "commalg.make_reduced_poly",  # item 3
    "commalg.make_scalars",       # item 3
    "liealg.is_solvable",         # items 4 and 8: solvability certificates
}

MODULES = [m.name for m in pkgutil.iter_modules(modlie.__path__)
           if hasattr(importlib.import_module("modlie." + m.name),
                      "__all__")]


def _reads(tree, strings=False):
    """(top-level definition or None, name) for every name the tree reads:
    a loaded variable or an attribute, and with strings also each string
    constant (the tracer's tables name functions as strings)."""
    for stmt in tree.body:
        owner = (stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.ClassDef)) else None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif (strings and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                yield owner, node.value


def _used_names():
    """Module -> {name: set of (module, top-level definition)} read in
    src/modlie, plus the names bench/*.py reads, keyed 'bench'."""
    used = {}
    for path in sorted(SRC.glob("*.py")):
        for owner, name in _reads(ast.parse(path.read_text())):
            used.setdefault(name, set()).add((path.stem, owner))
    for path in sorted(BENCH.glob("*.py")):
        for _, name in _reads(ast.parse(path.read_text()), strings=True):
            used.setdefault(name, set()).add(("bench", None))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves_and_is_used(module):
    mod = importlib.import_module("modlie." + module)
    names = set(mod.__all__)
    assert sorted(n for n in names if not hasattr(mod, n)) == []
    used = _used_names()
    reached = {n for n in names if used.get(n, set()) - {(module, n)}}
    allowed = {n for n in names if "%s.%s" % (module, n) in ALLOWED}
    # reached by tests alone: give each a caller, or delete it
    assert sorted(names - reached - allowed) == []
    # reached now: take it off the allowlist
    assert sorted(reached & allowed) == []


def test_allowlist_names_public_names():
    for entry in ALLOWED:
        module, name = entry.split(".")
        assert name in importlib.import_module("modlie." + module).__all__


def _imports(tree):
    """The names the imports of a module bind, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_import_is_read_or_exported(path):
    # an import that a top-level definition of the same name shadows is
    # never read either: a definition left behind by a move
    tree = ast.parse(path.read_text())
    read = {name for _, name in _reads(tree)}
    exported = getattr(importlib.import_module("modlie." + path.stem),
                       "__all__", [])
    defined = {stmt.name for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    imported = set(_imports(tree))
    assert sorted(imported - read - set(exported) | imported & defined) == []


def test_every_private_definition_is_read():
    used = _used_names()
    dead = ["%s.%s" % (path.stem, stmt.name)
            for path in sorted(SRC.glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_")
            and not used.get(stmt.name, set()) - {(path.stem, stmt.name)}]
    assert dead == []


def _imported_modules(tree):
    """The modules, and the names taken from them, a module imports, as
    absolute dotted names (a relative import resolves inside modlie)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["modlie" * (node.level == 1),
                                          node.module]))
            yield base
            yield from (base + "." + alias.name for alias in node.names)


def test_no_module_but_main_imports_the_cli():
    # the CLI is a leaf: the grammar it parses (liealg.build_algebra)
    # cannot drift back into it
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if "modlie.cli" in _imported_modules(
                     ast.parse(path.read_text()))]
    assert importers == ["__main__"]

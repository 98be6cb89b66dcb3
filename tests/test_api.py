import ast
import importlib
import inspect
import pkgutil

import pytest

import ekcells

# every module but the command line, which exports nothing
LIBRARY = sorted(name for _, name, _ in pkgutil.iter_modules(ekcells.__path__) if name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_every_exported_name_resolves(name):
    # a stale entry breaks only the star import, which raises on it
    module = importlib.import_module(f"ekcells.{name}")
    namespace = {}
    exec(f"from ekcells.{name} import *", namespace)
    assert module.__all__ and set(module.__all__) <= namespace.keys()


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(ekcells))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(imported) >= 40
    for module_name, name in imported:
        module = importlib.import_module(f"ekcells.{module_name}")
        assert name in module.__all__, f"ekcells.{module_name} does not export {name!r}"
        assert getattr(ekcells, name) is getattr(module, name)



@pytest.mark.parametrize("name", [*LIBRARY, "cli"])
def test_every_imported_name_is_used(name):
    # an unused-import lint: every module but the package, whose imports are
    # its exports, references each name it imports, ``__future__`` aside
    tree = ast.parse(inspect.getsource(importlib.import_module(f"ekcells.{name}")))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"ekcells.{name} never uses {sorted(imported - used)}"


# The benchmark tracer patches ``chains_between`` by name and reads ``mats``
# for its homology counters, though no code in the package calls either
# (ROADMAP item 8).
UNREFERENCED = {"FinitePoset.chains_between", "IntegerChainComplex.mats"}


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and
    each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_referenced():
    # a dead-code lint: each definition is named somewhere in the package
    # outside its own body, or exported through a module's ``__all__``
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"ekcells.{name}")))
             for name in [*LIBRARY, "cli"]}
    exported = {name for module in trees
                for name in getattr(importlib.import_module(f"ekcells.{module}"), "__all__", ())}
    references = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                references.setdefault(name, []).append((module, node.lineno))
    unreferenced = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if qualname not in exported and qualname not in UNREFERENCED and not any(
            where != module or not node.lineno <= line <= node.end_lineno
            for where, line in references.get(node.name, ()))
    ]
    assert not unreferenced, f"defined but never referenced: {unreferenced}"

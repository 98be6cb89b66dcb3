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

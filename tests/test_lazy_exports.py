"""Lazy package exports: every module still imports, and every package
re-exports exactly the objects its defining modules hold.

Packages resolve their public names on first access, so ``import
repro`` no longer compiles every module; a broken module would
otherwise go unnoticed until a run first touched it.
"""

import ast
import functools
import importlib
import inspect
import json
import pkgutil

import pytest

import repro
from tests.conftest import run_fresh

_FOUND = list(pkgutil.walk_packages(repro.__path__, "repro."))
#: Every module but the ``python -m repro`` entry point, which runs the
#: CLI when imported.
MODULES = ["repro"] + sorted(
    info.name for info in _FOUND if info.name != "repro.__main__")
PACKAGES = ["repro"] + sorted(info.name for info in _FOUND if info.ispkg)


@functools.cache
def _top_level_names(module: str) -> frozenset[str]:
    """Names a module's source defines at top level (not imports)."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module)))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return frozenset(names)


def _defining_module(package: str, name: str) -> str:
    """The one module that defines an export: a submodule of that name,
    the package itself, or the module whose source defines it."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if name in _top_level_names(package):
        return package
    (module,) = [m for m in MODULES if name in _top_level_names(m)]
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_are_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        source = _defining_module(name, export)
        module = importlib.import_module(source)
        expected = module if source == f"{name}.{export}" \
            else getattr(module, export)
        assert getattr(package, export) is expected, f"{name}.{export}"


def test_dir_lists_every_export_before_first_access():
    probe = (
        "import importlib, json\n"
        f"packages = {PACKAGES!r}\n"
        "modules = [importlib.import_module(p) for p in packages]\n"
        "print(json.dumps([sorted(set(m.__all__) - set(dir(m)))"
        " for m in modules]))\n")
    missing = dict(zip(PACKAGES, json.loads(run_fresh(probe))))
    assert not any(missing.values()), missing


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")

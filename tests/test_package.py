"""Checks over the package's source as a whole."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from gridmdl import parsing

from helpers import cache_decorators, cached_functions

# names a module imports only for others to read from it
_REEXPORTS = {("tasks", "MAX_DIM")}  # read by the benchmark's task generator


def _unused_imports(tree: ast.Module, module: str):
    """The `module.name` of each module-level import whose name the module
    never uses, `__future__` imports aside."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (module, name) not in _REEXPORTS:
                    yield f"{module}.{name}"


def test_every_module_uses_what_it_imports():
    package = Path(parsing.__file__).parent
    unused = [name for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text()), path.stem)]
    assert unused == []


def _defined_names(tree: ast.Module):
    """The names a module's top-level statements define: functions, classes
    and names assigned alone. Dunders are left out, as Python reads them
    itself, and so are names unpacked together, such as the palette's
    colours, which name a whole set whether or not each is read."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id


def _loaded_names(tree: ast.Module):
    """Every name a module loads: as a name, as an attribute or by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_level_name_is_used():
    """Each function, class and assigned name at the top of a package
    module is loaded somewhere in the package, the benchmark or the tests."""
    root = Path(parsing.__file__).resolve().parents[2]
    files = [path for folder in ("src/gridmdl", "bench", "tests")
             for path in sorted((root / folder).glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in files}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              if path.parent.name == "gridmdl"
              for name in _defined_names(tree) if name not in loaded]
    assert unused == []


def test_importing_the_package_loads_no_scipy():
    """numpy is the one runtime dependency. Importing `scipy.ndimage` alone
    would add about 27 MB and a quarter of a second to every process, the
    `eval --jobs` workers included, so a fresh interpreter that imports
    gridmdl and every module of it must hold no scipy module."""
    package = Path(parsing.__file__).resolve().parent
    modules = ", ".join(f"gridmdl.{path.stem}" for path in sorted(package.glob("*.py"))
                        if path.name != "__init__.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    code = (f"import sys, gridmdl, {modules}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                           timeout=60, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_every_cache_is_bounded():
    """A process-wide cache lives across every task of an `eval` batch. So
    each cache of the package is an `lru_cache` called with an explicit
    `maxsize` that is an int: no `functools.cache`, used as a decorator or
    not, no bare `lru_cache` and no `maxsize=None`."""
    package = Path(parsing.__file__).resolve().parent
    unbounded = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"gridmdl.{path.stem}")
        for node in ast.walk(tree):
            if ((isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(alias.name == "cache" for alias in node.names))
                    or (isinstance(node, ast.Attribute) and node.attr == "cache"
                        and getattr(node.value, "id", "") == "functools")):
                unbounded.append(f"{path.stem}: functools.cache")
        for name, dec, kind in cache_decorators(tree):
            explicit = isinstance(dec, ast.Call) and (
                dec.args or any(k.arg == "maxsize" for k in dec.keywords))
            fn = getattr(module, name, None)
            maxsize = fn.cache_parameters()["maxsize"] if explicit and fn is not None else None
            if kind == "cache" or type(maxsize) is not int:
                unbounded.append(f"{path.stem}.{name}")
    assert unbounded == []


def test_every_cache_has_a_key_test():
    """A process-wide cache must depend on every input that affects its
    answer. Each function of the package under `lru_cache` has a test named
    `test_<name>_is_keyed_on_...`, its leading underscore dropped, that
    asks keys differing in one part each and compares every answer with
    the uncached `__wrapped__` answer of its own key."""
    package = Path(parsing.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    names = {node.name for path in sorted(tests.glob("test_*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)}
    untested = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
                for name in cached_functions(ast.parse(path.read_text()))
                if not any(test.startswith(f"test_{name.lstrip('_')}_is_keyed_on_")
                           for test in names)]
    assert untested == []

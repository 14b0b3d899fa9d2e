"""Checks over the package's source as a whole."""

import ast
from pathlib import Path

from gridmdl import parsing

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

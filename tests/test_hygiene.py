"""Static checks on the package source: every module-level import is used,
and every name a module exports in ``__all__`` exists."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ibtforge"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names that the module's top-level imports bind, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree) or ())
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if _exported(ast.parse(p.read_text(encoding="utf-8"))) is not None],
    ids=lambda p: p.name,
)
def test_every_exported_name_resolves(path):
    names = _exported(ast.parse(path.read_text(encoding="utf-8")))
    module_name = "ibtforge" if path.stem == "__init__" else f"ibtforge.{path.stem}"
    module = importlib.import_module(module_name)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names missing {missing}"

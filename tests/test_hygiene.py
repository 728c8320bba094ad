"""Static checks on the package source: every module-level import is used,
every private module-level name is referenced, and every name a module
exports in ``__all__`` exists; and the benchmark's imports from ``ibtforge``
and its hooks on ``ibtforge.ibt`` still find the names they use."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ibtforge"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"
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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names that the module's top-level definitions and
    assignments bind, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    return bound


def _referenced_names() -> set[str]:
    """Every name any module of the package reads, as a name or an attribute,
    or imports from a sibling."""
    referenced = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_level_name_is_referenced(path):
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    referenced = _referenced_names()
    unreferenced = {name: line for name, line in defined.items() if name not in referenced}
    assert not unreferenced, f"{path.name}: private names nothing references {unreferenced}"


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


@pytest.mark.parametrize("path", sorted(SPANS.parent.glob("*.py")), ids=lambda p: p.name)
def test_every_name_the_benchmark_imports_exists(path):
    """Each ``from ibtforge... import name`` and ``import ibtforge...`` in
    the benchmark harness, at module level or inside a function, resolves;
    unlike the smoke test, this needs no gcc."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ibtforge":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ibtforge":
                    importlib.import_module(alias.name)
    assert not missing, f"{path.name}: imported names missing {missing}"


def test_benchmark_hooks_install_and_restore():
    """``perfbench/spans.py`` wraps ``ibtforge.ibt`` attributes by name, so a
    refactor that drops one fails here rather than only in a traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ibt = importlib.import_module("ibtforge.ibt")
    before = dict(vars(ibt))
    with spans.installed(spans.Tracer(), 1):
        wrapped = {name for name, value in vars(ibt).items() if before.get(name) is not value}
    assert set(spans.SNAPSHOT_CALLS) < wrapped
    after = dict(vars(ibt))
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []


def test_runner_swallows_no_infrastructure_fault():
    """A judge or backend fault stops the run at the last completed phase,
    so no handler in ``ibt.py`` may catch one, or catch everything."""
    translator = importlib.import_module("ibtforge.translator")
    faults = {"Exception", "BaseException", "JudgeFailureError"} | {
        name
        for name, value in vars(translator).items()
        if isinstance(value, type) and issubclass(value, translator.TranslatorError)
    }
    caught = []
    for node in ast.walk(ast.parse((SRC / "ibt.py").read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(t, "id", getattr(t, "attr", None)) for t in types if t is not None}
        if node.type is None or names & faults:
            caught.append((node.lineno, sorted(names & faults) or "bare"))
    assert not caught, f"ibt.py: handlers that catch an infrastructure fault {caught}"

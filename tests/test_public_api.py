"""The package exports only names that something besides the tests uses,
and the state-level oracles of the tests stay out of it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qkdlab
from qkdlab.cloner import AmplitudeMatrix, ClonerParams
from qkdlab.qudit import BasisSpec, StateVector

ROOT = Path(__file__).resolve().parents[1]


def _names_used_by(paths) -> set[str]:
    """Every name the files read, import or read as an attribute.  A
    definition does not use its own name, and neither does an assignment."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    # callers: the library's modules (not its __init__, which only
    # re-exports), the scripts and the benchmark harness
    library = [p for p in sorted((ROOT / "src" / "qkdlab").glob("*.py"))
               if p.name != "__init__.py"]
    callers = library + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    exported = {node.name for node in ast.walk(ast.parse(Path(qkdlab.__file__).read_text()))
                if isinstance(node, ast.alias)}
    assert exported
    assert sorted(exported - _names_used_by(callers)) == []


def test_the_oracles_are_not_library_names():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    oracles = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    oracles |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets}
    modules = [qkdlab] + [importlib.import_module(f"qkdlab.{info.name}")
                          for info in pkgutil.iter_modules(qkdlab.__path__)]
    for module in modules:
        assert not oracles & set(vars(module)), module.__name__
    for owner, method in ((StateVector, "overlap"), (BasisSpec, "state"),
                          (ClonerParams, "identity"), (AmplitudeMatrix, "norm_squared")):
        assert not hasattr(owner, method), (owner.__name__, method)

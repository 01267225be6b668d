"""The package imports nothing outside the standard library, and every
function the benchmark tracer wraps exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import cuspred

PACKAGE = Path(cuspred.__file__).parent


def test_only_standard_library_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_traced_functions_exist():
    # perfbench/tracing.py wraps these by name; a renamed or deleted one
    # would drop out of the per-layer report without an error.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    for module, name in tracing.LAYER_FUNCTIONS:
        func = getattr(importlib.import_module(f"cuspred.{module}"), name, None)
        assert callable(func), f"cuspred.{module}.{name}"

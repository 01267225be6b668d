"""The package imports nothing outside the standard library, a cold
command imports only the layers it runs, and every function the
benchmark tracer wraps exists and is traced."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import cuspred
import cuspred.packets  # noqa: F401  every layer module is loaded before the tracer tests
from cuspred.cli import datum_to_obj, main
from cuspred.fixtures import gallery_entry

PACKAGE = Path(cuspred.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# What enumerate and validate never run, so a cold call never imports.
LAZY = ("cuspred.hecke", "cuspred.packets", "fractions")


def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh(script: str):
    """Run the script in a fresh interpreter on this source tree and
    return the JSON it prints."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return json.loads(done.stdout)


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
    assert tracing().LAYER_FUNCTIONS
    for module, name in tracing().LAYER_FUNCTIONS:
        func = getattr(importlib.import_module(f"cuspred.{module}"), name, None)
        assert callable(func), f"cuspred.{module}.{name}"


def test_cold_enumerate_and_validate_skip_hecke_and_packets():
    sp4 = json.dumps(datum_to_obj(gallery_entry("sp4").datum))
    runs = [["enumerate", sp4, "--degree", "2"], ["enumerate", sp4, "--count"],
            ["validate", sp4, "--format", "json"], ["describe", sp4], ["packet", sp4]]
    seen = fresh(
        "import contextlib, io, json, sys\n"
        "import cuspred.cli\n"
        f"lazy = {LAZY!r}\n"
        "seen = [[0, [name for name in lazy if name in sys.modules]]]\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cuspred.cli.main(argv)\n"
        "    seen.append([code, [name for name in lazy if name in sys.modules]])\n"
        "print(json.dumps(seen))\n")
    # After the import and each of the first three calls, then describe
    # and packet, which load what they run.
    assert seen == [[0, []], [0, []], [0, []], [0, []],
                    [0, ["cuspred.hecke"]], [0, list(LAZY)]]


def test_tracer_finds_every_layer_module_loaded():
    # The tracer imports only these two before it looks each module up.
    loaded = fresh("import json, sys\nimport cuspred.cli\nimport cuspred.packets\n"
                   "print(json.dumps(sorted(sys.modules)))\n")
    assert {f"cuspred.{module}" for module, _ in tracing().LAYER_FUNCTIONS} <= set(loaded)


def cuspred_attributes() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if (name == "cuspred" or name.startswith("cuspred.")) and module is not None
            for attr, value in vars(module).items()}


def test_tracer_sees_the_lazily_imported_layers():
    sp6 = json.dumps(datum_to_obj(gallery_entry("sp6").datum))
    module = tracing()
    before = cuspred_attributes()
    tracer = module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["describe", sp6], ["packet", sp6], ["selfcheck", "--dualdim", "3"]):
                assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    for name in ("hecke.reducibility_report", "packets.companions", "hecke.verify_identity"):
        assert tracer.calls.get(name, 0) > 0, name
    after = cuspred_attributes()
    assert after.keys() == before.keys()
    for key, value in after.items():
        assert value is before[key], key
        assert getattr(getattr(value, "__code__", None), "co_filename", None) != module.__file__
    # A sweep after uninstall calls the originals: it records no span.
    spans = len(tracer.starts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["selfcheck", "--dualdim", "3"]) == 0
    assert len(tracer.starts) == spans

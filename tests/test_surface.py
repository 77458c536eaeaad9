"""The package exports only what a scenario or a CLI command reaches.

A function exported by `orliczkit/__init__.py` must be referenced somewhere
in the package's own modules outside its own definition (a name or an
attribute, not an import). So must every public method and property of an
exported class. Reference routes that only tests use live in
tests/oracles.py instead, and the package exports none of them.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import orliczkit

PACKAGE = Path(orliczkit.__file__).parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def references_outside_own_def() -> set[str]:
    """Names and attributes used in the package modules, each outside the
    top-level definition of that same name."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_exported_function_is_reached():
    exported = {name for name, value in vars(orliczkit).items()
                if inspect.isfunction(value) and not name.startswith("_")}
    unreached = sorted(exported - references_outside_own_def())
    assert not unreached, f"exported but reached by no scenario or command: {unreached}"


def test_every_public_member_of_an_exported_class_is_reached():
    # matched by name, as functions are; dunders are the language's, not ours
    used = references_outside_own_def()
    unreached = sorted(
        f"{cls.__name__}.{name}"
        for cls in vars(orliczkit).values() if inspect.isclass(cls)
        for name, member in vars(cls).items()
        if not name.startswith("_") and name not in used
        and (inspect.isfunction(member)
             or isinstance(member, (property, classmethod, staticmethod))))
    assert not unreached, f"public members that no package module references: {unreached}"


def test_no_oracle_is_exported():
    # the names tests/oracles.py defines at its top level: a function, class
    # or constant the package exports under one of them has crept back in
    defined = set()
    for top in ast.parse(ORACLES.read_text(encoding="utf-8")).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defined.add(top.name)
        elif isinstance(top, ast.Assign):
            defined.update(t.id for t in top.targets if isinstance(t, ast.Name))
    exported = sorted(defined & set(vars(orliczkit)))
    assert defined and not exported, f"oracles the package exports: {exported}"


def test_import_loads_no_scipy():
    # NumPy is the one runtime dependency: generator builds carry their own
    # monotone cubic and the L kernel its own logistic function, and any
    # SciPy module would cost every process time and memory at start-up
    code = ("import sys, orliczkit; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"


def load_layertrace():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_name_the_layer_trace_wraps_resolves():
    # perfbench/layertrace.py wraps each (module, attribute) of FUNCTION_SPANS
    # by getattr, and its prepare() fails on a name that is gone
    layertrace = load_layertrace()
    missing = [f"{module}.{attr}" for _, module, attr, _, _ in layertrace.FUNCTION_SPANS
               if not hasattr(importlib.import_module(module), attr)]
    assert layertrace.FUNCTION_SPANS and not missing, f"traced names that are gone: {missing}"


def test_a_traced_run_sees_its_layers_and_puts_every_original_back():
    # prepare() also patches CertifiedOperator.apply and SampleFunction.__init__,
    # so a traced benchmark run needs those names as well
    from orliczkit import verify
    from orliczkit.measure import SampleFunction, uniform_space

    scenario = json.loads((PACKAGE / "scenarios" / "thm46b_norm_1_2.json").read_text())
    scenario["inputs"]["count"] = 4
    tracer = load_layertrace().Tracer()
    tracer.prepare()
    tracer.install()
    try:
        report = verify.run_scenario(scenario)
        SampleFunction(uniform_space(2), [1.0, 2.0])
    finally:
        tracer.uninstall()
    assert report["status"] == "pass" and report["trials"] == 4
    for layer in ("verify.run_scenario", "verify.inputs", "operators.apply",
                  "orlicz.luxemburg_norm", "orlicz.amemiya_norm"):
        assert tracer.layers[layer].calls >= 1, layer
    assert tracer.sample_functions >= 1
    restored = [f"{owner.__name__}.{key}" for owner, key, original, _ in tracer._patches
                if getattr(owner, key) is not original]
    assert tracer._patches and not restored, f"still wrapped after uninstall: {restored}"

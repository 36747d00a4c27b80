import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: Suffixes by which the tracer splits a function's calls by probe kind.
PROBE_SUFFIXES = (".pure", ".mixed")


def reported_functions():
    """The ``REPORTED_FUNCTIONS`` tuple of the benchmark tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REPORTED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no REPORTED_FUNCTIONS")


def test_reported_functions_are_public_functions_of_the_package():
    # a deleted or renamed function would silently report zero calls per layer
    names = reported_functions()
    assert names
    missing = []
    for name in names:
        for suffix in PROBE_SUFFIXES:
            name = name.removesuffix(suffix)
        module_name, function = name.split(".")
        module = importlib.import_module(f"qmultimeter.{module_name}")
        obj = getattr(module, function, None)
        if (
            function.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__
        ):
            missing.append(name)
    assert missing == []

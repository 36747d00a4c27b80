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


SOURCE = TRACING.parents[1] / "src" / "qmultimeter"
WORKLOADS = TRACING.parent / "workloads.py"


def calls_by_definition(path):
    """``{top-level name: names it calls}`` for the definitions and statements of a source file."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.setdefault(owner, set()).add(name)
    return found


def public_functions():
    """``(module, name)`` of each public module-level function in the package, not imported."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path.stem, node.name


def benchmark_names():
    """Functions the benchmark names: ``REPORTED_FUNCTIONS`` and each ``qm.<name>`` of its workloads."""
    names = {name.split(".")[1] for name in reported_functions()}
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "qm":
            names.add(node.attr)
    return names


def test_every_exported_function_runs_outside_the_tests():
    # a function only tests call belongs in tests/textbook.py, not in the package,
    # whether __init__.py exports it or not
    calls = {path.stem: calls_by_definition(path) for path in SOURCE.glob("*.py")}
    bench = benchmark_names()
    idle = [
        f"{module}.{name}"
        for module, name in public_functions()
        if name not in bench
        and not any(
            name in called
            for other, owners in calls.items() if other != "__init__"
            for owner, called in owners.items() if (other, owner) != (module, name)
        )
    ]
    assert idle == []

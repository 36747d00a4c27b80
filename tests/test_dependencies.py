import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qmultimeter"
TEXTBOOK = Path(__file__).resolve().parent / "textbook.py"

#: numpy is the package's one dependency (pyproject.toml).
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """Top-level names of the modules a source file imports; relative imports are the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(SOURCE.glob("*.py"))
    assert len(sources) > 1
    outside = [
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(path)
        if name not in ALLOWED
    ]
    assert outside == []


def test_textbook_oracle_reads_only_numpy_and_the_public_constructors():
    # the oracle stays independent of the library paths it is compared with
    found = set()
    for node in ast.walk(ast.parse(TEXTBOOK.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert found <= {"numpy", "qmultimeter.make_observable", "qmultimeter.make_channel"}


#: Defaulted parameters of the package's public module-level functions.
DEFAULTED_PARAMETERS = 34


def defaulted_parameters(path):
    """``(name, count)`` for each public module-level function of a source file that has defaults."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield f"{path.stem}.{node.name}", count


def test_public_functions_add_no_defaulted_parameters():
    found = dict(pair for path in sorted(SOURCE.glob("*.py")) for pair in defaulted_parameters(path))
    total = sum(found.values())
    assert total == DEFAULTED_PARAMETERS, (
        f"public functions have {total} defaulted parameters, not {DEFAULTED_PARAMETERS}. "
        "ROADMAP aim 2 asks that an option have two callers that need different values; "
        f"pin the new count only for such an option. Found: {found}"
    )

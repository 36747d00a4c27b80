import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qmultimeter"

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

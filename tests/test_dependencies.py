import ast
import sys
from pathlib import Path

import pytest

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


#: numpy names added in 2.0 or later: pyproject.toml promises numpy>=1.24,
#: which cannot be installed beside the 2.x the suite runs on, so the package
#: is kept off them by name.
NUMPY_2_NAMES = {
    "vecdot", "matvec", "vecmat", "matrix_transpose", "permute_dims", "concat", "unstack",
    "cumulative_sum", "cumulative_prod", "isdtype", "astype", "bitwise_count", "trapezoid",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "pow",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
}
NUMPY_2_LINALG_NAMES = {
    "vecdot", "matrix_transpose", "matrix_norm", "vector_norm", "svdvals", "diagonal",
    "trace", "outer", "cross", "tensordot", "matmul",
}
#: The stacked transpose ``x.mT`` is an array attribute from numpy 2.0.
NUMPY_2_ATTRIBUTES = {"mT"}


def numpy_2_uses(source):
    """Uses of numpy >= 2.0 names in Python source: ``np.`` and ``np.linalg.`` attributes, imports, ``.mT``."""
    namespaces = {"np": NUMPY_2_NAMES, "numpy": NUMPY_2_NAMES,
                  "np.linalg": NUMPY_2_LINALG_NAMES, "numpy.linalg": NUMPY_2_LINALG_NAMES}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in namespaces.get(ast.unparse(node.value), set()) | NUMPY_2_ATTRIBUTES:
                yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in namespaces:
            yield from (a.name for a in node.names if a.name in namespaces[node.module])


@pytest.mark.parametrize("source, found", [
    ("np.vecdot(a, b)", ["vecdot"]), ("numpy.matvec(a, b)", ["matvec"]), ("x.mT @ x", ["mT"]),
    ("np.linalg.matrix_norm(x)", ["matrix_norm"]), ("from numpy import concat", ["concat"]),
    ("from numpy.linalg import vecdot", ["vecdot"]),
    ("np.concatenate(x); np.linalg.norm(x); np.trace(x); np.outer(a, b); x.T; pow(2, 3)", []),
])
def test_numpy_floor_scan_finds_numpy_2_names(source, found):
    assert list(numpy_2_uses(source)) == found


def test_package_uses_no_name_missing_from_its_numpy_floor():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in numpy_2_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


#: Defaulted parameters of the package's public module-level functions.
DEFAULTED_PARAMETERS = 30


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

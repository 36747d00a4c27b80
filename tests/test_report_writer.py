"""The structured report writer against ``json.dumps``, kept as its oracle.

``emit_report(reports, "structured")`` writes the report schema directly.
The reference is the call it replaced, ``json.dumps(payload, indent=2,
sort_keys=True)`` and a newline, and every case must give the same bytes.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmultimeter.cli import RUNS, emit_report, execute, load_scenario, main
from qmultimeter.verify import VerificationReport

ROOT = Path(__file__).resolve().parent.parent


def reference(reports) -> str:
    payload = {"reports": [rep.to_dict() for rep in reports]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def assert_same_bytes(reports):
    assert emit_report(reports, "structured") == reference(reports)


# any code point: quotes, backslashes, control characters, non-ASCII,
# non-BMP characters and lone surrogates
TEXT = st.text(st.characters(exclude_categories=()))
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308, math.inf, -math.inf])
# numpy floats are floats, written as float.__repr__ writes them
VALUES = FLOATS | FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none()
REPORTS = st.builds(VerificationReport, TEXT, TEXT, st.dictionaries(TEXT, VALUES), TEXT)


@settings(max_examples=300, deadline=None)
@given(st.lists(REPORTS, max_size=4))
@example([VerificationReport(
    '"\\\x00\x1f\x7f', "\xe9 \U0001F600",
    {"\ud800": -0.0, "\U0010FFFF": 5e-324, '"\\': math.nan, "b": np.float64(0.1),
     "a": -math.inf, "": 1.7e308},
    "\udfff\n\t")])
def test_arbitrary_reports(reports):
    assert_same_bytes(reports)


@pytest.mark.parametrize(
    "reports",
    [[], [VerificationReport("", "", {}, "")],
     [VerificationReport("a", "pass"), VerificationReport("b", "fail", {"x": 1.0}, "y")]],
    ids=["no-reports", "empty-fields", "empty-residuals-then-one"],
)
def test_empty_reports_and_residuals(reports):
    assert_same_bytes(reports)


def every_run_kind() -> dict:
    """A scenario with one run of every command and check, some failing."""
    bundle = {"kind": "multimeter", "construction": "push_button", "channels": ["Id", "X"]}
    pair = [{"of": "B", "index": 0}, {"of": "B", "index": 1}]
    return {"seed": 3, "objects": {
        "S1": {"kind": "observable", "builtin": "spin", "axis": [1, 0, 0]},
        "S3": {"kind": "observable", "builtin": "spin", "axis": [0, 0, 1]},
        "Id": {"kind": "channel", "builtin": "identity", "dim": 2},
        "X": {"kind": "channel", "builtin": "unitary", "matrix": [[0, 1], [1, 0]]},
        "B": bundle,
        "md": {"kind": "multimeter", "construction": "minimal_dilation", "observable": "S1"},
        "pauli": {"kind": "multimeter", "builtin": "pauli"}},
        "runs": [
            {"command": "program", "multimeter": "md", "probe": {"of": "md"}, "expect": "S1"},
            {"command": "program", "multimeter": "md", "probe": {"of": "md"}, "expect": "S3",
             "label": "S1 is not \"S3\""},
            {"command": "verify", "check": "sharp_orthogonality", "multimeter": "pauli",
             "probes": [{"of": "pauli", "index": 0}, {"of": "pauli", "index": 2}]},
            {"command": "verify", "check": "channel_orthogonality", "multimeter": "B",
             "probes": pair},
            {"command": "verify", "check": "convex_hull", "multimeter": "B", "trials": 5,
             "programmed": [{"probe": pair[0], "device": "Id"},
                            {"probe": pair[1], "device": "X"}]},
            {"command": "verify", "check": "purification", "multimeter": "md",
             "probe": {"density": [[0.5, 0], [0, 0.5]]}},
            {"command": "verify", "check": "counterexample_search", "dim_h": 2, "dim_k": 2,
             "trials": 50},
            {"command": "bounds", "outcome_counts": [2, 3], "expect": [3, 12]},
            {"command": "bounds", "outcome_counts": [2, 2], "expect": [1, 1]},
        ]}


def test_one_report_of_every_run_kind():
    scenario = every_run_kind()
    kinds = {(run["command"], run.get("check")) for run in scenario["runs"]}
    checks = RUNS["command"]["verify"]["check"]
    assert kinds == {("program", None), ("bounds", None), *(("verify", c) for c in checks)}
    reports = execute(scenario)
    assert {rep.verdict for rep in reports} >= {"pass", "fail", "not_applicable"}
    assert_same_bytes(reports)


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.name)
def test_shipped_scenarios_through_main(tmp_path, path):
    report = tmp_path / "report.json"
    assert main([str(path), "--format", "structured", "--report", str(report)]) == 0
    reports = execute(load_scenario(str(path)))
    assert report.read_bytes() == reference(reports).encode("ascii")


@pytest.mark.parametrize("residuals", [{1: 0.5}, {"a": 1.0, 2: 0.5}])
def test_non_string_residual_keys_raise(residuals):
    with pytest.raises(TypeError):
        emit_report([VerificationReport("a", "pass", residuals)], "structured")


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), 1j, {1, 2}])
def test_non_scalar_values_raise_as_json_does(value):
    reports = [VerificationReport("a", "pass", {"x": value})]
    with pytest.raises(TypeError):
        reference(reports)
    with pytest.raises(TypeError):
        emit_report(reports, "structured")

import json

import numpy as np
import pytest

from qmultimeter.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIMENSION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFERENCE,
    emit_report,
    main,
    parse_report,
    run_scenario,
)
from qmultimeter.exceptions import ScenarioParseError, ScenarioReferenceError
from qmultimeter.verify import VerificationReport


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def spin_objects():
    return {
        "S1": {"kind": "observable", "builtin": "spin", "axis": [1, 0, 0]},
        "S3": {"kind": "observable", "builtin": "spin", "axis": [0, 0, 1]},
    }


PAULI_SCENARIO = {
    "seed": 7,
    "objects": {
        **spin_objects(),
        "S2": {"kind": "observable", "builtin": "spin", "axis": [0, 1, 0]},
        "merge1": {"kind": "kernel", "weights": [[1, 0], [1, 0], [0, 1], [0, 1]]},
        "merge2": {"kind": "kernel", "weights": [[1, 0], [0, 1], [1, 0], [0, 1]]},
        "merge3": {"kind": "kernel", "weights": [[1, 0], [0, 1], [0, 1], [1, 0]]},
        "pauli": {"kind": "multimeter", "builtin": "pauli"},
    },
    "runs": [
        {
            "command": "program",
            "label": f"spin-{i}",
            "multimeter": "pauli",
            "probe": {"of": "pauli", "index": i - 1},
            "kernel": f"merge{i}",
            "expect": f"S{i}",
            "tol": 1e-12,
        }
        for i in (1, 2, 3)
    ]
    + [
        {
            "command": "verify",
            "check": "sharp_orthogonality",
            "multimeter": "pauli",
            "probes": [{"of": "pauli", "index": 0}, {"of": "pauli", "index": 2}],
        },
        {"command": "bounds", "outcome_counts": [2, 2, 2], "expect": [3, 24]},
    ],
}


class TestRunScenario:
    def test_pauli_scenario_passes(self, tmp_path):
        status, reports = run_scenario(
            write_scenario(tmp_path, PAULI_SCENARIO),
            report_path=str(tmp_path / "report.txt"),
        )
        assert status == EXIT_OK
        verdicts = [r.verdict for r in reports]
        assert verdicts == ["pass", "pass", "pass", "not_applicable", "pass"]

    def test_undefined_reference(self, tmp_path):
        payload = {
            "objects": {},
            "runs": [
                {
                    "command": "program",
                    "multimeter": "ghost",
                    "probe": {"vector": [[1, 0], [0, 0]]},
                }
            ],
        }
        with pytest.raises(ScenarioReferenceError):
            run_scenario(write_scenario(tmp_path, payload))

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"runs": [\n  {"command" "program"}\n]}')
        with pytest.raises(ScenarioParseError, match="line 2"):
            run_scenario(str(path))

    def test_missing_seed_with_randomness(self, tmp_path):
        payload = {
            "objects": {},
            "runs": [
                {
                    "command": "verify",
                    "check": "counterexample_search",
                    "dim_h": 2,
                    "dim_k": 2,
                    "trials": 10,
                }
            ],
        }
        with pytest.raises(ScenarioParseError, match="seed"):
            run_scenario(write_scenario(tmp_path, payload))

    def test_check_failure_sets_exit_one(self, tmp_path):
        payload = {
            "objects": {
                **spin_objects(),
                "pauli": {"kind": "multimeter", "builtin": "pauli"},
                "merge1": {"kind": "kernel", "weights": [[1, 0], [1, 0], [0, 1], [0, 1]]},
            },
            "runs": [
                {
                    "command": "program",
                    "multimeter": "pauli",
                    "probe": {"of": "pauli", "index": 0},
                    "kernel": "merge1",
                    "expect": "S3",
                    "tol": 1e-12,
                }
            ],
        }
        status, reports = run_scenario(
            write_scenario(tmp_path, payload), report_path=str(tmp_path / "r.txt")
        )
        assert status == EXIT_CHECK_FAILED
        assert reports[0].verdict == "fail"
        assert "violated" in reports[0].details


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert main([write_scenario(tmp_path, PAULI_SCENARIO)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out and "bounds" in out

    def test_parse_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main([str(path)]) == EXIT_PARSE

    def test_reference_exit(self, tmp_path, capsys):
        payload = {"objects": {"M": {"kind": "multimeter", "builtin": "wrong"}}, "runs": []}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_REFERENCE

    def test_dimension_exit(self, tmp_path, capsys):
        payload = {
            "objects": {
                "Z": {
                    "kind": "observable",
                    "dim": 2,
                    "outcomes": [1, 2],
                    "effects": {"1": [[1, 0], [0, 0]], "2": [[0, 0], [0, 1]]},
                },
                "C": {"kind": "channel", "builtin": "identity", "dim": 2},
                "M": {
                    "kind": "multimeter",
                    "dim_h": 2,
                    "dim_k": 2,
                    "pointer": "Z",
                    "interaction": "C",
                },
            },
            "runs": [],
        }
        assert main([write_scenario(tmp_path, payload)]) == EXIT_DIMENSION

    def test_search_above_dimension_cap_exit(self, tmp_path, capsys):
        payload = {
            "seed": 1,
            "objects": {},
            "runs": [
                {
                    "command": "verify",
                    "check": "counterexample_search",
                    "dim_h": 64,
                    "dim_k": 65,
                    "trials": 1,
                }
            ],
        }
        assert main([write_scenario(tmp_path, payload)]) == EXIT_DIMENSION
        assert "4096" in capsys.readouterr().err

    def test_swap_above_dimension_cap_exit(self, tmp_path, capsys, monkeypatch):
        def no_allocation(dim):
            raise AssertionError(f"swap coupling of dimension {dim * dim} allocated")

        monkeypatch.setattr("qmultimeter.multimeter._swap_unitary", no_allocation)
        payload = {"objects": {"M": {"kind": "multimeter", "builtin": "swap", "dim": 65}}, "runs": []}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_DIMENSION
        assert "4096" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"dim_h": 2, "trials": 10},
            {"dim_h": 2, "dim_k": "x", "trials": 10},
            {"dim_h": 2.5, "dim_k": 2, "trials": 10},
            {"dim_h": 2, "dim_k": 2, "trials": True},
            {"dim_h": 2, "dim_k": 2, "trials": None},
        ],
    )
    def test_search_fields_must_be_integers(self, tmp_path, capsys, fields):
        run = {"command": "verify", "check": "counterexample_search", **fields}
        payload = {"seed": 1, "objects": {}, "runs": [run]}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_PARSE
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "thresholds",
        [
            {"overlap": "x"},
            {"overlap": float("nan")},
            {"distance": float("inf")},
            {"overlap": True},
            {"overlapp": 0.1},
            [0.1],
        ],
    )
    def test_search_thresholds_validated(self, tmp_path, capsys, thresholds):
        run = {
            "command": "verify",
            "check": "counterexample_search",
            "dim_h": 2,
            "dim_k": 2,
            "trials": 10,
            "thresholds": thresholds,
        }
        payload = {"seed": 1, "objects": {}, "runs": [run]}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_PARSE
        assert "threshold" in capsys.readouterr().err

    def test_search_integer_threshold_accepted(self, tmp_path, capsys):
        # overlap 0 counts the orthogonal structured samples as violations
        run = {
            "command": "verify",
            "check": "counterexample_search",
            "dim_h": 2,
            "dim_k": 2,
            "trials": 400,
            "thresholds": {"overlap": 0},
        }
        payload = {"seed": 1, "objects": {}, "runs": [run]}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_CHECK_FAILED

    def test_tol_flag_overrides_program_tolerance(self, tmp_path, capsys):
        payload = {
            "objects": {
                **spin_objects(),
                "pauli": {"kind": "multimeter", "builtin": "pauli"},
                "merge1": {"kind": "kernel", "weights": [[1, 0], [1, 0], [0, 1], [0, 1]]},
            },
            "runs": [
                {
                    "command": "program",
                    "multimeter": "pauli",
                    "probe": {"of": "pauli", "index": 0},
                    "kernel": "merge1",
                    "expect": "S1",
                }
            ],
        }
        path = write_scenario(tmp_path, payload)
        assert main([path]) == EXIT_OK
        # an impossible tolerance flips the same comparison to a failure
        assert main([path, "--tol", "1e-30"]) == EXIT_CHECK_FAILED

    def test_list_builtins(self, capsys):
        assert main(["--list-builtins"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("pauli", "swap", "spin_pair", "minimal_dilation", "shared_pointer"):
            assert name in out


class TestReportFormats:
    def test_structured_round_trip(self, tmp_path):
        _, reports = run_scenario(
            write_scenario(tmp_path, PAULI_SCENARIO), report_path=str(tmp_path / "r.json")
        )
        text = emit_report(reports, "structured")
        assert parse_report(text) == list(reports)

    def test_empty_results_header_only(self):
        assert emit_report([], "text") == "# 0 check(s)\n"

    def test_text_contains_verdict_and_residuals(self):
        rep = VerificationReport("demo", "pass", {"overlap": 0.5}, "all good")
        text = emit_report([rep], "text")
        assert "demo: pass" in text
        assert "overlap=5.000000e-01" in text

    def test_identical_seed_byte_identical_report(self, tmp_path):
        payload = {
            "seed": 13,
            "objects": {},
            "runs": [
                {
                    "command": "verify",
                    "check": "counterexample_search",
                    "dim_h": 2,
                    "dim_k": 2,
                    "trials": 200,
                }
            ],
        }
        path = write_scenario(tmp_path, payload)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run_scenario(path, report_path=str(out1), fmt="structured")
        run_scenario(path, report_path=str(out2), fmt="structured")
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_stream(self, tmp_path):
        payload = {
            "seed": 13,
            "objects": {},
            "runs": [
                {
                    "command": "verify",
                    "check": "counterexample_search",
                    "dim_h": 2,
                    "dim_k": 2,
                    "trials": 200,
                }
            ],
        }
        path = write_scenario(tmp_path, payload)
        _, reports_a = run_scenario(path, report_path=str(tmp_path / "a.json"))
        _, reports_b = run_scenario(path, report_path=str(tmp_path / "b.json"), seed=14)
        assert reports_a != reports_b


class TestAllConstructionsReachable:
    def test_every_builtin_and_construction(self, tmp_path):
        payload = {
            "seed": 3,
            "objects": {
                **spin_objects(),
                "U": {"kind": "channel", "builtin": "unitary", "matrix": [[0, 1], [1, 0]]},
                "Id": {"kind": "channel", "builtin": "identity", "dim": 2},
                "contract": {
                    "kind": "channel",
                    "builtin": "contraction",
                    "vector": [[1, 0], [0, 0]],
                },
                "pauli": {"kind": "multimeter", "builtin": "pauli"},
                "swapper": {"kind": "multimeter", "builtin": "swap", "dim": 2},
                "pair": {
                    "kind": "multimeter",
                    "builtin": "spin_pair",
                    "observables": ["S1", "S3"],
                },
                "dilation": {
                    "kind": "multimeter",
                    "construction": "minimal_dilation",
                    "observable": "S3",
                },
                "bundle": {
                    "kind": "multimeter",
                    "construction": "push_button",
                    "channels": ["Id", "U"],
                },
                "bundle_obs": {
                    "kind": "multimeter",
                    "construction": "push_button",
                    "observables": ["S1", "S3"],
                },
                "shared": {
                    "kind": "multimeter",
                    "construction": "shared_pointer",
                    "observables": ["S1", "S3"],
                },
                "chain": {
                    "kind": "multimeter",
                    "construction": "concatenate",
                    "channel_meter": "bundle",
                    "a_multimeter": "dilation",
                    "a_probe": {"of": "dilation", "index": 0},
                },
            },
            "runs": [
                {
                    "command": "program",
                    "multimeter": "dilation",
                    "probe": {"of": "dilation", "index": 0},
                    "expect": "S3",
                },
                {
                    "command": "program",
                    "multimeter": "shared",
                    "probe": {"of": "shared", "index": 0},
                    "expect": "S1",
                },
                {
                    "command": "program",
                    "multimeter": "bundle",
                    "probe": {"of": "bundle", "index": 1},
                    "induce": "channel",
                    "expect": "U",
                },
                {
                    "command": "program",
                    "multimeter": "chain",
                    "probe": {
                        "tensor": [{"of": "bundle", "index": 0}, {"of": "dilation", "index": 0}]
                    },
                    "expect": "S3",
                },
                {
                    "command": "verify",
                    "check": "channel_orthogonality",
                    "multimeter": "bundle",
                    "probes": [{"of": "bundle", "index": 0}, {"of": "bundle", "index": 1}],
                },
                {
                    "command": "verify",
                    "check": "convex_hull",
                    "multimeter": "bundle",
                    "trials": 5,
                    "programmed": [
                        {"probe": {"of": "bundle", "index": 0}, "device": "Id"},
                        {"probe": {"of": "bundle", "index": 1}, "device": "U"},
                    ],
                },
                {
                    "command": "verify",
                    "check": "purification",
                    "multimeter": "swapper",
                    "probe": {"density": [[0.5, 0], [0, 0.5]]},
                    "kind": "channel",
                },
            ],
        }
        status, reports = run_scenario(
            write_scenario(tmp_path, payload), report_path=str(tmp_path / "out.txt")
        )
        assert status == EXIT_OK
        assert [r.verdict for r in reports[:5]] == ["pass"] * 5

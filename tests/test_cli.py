import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmultimeter.cli import (
    DOCUMENT,
    EXIT_CHECK_FAILED,
    EXIT_DIMENSION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFERENCE,
    OBJECTS,
    PROBES,
    RUNS,
    Entry,
    Opt,
    _field_list,
    emit_report,
    main,
    parse_report,
    run_scenario,
    table_entries,
)
from qmultimeter.exceptions import ScenarioParseError, ScenarioReferenceError
from qmultimeter.verify import VerificationReport


ROOT = Path(__file__).resolve().parent.parent


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def spin_objects():
    return {
        "S1": {"kind": "observable", "builtin": "spin", "axis": [1, 0, 0]},
        "S3": {"kind": "observable", "builtin": "spin", "axis": [0, 0, 1]},
    }


MINIMAL_DILATION = {**spin_objects(), "md": {
    "kind": "multimeter", "construction": "minimal_dilation", "observable": "S1"}}


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

    @pytest.mark.parametrize(
        "run",
        [
            {"command": "program", "multimeter": "md", "probe": {"of": "md", "index": 1}},
            {"command": "program", "multimeter": "md", "probe": {"of": "md"}, "induce": "channel",
             "expect": "S1"},
        ],
        ids=["probe-index-out-of-range", "expect-of-other-kind"],
    )
    def test_unresolved_run_names_exit_reference(self, tmp_path, capsys, run):
        payload = {"objects": MINIMAL_DILATION, "runs": [run]}
        assert main([write_scenario(tmp_path, payload)]) == EXIT_REFERENCE
        assert "reference error: runs[0]: " in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "payload",
        [
            {"objects": {}, "runs": [
                {"command": "verify", "check": "purification", "probe": [1, 0]}]},
            {"objects": {**spin_objects(), "md": {
                "kind": "multimeter", "construction": "minimal_dilation", "observable": "S1"}},
             "runs": [{"command": "program", "multimeter": "md",
                       "probe": {"of": "md", "index": "x"}}]},
            {"objects": {"M": {"kind": "multimeter", "builtin": "swap", "dim": "x"}}, "runs": []},
            {"objects": {"C": {"kind": "channel", "builtin": "identity"}}, "runs": []},
            {"objects": {**spin_objects(), "md": {
                "kind": "multimeter", "construction": "minimal_dilation", "observable": "S1"}},
             "runs": [{"command": "program", "multimeter": "md", "probe": {"of": "md"},
                       "expect": "S1", "tol": "x"}]},
            {"tolerances": {"program": "x"}, "objects": {}, "runs": []},
            {"objects": {"Z": {"kind": "observable", "dim": 2, "outcomes": 5, "effects": {}}},
             "runs": []},
            {"objects": {**spin_objects(), "M": {
                "kind": "multimeter", "construction": "push_button", "observables": 5}},
             "runs": []},
            {"objects": {"M": {"kind": "multimeter", "construction": "push_button", "channels": 5}},
             "runs": []},
            {"seed": 1, "objects": MINIMAL_DILATION, "runs": [
                {"command": "verify", "check": "convex_hull", "multimeter": "md",
                 "programmed": 3}]},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": ["x"], "probe": {"of": "md"}}]},
            {"objects": {"Z": {"kind": "observable", "dim": 1, "outcomes": [[1]],
                               "effects": {"[1]": [[1]]}}}, "runs": []},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": "md", "probe": {"of": "md"},
                 "expect": ["x"]}]},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": "md", "probe": {"tensor": []}}]},
            {"seed": 1, "objects": {}, "runs": [
                {"command": "verify", "check": "counterexample_search", "dim_h": 2, "dim_k": 2,
                 "trials": 10, "refine": "no"}]},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "verify", "check": "purification", "multimeter": "md",
                 "probe": {"density": [[0.5, 0], [0, 0.5]]}, "kind": 3}]},
            {"seed": True, "objects": {}, "runs": [
                {"command": "verify", "check": "counterexample_search", "dim_h": 2, "dim_k": 2,
                 "trials": 10}]},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": "md", "probe": {"of": "md"}, "expect": "S1",
                 "tols": 1e-3}]},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": "md",
                 "probe": {"of": "md", "vector": [0, 1]}}]},
            {"objects": {"Z": {"kind": "observable", "dim": 1, "outcomes": [1],
                               "effects": {"1": [[1]], "2": [[0]]}}}, "runs": []},
            {"objects": {"k": {"kind": "kernel", "weights": [[[1, 1], 0], [0, 1]]}}, "runs": []},
            {"objects": MINIMAL_DILATION, "runs": [
                {"command": "program", "multimeter": "md", "probe": {"of": "md"},
                 "induce": "both"}]},
            {"objects": {**MINIMAL_DILATION, "k": {"kind": "kernel", "weights": [[1, 0], [0, 1]]}},
             "runs": [{"command": "program", "multimeter": "md", "probe": {"of": "md"},
                       "kernel": "k", "induce": "channel"}]},
            {"seed": -3, "objects": {}, "runs": [
                {"command": "verify", "check": "counterexample_search", "dim_h": 2, "dim_k": 2,
                 "trials": 10}]},
        ],
        ids=["purification-without-multimeter", "probe-index", "swap-dim",
             "identity-without-dim", "program-tol", "tolerances-program",
             "outcomes-integer", "push-button-observables-integer",
             "push-button-channels-integer", "convex-hull-programmed-integer",
             "multimeter-list", "outcome-label-list", "expect-list", "empty-tensor",
             "refine-string", "purification-kind-integer", "seed-boolean", "misspelt-tol",
             "probe-two-forms", "effect-without-outcome", "kernel-complex-weights",
             "induce-unknown", "kernel-inducing-channel", "seed-negative"],
    )
    def test_malformed_fields_exit_parse(self, tmp_path, capsys, payload):
        assert main([write_scenario(tmp_path, payload)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"objects": {}, "runs": [{"command": "bounds", "outcome_counts": [-2, 3]}]},
            {"objects": {}, "runs": [{"command": "bounds", "outcome_counts": [10**200, 10**200]}]},
            {"objects": {"C": {"kind": "channel", "builtin": "identity", "dim": -1}}, "runs": []},
            {"seed": 1, "objects": {
                **spin_objects(),
                "Id": {"kind": "channel", "builtin": "identity", "dim": 2},
                "I2": {"kind": "channel", "builtin": "identity", "dim": 2},
                "B": {"kind": "multimeter", "construction": "push_button",
                      "channels": ["Id", "I2"]}},
             "runs": [{"command": "verify", "check": "convex_hull", "multimeter": "B", "trials": 2,
                       "programmed": [{"probe": {"of": "B", "index": 0}, "device": "Id"},
                                      {"probe": {"of": "B", "index": 1}, "device": "S1"}]}]},
            {"seed": 1, "objects": {}, "runs": [
                {"command": "verify", "check": "counterexample_search", "dim_h": 2, "dim_k": 2,
                 "trials": 10**9}]},
            {"seed": 1, "objects": {
                "Id": {"kind": "channel", "builtin": "identity", "dim": 2},
                "B": {"kind": "multimeter", "construction": "push_button",
                      "channels": ["Id", "Id"]}},
             "runs": [{"command": "verify", "check": "convex_hull", "multimeter": "B",
                       "trials": 10**9,
                       "programmed": [{"probe": {"of": "B", "index": 0}, "device": "Id"},
                                      {"probe": {"of": "B", "index": 1}, "device": "Id"}]}]},
        ],
        ids=["bounds-below-one", "bounds-beyond-float", "identity-negative-dim",
             "convex-hull-mixed-devices", "search-trials-over-cap", "convex-hull-trials-over-cap"],
    )
    def test_out_of_range_values_exit_validation(self, tmp_path, capsys, payload):
        assert main([write_scenario(tmp_path, payload)]) == EXIT_DIMENSION
        where = "objects.C" if "C" in payload["objects"] else "runs[0]"
        assert f"validation error: {where}: " in capsys.readouterr().err

    def test_tensor_probe_capped_before_it_allocates(self, tmp_path, capsys):
        # 20 qubit parts would form a vector of 2**20 entries (16 MiB)
        payload = {"objects": {"pauli": {"kind": "multimeter", "builtin": "pauli"}},
                   "runs": [{"command": "program", "multimeter": "pauli",
                             "probe": {"tensor": [[1, 0]] * 20}}]}
        path = write_scenario(tmp_path, payload)
        tracemalloc.start()
        try:
            status = main([path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == EXIT_DIMENSION
        assert "validation error: runs[0]: " in capsys.readouterr().err
        assert peak < 2**20

    def test_tensor_probe_matches_kronecker_product(self, rng):
        vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (2, 3, 2)]
        densities = [np.outer(v, v.conj()) for v in vectors]
        for parts in (vectors, densities, vectors[:1], densities[:1]):
            product = PROBES["tensor"].build(tensor=parts)
            reference = functools.reduce(np.kron, parts)
            assert product.shape == reference.shape
            assert np.array_equal(product, reference)

    def test_non_finite_effect_exit(self, tmp_path, capsys):
        payload = {
            "objects": {"E": {"kind": "observable", "dim": 1, "outcomes": [1],
                              "effects": {"1": [[[float("nan"), 0]]]}}},
            "runs": [],
        }
        assert main([write_scenario(tmp_path, payload)]) == EXIT_DIMENSION
        assert "non-finite" in capsys.readouterr().err

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
        for table in (OBJECTS, RUNS):
            for title, fields in table_entries(table):
                assert f"{title}: {_field_list(fields)}\n" in out
        for form in PROBES:
            assert f"probe {form}: " in out


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


SHIPPED_VERDICTS = {
    "channel_bundle.json": ["pass"] * 5,
    "pauli_postprocessing.json": ["pass"] * 3 + ["not_applicable"] * 2 + ["pass"],
}


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.name)
def test_shipped_scenario(tmp_path, capsys, path):
    """Each shipped scenario reproduces its committed report under ``tests/reports``.

    Verdicts, details and residual keys match exactly; residual values
    within 1e-9 relative or 1e-12 absolute.
    """
    report = tmp_path / "report.json"
    assert main([str(path), "--format", "structured", "--report", str(report)]) == EXIT_OK
    assert [r.verdict for r in parse_report(report.read_text())] == SHIPPED_VERDICTS[path.name]
    got = json.loads(report.read_text())["reports"]
    want = json.loads((ROOT / "tests" / "reports" / path.name).read_text())["reports"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {**g, "residuals": sorted(g["residuals"])} == {**w, "residuals": sorted(w["residuals"])}
        for key, value in w["residuals"].items():
            assert g["residuals"][key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


def _table_fields() -> set:
    """``(entry, field)`` for every table entry and the objects nested in its fields."""
    pairs = set()

    def walk(title, fields):
        pairs.add((title, None))
        for key, field in fields.items():
            pairs.add((title, f"[{key}]" if isinstance(field, Opt) else key))
            inner = getattr(field, "type", field)
            inner = getattr(inner, "item", inner)
            if isinstance(getattr(inner, "table", None), Entry):
                walk(f"{title} {key}", inner.table.fields)

    for table, prefix in ((DOCUMENT, "scenario"), (OBJECTS, ""), (RUNS, ""), (PROBES, "probe")):
        for title, fields in table_entries(table, prefix):
            walk(title, fields)
    return pairs


def test_readme_field_list_matches_tables():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line")[1].split("```text\n")[1].split("```")[0]
    pairs = set()
    for line in block.splitlines():
        title, fields = line.split(": ")
        pairs.add((title, None))
        pairs.update((title, field) for field in fields.split(", ") if field != "no fields")
    assert pairs == _table_fields()

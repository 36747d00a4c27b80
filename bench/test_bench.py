"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

The tier-1 command collects only ``tests/``, so these stay out of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import qmultimeter as qm  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload: str, trace: int) -> tuple[dict, list]:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_prints_every_metric_with_its_unit_and_no_failure(capsys, workload, trace):
    result, lines = _run(capsys, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS or trace
    if trace:
        assert "# traced outcomes equal untraced outcomes: True" in lines
    else:
        assert any(line.split()[:2] == ["failed_ratio", "0.000000"] for line in lines)
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_forged_expectation_counts_as_failed(workload):
    passes = workloads.build(workload, 5, ROOT / "scenarios", tiny=True)
    forged = passes[0][-1]
    forged.expect = "forged " + forged.expect
    records = run.flat(run.run_phase(passes[:1], 0, n_passes=1))
    assert [r.ok for r in records] == [True] * (len(records) - 1) + [False]
    assert records[-1].outcome == forged.expect.removeprefix("forged ")


def test_sanity_inversion_expects_fail():
    (inversion,) = [op for op in workloads.search_pass(np.random.default_rng(0), 40)
                    if "inversion" in op.kind]
    assert inversion.expect == "fail/>0"
    assert run.run_op(inversion, 0).ok


def test_raising_operation_is_failed_and_still_timed():
    def explode():
        raise qm.ValidationError("boom")

    record = run.run_op(workloads.Op("explode", explode, "pass"), 0)
    assert not record.ok
    assert record.outcome == "raised ValidationError: boom"
    assert record.seconds > 0


def test_calibration_scales_by_the_reference_around_each_operation():
    ref = reference.Reference()
    ref.times = [reference.NOMINAL_SECONDS, 3 * reference.NOMINAL_SECONDS]
    slow = run.Record("op", 0.2, True, "pass", 0, ref_index=1)
    assert ref.scale(1) == pytest.approx(0.5)
    metrics = run.end_to_end([slow], [0.1], ref)
    assert metrics["latency_ms.p50"] == (pytest.approx(100.0), "ms")
    assert metrics["ops_per_s"] == (pytest.approx(10.0), "1/s")


def test_wrapper_returns_exactly_what_the_function_returns():
    tracer = tracing.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("operators.fake", lambda *args, **kwargs: sentinel)
    assert wrapped() is sentinel
    with tracer.operation(0):
        assert wrapped(1, key=2) is sentinel
    assert tracer.per_name()["operators.fake"][0] == 1

    def fails():
        raise ValueError("kept")

    with tracer.operation(1), pytest.raises(ValueError, match="kept"):
        tracer.wrap("operators.fails", fails)()


def test_installed_wrappers_see_nested_calls_and_restore_bindings():
    original = qm.induced_observable
    meter, probe = qm.minimal_dilation_multimeter(qm.spin_observable((0, 0, 1)))
    expected = qm.induced_observable(qm.make_model(meter, probe))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qm.induced_observable is not original
        with tracer.operation(0):
            got = qm.induced_observable(qm.make_model(meter, probe))
            mixed = qm.induced_observable(qm.make_model(meter, np.diag([0.5, 0.5])))
    finally:
        tracer.uninstall()
    assert qm.induced_observable is original
    assert qm.observable_distance(got, expected) == 0.0
    assert mixed.dim == 2
    rows = tracer.per_name()
    assert rows["multimeter.induced_observable.pure"][0] == 1
    assert rows["multimeter.induced_observable.mixed"][0] == 1
    # make_observable is called from inside the multimeter module.
    assert rows["observables.make_observable"][0] >= 2
    spans = tracer.spans()
    assert np.all(spans["self_s"] <= spans["duration"] + 1e-12)


def test_missing_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        tracing, "REPORTED_FUNCTIONS", tracing.REPORTED_FUNCTIONS + ("operators.gone",)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = tracer.layer_metrics()
    assert missing == ["operators.gone"]
    assert metrics["operators.gone.calls"] == (0, "count")
    assert metrics["trace.missing_functions"] == (1, "count")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Batch front-end: declarative scenario files, reports, exit codes.

A scenario is a single JSON document::

    {
      "seed": 7,                    # required if any run draws randomness
      "tolerances": {"program": 1e-10},
      "objects": { "S1": {"kind": "observable", "builtin": "spin", ...}, ... },
      "runs":    [ {"command": "program", ...}, ... ]
    }

Complex scalars are written as two-element arrays ``[re, im]`` (bare
numbers are accepted as reals), matrices as row-major nested arrays, and
observable effects keyed by outcome label.  Runs execute in order and each
produces one report record.

Exit codes: 0 all checks passed (``not_applicable`` does not fail),
1 at least one check failed, 2 scenario parse error, 3 unresolved
reference, 4 dimension or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .channels import (
    Channel,
    channel_distance,
    complete_contraction,
    identity_channel,
    make_channel,
    unitary_channel,
)
from .exceptions import (
    DimensionError,
    ScenarioParseError,
    ScenarioReferenceError,
    ValidationError,
)
from .multimeter import (
    BUILTIN_MULTIMETERS,
    builtin_multimeter,
    concatenate_with_measurement,
    dimension_bounds,
    induced_channel,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from .observables import (
    Observable,
    make_kernel,
    make_observable,
    observable_distance,
    spin_observable,
)
from .verify import (
    DEFAULT_SEARCH_THRESHOLDS,
    VerificationReport,
    check_channel_program_orthogonality,
    check_convex_hull,
    check_purification,
    check_sharp_program_orthogonality,
    counterexample_search,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_REFERENCE = 3
EXIT_DIMENSION = 4

OBSERVABLE_BUILTINS = ("spin",)
CHANNEL_BUILTINS = ("identity", "unitary", "contraction")
MULTIMETER_CONSTRUCTIONS = (
    "minimal_dilation",
    "push_button",
    "shared_pointer",
    "concatenate",
)

_RANDOMIZED_CHECKS = {"convex_hull", "counterexample_search"}


def _parse_error(msg: str) -> ScenarioParseError:
    return ScenarioParseError(msg)


def _as_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) for x in entry)
    ):
        return complex(entry[0], entry[1])
    raise _parse_error(f"{where}: expected a number or [re, im] pair, got {entry!r}")


def _int_field(run: dict, key: str, idx: int) -> int:
    value = run.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _parse_error(f"run {idx}: {key!r} must be an integer, got {value!r}")
    return value


def _search_thresholds(run: dict, idx: int) -> dict | None:
    thresholds = run.get("thresholds")
    if thresholds is None:
        return None
    if not isinstance(thresholds, dict):
        raise _parse_error(f"run {idx}: 'thresholds' must be an object")
    for key, value in thresholds.items():
        if key not in DEFAULT_SEARCH_THRESHOLDS:
            raise _parse_error(
                f"run {idx}: unknown threshold {key!r}; known: {tuple(DEFAULT_SEARCH_THRESHOLDS)}"
            )
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise _parse_error(f"run {idx}: threshold {key!r} must be a finite number")
    return thresholds


def _parse_vector(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise _parse_error(f"{where}: expected a nonempty list of entries")
    return np.array([_as_complex(x, where) for x in data], dtype=complex)


def _parse_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise _parse_error(f"{where}: expected a nested list of rows")
    rows = [[_as_complex(x, where) for x in row] for row in data]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _parse_error(f"{where}: ragged matrix rows")
    return np.array(rows, dtype=complex)


class _Runtime:
    """Resolved objects of one scenario."""

    def __init__(self):
        self.observables: dict = {}
        self.channels: dict = {}
        self.kernels: dict = {}
        self.multimeters: dict = {}  # name -> (Multimeter, probes)

    def observable(self, name: str) -> Observable:
        if name not in self.observables:
            raise ScenarioReferenceError(f"undefined observable {name!r}")
        return self.observables[name]

    def channel(self, name: str) -> Channel:
        if name not in self.channels:
            raise ScenarioReferenceError(f"undefined channel {name!r}")
        return self.channels[name]

    def kernel(self, name: str):
        if name not in self.kernels:
            raise ScenarioReferenceError(f"undefined kernel {name!r}")
        return self.kernels[name]

    def multimeter(self, name: str):
        if name not in self.multimeters:
            raise ScenarioReferenceError(f"undefined multimeter {name!r}")
        return self.multimeters[name]


def _build_observable(defn: dict, name: str, runtime: _Runtime) -> Observable:
    if "builtin" in defn:
        if defn["builtin"] == "spin":
            if "axis" not in defn:
                raise _parse_error(f"object {name!r}: spin observable needs an 'axis'")
            return spin_observable([float(x) for x in defn["axis"]])
        raise ScenarioReferenceError(
            f"object {name!r}: unknown observable builtin {defn['builtin']!r}; "
            f"known: {OBSERVABLE_BUILTINS}"
        )
    for key in ("dim", "outcomes", "effects"):
        if key not in defn:
            raise _parse_error(f"object {name!r}: observable needs {key!r}")
    outcomes = tuple(defn["outcomes"])
    effects_map = defn["effects"]
    if not isinstance(effects_map, dict):
        raise _parse_error(f"object {name!r}: effects must be keyed by outcome label")
    effects = []
    for label in outcomes:
        key = str(label)
        if key not in effects_map:
            raise _parse_error(f"object {name!r}: missing effect for outcome {label!r}")
        effects.append(_parse_matrix(effects_map[key], f"object {name!r} effect {label!r}"))
    return make_observable(int(defn["dim"]), outcomes, effects)


def _build_channel(defn: dict, name: str) -> Channel:
    builtin = defn.get("builtin")
    if builtin == "identity":
        return identity_channel(int(defn["dim"]))
    if builtin == "unitary":
        return unitary_channel(_parse_matrix(defn["matrix"], f"object {name!r} matrix"))
    if builtin == "contraction":
        return complete_contraction(_parse_vector(defn["vector"], f"object {name!r} vector"))
    if builtin is not None:
        raise ScenarioReferenceError(
            f"object {name!r}: unknown channel builtin {builtin!r}; known: {CHANNEL_BUILTINS}"
        )
    if "kraus" not in defn:
        raise _parse_error(f"object {name!r}: channel needs 'kraus' or a builtin")
    kraus = [
        _parse_matrix(k, f"object {name!r} kraus[{i}]") for i, k in enumerate(defn["kraus"])
    ]
    return make_channel(kraus)


def _build_multimeter(defn: dict, name: str, runtime: _Runtime):
    if "builtin" in defn:
        builtin = defn["builtin"]
        if builtin not in BUILTIN_MULTIMETERS:
            raise ScenarioReferenceError(
                f"object {name!r}: unknown multimeter builtin {builtin!r}; "
                f"known: {BUILTIN_MULTIMETERS}"
            )
        params = {}
        if builtin == "swap":
            if "dim" not in defn:
                raise _parse_error(f"object {name!r}: swap needs 'dim'")
            params["dim"] = int(defn["dim"])
        if builtin == "spin_pair":
            refs = defn.get("observables")
            if not isinstance(refs, list) or len(refs) != 2:
                raise _parse_error(f"object {name!r}: spin_pair needs two observable names")
            params["observables"] = tuple(runtime.observable(r) for r in refs)
        return builtin_multimeter(builtin, **params)
    if "construction" in defn:
        kind = defn["construction"]
        if kind == "minimal_dilation":
            meter, probe = minimal_dilation_multimeter(runtime.observable(defn["observable"]))
            return meter, [probe]
        if kind == "push_button":
            if "channels" in defn:
                return push_button_multimeter([runtime.channel(r) for r in defn["channels"]])
            if "observables" in defn:
                devices = [
                    minimal_dilation_multimeter(runtime.observable(r))
                    for r in defn["observables"]
                ]
                return push_button_multimeter(devices)
            raise _parse_error(f"object {name!r}: push_button needs 'channels' or 'observables'")
        if kind == "shared_pointer":
            return shared_pointer_multimeter(
                [runtime.observable(r) for r in defn["observables"]]
            )
        if kind == "concatenate":
            channel_meter, _ = runtime.multimeter(defn["channel_meter"])
            a_meter, a_probes = runtime.multimeter(defn["a_multimeter"])
            probe = _resolve_probe(defn["a_probe"], runtime, f"object {name!r} a_probe")
            model = make_model(a_meter, probe)
            return concatenate_with_measurement(channel_meter, model), []
        raise ScenarioReferenceError(
            f"object {name!r}: unknown construction {kind!r}; known: {MULTIMETER_CONSTRUCTIONS}"
        )
    for key in ("dim_h", "dim_k", "pointer", "interaction"):
        if key not in defn:
            raise _parse_error(f"object {name!r}: explicit multimeter needs {key!r}")
    pointer = runtime.observable(defn["pointer"])
    interaction = runtime.channel(defn["interaction"])
    meter = make_multimeter(int(defn["dim_h"]), int(defn["dim_k"]), pointer, interaction)
    return meter, []


def _resolve_probe(spec, runtime: _Runtime, where: str) -> np.ndarray:
    if isinstance(spec, list):
        return _parse_vector(spec, where)
    if not isinstance(spec, dict):
        raise _parse_error(f"{where}: expected a vector or a probe reference")
    if "of" in spec:
        _, probes = runtime.multimeter(spec["of"])
        index = int(spec.get("index", 0))
        if not 0 <= index < len(probes):
            raise ScenarioReferenceError(
                f"{where}: multimeter {spec['of']!r} has {len(probes)} probes, index {index}"
            )
        return probes[index]
    if "vector" in spec:
        return _parse_vector(spec["vector"], where)
    if "density" in spec:
        return _parse_matrix(spec["density"], where)
    if "tensor" in spec:
        parts = [_resolve_probe(p, runtime, where) for p in spec["tensor"]]
        out = parts[0]
        for p in parts[1:]:
            out = np.kron(out, p)
        return out
    raise _parse_error(f"{where}: probe needs 'of', 'vector', 'density' or 'tensor'")


def build_objects(objects: dict, runtime: _Runtime) -> None:
    """Resolve object definitions in declaration order."""
    if not isinstance(objects, dict):
        raise _parse_error("'objects' must be a mapping of names to definitions")
    for name, defn in objects.items():
        if not isinstance(defn, dict) or "kind" not in defn:
            raise _parse_error(f"object {name!r}: definition needs a 'kind'")
        kind = defn["kind"]
        if kind == "observable":
            runtime.observables[name] = _build_observable(defn, name, runtime)
        elif kind == "channel":
            runtime.channels[name] = _build_channel(defn, name)
        elif kind == "kernel":
            if "weights" not in defn:
                raise _parse_error(f"object {name!r}: kernel needs 'weights'")
            weights = _parse_matrix(defn["weights"], f"object {name!r} weights")
            if np.abs(weights.imag).max() > 0:
                raise _parse_error(f"object {name!r}: kernel weights must be real")
            runtime.kernels[name] = make_kernel(weights.real)
        elif kind == "multimeter":
            runtime.multimeters[name] = _build_multimeter(defn, name, runtime)
        else:
            raise _parse_error(f"object {name!r}: unknown kind {kind!r}")


def _run_program(run: dict, idx: int, runtime: _Runtime, tol: float) -> VerificationReport:
    name = run.get("label", f"program[{idx}]")
    meter, _ = runtime.multimeter(run["multimeter"])
    probe = _resolve_probe(run["probe"], runtime, f"run {idx} probe")
    induce = run.get("induce", "observable")
    kernel = None
    if "kernel" in run:
        if induce != "observable":
            raise _parse_error(f"run {idx}: a kernel only applies when inducing an observable")
        kernel = runtime.kernel(run["kernel"])
    model = make_model(meter, probe, kernel=kernel)
    if induce == "observable":
        device = induced_observable(model)
        summary = f"induced observable with outcomes {device.outcomes}"
    elif induce == "channel":
        device = induced_channel(model)
        summary = f"induced channel with {len(device.kraus)} Kraus operators"
    else:
        raise _parse_error(f"run {idx}: induce must be 'observable' or 'channel'")
    if "expect" not in run:
        return VerificationReport(name, "pass", {}, summary)
    if induce == "observable":
        distance = observable_distance(device, runtime.observable(run["expect"]))
    else:
        distance = channel_distance(device, runtime.channel(run["expect"]))
    run_tol = float(run.get("tol", tol))
    if distance <= run_tol:
        return VerificationReport(
            name, "pass", {"distance": distance}, f"matches {run['expect']!r}"
        )
    return VerificationReport(
        name,
        "fail",
        {"distance": distance},
        f"violated: distance {distance:.3e} > {run_tol:.3e} from {run['expect']!r}",
    )


def _run_verify(run: dict, idx: int, runtime: _Runtime, seed: int | None) -> VerificationReport:
    check = run.get("check")
    kwargs = {}
    if "tol" in run:
        kwargs["tol"] = float(run["tol"])
    if check == "sharp_orthogonality" or check == "channel_orthogonality":
        meter, _ = runtime.multimeter(run["multimeter"])
        probes = run.get("probes")
        if not isinstance(probes, list) or len(probes) != 2:
            raise _parse_error(f"run {idx}: orthogonality checks need exactly two probes")
        phi1 = _resolve_probe(probes[0], runtime, f"run {idx} probes[0]")
        phi2 = _resolve_probe(probes[1], runtime, f"run {idx} probes[1]")
        fn = (
            check_sharp_program_orthogonality
            if check == "sharp_orthogonality"
            else check_channel_program_orthogonality
        )
        return fn(meter, phi1, phi2, **kwargs)
    if check == "convex_hull":
        meter, _ = runtime.multimeter(run["multimeter"])
        programmed = []
        for j, entry in enumerate(run.get("programmed", [])):
            probe = _resolve_probe(entry["probe"], runtime, f"run {idx} programmed[{j}]")
            dev = entry["device"]
            if dev in runtime.observables:
                device = runtime.observables[dev]
            elif dev in runtime.channels:
                device = runtime.channels[dev]
            else:
                raise ScenarioReferenceError(f"run {idx}: undefined device {dev!r}")
            programmed.append((probe, device))
        return check_convex_hull(
            meter,
            programmed,
            trials=int(run.get("trials", 20)),
            seed=seed + idx,
            **kwargs,
        )
    if check == "purification":
        meter, _ = runtime.multimeter(run["multimeter"])
        probe = _resolve_probe(run["probe"], runtime, f"run {idx} probe")
        return check_purification(meter, probe, kind=run.get("kind", "observable"), **kwargs)
    if check == "counterexample_search":
        return counterexample_search(
            _int_field(run, "dim_h", idx),
            _int_field(run, "dim_k", idx),
            _int_field(run, "trials", idx),
            seed=seed + idx,
            thresholds=_search_thresholds(run, idx),
            refine=bool(run.get("refine", False)),
        )
    raise _parse_error(f"run {idx}: unknown check {check!r}")


def _run_bounds(run: dict, idx: int) -> VerificationReport:
    name = run.get("label", f"bounds[{idx}]")
    counts = run.get("outcome_counts")
    if not isinstance(counts, list) or not counts:
        raise _parse_error(f"run {idx}: bounds needs a nonempty 'outcome_counts' list")
    lower, upper = dimension_bounds(len(counts), counts)
    residuals = {"lower": float(lower), "upper": float(upper)}
    if "expect" not in run:
        return VerificationReport(name, "pass", residuals, f"bounds ({lower}, {upper})")
    expect = run["expect"]
    if [lower, upper] == [int(x) for x in expect]:
        return VerificationReport(name, "pass", residuals, f"bounds ({lower}, {upper}) as expected")
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: bounds ({lower}, {upper}) != expected {tuple(expect)}",
    )


def execute(scenario: dict, seed: int | None = None, tol: float | None = None) -> list:
    """Run a parsed scenario; returns one report per run, in order."""
    if not isinstance(scenario, dict):
        raise _parse_error("scenario must be a JSON object")
    runs = scenario.get("runs", [])
    if not isinstance(runs, list):
        raise _parse_error("'runs' must be a list")
    effective_seed = seed if seed is not None else scenario.get("seed")
    if effective_seed is not None and not isinstance(effective_seed, int):
        raise _parse_error("'seed' must be an integer")
    needs_seed = any(
        isinstance(r, dict) and r.get("command") == "verify" and r.get("check") in _RANDOMIZED_CHECKS
        for r in runs
    )
    if needs_seed and effective_seed is None:
        raise _parse_error("scenario uses randomness but declares no seed")
    tolerances = scenario.get("tolerances", {})
    program_tol = tol if tol is not None else float(tolerances.get("program", 1e-10))
    runtime = _Runtime()
    build_objects(scenario.get("objects", {}), runtime)
    reports = []
    for idx, run in enumerate(runs):
        if not isinstance(run, dict) or "command" not in run:
            raise _parse_error(f"run {idx}: needs a 'command'")
        command = run["command"]
        if command == "program":
            reports.append(_run_program(run, idx, runtime, program_tol))
        elif command == "verify":
            reports.append(_run_verify(run, idx, runtime, effective_seed))
        elif command == "bounds":
            reports.append(_run_bounds(run, idx))
        else:
            raise _parse_error(f"run {idx}: unknown command {command!r}")
    return reports


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def emit_report(reports, fmt: str = "text") -> str:
    """Render reports as human-readable text or a structured JSON document."""
    if fmt == "text":
        lines = [f"# {len(reports)} check(s)"]
        for rep in reports:
            residuals = " ".join(f"{k}={v:.6e}" for k, v in rep.residuals.items())
            line = f"{rep.check_name}: {rep.verdict}"
            if residuals:
                line += f" ({residuals})"
            if rep.details:
                line += f" -- {rep.details}"
            lines.append(line)
        return "\n".join(lines) + "\n"
    if fmt == "structured":
        payload = {"reports": [rep.to_dict() for rep in reports]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"format must be 'text' or 'structured', got {fmt!r}")


def parse_report(text: str) -> list:
    """Inverse of :func:`emit_report` for the structured format."""
    payload = json.loads(text)
    return [VerificationReport.from_dict(entry) for entry in payload["reports"]]


def run_scenario(
    path: str,
    report_path: str | None = None,
    fmt: str = "text",
    seed: int | None = None,
    tol: float | None = None,
) -> tuple[int, list]:
    """Load, execute and report one scenario file.

    Returns the exit status and the report list; the status is 0 exactly
    when no check failed (``not_applicable`` does not fail).
    """
    scenario = load_scenario(path)
    reports = execute(scenario, seed=seed, tol=tol)
    rendered = emit_report(reports, fmt)
    if report_path is None:
        sys.stdout.write(rendered)
    else:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    failed = any(rep.verdict == "fail" for rep in reports)
    return (EXIT_CHECK_FAILED if failed else EXIT_OK), reports


def _list_builtins() -> str:
    lines = [
        "multimeters:   " + ", ".join(BUILTIN_MULTIMETERS),
        "constructions: " + ", ".join(MULTIMETER_CONSTRUCTIONS),
        "observables:   " + ", ".join(OBSERVABLE_BUILTINS),
        "channels:      " + ", ".join(CHANNEL_BUILTINS),
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmultimeter",
        description="Run a multimeter scenario file and report check results.",
    )
    parser.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    parser.add_argument("--report", metavar="PATH", help="write the report to this file")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )
    parser.add_argument("--tol", type=float, help="override the program comparison tolerance")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument(
        "--list-builtins", action="store_true", help="list named constructions and exit"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    if args.list_builtins:
        sys.stdout.write(_list_builtins())
        return EXIT_OK
    if args.scenario is None:
        parser.error("a scenario file is required unless --list-builtins is given")

    try:
        status, _ = run_scenario(
            args.scenario,
            report_path=args.report,
            fmt=args.format,
            seed=args.seed,
            tol=args.tol,
        )
        return status
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioReferenceError as exc:
        print(f"reference error: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except (DimensionError, ValidationError) as exc:
        print(f"dimension/validation error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())

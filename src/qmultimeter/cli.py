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

Every field is declared once, in :data:`DOCUMENT`, :data:`OBJECTS`,
:data:`RUNS` and :data:`PROBES`, and the whole document is read against
them before anything is built.  They check JSON shape only; dimensions and
matrix validity are left to the library constructors.

Exit codes: 0 all checks passed (``not_applicable`` does not fail),
1 at least one check failed, 2 scenario parse error, 3 unresolved
reference, 4 dimension or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .channels import (
    complete_contraction,
    identity_channel,
    make_channel,
    unitary_channel,
)
from .exceptions import (
    DimensionError,
    QMultimeterError,
    ScenarioParseError,
    ScenarioReferenceError,
    ValidationError,
)
from .multimeter import (
    builtin_multimeter,
    concatenate_with_measurement,
    dimension_bounds,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from .observables import make_kernel, make_observable, spin_observable
from .operators import tensor_many
from .verify import (
    DEFAULT_SEARCH_THRESHOLDS,
    DEVICE_KINDS,
    _PROGRAM_TOL,
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


# A field type reads one JSON value or raises ScenarioParseError.  A JSON object
# reads as a deferred build of the table entry its selector fields pick; names
# resolve when it is built, once the objects declared before it exist.


class FieldType:
    """A JSON scalar type: the Python types ``json.load`` gives for it,
    optionally limited to fixed ``choices`` or to values of at least
    ``minimum``; numbers must be finite.  A type with ``kinds`` reads a name
    of an earlier object of one of those kinds."""

    def __init__(self, describe: str, *json, choices: tuple = (), kinds: tuple = (),
                 minimum=None):
        self.describe, self.json, self.choices, self.kinds = describe, json, choices, kinds
        self.minimum = minimum

    def read(self, value, where: str):
        if (
            not isinstance(value, self.json)
            or (isinstance(value, bool) and bool not in self.json)
            or (float in self.json and not abs(value) <= sys.float_info.max)
            or (self.choices and value not in self.choices)
            or (self.minimum is not None and value < self.minimum)
        ):
            raise ScenarioParseError(f"{where}: must be {self.describe}, got {value!r}")
        return self.parse(value, where)

    def parse(self, value, where: str):
        if self.kinds:
            return lambda runtime: runtime.lookup(self.kinds, value)
        return value


class ListOf(FieldType):
    def __init__(self, item: FieldType, least: int = 0, most: int | None = None):
        count = f"a list of {least}" if least == most else "a nonempty list" if least else "a list"
        super().__init__(f"{count}, each {item.describe}", list)
        self.item, self.least, self.most = item, least, most

    def parse(self, value, where):
        if len(value) < self.least or len(value) > (self.most or len(value)):
            raise ScenarioParseError(f"{where}: must be {self.describe}, got {len(value)} entries")
        return [self.item.read(v, f"{where}[{i}]") for i, v in enumerate(value)]


class MapOf(FieldType):
    def __init__(self, item: FieldType):
        super().__init__(f"an object whose values are each {item.describe}", dict)
        self.item = item

    def parse(self, value, where):
        return {key: self.item.read(v, f"{where}.{key}") for key, v in value.items()}


def _complex_entry(x, where: str):
    real = (int, float)  # by exact type, so JSON booleans are not numbers
    if type(x) in real:
        return x
    if type(x) is list and len(x) == 2 and type(x[0]) in real and type(x[1]) in real:
        return complex(x[0], x[1])
    raise ScenarioParseError(f"{where}: entries must be numbers or [re, im] pairs, got {x!r}")


class Matrix(FieldType):
    """A vector (``rank`` 1) or a matrix of equal rows, nonempty, converted in one pass."""

    def __init__(self, rank: int = 2, real: bool = False):
        shape = "vector" if rank == 1 else "matrix of equal nonempty rows"
        super().__init__(f"a {'real ' if real else ''}{shape}", list)
        self.rank, self.real = rank, real

    def parse(self, value, where):
        rows = [value] if self.rank == 1 else value
        if not value or not all(type(row) is list and len(row) == len(rows[0]) > 0 for row in rows):
            raise ScenarioParseError(f"{where}: must be {self.describe}")
        try:
            entries = [[_complex_entry(x, where) for x in row] for row in rows]
            array = np.array(entries, dtype=complex)
        except OverflowError:
            raise ScenarioParseError(f"{where}: entry out of range") from None
        if self.real and np.any(np.abs(array.imag) > 0):
            raise ScenarioParseError(f"{where}: must be {self.describe}")
        array = array.real if self.real else array
        return array[0] if self.rank == 1 else array


class Opt(NamedTuple):
    """Marks a field that may be left out; the builder's default then applies."""

    type: FieldType


class Entry(NamedTuple):
    """One kind of definition: the function that builds it and its fields."""

    build: Callable
    fields: dict
    randomized: bool = False  # a run that draws from the scenario seed


class Deferred(NamedTuple):
    """A definition read but not built; calling it resolves names and builds."""

    path: tuple  # the selector values that picked the entry
    entry: Entry
    fields: dict

    def __call__(self, runtime, *context):
        return self.entry.build(*context, **_resolve(self.fields, runtime))


#: Selectors whose values name library constructions: an unknown one is unresolved.
_LIBRARY_NAMES = ("builtin", "construction")


class Definition(FieldType):
    """An object whose selector fields pick an entry in a table node.

    A node maps each selector to ``{value: node}``, or straight to an entry
    that the selector's presence picks (the selector is then one of its
    fields); the key ``None`` is the node taken when no selector is present.
    With a ``shorthand``, a bare list reads as ``{shorthand: list}``.
    """

    def __init__(self, table, describe: str = "an object", shorthand: str | None = None):
        super().__init__(describe, *((list, dict) if shorthand else (dict,)))
        self.table, self.shorthand = table, shorthand

    def parse(self, value, where):
        value = {self.shorthand: value} if isinstance(value, list) else value
        node, path, selectors = self.table, [], []
        while not isinstance(node, Entry):
            # a second selector present is left to the unknown-field check below
            key = next((key for key in node if key is not None and key in value), None)
            if key not in node:
                raise ScenarioParseError(f"{where}: missing {' or '.join(map(repr, node))}")
            if key is None or isinstance(node[key], Entry):
                node = node[key]
                continue
            name = NAME.read(value[key], f"{where}.{key}")
            if name not in node[key]:
                error = ScenarioReferenceError if key in _LIBRARY_NAMES else ScenarioParseError
                raise error(f"{where}.{key}: unknown {key} {name!r}; known: {tuple(node[key])}")
            selectors.append(key)
            path.append(name)
            node = node[key][name]
        fields = node.fields
        unknown = [key for key in value if key not in fields and key not in selectors]
        if unknown:
            raise ScenarioParseError(f"{where}: unknown field {unknown[0]!r}; known: {[*fields]}")
        typed = {}
        for key, field in fields.items():
            at = f"{where}.{key}" if where else key
            if key in value:
                typed[key] = getattr(field, "type", field).read(value[key], at)
            elif not isinstance(field, Opt):
                raise ScenarioParseError(f"{at}: missing; must be {field.describe}")
        return Deferred(tuple(path), node, typed)


def record(fields: dict) -> Definition:
    return Definition(Entry(dict, fields))


def ref(*kinds) -> FieldType:
    return FieldType(f"the name of an object of kind {' or '.join(kinds)}", str, kinds=kinds)


def _field_list(fields: dict) -> str:
    names = [f"[{key}]" if isinstance(f, Opt) else key for key, f in fields.items()]
    return ", ".join(names) or "no fields"


def _resolve(value, runtime):
    """A typed value with every name resolved and every definition built."""
    if callable(value):
        return value(runtime)
    if isinstance(value, list):
        return [_resolve(v, runtime) for v in value]
    if isinstance(value, dict):
        return {key: _resolve(v, runtime) for key, v in value.items()}
    return value


INTEGER = FieldType("an integer", int)
NUMBER = FieldType("a finite number", int, float)
#: A tolerance bounds a distance or an overlap, so a negative one fails even exact matches.
TOLERANCE = FieldType("a finite non-negative number", int, float, minimum=0)
BOOLEAN = FieldType("a boolean", bool)
NAME = FieldType("a string", str)
LABEL = FieldType("a string or an integer", str, int)
DEVICE_KIND = FieldType(" or ".join(map(repr, DEVICE_KINDS)), str, choices=tuple(DEVICE_KINDS))
VECTOR = Matrix(rank=1)
MATRIX = Matrix()
PROBE = Definition(None, "a vector or a probe object", shorthand="vector")  # table: PROBES


class _Runtime(dict):
    """A scenario's built objects, name -> (kind, object), its seed and program tolerance."""

    def __init__(self, seed: int | None, tol: float):
        super().__init__()
        self.seed, self.tol = seed, tol

    def lookup(self, kinds: tuple, name: str):
        kind, obj = self.get(name, (None, None))
        if kind not in kinds:
            raise ScenarioReferenceError(f"undefined {' or '.join(kinds)} {name!r}")
        return obj


def _observable(dim, outcomes, effects):
    labels = {}  # effect key -> the first outcome label keyed by it
    for label in outcomes:
        key = str(label)
        if labels.setdefault(key, label) != label:  # make_observable refuses equal labels
            raise ScenarioParseError(
                f"outcome labels {labels[key]!r} and {label!r} both key effect {key!r}")
        if key not in effects:
            raise ScenarioParseError(f"missing effect for outcome {label!r}")
    unused = sorted(set(effects) - set(labels))
    if unused:
        raise ScenarioParseError(f"effects {unused} belong to no outcome")
    return make_observable(dim, tuple(outcomes), [effects[str(label)] for label in outcomes])


def _minimal_dilation(observable):
    meter, probe = minimal_dilation_multimeter(observable)
    return meter, [probe]


def _concatenate(channel_meter, a_multimeter, a_probe):
    return concatenate_with_measurement(channel_meter[0], make_model(a_multimeter[0], a_probe)), []


def _explicit_multimeter(dim_h, dim_k, pointer, interaction):
    return make_multimeter(dim_h, dim_k, pointer, interaction), []


def _probe_of(of, index=0) -> np.ndarray:
    _, probes = of
    if not 0 <= index < len(probes):
        raise ScenarioReferenceError(f"multimeter has {len(probes)} probes, index {index}")
    return probes[index]


def _tensor_probe(tensor) -> np.ndarray:
    product = tensor_many(tensor)  # capped before it allocates
    return product.reshape(-1) if all(part.ndim == 1 for part in tensor) else product


def _verdict(name, passed, residuals, details, violation) -> VerificationReport:
    if passed:
        return VerificationReport(name, "pass", residuals, details)
    return VerificationReport(name, "fail", residuals, f"violated: {violation}")


def _program(runtime, index, multimeter, probe, induce="observable", kernel=None, expect=None,
             tol=None, label=None) -> VerificationReport:
    if kernel is not None and induce != "observable":
        raise ScenarioParseError("a kernel only applies when inducing an observable")
    name = f"program[{index}]" if label is None else label
    kind = DEVICE_KINDS[induce]
    device = kind.induce(make_model(multimeter[0], probe, kernel=kernel))
    if expect is None:
        return VerificationReport(name, "pass", {}, f"induced {kind.describe(device)}")
    distance = kind.distance(device, runtime.lookup((induce,), expect))
    tol = runtime.tol if tol is None else tol
    return _verdict(name, distance <= tol, {"distance": distance}, f"matches {expect!r}",
                    f"distance {distance:.3e} > {tol:.3e} from {expect!r}")


def _bounds(runtime, index, outcome_counts, expect=None, label=None) -> VerificationReport:
    name = f"bounds[{index}]" if label is None else label
    lower, upper = dimension_bounds(len(outcome_counts), outcome_counts)
    try:
        residuals = {"lower": float(lower), "upper": float(upper)}
    except OverflowError:
        raise ValidationError("bounds exceed the float range of a report") from None
    if expect is None:
        return VerificationReport(name, "pass", residuals, f"bounds ({lower}, {upper})")
    return _verdict(name, [lower, upper] == expect, residuals,
                    f"bounds ({lower}, {upper}) as expected",
                    f"bounds ({lower}, {upper}) != expected {tuple(expect)}")


# Table entries build from their typed fields as keyword arguments, names already
# resolved; run entries get the runtime and the run's index first.  Builders
# call library functions by their module-level name, so a tracer that rebinds
# those names (bench/tracing.py) sees every call.

_ORTHOGONALITY = {
    "multimeter": ref("multimeter"), "probes": ListOf(PROBE, 2, 2), "tol": Opt(TOLERANCE)}

#: Object definitions, selected by "kind", then "builtin" or "construction".
OBJECTS = {"kind": {
    "observable": {
        "builtin": {"spin": Entry(lambda axis: spin_observable(axis), {"axis": ListOf(NUMBER)})},
        None: Entry(_observable, {"dim": INTEGER, "outcomes": ListOf(LABEL),
                                  "effects": MapOf(MATRIX)}),
    },
    "channel": {
        "builtin": {
            "identity": Entry(lambda dim: identity_channel(dim), {"dim": INTEGER}),
            "unitary": Entry(lambda matrix: unitary_channel(matrix), {"matrix": MATRIX}),
            "contraction": Entry(lambda vector: complete_contraction(vector), {"vector": VECTOR}),
        },
        None: Entry(lambda kraus: make_channel(kraus), {"kraus": ListOf(MATRIX)}),
    },
    "kernel": {None: Entry(lambda weights: make_kernel(weights), {"weights": Matrix(real=True)})},
    "multimeter": {
        "builtin": {
            "pauli": Entry(lambda: builtin_multimeter("pauli"), {}),
            "swap": Entry(lambda dim: builtin_multimeter("swap", dim=dim), {"dim": INTEGER}),
            "spin_pair": Entry(
                lambda observables: builtin_multimeter("spin_pair", observables=observables),
                {"observables": ListOf(ref("observable"), 2, 2)}),
        },
        "construction": {
            "minimal_dilation": Entry(_minimal_dilation, {"observable": ref("observable")}),
            "push_button": {
                "channels": Entry(lambda channels: push_button_multimeter(channels),
                                  {"channels": ListOf(ref("channel"))}),
                "observables": Entry(
                    lambda observables: push_button_multimeter(
                        [minimal_dilation_multimeter(obs) for obs in observables]),
                    {"observables": ListOf(ref("observable"))}),
            },
            "shared_pointer": Entry(lambda observables: shared_pointer_multimeter(observables),
                                    {"observables": ListOf(ref("observable"))}),
            "concatenate": Entry(_concatenate, {
                "channel_meter": ref("multimeter"), "a_multimeter": ref("multimeter"),
                "a_probe": PROBE}),
        },
        None: Entry(_explicit_multimeter, {
            "dim_h": INTEGER, "dim_k": INTEGER, "pointer": ref("observable"),
            "interaction": ref("channel")}),
    },
}}

#: Runs, selected by "command", then "check" for verify runs.
RUNS = {"command": {
    "program": Entry(_program, {"multimeter": ref("multimeter"), "probe": PROBE,
                                "induce": Opt(DEVICE_KIND), "kernel": Opt(ref("kernel")),
                                "expect": Opt(NAME), "tol": Opt(TOLERANCE), "label": Opt(NAME)}),
    "verify": {"check": {
        "sharp_orthogonality": Entry(
            lambda runtime, index, multimeter, probes, **tol: check_sharp_program_orthogonality(
                multimeter[0], *probes, **tol),
            _ORTHOGONALITY),
        "channel_orthogonality": Entry(
            lambda runtime, index, multimeter, probes, **tol: check_channel_program_orthogonality(
                multimeter[0], *probes, **tol),
            _ORTHOGONALITY),
        "convex_hull": Entry(
            lambda runtime, index, multimeter, programmed, **options: check_convex_hull(
                multimeter[0], [(p["probe"], p["device"]) for p in programmed],
                seed=runtime.seed + index, **options),
            {"multimeter": ref("multimeter"),
             "programmed": ListOf(record({"probe": PROBE, "device": ref(*DEVICE_KINDS)})),
             "trials": Opt(INTEGER), "tol": Opt(TOLERANCE)},
            randomized=True),
        "purification": Entry(
            lambda runtime, index, multimeter, probe, **options: check_purification(
                multimeter[0], probe, **options),
            {"multimeter": ref("multimeter"), "probe": PROBE, "kind": Opt(DEVICE_KIND),
             "tol": Opt(TOLERANCE)}),
        "counterexample_search": Entry(
            lambda runtime, index, **fields: counterexample_search(
                seed=runtime.seed + index, **fields),
            {"dim_h": INTEGER, "dim_k": INTEGER, "trials": INTEGER,
             "thresholds": Opt(record({key: Opt(NUMBER) for key in DEFAULT_SEARCH_THRESHOLDS})),
             "refine": Opt(BOOLEAN)},
            randomized=True),
    }},
    "bounds": Entry(_bounds, {"outcome_counts": ListOf(INTEGER, 1),
                              "expect": Opt(ListOf(INTEGER, 2, 2)), "label": Opt(NAME)}),
}}

#: Probe forms, each picked by the presence of its key; a bare list is a vector.
PROBES = PROBE.table = {
    "of": Entry(_probe_of, {"of": ref("multimeter"), "index": Opt(INTEGER)}),
    "vector": Entry(lambda vector: vector, {"vector": VECTOR}),
    "density": Entry(lambda density: density, {"density": MATRIX}),
    "tensor": Entry(_tensor_probe, {"tensor": ListOf(PROBE, 1)}),
}

#: The scenario document itself.
DOCUMENT = Entry(dict, {
    "seed": Opt(INTEGER),
    "tolerances": Opt(record({"program": Opt(TOLERANCE)})),
    "objects": Opt(MapOf(Definition(OBJECTS))),
    "runs": Opt(ListOf(Definition(RUNS))),
})


def table_entries(node, title: str = ""):
    """Yield ``(title, fields)`` for each entry under a table node."""
    if isinstance(node, Entry):
        yield title, node.fields
        return
    for selector, branch in node.items():
        if selector is None or isinstance(branch, Entry):
            yield from table_entries(branch, f"{title} {selector or ''}".strip())
        else:
            for name, sub in branch.items():
                yield from table_entries(sub, f"{title} {selector}={name}".strip())


def _build(definition: Deferred, where: str, runtime: _Runtime, *context):
    try:
        return definition(runtime, *context)
    except QMultimeterError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def build_objects(objects: dict, runtime: _Runtime) -> None:
    """Build read object definitions in declaration order."""
    for name, definition in objects.items():
        runtime[name] = (definition.path[0], _build(definition, f"objects.{name}", runtime))


def execute(scenario: dict, seed: int | None = None, tol: float | None = None) -> list:
    """Run a parsed scenario; returns one report per run, in order."""
    if not isinstance(scenario, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    document = Definition(DOCUMENT).parse(scenario, "").fields
    runs = document.get("runs", [])
    seed = document.get("seed") if seed is None else INTEGER.read(seed, "seed")
    if seed is None and any(run.entry.randomized for run in runs):
        raise ScenarioParseError("scenario uses randomness but declares no seed")
    if seed is not None and seed < 0:
        raise ScenarioParseError(f"seed must be a non-negative integer, got {seed}")
    if tol is None:
        tolerances = document["tolerances"].fields if "tolerances" in document else {}
        tol = tolerances.get("program", _PROGRAM_TOL)
    else:
        TOLERANCE.read(tol, "tol")
    runtime = _Runtime(seed, tol)
    build_objects(document.get("objects", {}), runtime)
    return [_build(run, f"runs[{idx}]", runtime, runtime, idx) for idx, run in enumerate(runs)]


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
        return _structured(reports)
    raise ValueError(f"format must be 'text' or 'structured', got {fmt!r}")


def _json_scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it by default (NaN and infinities included)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _structured(reports) -> str:
    """``json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True)``
    and a newline, byte for byte.

    The fixed schema is written directly: with ``indent``, CPython 3.11's
    ``json`` runs its pure-Python encoder, several times slower.  A value
    that is not a JSON scalar, or a residual key that is not a string (which
    ``encode_basestring_ascii`` refuses), raises ``TypeError``.
    """
    entries = []
    for rep in reports:
        residuals = rep.residuals
        items = [f"        {encode_basestring_ascii(key)}: {_json_scalar(residuals[key])}"
                 for key in sorted(residuals)]
        body = "{\n" + ",\n".join(items) + "\n      }" if items else "{}"
        entries.append(f'    {{\n      "check_name": {_json_scalar(rep.check_name)},\n'
                       f'      "details": {_json_scalar(rep.details)},\n'
                       f'      "residuals": {body},\n'
                       f'      "verdict": {_json_scalar(rep.verdict)}\n    }}')
    if not entries:
        return '{\n  "reports": []\n}\n'
    return '{\n  "reports": [\n' + ",\n".join(entries) + "\n  ]\n}\n"


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
    tables = ((DOCUMENT, "scenario"), (OBJECTS, ""), (RUNS, ""), (PROBES, "probe"))
    entries = [entry for table, prefix in tables for entry in table_entries(table, prefix)]
    lines = [f"{title}: {_field_list(fields)}" for title, fields in entries]
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
        # an overflowing input is refused by the checks that read the non-finite
        # result; numpy's warnings on the way would print, or under -W error raise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

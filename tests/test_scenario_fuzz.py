"""Scenario documents drawn from the CLI's field tables.

Well-formed documents fill table entries with values of the declared JSON
types (dimensions at most 4, so each run takes milliseconds); whatever
their values, ``main`` must exit with a documented code and never raise.
A single mutation -- a required field dropped, a field given the wrong JSON
type, or an unknown field added -- must always be a parse error.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultimeter import cli

NAMES = ("A", "B", "C")
JSON_VALUES = (None, True, "x", 2.5, 7, [], {})
P0, P1, X = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]
#: Values that often build, so that runs past the first object are reached.
TYPICAL = {
    "axis": [[0, 0, 1], [1, 0, 0]],
    "dim": [2], "dim_h": [2], "dim_k": [2], "index": [0, 1],
    "outcomes": [[1, 2]],
    "effects": [{"1": P0, "2": P1}],
    "matrix": [X], "kraus": [[P0, P1], [X]],
    "vector": [[1, 0], [0.6, 0.8]], "density": [[[0.5, 0], [0, 0.5]], P0],
    "weights": [[[1, 0], [0, 1]], [[1, 0], [1, 0], [0, 1], [0, 1]]],
    "outcome_counts": [[2, 2]],
}


def _accepts(field_type, value) -> bool:
    """Whether ``value`` has one of the JSON types ``field_type`` declares."""
    return isinstance(value, field_type.json) and not (
        isinstance(value, bool) and bool not in field_type.json
    )


def _field_type(field):
    return field.type if isinstance(field, cli.Opt) else field


class Drawer:
    """Draws JSON values of table types; records every object drawn from a table."""

    def __init__(self, data):
        self.data = data
        self.sites = []  # (object, selector keys, entry fields)

    def draw(self, strategy):
        return self.data.draw(strategy)

    def value(self, t, depth=0):
        if isinstance(t, cli.Definition):
            if t.shorthand and (depth > 1 or self.draw(st.booleans())):
                return self.value(cli.VECTOR)
            return self.definition(t.table, depth + 1)
        if isinstance(t, cli.ListOf):
            most = t.most if t.most is not None else t.least + 2
            return [self.value(t.item, depth) for _ in range(self.draw(st.integers(t.least, most)))]
        if isinstance(t, cli.MapOf):
            keys = self.draw(st.lists(st.sampled_from(["1", "2", "a"]), max_size=3, unique=True))
            return {key: self.value(t.item, depth) for key in keys}
        if isinstance(t, cli.Matrix):
            rows = 1 if t.rank == 1 else self.draw(st.integers(1, 4))
            cols = self.draw(st.integers(1, 4))
            pair = st.lists(st.floats(-1, 1), min_size=2, max_size=2)
            entry = st.floats(-1, 1) if t.real else st.one_of(
                st.integers(-1, 1), st.floats(-1, 1), pair)
            matrix = [[self.draw(entry) for _ in range(cols)] for _ in range(rows)]
            return matrix[0] if t.rank == 1 else matrix
        if t.kinds or (t.json == (str,) and not t.choices):
            return self.draw(st.sampled_from(NAMES + ("ghost",)))
        if t.choices:
            return self.draw(st.sampled_from(t.choices))
        if t.json == (bool,):
            return self.draw(st.booleans())
        if t.json == (int,):
            return self.draw(st.integers(-1, 4))
        if t.json == (int, float):
            return self.draw(st.one_of(st.integers(-1, 4), st.floats(-2, 2)))
        return self.draw(st.one_of(st.integers(0, 3), st.sampled_from(["1", "2", "a"])))  # labels

    def definition(self, node, depth):
        value, selectors = {}, []
        while not isinstance(node, cli.Entry):
            key = self.draw(st.sampled_from(list(node)))
            if key is None or isinstance(node[key], cli.Entry):
                node = node[key]
                continue
            name = self.draw(st.sampled_from(sorted(node[key])))
            value[key] = name
            selectors.append(key)
            node = node[key][name]
        for key, field in node.fields.items():
            if isinstance(field, cli.Opt) and not self.draw(st.booleans()):
                continue
            if key in TYPICAL and self.draw(st.booleans()):
                value[key] = self.draw(st.sampled_from(TYPICAL[key]))
            else:
                value[key] = self.value(_field_type(field), depth)
        self.sites.append((value, selectors, node.fields))
        return value

    def document(self):
        doc = {
            "seed": self.draw(st.integers(0, 2**31)),
            "objects": {
                name: self.definition(cli.OBJECTS, 1)
                for name in NAMES[: self.draw(st.integers(0, 3))]
            },
            "runs": [self.definition(cli.RUNS, 1) for _ in range(self.draw(st.integers(0, 3)))],
        }
        self.sites.append((doc, [], cli.DOCUMENT.fields))
        return doc


def _mutate(drawer) -> None:
    """Apply one mutation that must make any document a parse error."""
    value, selectors, fields = drawer.draw(st.sampled_from(drawer.sites))
    required = [
        k for k in (*selectors, *fields) if k in value and not isinstance(fields.get(k), cli.Opt)
    ]
    present = [k for k in value if k in selectors or k in fields]
    kinds = ["unknown"] + (["drop"] if required else []) + (["retype"] if present else [])
    kind = drawer.draw(st.sampled_from(kinds))
    if kind == "unknown":
        value["not_a_field"] = 1
    elif kind == "drop":
        del value[drawer.draw(st.sampled_from(required))]
    else:
        key = drawer.draw(st.sampled_from(present))
        field_type = cli.NAME if key in selectors else _field_type(fields[key])
        wrong = [v for v in JSON_VALUES if not _accepts(field_type, v)]
        value[key] = drawer.draw(st.sampled_from(wrong))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), mutate=st.booleans())
def test_documents_from_the_tables(path, data, mutate):
    drawer = Drawer(data)
    doc = drawer.document()
    if mutate:
        _mutate(drawer)
    path.write_text(json.dumps(doc))
    status = cli.main([str(path)])
    if mutate:
        assert status == cli.EXIT_PARSE, doc
    else:
        assert status in (0, 1, 2, 3, 4)

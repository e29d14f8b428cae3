"""The indent-2 JSON writer behind every --format json against the stdlib's
json.dumps(obj, indent=2, sort_keys=True), which it must match byte for byte."""

from __future__ import annotations

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from coxaut import cli

from test_golden import COMMANDS, GUARD_VARS, _write_fallbacks, run


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class Label(str):
    pass


class Order(IntEnum):
    TWO = 2


TRICKY_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", " ", "\ud800", "😀", "a\"b\\c"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**100, -(10**100)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(TRICKY_TEXT)
)
keys = st.text() | st.sampled_from(TRICKY_TEXT)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=25,
)


@given(trees)
@settings(max_examples=400, deadline=None, derandomize=True)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {}, ()], "c": ([{"": []}],)})
@example([[[[]]], {"x": {"y": {"z": {}}}}])
@example({"b": 1, "a": 2, "B": 3, "é": 4, "": 5})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 0.1])
@example([True, False, None, 1, -1, 10**400])
@example(OrderedDict([("b", Label("x\u00e9")), ("a", [Order.TWO, True])]))
def test_writer_matches_stdlib(obj):
    assert cli._json_text(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {None: 1}, {1.5: 2}, {True: 1}, {(1,): 2}, {"a": 1, 2: 3}, [{"ok": {0: 1}}]])
def test_non_str_key_raises(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_every_golden_payload_matches_stdlib(monkeypatch, tmp_path):
    for name in GUARD_VARS:
        monkeypatch.delenv(name, raising=False)
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    _write_fallbacks(tmp_path)
    for argv in COMMANDS:
        run(argv, tmp_path)
    assert len(payloads) == len(COMMANDS)
    for payload in payloads:
        assert cli._json_text(payload) == stdlib(payload)


# -- flat lists and flat-row tables --------------------------------------------
# Random trees almost never hold a list whose items share one flat shape, so
# these strategies build such lists on purpose, clean or with one flaw that
# must send the writer back to its recursion.

PERCENT_KEYS = st.sampled_from(["%", "%d", "%s", "%%", "%(id)s", "a%", "100%"])
table_keys = keys | PERCENT_KEYS
column_values = {
    int: st.integers() | st.sampled_from([2**63, -(10**100)]),
    str: st.text() | st.sampled_from(TRICKY_TEXT) | PERCENT_KEYS,
}
# each one, in a column or a flat list of exact ints or strs, is a flaw
odd_values = st.sampled_from([True, False, None, 1.5, float("nan"), Order.TWO, Label("x"), 0, "0", [1], {"a": 1}])


@st.composite
def flat_lists(draw):
    """(a non-empty flat list of exact ints or exact strs, whether it is still
    flat after an optional odd item)."""
    kind = draw(st.sampled_from([int, str]))
    items = draw(st.lists(column_values[kind], min_size=1, max_size=6))
    value = draw(st.none() | odd_values)
    if value is None or type(value) is kind:
        return items, True
    items.insert(draw(st.integers(0, len(items))), value)
    return items, False


@st.composite
def tables(draw):
    """(a list of flat rows of one shape, each column of one exact type,
    whether it is still a flat-row table after an optional flaw).

    The rows are dicts with the same keys, lists, tuples, or a mix of lists
    and tuples.  A flaw is a cell of another type, or one odd row: longer,
    shorter, or with one key replaced by another."""
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([int, str]), min_size=width, max_size=width))
    names = draw(st.lists(table_keys, min_size=width, max_size=width, unique=True))
    cells = [[draw(column_values[kind]) for kind in kinds] for _ in range(draw(st.integers(1, 5)))]
    shape = draw(st.sampled_from(["dict", "list", "tuple", "mixed"]))
    clean = True
    flaw = draw(st.sampled_from(["none", "cell", "longer", "shorter"] + ["rekeyed"] * (shape == "dict")))
    row = draw(st.integers(0, len(cells) - 1))
    if flaw == "cell":
        value = draw(odd_values)
        column = draw(st.integers(0, width - 1))
        clean = type(value) is kinds[column]
        cells[row][column] = value
    elif flaw != "none" and len(cells) > 1:
        clean = False
    if shape == "dict":
        rows = [dict(zip(names, values)) for values in cells]
        if not clean and flaw == "longer":
            rows[row][draw(table_keys.filter(lambda k: k not in names))] = 0
        elif not clean and flaw == "shorter":
            del rows[row][names[-1]]
        elif not clean and flaw == "rekeyed":
            rows[row][draw(table_keys.filter(lambda k: k not in names))] = rows[row].pop(names[0])
    else:
        if not clean and flaw == "longer":
            cells[row].append(0)
        elif not clean and flaw == "shorter":
            cells[row].pop()
        row_types = {"list": [list], "tuple": [tuple], "mixed": [list, tuple]}[shape]
        rows = [draw(st.sampled_from(row_types))(values) for values in cells]
    return rows, clean


@given(flat_lists() | tables(), st.sampled_from(["bare", "in a dict", "in a list", "deep"]))
@settings(max_examples=600, deadline=None, derandomize=True)
@example(([[], []], False), "bare")
@example(([{}, {}], False), "bare")
@example(([{"%": 1, "%d": "%s"}, {"%": 2, "%d": "%%"}], True), "bare")
@example(([[1, "a"], (2, "b"), [3, "c"]], True), "in a dict")
@example(([{"100%": "%d%%", "%(id)s": 1}, {"100%": "50%", "%(id)s": 2}], True), "in a list")
@example(([(0, 1, "a"), (1, 2, "b%s"), (2, 3, "c")], True), "deep")
@example(([{"a": 1}, [1]], False), "bare")
@example(([Order.TWO, 2], False), "bare")
@example(([Label("x"), "y"], False), "bare")
def test_tables_match_stdlib(case, context):
    items, clean = case
    obj = {"bare": items, "in a dict": {"t": items, "u": 1}, "in a list": [items, items], "deep": [{"a": [items]}]}[context]
    assert cli._json_text(obj) == stdlib(obj)
    assert (cli._flat_texts(items, "\n  ") is not None) == clean

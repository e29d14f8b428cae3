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

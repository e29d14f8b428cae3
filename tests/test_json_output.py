"""The JSON writer behind every --format json against the stdlib's
json.dumps(obj, indent=2, sort_keys=True), which it must match byte for byte:
_json_text on arbitrary trees, _write_rows on arbitrary tables, and each
command's stdout against the payload that tests/payloads.py builds one Python
object per row."""

from __future__ import annotations

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from coxaut import cli
from coxaut.automorphisms import BallAutomorphism, identity_stabilizer_census, psi_n, psi_phi, walked_map
from coxaut.ball import DEFAULT_MAX_VERTICES, build_ball
from coxaut.checks import default_probe_radius, run_system_checks
from coxaut.system import DEFAULT_MAX_NODES, CoxeterSystem, LimitExceeded, is_flexible, parse_system

import map_checks
from conftest import DIAGRAMS, make_system, random_systems
from payloads import ball_payload, cycles_payload, exotic_payload, report_payload, run_json, stabilizer_payload
from test_golden import COMMANDS, FALLBACK, ROOT


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


# -- tables -------------------------------------------------------------------
# _write_rows on tables of any shape: object rows with the same keys or array
# rows of one length, cells of any JSON value, rows dropped from some ids (as
# ball edges and exotic map pairs are), at any indent and any block size.

PERCENT_KEYS = st.sampled_from(["%", "%d", "%s", "%%", "%(id)s", "a%", "100%"])
table_keys = keys | PERCENT_KEYS
table_cells = scalars | PERCENT_KEYS | st.lists(scalars, max_size=3) | st.dictionaries(table_keys, scalars, max_size=2)


@st.composite
def tables(draw):
    """(keys, rows, kept): keys sorted and unique, or None for array rows; rows
    of one width; kept[i] whether id i has its row in the table."""
    width = draw(st.integers(1, 4))
    names = None
    if draw(st.booleans()):
        names = tuple(sorted(draw(st.lists(table_keys, min_size=width, max_size=width, unique=True))))
    rows = draw(st.lists(st.lists(table_cells, min_size=width, max_size=width), max_size=9))
    kept = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return names, rows, kept


@given(tables(), st.integers(1, 4), st.sampled_from(["\n", "\n  ", "\n      "]))
@settings(max_examples=400, deadline=None, derandomize=True)
@example((None, [], []), 1, "\n  ")
@example((None, [[1, "a"]], [True]), 1, "\n  ")
@example((None, [[1, "a"], [2, "b"]], [False, False]), 1, "\n  ")
@example((("%", "%d"), [[1, "%s"], [2, "%%"], [3, "x"]], [True, False, True]), 2, "\n  ")
@example((("a", "b"), [[[], {}], [[1, [2]], {"c": None}]], [True, True]), 1, "\n")
def test_tables_match_stdlib(table, block, newline):
    keys, rows, kept = table
    kept_rows = [row for row, keep in zip(rows, kept) if keep]
    expected = [row if keys is None else dict(zip(keys, row)) for row in kept_rows]
    cell = newline + "    "

    def cells(a, b):
        block_rows = [row for row, keep in zip(rows[a:b], kept[a:b]) if keep]
        return [[cli._json_text(row[j], cell) for row in block_rows] for j in range(len(rows[0]))]

    parts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK", block)
        cli._write_rows(parts.append, keys, len(rows), cells, newline)
    assert "".join(parts) == stdlib(expected).replace("\n", newline)
    assert len(parts) == 1 + len({i // block for i, keep in enumerate(kept) if keep})  # a join per non-empty block


# -- commands against the payload oracle --------------------------------------


def oracle(system: CoxeterSystem, argv: list[str]) -> dict | None:
    """The payload of argv (a command and its options, without the file), built
    by tests/payloads.py; None when the command prints no JSON (exotic on a
    rigid diagram).  Raises what the command raises."""
    args = cli.build_parser().parse_args([argv[0], "diagram.cox", *argv[1:]])
    max_vertices = args.max_vertices or DEFAULT_MAX_VERTICES
    if args.command == "verify":
        return report_payload(run_system_checks(system, radius=args.radius, probe_radius=args.probe, max_vertices=max_vertices))
    witness = is_flexible(system)
    if args.command == "exotic" and witness is None:
        return None
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    if args.command == "ball":
        return ball_payload(ball)
    if args.command == "cycles":
        max_m = system.max_finite_order()
        max_length = args.max_length if args.max_length is not None else (2 * max_m if max_m else 6)
        return cycles_payload(ball, args.radius, max_length, max_vertices)
    if args.command == "exotic":
        aut = cli.psi_phi(ball, witness) if args.n is None else cli.psi_n(ball, witness, args.n)
        return exotic_payload(ball, witness, aut, args.n)
    probe = args.probe if args.probe is not None else default_probe_radius(system, args.radius)
    census = identity_stabilizer_census(ball, probe, max_nodes=args.max_nodes or DEFAULT_MAX_NODES)
    return stabilizer_payload(ball, census)


def assert_matches_oracle(system: CoxeterSystem, argv: list[str], block: int = cli._BLOCK) -> str:
    """Stdout of argv is json.dumps(oracle payload, indent=2, sort_keys=True) and
    a newline; a command without a payload prints nothing."""
    code, out = run_json(system, argv, block)
    try:
        payload = oracle(system, argv)
    except ValueError:  # psi_n at an odd-order pivot
        assert (code, out) == (cli.EXIT_INPUT, "")
        return out
    except LimitExceeded:
        assert (code, out) == (cli.EXIT_INDETERMINATE, "")
        return out
    if payload is None:
        assert (code, out) == (cli.EXIT_INPUT, "")
    else:
        assert out == stdlib(payload) + "\n", argv
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION)
    return out


TABLE_COMMANDS = [["ball"], ["cycles"], ["exotic"], ["exotic", "--n", "1"], ["exotic", "--n", "2"], ["stabilizer"]]
NAMES = st.sampled_from([*TRICKY_TEXT, "%s", "%d", "%%", "%(id)s"]) | st.text(min_size=1)


@st.composite
def named_systems(draw):
    """A random diagram of rank <= 4 whose generators are named by any text:
    escapes, surrogates, percent signs, spaces."""
    system = draw(random_systems())
    names = draw(st.lists(NAMES.filter(lambda name: name != "e"), min_size=system.rank, max_size=system.rank, unique=True))
    return CoxeterSystem(names, {(s, t): m for s, t, m in system.finite_pairs()})


@given(named_systems(), st.integers(0, 3), st.sampled_from([1, 2, 3, 4096]))
@settings(max_examples=80, deadline=None, derandomize=True)
@example(make_system("s t u", (1, 2, 2)), 3, 2)  # flexible, with psi_n
@example(make_system("a b c", (0, 1, 3), (0, 2, 3), (1, 2, 3)), 2, 1)  # affine, cycles at r = 2
def test_commands_match_the_oracle(system, radius, block):
    for argv in TABLE_COMMANDS:
        assert_matches_oracle(system, [*argv, "--radius", str(radius)], block)


A2 = make_system("a b", (0, 1, 3))  # six vertices, six edges, one hexagon at r = 3


def test_radius_zero_has_an_empty_edge_table():
    out = assert_matches_oracle(A2, ["ball", "--radius", "0"])
    assert '"edges": [],' in out and json.loads(out)["vertices"] == [{"id": 0, "word": "e"}]


def test_no_cycles_is_an_empty_table():
    out = assert_matches_oracle(make_system("a b"), ["cycles", "--radius", "4"])
    assert json.loads(out)["cycles"] == []


@pytest.mark.parametrize("block", [1, 5, 6, 7])
def test_tables_of_one_row_one_block_and_one_block_and_a_row(block):
    # 6 vertices and 6 edges: one block and a row at 5, exactly one block at 6
    out = assert_matches_oracle(A2, ["ball", "--radius", "3"], block)
    assert len(json.loads(out)["vertices"]) == len(json.loads(out)["edges"]) == 6
    assert len(json.loads(assert_matches_oracle(A2, ["cycles", "--radius", "3"], block))["cycles"]) == 1


def test_exotic_with_violations(monkeypatch):
    # two boundary vertices sent to one image: not injective, yet every edge still maps to an edge
    psi_phi = cli.psi_phi

    def merged(ball, witness):
        aut = psi_phi(ball, witness)
        vmap = list(aut.vmap)
        vmap[-1] = vmap[-2]
        return BallAutomorphism(tuple(vmap), ball.radius, aut.field)

    monkeypatch.setattr(cli, "psi_phi", merged)
    system = make_system("s t u", (1, 2, 2))
    code, out = run_json(system, ["exotic", "--radius", "3"])
    assert code == cli.EXIT_VIOLATION
    assert json.loads(out)["violations"] == ["not injective: vertices 15 and 16 both map to 12"]
    assert_matches_oracle(system, ["exotic", "--radius", "3"])


def test_exotic_with_a_broken_edge(monkeypatch, capsys):
    # psi walked from the letterwise swap of s and t, which sends the order-2 pair
    # (t, u) to the free pair (s, u): edges go to non-edges, which is a violation
    # (exit 1) reported with the field the map was walked from, not an input error
    monkeypatch.setattr(cli, "psi_phi", lambda ball, witness: walked_map(ball, 0, lambda x: (1, 0, 2)))
    system = make_system("s t u", (1, 2, 2))
    code, out = run_json(system, ["exotic", "--radius", "3"])
    payload = json.loads(out)
    assert code == cli.EXIT_VIOLATION
    assert payload["verified"] is False
    assert payload["field"] == {"stars": 9, "constant": True, "distinct_permutations": 1}
    assert [v for v in payload["violations"] if v.startswith("edge")] == [
        "edge (3, 7) labeled t maps to non-adjacent pair (3, 5)",
        "edge (5, 10) labeled t maps to non-adjacent pair (7, 13)",
    ]
    assert_matches_oracle(system, ["exotic", "--radius", "3"])
    monkeypatch.setattr(cli, "_load_system", lambda path: system)
    assert cli.main(["exotic", "diagram.cox", "--radius", "3"]) == cli.EXIT_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["verified: no", "field: constant over 9 stars"]


def test_exotic_map_leaves_out_undefined_vertices(monkeypatch):
    # a map defined on word lengths <= 1 only needs its images there and a field at e
    psi_phi = cli.psi_phi

    def partial(ball, witness):
        aut = psi_phi(ball, witness)
        return BallAutomorphism(aut.vmap[:-1] + (None,), 1, aut.field)

    monkeypatch.setattr(cli, "psi_phi", partial)
    system = make_system("s t u", (1, 2, 2))
    code, out = run_json(system, ["exotic", "--radius", "3"])
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["map"]) == build_ball(system, 3).size - 1
    assert json.loads(out)["field"] == {"stars": 1, "constant": True, "distinct_permutations": 1}
    assert_matches_oracle(system, ["exotic", "--radius", "3"])


FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))
FLEXIBLE_PATHS = [p for p in DIAGRAMS + FRONTIER if is_flexible(parse_system(p.read_text()))]


@pytest.mark.parametrize("path", FLEXIBLE_PATHS, ids=lambda p: p.stem)
def test_exotic_field_is_the_maps_own_field(path):
    # exotic reads the field psi and psi_n were walked from; at every star-interior
    # vertex it is the map's own local permutation, as map_checks reads it off the images
    system = parse_system(path.read_text())
    witness = is_flexible(system)
    for radius in range(4 if path.stem == "free10" else 9):  # free10's r-sphere has 10 * 9^(r-1) vertices
        ball = build_ball(system, radius)
        for n in (None, *range(1, radius + 1)):
            code, out = run_json(system, ["exotic", "--radius", str(radius)] + ([] if n is None else ["--n", str(n)]))
            if code == cli.EXIT_INPUT:  # psi_n is undefined at an odd-order pivot
                with pytest.raises(ValueError):
                    psi_n(ball, witness, n)
                break
            assert code == cli.EXIT_OK
            aut = psi_phi(ball, witness) if n is None else psi_n(ball, witness, n)
            perms = set(map_checks.local_permutation_field(ball, aut).values())
            stars = len(map_checks.star_interior(ball, radius))
            expected = {"stars": stars, "constant": len(perms) <= 1, "distinct_permutations": len(perms)}
            assert json.loads(out)["field"] == expected, (radius, n)


def test_every_golden_payload_matches_stdlib(tmp_path):
    # every golden command, verify included, prints its oracle payload as the stdlib spells it
    for name, text in FALLBACK.items():
        (tmp_path / name).write_text(text)
    for argv in COMMANDS:
        path = tmp_path / argv[1] if argv[1] in FALLBACK else ROOT / argv[1]
        system = parse_system(path.read_text())
        options = [x for x in argv[2:] if x not in ("--format", "json")]
        assert_matches_oracle(system, [argv[0], *options])

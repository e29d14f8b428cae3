"""Command-line surface: parse, reduce, build, analyze, construct, verify.

Exit codes: 0 success, 1 invariant violation, 2 input error,
3 indeterminate (an enumeration guard tripped before an answer existed),
4 internal error (an unexpected exception; a bug, not a finding).
Guards: each command reads only those listed for it, each set by its flag or
else its variable; it rejects any other guard's flag (exit 2) and ignores its variable.
  --max-states    COXAUT_MAX_STATES    reduce
  --max-vertices  COXAUT_MAX_VERTICES  ball, cycles, exotic, stabilizer, verify
  --max-nodes     COXAUT_MAX_NODES     stabilizer, verify
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not

from .automorphisms import (
    identity_stabilizer_census,
    psi_n,
    psi_phi,
    validate_psi_n,
    verify_ball_automorphism,
)
from .ball import DEFAULT_MAX_VERTICES, build_ball
from .checks import resolve_probe_radius, run_system_checks
from .cycles import enumerate_embedded_cycles, is_alternating, is_essential
from .system import DEFAULT_MAX_NODES, CoxeterSystem, LimitExceeded, ParseError, cycle_notation, is_flexible, parse_system
from .words import DEFAULT_MAX_STATES, format_word, m_class_size, parse_word, reduce_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, one join per level.

    The stdlib takes its pure-Python encoder whenever indent is set.  Here str,
    int, True, False and None are spelled as the stdlib spells them, and every
    other scalar (and str or int subclass) by its C encoder.  A key that is not
    a str raises TypeError.
    """
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        items = ["".join([encode_basestring_ascii(key), ": ", _json_text(obj[key], inner)]) for key in sorted(obj)]
        return "".join(["{", inner, ("," + inner).join(items), newline, "}"])
    if isinstance(obj, (list, tuple)) and obj:
        return _array([_json_text(x, inner) for x in obj], newline)
    return json.dumps(obj)  # any other scalar, {} or []


def _array(cells: list[str], newline: str) -> str:
    """The JSON array of encoded cells at indent newline."""
    inner = newline + "  "
    return "".join(["[", inner, ("," + inner).join(cells), newline, "]"]) if cells else "[]"


_BLOCK = 4096  # ids per block of a table
_CELL = "\n      "  # the indent of a cell in a row of a table that _emit_json writes


def _write_rows(write, keys: tuple[str, ...] | None, size: int, cells, newline: str) -> None:
    """Write the array of rows that cells gives, as json.dumps(indent=2,
    sort_keys=True) spells it at indent newline.  cells(a, b) gives the rows of
    ids a .. b-1 (maybe fewer, or none) as one list of encoded cells per column,
    each spelled for the rows' inner indent; keys are the sorted keys of object
    rows, or None for array rows.  Each block of _BLOCK ids is written with one
    join of its cells and the constant separators, interleaved by slice
    assignment: row i is parts[i*step : (i+1)*step], each cell after its
    separator, and the first separator closes the previous row."""
    inner = newline + "  "
    cell = inner + "  "
    opening, closing = ("[", "]") if keys is None else ("{", "}")
    head = "[" + inner + opening  # until the first row is written
    for a in range(0, size, _BLOCK):
        columns = cells(a, min(a + _BLOCK, size))
        rows, step = len(columns[0]), 2 * len(columns)
        if not rows:
            continue
        fields = [""] * len(columns) if keys is None else [encode_basestring_ascii(key) + ": " for key in keys]
        parts = [""] * (rows * step)
        for j, (field, column) in enumerate(zip(fields, columns)):
            parts[2 * j :: step] = [("," if j else inner + closing + "," + inner + opening) + cell + field] * rows
            parts[2 * j + 1 :: step] = column
        if head:
            parts[0], head = head + cell + fields[0], ""
        write("".join(parts))
    write("[]" if head else inner + closing + newline + "]")


def _emit_json(obj: dict, **tables) -> None:
    """Write json.dumps({**obj, **tables}, indent=2, sort_keys=True) and a newline
    to stdout, where each table is (keys, size, cells) and is written block by
    block by _write_rows; everything else goes through _json_text."""
    write = sys.stdout.write
    separator = "{"
    for key in sorted({**obj, **tables}):
        write(separator + "\n  " + encode_basestring_ascii(key) + ": ")
        if key in tables:
            _write_rows(write, *tables[key], "\n  ")
        else:
            write(_json_text(obj[key], "\n  "))
        separator = ","
    write("\n}\n")


def _load_system(path: str) -> CoxeterSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())


# each guard's flag: its environment variable, its default and its help
GUARDS = {
    "--max-states": ("COXAUT_MAX_STATES", DEFAULT_MAX_STATES, "reduce guard (m-operation closures, m-class counts)"),
    "--max-vertices": ("COXAUT_MAX_VERTICES", DEFAULT_MAX_VERTICES, "ball size guard"),
    "--max-nodes": ("COXAUT_MAX_NODES", DEFAULT_MAX_NODES, "stabilizer search guard"),
}


def _guard(args, flag: str) -> int:
    """The guard flag's value: the flag if given, else its variable, else its
    default.  A value out of range is named by the flag or variable it came from."""
    env_name, default, _ = GUARDS[flag]
    value, source = getattr(args, flag[2:].replace("-", "_")), flag
    if value is None:
        env, source = os.environ.get(env_name), env_name
        try:
            value = int(env) if env else default
        except ValueError:
            raise ParseError(f"guard {env_name} must be an integer, got {env!r}") from None
    if value <= 0:
        raise ParseError(f"guard {source} must be positive, got {value}")
    return value


def cmd_check_flexible(args) -> int:
    system = _load_system(args.file)
    witness = is_flexible(system)
    if args.format == "json":
        _emit_json(
            {
                "system": system.to_json_dict(),
                "flexible": witness is not None,
                "pivot": system.name_of(witness.pivot) if witness else None,
                "phi": cycle_notation(witness.phi, system.names) if witness else None,
            }
        )
    elif witness is not None:
        print(f"FLEXIBLE pivot={system.name_of(witness.pivot)} phi={cycle_notation(witness.phi, system.names)}")
    else:
        print("NOT FLEXIBLE")
    return EXIT_OK


def cmd_reduce(args) -> int:
    system = _load_system(args.file)
    max_states = _guard(args, "--max-states")
    word = parse_word(system, args.word)
    canonical = reduce_word(system, word, max_states=max_states)
    size = m_class_size(system, canonical, max_states=max_states)
    if args.format == "json":
        _emit_json(
            {
                "input": args.word,
                "canonical": format_word(system, canonical),
                "length": len(canonical),
                "m_class_size": size,
            }
        )
    else:
        print(f"canonical: {format_word(system, canonical)}")
        print(f"length: {len(canonical)}")
        print(f"m-class size: {size}")
    return EXIT_OK


def cmd_ball(args) -> int:
    system = _load_system(args.file)
    max_vertices = _guard(args, "--max-vertices")
    # opened first, so an unwritable path is an input error even where the ball guard trips
    dot = open(args.dot, "w", encoding="utf-8") if args.dot else None
    try:
        ball = build_ball(system, args.radius, max_vertices=max_vertices)
        if dot:
            dot.write(ball.to_dot())
    finally:
        if dot:
            dot.close()
    if args.format == "json":
        texts, names = ball.texts, list(map(encode_basestring_ascii, system.names))

        def vertices(a, b):
            return [list(map(int.__repr__, range(a, b))), list(map(encode_basestring_ascii, texts[a:b]))]

        def edges(a, b):  # one id range's edges, sorted (see CayleyBall.edges_from)
            us, vs, labels = list(zip(*ball.edges_from(a, b))) or [()] * 3
            return [list(map(int.__repr__, us)), list(map(int.__repr__, vs)), list(map(names.__getitem__, labels))]

        size = ball.size
        _emit_json({"radius": ball.radius}, vertices=(("id", "word"), size, vertices), edges=(None, size, edges))
    else:
        print(f"radius: {ball.radius}")
        print(f"vertices: {ball.size}")
        print(f"edges: {(len(ball.adj) - ball.adj.count(-1)) // 2}")  # half the degree sum
        print(f"complete: {'yes' if ball.complete else 'no'}")
    return EXIT_OK


def cmd_cycles(args) -> int:
    system = _load_system(args.file)
    max_vertices = _guard(args, "--max-vertices")
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    max_m = system.max_finite_order()
    max_length = args.max_length if args.max_length is not None else (2 * max_m if max_m else 6)
    rows = []  # (cycle, its essentiality report, its sorted relator pair or None)
    for cycle in enumerate_embedded_cycles(ball, max_length, max_vertices):
        rows.append((cycle, is_essential(ball, cycle), sorted(cycle.labels[:2]) if is_alternating(cycle) else None))
    names = system.names
    if args.format == "json":
        quoted = list(map(encode_basestring_ascii, names))

        def cells(row):
            cycle, report, relator = row
            labels = _array(list(map(quoted.__getitem__, cycle.labels)), _CELL)
            vertices = _array(list(map(int.__repr__, cycle.vertices)), _CELL)
            relator = _array(list(map(quoted.__getitem__, relator)), _CELL) if relator else "null"
            return _json_text(report.certified), _json_text(report.essential), labels, relator, vertices

        keys = ("certified", "essential", "labels", "relator", "vertices")
        table = (keys, len(rows), lambda a, b: list(zip(*map(cells, rows[a:b]))))
        _emit_json({"radius": args.radius, "max_length": max_length}, cycles=table)
    else:
        print(f"{len(rows)} embedded cycles of length <= {max_length} at radius {args.radius}")
        for cycle, report, relator in rows:
            flags = [
                "essential" if report.essential else "not-essential",
                "certified" if report.certified else "uncertified",
            ]
            if relator:
                flags.append(f"relator({names[relator[0]]},{names[relator[1]]})")
            print(f"  {'-'.join(map(str, cycle.vertices))} [{' '.join(map(names.__getitem__, cycle.labels))}] {' '.join(flags)}")
    return EXIT_OK


def cmd_exotic(args) -> int:
    system = _load_system(args.file)
    max_vertices = _guard(args, "--max-vertices")
    witness = is_flexible(system)
    if witness is None:
        print("error: the diagram is not flexible; no exotic map exists", file=sys.stderr)
        return EXIT_INPUT
    if args.n is not None:
        validate_psi_n(system, witness)
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    aut = psi_phi(ball, witness) if args.n is None else psi_n(ball, witness, args.n)
    report = verify_ball_automorphism(ball, aut)
    texts, vmap = ball.texts, aut.vmap
    stars = ball.star_interior(aut.interior_radius)
    distinct = set(map(aut.field, stars))
    pivot, phi = system.name_of(witness.pivot), cycle_notation(witness.phi, system.names)
    if args.format == "json":
        quoted = list(map(encode_basestring_ascii, texts))

        def pairs(a, b):  # [texts[v], texts[image]] for each mapped v
            ids = list(compress(range(a, b), map(is_not, vmap[a:b], repeat(None))))
            return [list(map(quoted.__getitem__, ids)), list(map(quoted.__getitem__, map(vmap.__getitem__, ids)))]

        stats = {"stars": len(stars), "constant": len(distinct) <= 1, "distinct_permutations": len(distinct)}
        violations = list(report.violations)
        payload = {"pivot": pivot, "phi": phi, "n": args.n, "verified": report.ok, "violations": violations, "field": stats}
        _emit_json(payload, map=(None, ball.size, pairs))
    else:
        name = "psi" if args.n is None else f"psi_{args.n}"
        print(f"{name} pivot={pivot} phi={phi}")
        print(f"verified: {'yes' if report.ok else 'no'}")
        print(f"field: {'constant' if len(distinct) <= 1 else 'non-constant'} over {len(stars)} stars")
        for v, image in enumerate(vmap):
            if image is not None:
                print(f"  {texts[v]} -> {texts[image]}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_stabilizer(args) -> int:
    system = _load_system(args.file)
    max_vertices, max_nodes = _guard(args, "--max-vertices"), _guard(args, "--max-nodes")
    probe = resolve_probe_radius(system, args.radius, args.probe)
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    census = identity_stabilizer_census(ball, probe, max_nodes=max_nodes)
    entries, texts = census.entries, ball.texts
    if args.format == "json":
        quoted, pair_newline = list(map(encode_basestring_ascii, texts[: census.probe_count])), _CELL + "  "
        ids = range(census.probe_count)

        @cache  # a pair cell depends only on its two ids, and entries share most pairs
        def pair(v, image):
            return _array([quoted[v], quoted[image]], pair_newline)

        def cells(entry):
            diagram = "null" if entry.diagram is None else encode_basestring_ascii(cycle_notation(entry.diagram, system.names))
            images = _array(list(map(int.__repr__, entry.images)), _CELL)
            return diagram, images, _array(list(map(pair, ids, entry.images)), _CELL), encode_basestring_ascii(entry.verdict)

        table = (("diagram", "images", "map", "verdict"), len(entries), lambda a, b: list(zip(*map(cells, entries[a:b]))))
        skeleton = {key: getattr(census, key) for key in ("probe_radius", "count", "diagram_count", "exotic_count", "search_nodes")}
        _emit_json({"radius": ball.radius, **skeleton}, entries=table)
    else:
        print(
            f"{census.count} identity-fixing classes at radius {ball.radius}, probe {census.probe_radius} "
            f"({census.diagram_count} diagram, {census.exotic_count} exotic)"
        )
        for entry in entries:
            tag = "exotic" if entry.diagram is None else cycle_notation(entry.diagram, system.names)
            moved = [f"{texts[v]}->{texts[entry.images[v]]}" for v in entry.support]
            print(f"  [{tag}] {' '.join(moved) if moved else 'identity'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    system = _load_system(args.file)
    max_vertices, max_nodes = _guard(args, "--max-vertices"), _guard(args, "--max-nodes")
    report = run_system_checks(system, args.radius, args.probe, max_vertices=max_vertices, max_nodes=max_nodes)
    if args.format == "json":
        checks, keys = report.checks, ("detail", "name", "status")  # a check's sorted keys

        def cells(a, b):
            return [[encode_basestring_ascii(getattr(c, key)) for c in checks[a:b]] for key in keys]

        skeleton = {key: getattr(report, key) for key in ("radius", "probe_radius", "flexible", "verdict")}
        _emit_json(skeleton, checks=(keys, len(checks), cells))
    else:
        for check in report.checks:
            print(f"[{check.status.upper():>13}] {check.name}: {check.detail}")
        print(f"verdict: {report.verdict}")
    if report.failures:
        return EXIT_VIOLATION
    if report.indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _parent(flag: str, **options) -> argparse.ArgumentParser:
    """A parent parser declaring one option, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The coxaut parser; parser.commands maps each command name to its subparser."""
    parser = argparse.ArgumentParser(
        prog="coxaut",
        description="Coxeter systems: word problem, Cayley-graph balls, and their automorphisms.",
        epilog="exit codes: 0 success, 1 invariant violation, 2 input error, "
        "3 indeterminate (a guard tripped), 4 internal error",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="diagram file (gens/pair format)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    radius = _parent("--radius", type=int, default=5)
    probe = _parent("--probe", type=int, default=None, help="dedupe radius; default radius - max finite order")
    states, vertices, nodes = (_parent(flag, type=int, default=None, help=text) for flag, (_, _, text) in GUARDS.items())

    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # filled by each add_parser below

    sub.add_parser("check-flexible", parents=[common], help="decide diagram flexibility")

    p = sub.add_parser("reduce", parents=[common, states], help="canonical form of a word")
    p.add_argument("word", help="whitespace-separated generator names; 'e' for the empty word")

    p = sub.add_parser("ball", parents=[common, radius, vertices], help="build a Cayley-graph ball")
    p.add_argument("--dot", metavar="PATH", help="also write a Graphviz rendering")

    p = sub.add_parser("cycles", parents=[common, radius, vertices], help="classify embedded cycles")
    p.add_argument("--max-length", type=int, default=None)

    p = sub.add_parser("exotic", parents=[common, radius, vertices], help="construct the exotic automorphism")
    p.add_argument("--n", type=int, default=None, help="family index; omit for the basic map")

    sub.add_parser("stabilizer", parents=[common, radius, probe, vertices, nodes], help="census of identity-fixing automorphisms")
    sub.add_parser("verify", parents=[common, radius, probe, vertices, nodes], help="run the invariant suite for a system")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by later ones in the process.

    The first call also freezes every object alive by then (gc.freeze): what
    importing coxaut and building the parser made lives as long as the
    process, and unfrozen, the process's first generation-1 collection walks
    all of it, about 1.5 ms, inside whichever command it lands in.
    """
    parser = build_parser()
    gc.freeze()
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    # a leading command name goes straight to that command's parser: parsed by
    # the top-level parser, the rest of argv would be parsed a second time by it
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # empty argv, -h, an unknown command, an option before the command
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:])
        args.command = argv[0]
    if getattr(args, "radius", 0) < 0:
        print("error: radius must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "n", None) is not None and args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "max_length", None) is not None and args.max_length < 0:
        print("error: --max-length must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    # looked up per call, not bound into the shared parser: a handler replaced
    # on this module is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitExceeded as exc:
        print(f"INDETERMINATE: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

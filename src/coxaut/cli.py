"""Command-line surface: parse, reduce, build, analyze, construct, verify.

Exit codes: 0 success, 1 invariant violation, 2 input error,
3 indeterminate (an enumeration guard tripped before an answer existed),
4 internal error (an unexpected exception; a bug, not a finding).
Guards can be set by flag or by the environment variables COXAUT_MAX_STATES,
COXAUT_MAX_VERTICES, and COXAUT_MAX_NODES; flags win.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .automorphisms import (
    identity_stabilizer_census,
    local_permutation_field,
    psi_n,
    psi_phi,
    verify_ball_automorphism,
)
from .ball import DEFAULT_MAX_VERTICES, build_ball
from .checks import default_probe_radius, run_system_checks
from .cycles import enumerate_embedded_cycles, is_alternating, is_essential
from .system import DEFAULT_MAX_NODES, CoxeterSystem, LimitExceeded, ParseError, is_flexible, parse_system
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
    other scalar (and str or int subclass) by its C encoder.  A flat list or a
    flat-row table (see _flat_texts) is spelled without a call per item.  A key
    that is not a str raises TypeError.
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
        parts = _flat_texts(obj, inner)
        if parts is None:
            parts = [("," + inner).join([_json_text(x, inner) for x in obj])]
        return "".join(["[", inner, *parts, newline, "]"])
    return json.dumps(obj)  # any other scalar, {} or []


_ENCODERS = {int: int.__repr__, str: encode_basestring_ascii}


def _encoder(kinds: set):
    """The encoder of values whose types are kinds: exact int or exact str only."""
    return _ENCODERS.get(next(iter(kinds))) if len(kinds) == 1 else None


def _flat_texts(items, newline: str) -> list[str] | None:
    """Pieces that spell a non-empty list's items at indent newline, joined by
    "," + newline, or None.

    Two shapes are spelled at C speed:
    - a flat list: every item an exact int, or every item an exact str;
    - a flat-row table: every item a dict with the same str keys, or every
      item a list or tuple of one length, and each column all exact int or
      all exact str.  Each column is encoded once, and the encoded columns
      are interleaved with the constant separators by slice assignment.
    Anything else (bool, None, float, a str or int subclass, a mixed column,
    an odd row, a nested value) gives None, and the caller recurses.
    """
    kinds = set(map(type, items))
    encode = _encoder(kinds)
    if encode is not None:
        return [("," + newline).join(map(encode, items))]
    first = items[0]
    if kinds == {dict} and all(type(key) is str for key in first):
        keys = sorted(first)
        try:
            columns = [list(map(itemgetter(key), items)) for key in keys]
        except KeyError:
            return None
        fields = [encode_basestring_ascii(key) + ": " for key in keys]
        opening, closing = "{", "}"
    elif kinds <= {list, tuple}:
        columns = list(zip(*items))
        fields = [""] * len(columns)
        opening, closing = "[", "]"
    else:
        return None
    encoders = [_encoder(set(map(type, column))) for column in columns]
    if not columns or None in encoders or len(set(map(len, items))) != 1:
        return None
    # row i is parts[i*step : (i+1)*step], each cell after its separator; the
    # first separator closes the previous row and opens this one
    inner, rows, step = newline + "  ", len(items), 2 * len(columns)
    parts = [""] * (rows * step)
    for j, (field, column, encode) in enumerate(zip(fields, columns, encoders)):
        separator = "," if j else newline + closing + "," + newline + opening
        parts[2 * j :: step] = [separator + inner + field] * rows
        parts[2 * j + 1 :: step] = map(encode, column)
    parts[0] = opening + inner + fields[0]
    return parts + [newline + closing]


def _emit_json(obj: dict) -> None:
    print(_json_text(obj))


def _load_system(path: str) -> CoxeterSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())


def _guard(flag_value: int | None, env_name: str, default: int) -> int:
    if flag_value is not None:
        value = flag_value
    else:
        env = os.environ.get(env_name)
        value = int(env) if env else default
    if value <= 0:
        raise ParseError(f"guard {env_name} must be positive, got {value}")
    return value


def _guards(args) -> tuple[int, int, int]:
    return (
        _guard(args.max_states, "COXAUT_MAX_STATES", DEFAULT_MAX_STATES),
        _guard(args.max_vertices, "COXAUT_MAX_VERTICES", DEFAULT_MAX_VERTICES),
        _guard(args.max_nodes, "COXAUT_MAX_NODES", DEFAULT_MAX_NODES),
    )


def cmd_check_flexible(args) -> int:
    system = _load_system(args.file)
    witness = is_flexible(system)
    if args.format == "json":
        _emit_json(
            {
                "system": system.to_json_dict(),
                "flexible": witness is not None,
                "pivot": system.name_of(witness.pivot) if witness else None,
                "phi": witness.phi.cycle_notation(system.names) if witness else None,
            }
        )
    elif witness is not None:
        print(f"FLEXIBLE pivot={system.name_of(witness.pivot)} phi={witness.phi.cycle_notation(system.names)}")
    else:
        print("NOT FLEXIBLE")
    return EXIT_OK


def cmd_reduce(args) -> int:
    system = _load_system(args.file)
    max_states, _, _ = _guards(args)
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
    _, max_vertices, _ = _guards(args)
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(ball.to_dot())
    if args.format == "json":
        _emit_json(ball.to_json_dict())
    else:
        print(f"radius: {ball.radius}")
        print(f"vertices: {ball.size}")
        print(f"edges: {(len(ball.adj) - ball.adj.count(-1)) // 2}")  # half the degree sum
        print(f"complete: {'yes' if ball.complete else 'no'}")
    return EXIT_OK


def cmd_cycles(args) -> int:
    system = _load_system(args.file)
    _, max_vertices, _ = _guards(args)
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    max_m = system.max_finite_order()
    max_length = args.max_length if args.max_length is not None else (2 * max_m if max_m else 6)
    rows = []
    for cycle in enumerate_embedded_cycles(ball, max_length, max_vertices):
        report = is_essential(ball, cycle)
        relator = None
        if is_alternating(cycle):
            a, b = sorted(cycle.labels[:2])
            relator = [system.name_of(a), system.name_of(b)]
        rows.append(
            {
                "vertices": list(cycle.vertices),
                "labels": [system.name_of(x) for x in cycle.labels],
                "essential": report.essential,
                "certified": report.certified,
                "relator": relator,
            }
        )
    if args.format == "json":
        _emit_json({"radius": args.radius, "max_length": max_length, "cycles": rows})
    else:
        print(f"{len(rows)} embedded cycles of length <= {max_length} at radius {args.radius}")
        for row in rows:
            flags = [
                "essential" if row["essential"] else "not-essential",
                "certified" if row["certified"] else "uncertified",
            ]
            if row["relator"]:
                flags.append(f"relator({','.join(row['relator'])})")
            print(f"  {'-'.join(map(str, row['vertices']))} [{' '.join(row['labels'])}] {' '.join(flags)}")
    return EXIT_OK


def cmd_exotic(args) -> int:
    system = _load_system(args.file)
    _, max_vertices, _ = _guards(args)
    witness = is_flexible(system)
    if witness is None:
        print("error: the diagram is not flexible; no exotic map exists", file=sys.stderr)
        return EXIT_INPUT
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    aut = psi_phi(ball, witness) if args.n is None else psi_n(ball, witness, args.n)
    report = verify_ball_automorphism(ball, aut)
    field = local_permutation_field(ball, aut)
    texts = ball.texts
    payload = {
        "pivot": system.name_of(witness.pivot),
        "phi": witness.phi.cycle_notation(system.names),
        "n": args.n,
        "verified": report.ok,
        "violations": list(report.violations),
        "map": [[texts[v], texts[image]] for v, image in enumerate(aut.vmap) if image is not None],
        "field": {
            "stars": len(field.perms),
            "constant": field.is_constant,
            "distinct_permutations": len(set(field.perms)),
        },
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        name = "psi" if args.n is None else f"psi_{args.n}"
        print(f"{name} pivot={payload['pivot']} phi={payload['phi']}")
        print(f"verified: {'yes' if report.ok else 'no'}")
        print(f"field: {'constant' if field.is_constant else 'non-constant'} over {len(field.perms)} stars")
        for pair in payload["map"]:
            print(f"  {pair[0]} -> {pair[1]}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_stabilizer(args) -> int:
    system = _load_system(args.file)
    _, max_vertices, max_nodes = _guards(args)
    probe = args.probe if args.probe is not None else default_probe_radius(system, args.radius)
    ball = build_ball(system, args.radius, max_vertices=max_vertices)
    census = identity_stabilizer_census(ball, probe, max_nodes=max_nodes)
    texts = ball.texts
    entries = [
        {
            "images": list(entry.images),
            "map": [[texts[v], texts[image]] for v, image in enumerate(entry.images)],
            "verdict": entry.verdict,
            "diagram": entry.diagram.cycle_notation(system.names) if entry.diagram else None,
        }
        for entry in census.entries
    ]
    if args.format == "json":
        _emit_json(
            {
                "radius": ball.radius,
                "probe_radius": census.probe_radius,
                "count": census.count,
                "diagram_count": census.diagram_count,
                "exotic_count": census.exotic_count,
                "search_nodes": census.search_nodes,
                "entries": entries,
            }
        )
    else:
        print(
            f"{census.count} identity-fixing classes at radius {ball.radius}, probe {census.probe_radius} "
            f"({census.diagram_count} diagram, {census.exotic_count} exotic)"
        )
        for entry in entries:
            tag = entry["diagram"] if entry["diagram"] else "exotic"
            moved = [f"{a}->{b}" for a, b in entry["map"] if a != b]
            print(f"  [{tag}] {' '.join(moved) if moved else 'identity'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    system = _load_system(args.file)
    _, max_vertices, max_nodes = _guards(args)
    report = run_system_checks(
        system,
        radius=args.radius,
        probe_radius=args.probe,
        max_vertices=max_vertices,
        max_nodes=max_nodes,
    )
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        for check in report.checks:
            print(f"[{check.status.upper():>13}] {check.name}: {check.detail}")
        print(f"verdict: {report.verdict}")
    if report.failures:
        return EXIT_VIOLATION
    if report.indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxaut",
        description="Coxeter systems: word problem, Cayley-graph balls, and their automorphisms.",
        epilog="exit codes: 0 success, 1 invariant violation, 2 input error, "
        "3 indeterminate (a guard tripped), 4 internal error",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="diagram file (gens/pair format)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-states", type=int, default=None, help="reduce guard (m-operation closures, m-class counts)")
    common.add_argument("--max-vertices", type=int, default=None, help="ball size guard")
    common.add_argument("--max-nodes", type=int, default=None, help="stabilizer search guard")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-flexible", parents=[common], help="decide diagram flexibility")

    p = sub.add_parser("reduce", parents=[common], help="canonical form of a word")
    p.add_argument("word", help="whitespace-separated generator names; 'e' for the empty word")

    p = sub.add_parser("ball", parents=[common], help="build a Cayley-graph ball")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--dot", metavar="PATH", help="also write a Graphviz rendering")

    p = sub.add_parser("cycles", parents=[common], help="classify embedded cycles")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--max-length", type=int, default=None)

    p = sub.add_parser("exotic", parents=[common], help="construct the exotic automorphism")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--n", type=int, default=None, help="family index; omit for the basic map")

    p = sub.add_parser("stabilizer", parents=[common], help="census of identity-fixing automorphisms")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--probe", type=int, default=None, help="dedupe radius; default radius - max finite order")

    p = sub.add_parser("verify", parents=[common], help="run the invariant suite for a system")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--probe", type=int, default=None)

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
    args = _parser().parse_args(argv)
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

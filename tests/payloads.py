"""The payloads of ball, cycles, exotic, stabilizer and verify --format json
as plain dicts and lists, one Python object per row: the reference that the
streamed JSON writer of coxaut.cli is compared with, through
json.dumps(payload, indent=2, sort_keys=True).

Vertex words are spelled by format_word from the ball's parent walk and the
edges are read from adj one entry at a time, so neither depends on the
ball's texts or edges tables.  run_json runs a command in-process on a
system given as an object, so generator names need not survive a diagram file.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from coxaut import cli
from coxaut.ball import CayleyBall
from coxaut.cycles import enumerate_embedded_cycles, is_alternating, is_essential
from coxaut.system import CoxeterSystem, cycle_notation
from coxaut.words import format_word

import map_checks
from test_golden import GUARD_VARS


def words(ball: CayleyBall) -> list[str]:
    return [format_word(ball.system, ball.word(v)) for v in range(ball.size)]


def ball_payload(ball: CayleyBall) -> dict:
    names, rank = ball.system.names, ball.rank
    edges = sorted((u, v, s) for u in range(ball.size) for s in range(rank) if (v := ball.adj[u * rank + s]) > u)
    return {
        "radius": ball.radius,
        "vertices": [{"id": i, "word": text} for i, text in enumerate(words(ball))],
        "edges": [[u, v, names[s]] for u, v, s in edges],
    }


def cycles_payload(ball: CayleyBall, radius: int, max_length: int, max_vertices: int) -> dict:
    system = ball.system
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
    return {"radius": radius, "max_length": max_length, "cycles": rows}


def exotic_payload(ball: CayleyBall, witness, aut, n: int | None) -> dict:
    """verified and violations from map_checks' scan of every edge; the field is
    the one aut was walked from, read at map_checks' star interior."""
    system = ball.system
    report = map_checks.verify_ball_automorphism(ball, aut)
    stars = map_checks.star_interior(ball, aut.interior_radius)
    perms = set(map(aut.field, stars))
    texts = words(ball)
    return {
        "pivot": system.name_of(witness.pivot),
        "phi": cycle_notation(witness.phi, system.names),
        "n": n,
        "verified": report.ok,
        "violations": list(report.violations),
        "map": [[texts[v], texts[image]] for v, image in enumerate(aut.vmap) if image is not None],
        "field": {"stars": len(stars), "constant": len(perms) <= 1, "distinct_permutations": len(perms)},
    }


def stabilizer_payload(ball: CayleyBall, census) -> dict:
    texts = words(ball)
    entries = [
        {
            "images": list(entry.images),
            "map": [[texts[v], texts[image]] for v, image in enumerate(entry.images)],
            "verdict": entry.verdict,
            "diagram": None if entry.diagram is None else cycle_notation(entry.diagram, ball.system.names),
        }
        for entry in census.entries
    ]
    return {
        "radius": ball.radius,
        "probe_radius": census.probe_radius,
        "count": census.count,
        "diagram_count": census.diagram_count,
        "exotic_count": census.exotic_count,
        "search_nodes": census.search_nodes,
        "entries": entries,
    }


def report_payload(report) -> dict:
    """A run_system_checks report as verify --format json prints it."""
    checks = [{"name": c.name, "status": c.status, "detail": c.detail} for c in report.checks]
    keys = ("radius", "probe_radius", "flexible", "verdict")
    return {**{key: getattr(report, key) for key in keys}, "checks": checks}


def run_json(system: CoxeterSystem, argv: list[str], block: int = cli._BLOCK) -> tuple[int, str]:
    """(exit code, stdout) of argv with --format json, the file read as system."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for name in GUARD_VARS:
            mp.delenv(name, raising=False)
        mp.setattr(cli, "_load_system", lambda path: system)
        mp.setattr(cli, "_BLOCK", block)
        code = cli.main([argv[0], "diagram.cox", *argv[1:], "--format", "json"])
    return code, out.getvalue()

"""Acceptance gate: the headline guarantees, one test each, oracle-checked.

Every expected value here is computed by an independent model (permutation
groups, exhaustive scans, hand counts on small graphs), never by trusting
the code under test.  Run with -v for the one-line-per-criterion report.
"""

import itertools
import math
import time

import pytest

from coxaut.automorphisms import (
    coupling_violations,
    decompose,
    diagram_aut,
    identity_stabilizer_census,
    left_mult,
    local_permutation_field,
    local_permutations,
    psi_n,
    psi_phi,
    verify_ball_automorphism,
)
from coxaut.ball import build_ball
from coxaut.cycles import is_essential, verify_essential_characterization
from coxaut.system import enumerate_diagram_automorphisms, is_flexible
from coxaut.words import m_class, multiply, parse_word, reduce_word

import map_checks
from conftest import ball_words, make_system, vertex_of
from psi_words import psi_phi_word


# -- permutation-group oracle -------------------------------------------------

def perm_mult(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def perm_of_word(gens, word, degree):
    result = tuple(range(degree))
    for letter in word:
        result = perm_mult(result, gens[letter])
    return result


# adjacent transpositions: the symmetric-group model of the chain diagrams
S3_GENS = [(1, 0, 2), (0, 2, 1)]
S4_GENS = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]


def test_criterion_01_word_engine_matches_permutation_oracle(a2, a3):
    start = time.monotonic()
    for system, gens, degree, diameter, order in [
        (a2, S3_GENS, 3, 3, 6),
        (a3, S4_GENS, 4, 6, 24),
    ]:
        by_canonical = {}
        for length in range(diameter + 1):
            for word in itertools.product(range(system.rank), repeat=length):
                canonical = reduce_word(system, word)
                perm = perm_of_word(gens, word, degree)
                by_canonical.setdefault(canonical, set()).add(perm)
        # well-defined: every canonical form names exactly one permutation
        assert all(len(perms) == 1 for perms in by_canonical.values())
        # bijective: distinct canonical forms name distinct permutations
        assert len({next(iter(p)) for p in by_canonical.values()}) == len(by_canonical)
        assert len(by_canonical) == order
        # the full multiplication table agrees through the correspondence
        canon_of_perm = {next(iter(perms)): c for c, perms in by_canonical.items()}
        for (px, x), (py, y) in itertools.product(canon_of_perm.items(), repeat=2):
            assert multiply(system, x, y) == canon_of_perm[perm_mult(px, py)]
    assert time.monotonic() - start < 10.0


def test_criterion_02_balls_are_bipartite_by_word_length(a2, a3, cube, atilde2, branched):
    for system in (a2, a3, cube, atilde2, branched):
        ball = build_ball(system, 6)
        assert ball.edges
        for u, v, _ in ball.edges:
            assert abs(ball.length[u] - ball.length[v]) == 1


def test_criterion_03_essential_cycles_are_exactly_relator_cycles(a2, a3, cube, atilde2, branched):
    # radius at least 2 + max finite order for each system, and in every case
    # large enough that at least one cycle is actually certified
    for system, radius in [(a2, 5), (a3, 6), (atilde2, 6), (cube, 4), (branched, 4)]:
        start = time.monotonic()
        ball = build_ball(system, radius)
        report = verify_essential_characterization(ball)
        assert report.ok, (report.essential_not_relator, report.relator_not_essential)
        assert report.certified_essential > 0
        assert time.monotonic() - start < 60.0

    # the commuting-cube hexagon through three distinct labels is a certified
    # non-essential cycle: its opposite corners are joined by six geodesics
    ball = build_ball(cube, 4)
    word_ids = [vertex_of(ball, parse_word(cube, text)) for text in ["e", "a", "a b", "a b c", "b c", "c"]]
    from coxaut.cycles import enumerate_embedded_cycles

    cycle = next(c for c in enumerate_embedded_cycles(ball, 6) if set(c.vertices) == set(word_ids))
    report = is_essential(ball, cycle)
    assert report.certified and not report.essential
    _, _, dist, paths = report.failure
    assert dist == 3 and paths == 6


def oracle_flexible(rank, orders):
    """Exhaustive definition-chasing scan, independent of the library's search."""

    def m(i, j):
        return orders.get((min(i, j), max(i, j)), math.inf)

    for s in range(rank):
        must_fix = [s] + [t for t in range(rank) if t != s and m(s, t) != math.inf]
        for perm in itertools.permutations(range(rank)):
            if perm == tuple(range(rank)) or any(perm[x] != x for x in must_fix):
                continue
            if all(
                m(i, j) == m(perm[i], perm[j])
                for i in range(rank)
                for j in range(i + 1, rank)
            ):
                return True
    return False


def test_criterion_04_flexibility_decisions(a3, atilde2, b2, branched):
    witness = is_flexible(branched)
    assert witness is not None
    assert branched.name_of(witness.pivot) == "s"
    assert witness.phi == (0, 2, 1)  # the (t u) swap
    for rigid in (a3, atilde2, b2):
        assert is_flexible(rigid) is None

    # exhaustive agreement with the oracle over small systems; labels 2, 3, 4
    # exercise equal-versus-distinct finite orders, inf the missing edges
    names = ["s", "t", "u", "v"]
    menu = {1: [2], 2: [2, 3, 4, None], 3: [2, 3, 4, None], 4: [2, 3, None]}
    for rank in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(rank), 2))
        for labels in itertools.product(menu[rank], repeat=len(pairs)):
            chosen = [(i, j, m) for (i, j), m in zip(pairs, labels) if m is not None]
            system = make_system(" ".join(names[:rank]), *chosen)
            orders = {(i, j): m for i, j, m in chosen}
            assert (is_flexible(system) is not None) == oracle_flexible(rank, orders), chosen


def test_criterion_05_exotic_map_on_flexible_example(branched):
    witness = is_flexible(branched)
    ball = build_ball(branched, 6)
    aut = psi_phi(ball, witness)

    report = verify_ball_automorphism(ball, aut)
    assert report.ok and None not in aut.vmap  # total + injective on a finite set: bijective
    assert aut.vmap[0] == 0
    for v in range(ball.size):
        assert ball.length[aut.vmap[v]] == ball.length[v]

    # image independent of the chosen reduced word, across the full m-class
    for v in range(ball.size):
        images = {
            reduce_word(branched, psi_phi_word(branched, witness, w))
            for w in m_class(branched, ball.word(v))
        }
        assert len(images) == 1

    field = local_permutation_field(ball, aut)
    assert len(set(field.values())) > 1
    t, u = parse_word(branched, "t")[0], parse_word(branched, "u")[0]
    pivot_vertex = vertex_of(ball, (witness.pivot,))
    at = local_permutations(ball, aut.vmap, (0, pivot_vertex))
    assert at[0][t] == u
    assert at[pivot_vertex][t] == t

    assert decompose(ball, aut) is None


def test_criterion_06_exotic_family_witnesses_nondiscreteness(branched):
    witness = is_flexible(branched)
    ball = build_ball(branched, 12)
    for n in range(1, 6):
        aut = psi_n(ball, witness, n)
        report = verify_ball_automorphism(ball, aut)
        assert report.ok and None not in aut.vmap
        assert aut.vmap[0] == 0
    family = map_checks.psi_family_distinctness(ball, witness, 5)
    assert family.ok, family.detail

    census = identity_stabilizer_census(build_ball(branched, 5), 4)
    assert census.count >= 3
    assert census.count > len(enumerate_diagram_automorphisms(branched))
    assert census.exotic_count > 0


def test_criterion_07_rigid_census_collapses_to_diagram_automorphisms(a3, b2):
    start = time.monotonic()
    for system in (a3, b2):
        ball = build_ball(system, 4)
        census = identity_stabilizer_census(ball, 2)
        assert census.count == 2 == len(enumerate_diagram_automorphisms(system))
        assert census.exotic_count == 0
        restrictions = {
            tuple(diagram_aut(ball, d).vmap[: census.probe_count])
            for d in enumerate_diagram_automorphisms(system)
        }
        assert {entry.images for entry in census.entries} == restrictions
    assert time.monotonic() - start < 120.0


def test_criterion_08_semidirect_law(a3):
    from coxaut.automorphisms import FactoredAutomorphism

    ball = build_ball(a3, 6)
    assert ball.complete
    diagrams = enumerate_diagram_automorphisms(a3)
    table = [(w, d) for w in ball_words(ball) for d in diagrams]
    assert len(table) == 48

    # the composition law reproduces composition of the induced ball maps
    short = [f for f in table if len(f[0]) <= 3]
    assert len(short) == 30
    for f, g in itertools.product(short, repeat=2):
        composed = FactoredAutomorphism(*map_checks.compose(a3, f, g)).to_ball(ball)
        pointwise = map_checks.compose_ball(ball, FactoredAutomorphism(*f).to_ball(ball), FactoredAutomorphism(*g).to_ball(ball))
        assert composed.vmap == pointwise.vmap

    # group axioms on the full table
    index = {f: i for i, f in enumerate(table)}
    compose_ids = [
        [index[map_checks.compose(a3, f, g)] for g in table]
        for f in table
    ]
    identity = index[((), tuple(range(3)))]
    for i, f in enumerate(table):
        assert compose_ids[i][identity] == i
        assert compose_ids[identity][i] == i
        j = index[map_checks.inverse(a3, f)]
        assert compose_ids[i][j] == identity
        assert compose_ids[j][i] == identity
    for i, j, k in itertools.product(range(48), repeat=3):
        assert compose_ids[compose_ids[i][j]][k] == compose_ids[i][compose_ids[j][k]]


def test_criterion_09_rewriting_commutes_with_phi(branched):
    from coxaut.checks import commutation_violations

    four_gen = make_system("s t u v", (0, 3, 3))
    for system in (branched, four_gen):
        witness = is_flexible(system)
        assert witness is not None
        assert commutation_violations(system, witness.phi) == []


def test_criterion_10_local_permutation_laws(a3, branched):
    for system, radius in [(a3, 4), (branched, 4)]:
        ball = build_ball(system, radius)
        for w in [w for w in ball_words(ball) if len(w) <= 2]:
            field = local_permutation_field(ball, left_mult(ball, w))
            assert set(field.values()) == {tuple(system.generators())}
        for d in enumerate_diagram_automorphisms(system):
            field = local_permutation_field(ball, diagram_aut(ball, d))
            assert set(field.values()) == {d}

    # the adjacent-star coupling law holds for every verified census entry
    for system, radius, probe in [(a3, 4, 2), (branched, 5, 4)]:
        ball = build_ball(system, radius)
        census = identity_stabilizer_census(ball, probe)
        for entry in census.entries:
            aut = map_checks.entry_map(ball, entry, probe)
            assert map_checks.verify_ball_automorphism(ball, aut).ok  # walked from no field
            assert coupling_violations(ball, local_permutation_field(ball, aut)) == []

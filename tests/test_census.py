"""The stabilizer census group against a full enumeration.

The reference lists every identity-fixing automorphism of the whole ball
by plain recursion, then keeps one entry per restriction to the probe
sub-ball.  The census under test holds a permutation group on the probe
ids; the entries it lists from its transversals must be the reference's
(images, verdict, diagram, support, order), its order and diagram count
must match, and its search must visit no more nodes.
"""

import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxaut.automorphisms import (
    BallAutomorphism,
    StabilizerEntry,
    coupling_violations,
    diagram_aut,
    identity_stabilizer_census,
    local_permutation_field,
    psi_phi,
    support_field,
)
from coxaut.ball import build_ball
import coxaut.checks
from coxaut.checks import default_probe_radius, run_system_checks
from coxaut.cycles import is_essential
from coxaut.system import enumerate_diagram_automorphisms, is_flexible, is_label_preserving, parse_system
from coxaut.words import LimitExceeded

import map_checks
import relator_traces
from conftest import DIAGRAMS, RANK3, ball_words, crystallographic_systems, label, make_system, star

FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))


def reference_automorphisms(ball, max_nodes):
    """Every identity-fixing automorphism of the ball as a full image tuple,
    plus the number of search nodes it took; recursion depth is the ball size."""
    size = ball.size
    assert size < sys.getrecursionlimit() // 2
    wl = ball.length
    degree = [len(star(ball, v)) for v in range(size)]
    neighbor_ids = [set(star(ball, v).values()) for v in range(size)]
    assigned_neighbors = [[u for u in sorted(neighbor_ids[v]) if u < v] for v in range(size)]
    assignment = [-1] * size
    assignment[0] = 0
    used = [False] * size
    used[0] = True
    found = []
    nodes = 0

    def extend(v):
        nonlocal nodes
        if v == size:
            found.append(tuple(assignment))
            return
        anchors = assigned_neighbors[v]
        for c in sorted(neighbor_ids[assignment[anchors[0]]]):
            if used[c] or wl[c] != wl[v] or degree[c] != degree[v]:
                continue
            if any(assignment[u] not in neighbor_ids[c] for u in anchors):
                continue
            nodes += 1
            if nodes > max_nodes:
                raise LimitExceeded(f"reference search exceeded {max_nodes} nodes")
            assignment[v] = c
            used[c] = True
            extend(v + 1)
            assignment[v] = -1
            used[c] = False

    extend(1)
    return found, nodes


def reference_entries(ball, probe_radius, automorphisms):
    probe_count = sum(1 for w in ball_words(ball) if len(w) <= probe_radius)
    diagram_restrictions = {}
    for d in enumerate_diagram_automorphisms(ball.system):
        diagram_restrictions.setdefault(tuple(diagram_aut(ball, d).vmap[:probe_count]), d)
    entries = []
    for images in sorted({a[:probe_count] for a in automorphisms}):
        d = diagram_restrictions.get(images)
        entries.append(
            StabilizerEntry(
                images=images,
                verdict="diagram" if d is not None else "exotic",
                diagram=d,
                support=tuple(v for v in range(probe_count) if images[v] != v),
            )
        )
    return tuple(entries)


def assert_matches_reference(ball, max_nodes=10**6):
    automorphisms, reference_nodes = reference_automorphisms(ball, max_nodes)
    for probe in range(ball.radius + 1):
        census = identity_stabilizer_census(ball, probe)
        assert census.entries == reference_entries(ball, probe, automorphisms), probe
        for entry in census.entries + census.generators:  # a generator's support is sought from its base point
            n = len(entry.images)
            assert entry.support == tuple(v for v in range(n) if entry.images[v] != v)
        assert census.search_nodes <= reference_nodes
        assert census.count == len(census.entries)
        assert census.diagram_count == sum(e.verdict == "diagram" for e in reference_entries(ball, probe, automorphisms))


@pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
def test_shipped_diagrams_match_reference(path):
    system = parse_system(path.read_text())
    for radius in range(6):
        assert_matches_reference(build_ball(system, radius))


@given(crystallographic_systems(max_rank=3), st.integers(0, 4))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_diagrams_match_reference(system, radius):
    ball = build_ball(system, radius)
    try:
        assert_matches_reference(ball, max_nodes=20_000)
    except LimitExceeded as exc:
        # only the full enumeration may give up; the census must not
        assert "reference" in str(exc)
        assume(False)


@pytest.mark.parametrize("radius, count", [(4, 4), (5, 16), (6, 128), (7, 4_096), (8, 1_048_576)])
def test_flexible_class_counts(radius, count):
    system = parse_system((DIAGRAMS[0].parent / "flexible.cox").read_text())
    census = identity_stabilizer_census(build_ball(system, radius), default_probe_radius(system, radius))
    assert census.count == count
    assert census.diagram_count == 2
    assert census.exotic_count == count - 2


def test_free10_census_is_the_diagram_group():
    # at probe radius 1 the census sees only the identity's star, whose 10!
    # permutations are all diagram automorphisms of the free diagram
    system = parse_system((DIAGRAMS[0].parent / "frontier" / "free10.cox").read_text())
    census = identity_stabilizer_census(build_ball(system, 2), default_probe_radius(system, 2))
    assert census.count == census.diagram_count == 3_628_800
    assert census.exotic_count == 0


def test_guard_counts_nodes_across_both_phases(branched):
    ball = build_ball(branched, 4)
    assert identity_stabilizer_census(ball, 2).search_nodes == 95
    assert identity_stabilizer_census(ball, 2, max_nodes=95).count == 4
    with pytest.raises(LimitExceeded):
        identity_stabilizer_census(ball, 2, max_nodes=94)


def coupling_holds(ball, automorphisms):
    """No coupling violation, and local permutations that keep pair orders."""
    for aut in automorphisms:
        field = local_permutation_field(ball, aut)
        if coupling_violations(ball, field):
            return False
        if not all(is_label_preserving(ball.system, perm) for perm in field.values()):
            return False
    return True


DIFFERENTIAL_CASES = [pytest.param(parse_system(p.read_text()), id=p.stem) for p in DIAGRAMS] + [
    pytest.param(system, id=f"rank3-{i}") for i, system in enumerate(RANK3)
]


@pytest.mark.parametrize("system", DIFFERENTIAL_CASES)
def test_coupling_on_generators_equals_coupling_on_every_entry(system):
    # verify's census-coupling reads the strong generators only.  At the
    # default probe radius coupling holds throughout; at probe radius = radius
    # boundary artifacts break it, so both outcomes are compared
    for radius in range(7):
        ball = build_ball(system, radius)
        # 500 000 nodes: above every default-probe census that decides here
        for probe, max_nodes in ((default_probe_radius(system, radius), 500_000), (radius, 5_000)):
            try:
                census = identity_stabilizer_census(ball, probe, max_nodes=max_nodes)
                entries = census.entries
            except LimitExceeded:  # too many to list, such as the tree of (inf, inf, inf)
                continue
            generators = [map_checks.entry_map(ball, g, probe) for g in census.generators]
            every = [map_checks.entry_map(ball, e, probe) for e in entries]
            assert coupling_holds(ball, generators) == coupling_holds(ball, every), (radius, probe)
            assert set(census.generators) <= set(entries)


def diagram_restriction_rule(ball, census):
    """census-diagram-consistency's rule before it read exotic_count: every
    strong generator restricts one of the listed diagram automorphisms and
    has a constant field."""
    n = census.probe_count
    restrictions = {diagram_aut(ball, d).vmap[:n] for d in enumerate_diagram_automorphisms(ball.system)}
    for g in census.generators:
        field = local_permutation_field(ball, map_checks.entry_map(ball, g, census.probe_radius))
        if g.images not in restrictions or len(set(field.values())) > 1:
            return False
    return True


@pytest.mark.parametrize("system", DIFFERENTIAL_CASES)
def test_generator_rule_holds_exactly_without_exotic_entries(system):
    # verify's census-diagram-consistency reads exotic_count only.  Boundary
    # artifacts at probe radius = radius give exotic entries on rigid diagrams
    # too, so both outcomes are compared
    for probe_of in (default_probe_radius, lambda _, radius: radius):
        for radius in range(7):
            ball = build_ball(system, radius)
            try:
                # every census with an exotic entry here decides within 200 000
                # nodes but one, tested below
                census = identity_stabilizer_census(ball, probe_of(system, radius), max_nodes=200_000)
            except LimitExceeded:
                break  # a larger ball takes more nodes still
            assert diagram_restriction_rule(ball, census) == (census.exotic_count == 0), (radius, census.probe_radius)


def test_generator_rule_on_the_largest_census_with_exotic_entries():
    # the (4, 4, 5) triangle group at r=5, probe 5: 950 754 nodes, inside verify's default guard
    system = RANK3[37]
    assert [m for _, _, m in system.finite_pairs()] == [4, 4, 5]
    ball = build_ball(system, 5)
    census = identity_stabilizer_census(ball, 5)
    assert census.exotic_count
    assert not diagram_restriction_rule(ball, census)


ESSENTIAL_IMAGE_CASES = [pytest.param(parse_system(p.read_text()), 6, id=p.stem) for p in DIAGRAMS] + [
    pytest.param(system, 5, id=f"rank3-{i}") for i, system in enumerate(RANK3)
]


@pytest.mark.parametrize("system, radius", ESSENTIAL_IMAGE_CASES)
def test_census_entries_and_psi_map_essential_cycles_onto_essential_cycles(system, radius):
    # verify re-checks none of this per entry: each entry restricts a ball
    # automorphism that keeps word length, and psi is one once psi-verified passes
    ball = build_ball(system, radius)
    essential = relator_traces.verify_essential_characterization(ball).essential
    if not essential:
        return
    probe = default_probe_radius(system, radius)
    maps = [map_checks.entry_map(ball, e, probe) for e in identity_stabilizer_census(ball, probe).entries]
    witness = is_flexible(system)
    if witness is not None:
        maps.append(psi_phi(ball, witness))
    for aut in maps:
        assert map_checks.verify_ball_automorphism(ball, aut).ok  # an entry map is walked from no field
        for cycle in essential:
            image = relator_traces.map_cycle(ball, aut.vmap, cycle)
            if image is None:  # the cycle leaves the entry's probe sub-ball
                continue
            essentiality = is_essential(ball, image)
            assert essentiality.certified and essentiality.essential, (cycle.vertices, image.vertices)


SUPPORT_CASES = [pytest.param(parse_system(p.read_text()), id=p.stem) for p in DIAGRAMS + FRONTIER] + [
    pytest.param(system, id=f"rank3-{i}") for i, system in enumerate(RANK3)
]


def swapped(entry, a, b):
    """entry with the images of probe ids a and b exchanged, its support recomputed."""
    images = list(entry.images)
    images[a], images[b] = images[b], images[a]
    support = tuple(v for v, x in enumerate(images) if v != x)
    return StabilizerEntry(tuple(images), "exotic", None, support)


def coupling_readings(ball, entry, probe):
    """The coupling list and the first vertex, with its local permutation, that
    breaks pair orders in vertex order, read near the support and over the
    whole star; a ValueError stands for both."""
    aut = map_checks.entry_map(ball, entry, probe)
    readings = []
    for read in (lambda: support_field(ball, entry, probe), lambda: map_checks.local_permutation_field(ball, aut)):
        try:
            field = read()
        except ValueError:
            readings.append("ValueError")
            continue
        breaking = [(v, p) for v, p in field.items() if not is_label_preserving(ball.system, p)]
        readings.append((coupling_violations(ball, field), breaking[:1]))
    oracle = map_checks.coupling_violations(ball, aut) if readings[1] != "ValueError" else "ValueError"
    assert readings[1] == "ValueError" or readings[1][0] == oracle
    return readings


@pytest.mark.parametrize("system", SUPPORT_CASES)
def test_support_coupling_equals_whole_star_coupling(system):
    # census-coupling reads each generator within distance 2 of its support; the
    # whole star interior is the oracle, on the generators and on copies with
    # two probe images swapped, at every probe radius up to the ball's
    for radius in range(1, 7):
        try:
            ball = build_ball(system, radius, max_vertices=1_500)
        except LimitExceeded:
            break
        for probe in range(1, radius + 1):
            try:
                generators = identity_stabilizer_census(ball, probe, max_nodes=20_000).generators
            except LimitExceeded:
                continue
            n = len(ball.interior(probe))
            for g in generators:
                for entry in (g, swapped(g, n - 2, n - 1), swapped(g, g.support[0], (g.support[0] + 1) % n)):
                    near, whole = coupling_readings(ball, entry, probe)
                    assert near == whole, (radius, probe, entry.images)


def tree_walk_verdict(ball, images):
    """The entry's verdict by comparing it with diagram_aut(d) along the probe
    ids' BFS tree, d its label permutation at e."""
    rank, n = ball.rank, len(images)
    perm = tuple(label(ball, images[0], images[ball.adj[s]]) for s in range(rank)) if n > 1 else tuple(range(rank))
    if not is_label_preserving(ball.system, perm):
        return "exotic"
    for v in range(1, n):
        s = ball.last[v]
        p = ball.adj[v * rank + s]
        if images[v] != ball.adj[images[p] * rank + perm[s]]:
            return "exotic"
    return "diagram"


@pytest.mark.parametrize("system", SUPPORT_CASES)
def test_support_classification_matches_tree_walk(system):
    # an entry with the identity as its label permutation at e is exotic exactly
    # when it moves something; every other entry is still walked
    for radius in range(7):
        try:
            ball = build_ball(system, radius, max_vertices=1_500)
        except LimitExceeded:
            break
        for probe in range(radius + 1):
            try:
                census = identity_stabilizer_census(ball, probe, max_nodes=20_000)
                entries = census.generators + (census.entries if census.count <= 2_000 else ())
            except LimitExceeded:
                continue
            for entry in entries:
                assert entry.verdict == tree_walk_verdict(ball, entry.images), (radius, probe, entry.images)


def test_diagram_generators_are_read_when_diagram_fields_fail(monkeypatch):
    # a diagram generator's field is constant only once diagram-aut-field passes
    mixed = make_system("a b c", (0, 1, 3), (0, 2, 3))  # at probe radius 3: 1 diagram, 2 exotic generators
    a3 = parse_system((DIAGRAMS[0].parent / "a3.cox").read_text())  # census order = diagram count
    read = []

    def spy(ball, entry, probe_radius):
        read.append(entry.verdict)
        return support_field(ball, entry, probe_radius)

    def census_coupling_reads(system, radius, probe_radius=None):
        read.clear()
        checks = {c.name: c for c in run_system_checks(system, radius, probe_radius).checks}
        return checks["diagram-aut-field"].status, checks["census-coupling"].status, list(read)

    monkeypatch.setattr(coxaut.checks, "support_field", spy)
    assert census_coupling_reads(mixed, 3, 3) == ("pass", "fail", ["exotic"])
    assert census_coupling_reads(a3, 4) == ("pass", "pass", [])
    # diagram_aut built as the identity map, still with d's field: it breaks that field
    identity = tuple(mixed.generators())

    def unmoved(ball, d):
        return BallAutomorphism(coxaut.checks.walked_map(ball, 0, lambda x: identity).vmap, ball.radius, lambda x: d)

    monkeypatch.setattr(coxaut.checks, "diagram_aut", unmoved)
    assert census_coupling_reads(mixed, 3, 3) == ("fail", "fail", ["diagram", "exotic"])
    assert census_coupling_reads(a3, 4) == ("fail", "pass", ["diagram"])

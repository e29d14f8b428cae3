import random
from itertools import permutations

import pytest
from hypothesis import given, settings

import coxaut.automorphisms
import coxaut.checks
from coxaut.automorphisms import (
    diagram_aut,
    psi_n,
    psi_phi,
    verify_ball_automorphism,
    walked_map,
)
from coxaut.ball import CayleyBall, build_ball
from coxaut.checks import (
    commutation_violations,
    default_probe_radius,
    run_system_checks,
)
from coxaut.cycles import EmbeddedCycle, verify_essential_characterization
from coxaut.system import diagram_group, is_flexible, is_label_preserving, parse_system
from coxaut.words import parse_word

import map_checks
import relator_traces
from conftest import DIAGRAMS, RANK3, crystallographic_systems, make_system, vertex_of
from payloads import report_payload

FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))


class TestCommutation:
    def test_valid_map_has_no_violations(self, branched):
        phi = is_flexible(branched).phi
        assert commutation_violations(branched, phi) == []

    def test_a3_reversal_has_no_violations(self, a3):
        assert commutation_violations(a3, (2, 1, 0)) == []

    def test_label_breaking_map_is_caught(self, a3):
        # swapping a and b sends the order-2 pair (a, c) to the order-3 (b, c)
        bad = (1, 0, 2)
        assert commutation_violations(a3, bad)

    @staticmethod
    def assert_exact_for_every_permutation(system):
        for images in permutations(system.generators()):
            violations = commutation_violations(system, images)
            assert (violations == []) == is_label_preserving(system, images), images

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_diagrams_every_permutation(self, path):
        self.assert_exact_for_every_permutation(parse_system(path.read_text()))

    @given(crystallographic_systems())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_diagrams_every_permutation(self, system):
        self.assert_exact_for_every_permutation(system)

    def test_order_mismatch_both_ways(self):
        # swapping (a, b) of order 3 with (c, d) of order 2: the order-2 move
        # fits inside the image of a b a but is a different move, and the
        # image of c d is too short for an order-3 move
        system = make_system("a b c d", (0, 1, 3), (2, 3, 2))
        assert commutation_violations(system, (2, 3, 0, 1)) == [
            "m-operation on pair (0,1): image move differs",
            "m-operation on pair (1,0): image move differs",
            "m-operation on pair (2,3): no image move",
            "m-operation on pair (3,2): no image move",
        ]


class TestProbeDefault:
    def test_subtracts_largest_order(self, a2, b2):
        assert default_probe_radius(a2, 5) == 2
        assert default_probe_radius(b2, 5) == 1

    def test_edgeless_diagram(self, free2):
        assert default_probe_radius(free2, 5) == 4

    def test_floors_at_zero(self, a2):
        assert default_probe_radius(a2, 2) == 0


class TestRunChecks:
    def test_rigid_system_passes(self, a2):
        report = run_system_checks(a2, radius=4)
        assert report.ok
        assert report.verdict == "DISCRETE-EVIDENCE"
        assert not report.flexible
        assert all(c.status in ("pass", "vacuous") for c in report.checks)

    def test_flexible_system_passes_with_exotics(self, branched):
        report = run_system_checks(branched, radius=4)
        assert report.ok
        assert report.flexible
        assert report.verdict == "NONDISCRETE-EVIDENCE"
        by_name = {c.name: c for c in report.checks}
        assert by_name["census-diagram-consistency"].status == "vacuous"
        assert by_name["psi-verified"].status == "pass"

    def test_radius_zero_is_all_vacuous_or_pass(self, a2):
        report = run_system_checks(a2, radius=0)
        assert not report.failures
        assert not report.indeterminate
        # one identity entry against two diagram automorphisms decides nothing
        assert report.verdict == "INCONCLUSIVE"

    def test_radius_zero_psi_field_is_vacuous(self, branched):
        # a ball without edges has no edge for psi to break
        report = run_system_checks(branched, radius=0)
        check = {c.name: c for c in report.checks}["psi-m-class-well-defined"]
        assert (check.status, check.detail) == ("vacuous", "no edges at this radius")
        assert report.verdict == "INCONCLUSIVE"

    def test_probe_radius_zero_is_no_evidence(self, a2):
        # (2,3,7) is rigid with a trivial diagram group, so at probe radius 0 the
        # census of the identity alone equals it after no search at all
        triangle = make_system("a b c", (0, 1, 2), (0, 2, 3), (1, 2, 7))
        report = run_system_checks(triangle, radius=0)
        assert (report.probe_radius, report.ok, report.verdict) == (0, True, "INCONCLUSIVE")
        assert run_system_checks(triangle, radius=7).verdict == "INCONCLUSIVE"  # probe radius 0 too
        assert run_system_checks(triangle, radius=4, probe_radius=0).verdict == "INCONCLUSIVE"
        report = run_system_checks(a2, radius=4)  # probe radius 1
        assert (report.probe_radius, report.verdict) == (1, "DISCRETE-EVIDENCE")

    def test_check_names_stable(self, a2):
        report = run_system_checks(a2, radius=3)
        assert [c.name for c in report.checks] == [
            "bipartite-edges",
            "essential-census",
            "left-mult-identity-field",
            "diagram-aut-field",
            "census-verified",
            "census-coupling",
            "census-diagram-consistency",
            "psi-verified",
            "psi-m-class-well-defined",
            "psi-n-verified",
        ]

    def test_census_guard_gives_indeterminate_verdict(self, branched):
        report = run_system_checks(branched, radius=4, max_nodes=1)
        assert report.verdict == "INDETERMINATE"
        by_name = {c.name: c for c in report.checks}
        assert by_name["census-verified"].status == "indeterminate"
        assert by_name["census-coupling"].status == "indeterminate"
        assert not report.ok

    def test_boundary_artifact_generator_fails_coupling(self):
        # the radius-2 ball of this system is a tree, and at probe radius 2 the
        # census holds maps that swap labels of different orders at a star
        report = run_system_checks(make_system("a b c", (0, 1, 3)), radius=2, probe_radius=2)
        coupling = {c.name: c for c in report.checks}["census-coupling"]
        assert coupling.status == "fail"
        assert coupling.detail.startswith("generator (0, 3, 1, 2, 8, 9, 4, 5, 6, 7): coupling fails")
        assert report.verdict == "INCONCLUSIVE"  # a failed check is no evidence either way

    def test_ball_guard_short_circuits(self, atilde2):
        report = run_system_checks(atilde2, radius=6, max_vertices=5)
        assert report.verdict == "INDETERMINATE"
        assert len(report.checks) == 1
        assert report.checks[0].name == "build-ball"

    def test_essential_census_builds_no_ball_of_its_own(self):
        # at r = 5 the cycle words up to 2 * 5 lie in the ball itself (93 vertices),
        # so a guard at its size leaves every check decided
        system = parse_system((DIAGRAMS[0].parent / "frontier" / "triangle578.cox").read_text())
        assert build_ball(system, 5).size == 93
        report = run_system_checks(system, radius=5, max_vertices=93)
        census = {c.name: c for c in report.checks}["essential-census"]
        assert (census.status, census.detail) == ("vacuous", "no certified cycles at this radius")
        assert report.ok  # nothing undecided; at probe radius 0 the verdict is INCONCLUSIVE

    def test_bipartite_edges_reads_both_ends_of_every_edge(self, a2, monkeypatch):
        def one_sided_ball(system, radius, max_vertices):
            ball = build_ball(system, radius, max_vertices=max_vertices)
            # a b a = b a b: the b-edge from b a stays, its entry at a b a goes
            ball.adj[vertex_of(ball, parse_word(system, "a b a")) * ball.rank + parse_word(system, "b")[0]] = -1
            return ball

        monkeypatch.setattr(coxaut.checks, "build_ball", one_sided_ball)
        by_name = {c.name: c for c in run_system_checks(a2, radius=3).checks}
        assert by_name["bipartite-edges"].status == "fail"
        assert by_name["bipartite-edges"].detail == "edge (4, 5) labeled b is missing at 5"

    def test_probe_beyond_radius_rejected(self, a2):
        with pytest.raises(ValueError):
            run_system_checks(a2, radius=2, probe_radius=3)

    def test_report_serialization(self, a2):
        report = run_system_checks(a2, radius=3)
        payload = report_payload(report)
        assert payload["radius"] == 3
        assert payload["verdict"] == report.verdict
        assert {c["name"] for c in payload["checks"]} == {c.name for c in report.checks}
        assert all(set(c) == {"name", "status", "detail"} for c in payload["checks"])

    def test_no_word_is_reduced_without_a_cartan_matrix(self):
        # flexible5 has an order 5, so reduce_word would rewrite; every map is walked from a vertex instead
        system = parse_system((DIAGRAMS[0].parent / "frontier" / "flexible5.cox").read_text())
        assert system.cartan is None
        report = run_system_checks(system, radius=6)
        assert not report.failures
        assert not system._reduce_cache

    def test_free_product_verdict(self, free2):
        # no relations: every ball is a tree, the census sees only the swap
        report = run_system_checks(free2, radius=4)
        assert report.ok
        assert report.verdict == "DISCRETE-EVIDENCE"

    def test_single_generator(self):
        report = run_system_checks(make_system("s"), radius=1)
        assert not report.failures
        assert not report.indeterminate

    def test_rank3_verdicts_follow_flexibility(self):
        # the paper's dichotomy over all 56 rank-3 diagrams: evidence of
        # nondiscreteness only on flexible diagrams, of discreteness only on rigid ones
        for system in RANK3:
            report = run_system_checks(system, radius=5)
            assert not report.failures, (system, report.failures)
            flexible = is_flexible(system) is not None
            if report.verdict == "NONDISCRETE-EVIDENCE":
                assert flexible, system
            if report.verdict == "DISCRETE-EVIDENCE":
                assert not flexible, system


def load(name: str):
    return parse_system((DIAGRAMS[0].parent / name).read_text())


def test_each_psi_map_and_field_is_built_once(monkeypatch):
    # psi and psi_1 .. psi_5 are each walked from the field they are checked against
    built = []
    real_field, real_psi_n = coxaut.automorphisms.pivot_field, coxaut.checks.psi_n

    def pivot_field(ball, witness, n=None):
        built.append(("pivot_field", n))
        return real_field(ball, witness, n)

    def psi_n(ball, witness, n):
        built.append(("psi_n", n))
        return real_psi_n(ball, witness, n)

    monkeypatch.setattr(coxaut.automorphisms, "pivot_field", pivot_field)
    monkeypatch.setattr(coxaut.checks, "psi_n", psi_n)
    assert run_system_checks(load("flexible.cox"), 12).ok
    assert sorted(built, key=lambda x: (x[0], x[1] or 0)) == [("pivot_field", n) for n in (None, 1, 2, 3, 4, 5)] + [
        ("psi_n", n) for n in range(1, 6)
    ]


def checks_with(monkeypatch, constructor: str, corrupt, system, radius: int) -> dict:
    """run_system_checks(system, radius) by name, with each map or field that
    coxaut.automorphisms builds by constructor replaced by corrupt(ball, it)."""
    real = getattr(coxaut.automorphisms, constructor)
    monkeypatch.setattr(coxaut.automorphisms, constructor, lambda ball, *args: corrupt(ball, real(ball, *args)))
    report = run_system_checks(system, radius)
    assert report.verdict == "INCONCLUSIVE"  # a failed check is no evidence
    return {c.name: (c.status, c.detail) for c in report.checks}


class TestMapCheckDetails:
    """Each map check's failure detail, with a fault that a run reaches: a ball
    with two edges swapped, or a constructor that coxaut.checks calls corrupted."""

    def test_left_mult_on_a_ball_with_two_edges_swapped(self, atilde2, monkeypatch):
        # the c-edges at c a and c b, to a c a and b c b, swapped
        bad = swapped_edges(build_ball(atilde2, 3), "c", ("c a", "a c a"), ("c b", "b c b"))
        assert failed_checks(monkeypatch, bad)["left-mult-identity-field"] == (
            "left_mult((0,)) not verified: edge (9, 12) labeled c maps to non-adjacent pair (13, 8)"
        )

    def test_diagram_aut_of_a_permutation_that_breaks_a_pair_order(self, a3, monkeypatch):
        # a strong generator swapping a and b sends m(b, c) = 3 to m(a, c) = 2
        monkeypatch.setattr(coxaut.checks, "diagram_group", lambda system: (2, ((1, 0, 2),)))
        report = run_system_checks(a3, 4)
        assert report.verdict == "INCONCLUSIVE"
        assert {c.name: c.detail for c in report.failures} == {
            "diagram-aut-field": "diagram_aut((1, 0, 2)) not verified: not injective: vertices 7 and 8 both map to 5"
        }

    def test_psi_walked_from_a_field_that_errs_off_its_walk(self, monkeypatch):
        # pivot_field trades, at the vertex u, the images of t (up from u, off the BFS
        # tree) and u (down): psi is walked from that field and is still psi, an
        # automorphism, so psi-verified and psi-n-verified pass; only the field breaks
        checks = checks_with(monkeypatch, "pivot_field", map_checks.erring_field, load("flexible.cox"), 5)
        assert checks["psi-verified"][0] == checks["psi-n-verified"][0] == "pass"
        assert checks["psi-m-class-well-defined"] == ("fail", "psi breaks its field on edge (3, 7) labeled t")


# -- the map walks verify does not run ------------------------------------------


def edge_swaps(ball: CayleyBall, rng: random.Random, count: int):
    """count copies of ball, each with two s-edges (a, b) and (c, d) between the
    same two layers, drawn by rng, replaced by (a, d) and (c, b): every edge
    keeps its word lengths, so bipartite-edges still passes."""
    groups: dict = {}
    for u, v, s in ball.edges:
        groups.setdefault((s, ball.length[u]), []).append((u, v))
    keys = sorted(key for key, group in groups.items() if len(group) > 1)
    rank = ball.rank
    for _ in range(count if keys else 0):
        key = rng.choice(keys)
        s, (a, b), (c, d) = key[0], *rng.sample(groups[key], 2)
        adj = list(ball.adj)
        adj[a * rank + s], adj[d * rank + s], adj[c * rank + s], adj[b * rank + s] = d, a, b, c
        yield CayleyBall(ball.system, ball.radius, adj, ball.last, ball.length)


def swapped_edges(ball: CayleyBall, label: str, first: tuple[str, str], second: tuple[str, str]) -> CayleyBall:
    """ball with the label-edges first = (a, b) and second = (c, d), given as
    words, replaced by (a, d) and (c, b)."""
    system, rank = ball.system, ball.rank
    (a, b), (c, d) = [[vertex_of(ball, parse_word(system, w)) for w in pair] for pair in (first, second)]
    s = system.names.index(label)
    adj = list(ball.adj)
    adj[a * rank + s], adj[d * rank + s], adj[c * rank + s], adj[b * rank + s] = d, a, b, c
    return CayleyBall(system, ball.radius, adj, ball.last, ball.length)


def left_mult_fails(ball: CayleyBall, starts) -> bool:
    """Whether a left multiplication walked from a vertex of starts fails its check."""
    identity = tuple(ball.system.generators())
    for v in starts:
        report = verify_ball_automorphism(ball, walked_map(ball, v, lambda x: identity))
        if not report.ok or report.broken:
            return True
    return False


def failed_checks(monkeypatch, ball: CayleyBall) -> dict:
    """The failing checks of run_system_checks on ball, by name."""
    monkeypatch.setattr(coxaut.checks, "build_ball", lambda system, radius, max_vertices: ball)
    return {c.name: c.detail for c in run_system_checks(ball.system, ball.radius).failures}


def test_dropped_walks_fail_only_with_a_kept_check(monkeypatch):
    # the identity's walk and psi-family-distinct are dropped from verify (see
    # coxaut.checks): on seeded edge swaps of the shipped balls at r <= 6,
    # wherever the walks from the words of length <= 2 or the psi-family oracle
    # fail, some kept check fails too
    rng = random.Random(27)
    caught = {"left-mult": 0, "psi-family": 0}
    for path in DIAGRAMS:
        system = parse_system(path.read_text())
        witness = is_flexible(system)
        for radius in (4, 5, 6):
            for bad in edge_swaps(build_ball(system, radius), rng, 60 if witness else 12):
                walks = left_mult_fails(bad, bad.interior(2))
                family = witness is not None and not map_checks.psi_family_distinctness(bad, witness, radius // 2).ok
                if walks or family:
                    assert failed_checks(monkeypatch, bad), (path.name, radius)
                caught["left-mult"] += walks
                caught["psi-family"] += family
    assert min(caught.values()) > 0, caught


def test_a_length_two_walk_can_fail_alone(monkeypatch):
    # why left-mult-identity-field keeps the words of length 2 (see coxaut.checks):
    # on m(a, b) = 2, m(a, c) = m(b, c) = 3 at r = 3, join a to b c and b to a c by
    # their c-edges (a c is then spelled b c); no generator walk breaks an edge, and
    # no check but left-mult fails
    system = make_system("a b c", (0, 1, 2), (0, 2, 3), (1, 2, 3))
    ball = build_ball(system, 3)
    ac, bc = (vertex_of(ball, parse_word(system, w)) for w in ("a c", "b c"))
    bad = swapped_edges(ball, "c", ("a", "a c"), ("b", "b c"))
    assert not left_mult_fails(bad, bad.interior(1))
    assert left_mult_fails(bad, [ac]) and left_mult_fails(bad, [bc])
    assert failed_checks(monkeypatch, bad) == {
        "left-mult-identity-field": "left_mult((1, 2)) not verified: edge (8, 13) labeled c maps to non-adjacent pair (0, 14)"
    }


# -- what the field test and the census of cycle words read ---------------------


def verify_walks(ball: CayleyBall):
    """Every map run_system_checks walks on ball: the left multiplications, the
    diagram group's strong generators, and on a flexible diagram psi and each
    psi_n it defines."""
    system = ball.system
    identity = tuple(system.generators())
    walks = [walked_map(ball, v, lambda x: identity) for v in ball.interior(2)[1:]]
    walks += [diagram_aut(ball, d) for d in diagram_group(system)[1]]
    witness = is_flexible(system)
    if witness is not None and ball.radius >= 2:
        walks.append(psi_phi(ball, witness))
        for n in range(1, min(ball.radius, 5) + 1):
            try:
                walks.append(psi_n(ball, witness, n))
            except ValueError:  # an odd-order neighbour of the pivot
                break
    return walks


def assert_walks_match_oracle(ball: CayleyBall) -> int:
    """The report against each walked map's field, read on the non-tree edges,
    against map_checks' scan of every edge; the number of failed reports."""
    failed = 0
    for aut in verify_walks(ball):
        report = verify_ball_automorphism(ball, aut)
        assert report == map_checks.verify_ball_automorphism(ball, aut)
        assert report.broken == map_checks.broken_edges(ball, aut, aut.field)
        failed += not report.ok or bool(report.broken)
    return failed


@pytest.mark.parametrize("path", DIAGRAMS + FRONTIER, ids=lambda p: p.stem)
def test_walked_maps_read_on_non_tree_edges_match_the_oracle(path):
    system = parse_system(path.read_text())
    for radius in range(4 if path.stem == "free10" else 7):
        assert assert_walks_match_oracle(build_ball(system, radius)) == 0


def test_walked_maps_on_edge_swapped_balls_match_the_oracle():
    # a swapped edge is a tree edge or not; either way the walks read it as verify does
    rng, failed = random.Random(31), 0
    for path in DIAGRAMS + FRONTIER:
        system = parse_system(path.read_text())
        for radius in range(3, 4 if path.stem == "free10" else 6):
            for bad in edge_swaps(build_ball(system, radius), rng, 8):
                failed += assert_walks_match_oracle(bad)
    assert failed > 0


def test_translate_walk_fails_only_with_the_word_reading():
    # essential-census reads each cycle word once (see coxaut.checks): on seeded edge
    # swaps of the shipped and frontier balls at r = 3 .. 6, wherever the walk of every
    # word from every vertex fails, the reading of each word once fails too
    rng, caught = random.Random(11), 0
    for path in DIAGRAMS + FRONTIER:
        system = parse_system(path.read_text())
        if system.max_finite_order() is None:
            continue
        for radius in range(3, 4 if path.stem == "free10" else 7):
            for bad in edge_swaps(build_ball(system, radius), rng, 40):
                if not relator_traces.translate_walk(bad).ok:
                    assert not verify_essential_characterization(bad).ok, (path.stem, radius)
                    caught += 1
    assert caught > 0


def test_verify_builds_no_embedded_cycle(monkeypatch):
    def refuse(*args):
        raise AssertionError("run_system_checks built an EmbeddedCycle")

    monkeypatch.setattr(EmbeddedCycle, "__init__", refuse)
    for name, radius in (("atilde2.cox", 6), ("flexible.cox", 6), ("frontier/triangle237.cox", 14)):
        report = run_system_checks(load(name), radius)
        assert {c.name: c.status for c in report.checks}["essential-census"] == "pass"

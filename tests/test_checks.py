from itertools import permutations

import pytest
from hypothesis import given, settings

import coxaut.automorphisms
import coxaut.checks
from coxaut.automorphisms import BallAutomorphism
from coxaut.ball import build_ball
from coxaut.checks import (
    commutation_violations,
    default_probe_radius,
    run_system_checks,
)
from coxaut.system import DiagramAutomorphism, is_flexible, is_label_preserving, parse_system
from coxaut.words import parse_word

from conftest import DIAGRAMS, RANK3, crystallographic_systems, make_system


class TestCommutation:
    def test_valid_map_has_no_violations(self, branched):
        phi = is_flexible(branched).phi
        assert commutation_violations(branched, phi) == []

    def test_a3_reversal_has_no_violations(self, a3):
        assert commutation_violations(a3, DiagramAutomorphism((2, 1, 0))) == []

    def test_label_breaking_map_is_caught(self, a3):
        # swapping a and b sends the order-2 pair (a, c) to the order-3 (b, c)
        bad = DiagramAutomorphism((1, 0, 2))
        assert commutation_violations(a3, bad)

    @staticmethod
    def assert_exact_for_every_permutation(system):
        for images in permutations(system.generators()):
            violations = commutation_violations(system, DiagramAutomorphism(images))
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
        assert commutation_violations(system, DiagramAutomorphism((2, 3, 0, 1))) == [
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
            "psi-family-distinct",
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

    def test_word_ball_guard_gives_indeterminate_census(self):
        # at r = 5 the cycle words up to 2 * 8 come from a ball of radius 8 (716 vertices)
        system = parse_system((DIAGRAMS[0].parent / "frontier" / "triangle578.cox").read_text())
        report = run_system_checks(system, radius=5, max_vertices=715)
        census = {c.name: c for c in report.checks}["essential-census"]
        assert (census.status, census.detail) == ("indeterminate", "ball exceeded 715 vertices")
        assert census in report.indeterminate and not report.ok  # verify exits 3
        assert report.verdict == "INDETERMINATE"  # though the census decides

    def test_bipartite_edges_reads_both_ends_of_every_edge(self, a2, monkeypatch):
        def one_sided_ball(system, radius, max_vertices):
            ball = build_ball(system, radius, max_vertices=max_vertices)
            # a b a = b a b: the b-edge from b a stays, its entry at a b a goes
            ball.adj[ball.vertex_of(parse_word(system, "a b a")) * ball.rank + parse_word(system, "b")[0]] = -1
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
        payload = report.to_json_dict()
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
    # psi-n-verified builds psi_1 .. psi_5, psi-family-distinct reads them and
    # builds psi_6; psi is walked from the field it is checked against
    built = []
    real_field, real_psi_n = coxaut.automorphisms.pivot_field, coxaut.checks.psi_n

    def pivot_field(ball, witness, n=None):
        built.append(("pivot_field", n))
        return real_field(ball, witness, n)

    def psi_n(ball, witness, n):
        built.append(("psi_n", n))
        return real_psi_n(ball, witness, n)

    for module in (coxaut.automorphisms, coxaut.checks):
        monkeypatch.setattr(module, "pivot_field", pivot_field)
    monkeypatch.setattr(coxaut.checks, "psi_n", psi_n)
    assert run_system_checks(load("flexible.cox"), 12).ok
    assert built.count(("pivot_field", None)) == 1
    assert sorted(x for x in built if x[0] == "psi_n") == [("psi_n", n) for n in range(1, 7)]


def checks_with(monkeypatch, constructor: str, corrupt, system, radius: int) -> dict:
    """run_system_checks(system, radius) by name, with each map that coxaut.checks
    builds by constructor replaced by corrupt(ball, its map)."""
    real = getattr(coxaut.checks, constructor)
    monkeypatch.setattr(coxaut.checks, constructor, lambda ball, *args: corrupt(ball, real(ball, *args)))
    report = run_system_checks(system, radius)
    assert report.verdict == "INCONCLUSIVE"  # a failed check is no evidence
    return {c.name: (c.status, c.detail) for c in report.checks}


class TestMapCheckDetails:
    """Each map check's failure detail, with the constructor it calls corrupted."""

    def test_left_mult_with_two_images_swapped(self, a2, monkeypatch):
        def swapped(ball, aut):
            vmap = list(aut.vmap)
            vmap[1], vmap[2] = vmap[2], vmap[1]
            return BallAutomorphism(tuple(vmap), aut.interior_radius)

        checks = checks_with(monkeypatch, "factored_ball_map", swapped, a2, 4)
        assert checks["left-mult-identity-field"] == (
            "fail",
            "left_mult(()) not verified: edge (1, 3) labeled b maps to non-adjacent pair (2, 3)",
        )

    def test_diagram_aut_as_the_identity_map(self, monkeypatch):
        def identity(ball, aut):
            return BallAutomorphism(tuple(range(ball.size)), ball.radius)

        checks = checks_with(monkeypatch, "diagram_aut", identity, load("c2cubed.cox"), 4)
        assert checks["diagram-aut-field"] == ("fail", "diagram_aut((1, 0, 2)) field is not constantly d")

    def test_psi_as_the_identity_map(self, monkeypatch):
        # an automorphism, so psi-verified passes; only its field is broken
        def identity(ball, aut):
            return BallAutomorphism(tuple(range(ball.size)), ball.radius)

        checks = checks_with(monkeypatch, "psi_phi", identity, load("flexible.cox"), 5)
        assert checks["psi-verified"][0] == "pass"
        assert checks["psi-m-class-well-defined"] == ("fail", "psi breaks its field on edge (0, 2) labeled t")

    def test_psi_n_with_an_image_dropped(self, monkeypatch):
        def holed(ball, aut):
            return BallAutomorphism(aut.vmap[:-1] + (None,), ball.radius - 1)

        checks = checks_with(monkeypatch, "psi_n", holed, load("flexible.cox"), 5)
        assert checks["psi-n-verified"] == ("fail", "psi_1 vertex map is not total")

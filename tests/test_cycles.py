import pytest
from hypothesis import assume, given, settings, strategies as st

import coxaut.cycles
from coxaut.ball import build_ball, count_paths_to, distances_within
from coxaut.cycles import (
    EmbeddedCycle,
    EssentialityReport,
    certifies,
    enumerate_embedded_cycles,
    is_alternating,
    is_essential,
    relator_cycles,
    verify_essential_characterization,
)
from coxaut.system import parse_system
from coxaut.words import m_class_size, parse_word

import relator_traces
from conftest import DIAGRAMS, RANK3, make_system, random_systems, vertex_of

FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))


def cycle_words(ball, cycle):
    from coxaut.words import format_word

    return [format_word(ball.system, ball.word(v)) for v in cycle.vertices]


def unpruned_cycles(ball, max_length):
    """The embedded-cycle search without its word-length prune: every path of
    larger ids from each root, extended while it is shorter than max_length."""
    cycles = []
    for root in range(ball.size):
        path, on_path = [root], {root}
        stack = [iter(ball.neighbors[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(relator_traces.canonical(ball, list(path)))
                elif nxt > root and nxt not in on_path and len(path) < max_length:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(ball.neighbors[nxt]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return sorted(cycles, key=lambda c: (len(c), c.vertices))


def reference_is_essential(ball, cycle):
    """is_essential by search: for each opposite pair, one BFS bounded by n gives
    the distance, and a depth-first count of the simple n-paths gives the rest."""
    certified = certifies(ball, cycle)
    if len(cycle) % 2 != 0:
        return EssentialityReport(False, certified, None)
    n = cycle.half_length
    for u, v in zip(cycle.vertices, cycle.vertices[n:]):
        dist_to_v = distances_within(ball, v, n)
        d = dist_to_v.get(u, -1)
        if d != n:
            return EssentialityReport(False, certified, (u, v, d, -1))
        paths = count_paths_to(ball, u, dist_to_v, n)
        if paths != 2:
            return EssentialityReport(False, certified, (u, v, d, paths))
    return EssentialityReport(True, certified, None)


def assert_same_essentiality(ball, cycles):
    for cycle in cycles:
        report, reference = is_essential(ball, cycle), reference_is_essential(ball, cycle)
        assert (report.essential, report.certified, report.failure) == (
            reference.essential,
            reference.certified,
            reference.failure,
        ), cycle.vertices


def default_max_length(system):
    m = system.max_finite_order()
    return 2 * m if m is not None else 6


def word_source(ball, max_length):
    """Where enumerate_embedded_cycles reads its cycle words: the ball itself when
    it is complete or deep enough, else a ball it builds."""
    if ball.complete:
        return "complete"
    return "ball" if ball.radius >= min(max_length // 2, 2 * ball.radius) else "built"


def differential_cases(path):
    """(ball, max_length) for r <= 6 (free10: r <= 3) and max_length up to 2r + 4."""
    system = parse_system(path.read_text())
    for radius in range(4 if path.stem == "free10" else 7):
        ball = build_ball(system, radius)
        default = default_max_length(system)
        for max_length in sorted({default, default + 3, 2 * radius + 4}):
            yield ball, max_length


def find_cycle(ball, texts):
    ids = {vertex_of(ball, parse_word(ball.system, t)) for t in texts}
    for cycle in enumerate_embedded_cycles(ball, len(texts)):
        if set(cycle.vertices) == ids:
            return cycle
    raise AssertionError(f"no embedded cycle on {texts}")


class TestEnumeration:
    def test_hexagon_is_the_only_cycle(self, a2):
        cycles = enumerate_embedded_cycles(build_ball(a2, 3), 6)
        assert len(cycles) == 1
        assert len(cycles[0]) == 6

    def test_branched_radius2_single_square(self, branched):
        cycles = enumerate_embedded_cycles(build_ball(branched, 2), 4)
        assert len(cycles) == 1
        assert cycle_words(build_ball(branched, 2), cycles[0]) == ["e", "t", "t u", "u"]

    def test_tree_has_no_cycles(self, free2):
        assert enumerate_embedded_cycles(build_ball(free2, 5), 8) == []
        assert enumerate_embedded_cycles(build_ball(make_system("a"), 4), 8) == []

    def test_canonical_form_unique(self, cube):
        ball = build_ball(cube, 3)
        cycles = enumerate_embedded_cycles(ball, 6)
        assert len(cycles) == len({c.vertices for c in cycles})
        for cycle in cycles:
            assert cycle.vertices[0] == min(cycle.vertices)
            assert cycle.vertices[1] < cycle.vertices[-1]

    def test_max_length_respected(self, a2):
        assert enumerate_embedded_cycles(build_ball(a2, 3), 4) == []

    @pytest.mark.parametrize("max_length,count", [(-1, 0), (0, 0), (3, 0), (5, 0), (6, 1)])
    def test_small_bounds_give_no_cycles(self, a2, max_length, count):
        assert len(enumerate_embedded_cycles(build_ball(a2, 3), max_length)) == count

    def test_cube_cycle_counts(self, cube):
        # the 3-cube has 6 faces (4-cycles) and 16 embedded 6-cycles
        ball = build_ball(cube, 3)
        by_len = {}
        for cycle in enumerate_embedded_cycles(ball, 6):
            by_len.setdefault(len(cycle), 0)
            by_len[len(cycle)] += 1
        assert by_len == {4: 6, 6: 16}


class TestLengthPrune:
    """Cycle words walked from every vertex (their search from the identity keeps
    the word-length prune) against the unpruned per-root search: the same cycles
    in the same order, and is_essential against the search-based reference on
    every one of them, certified or not."""

    @staticmethod
    def assert_matches_references(path):
        for ball, max_length in differential_cases(path):
            cycles = enumerate_embedded_cycles(ball, max_length)
            assert cycles == unpruned_cycles(ball, max_length)
            assert_same_essentiality(ball, cycles)

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_diagrams(self, path):
        self.assert_matches_references(path)

    @pytest.mark.parametrize("path", FRONTIER, ids=lambda p: p.stem)
    def test_frontier_diagrams(self, path):
        self.assert_matches_references(path)

    def test_every_word_source_is_compared(self):
        sources = {word_source(ball, L) for path in DIAGRAMS + FRONTIER for ball, L in differential_cases(path)}
        assert sources == {"ball", "built", "complete"}

    def test_built_word_ball(self):
        # r = 5 < 16 // 2 on an infinite group: the words come from a ball of radius 8
        ball = build_ball(parse_system((DIAGRAMS[0].parent / "frontier" / "triangle578.cox").read_text()), 5)
        assert word_source(ball, 16) == "built"
        cycles = enumerate_embedded_cycles(ball, 16)
        assert cycles == unpruned_cycles(ball, 16)
        assert_same_essentiality(ball, cycles)

    def test_rank3_diagrams(self):
        for system in RANK3:
            for radius in range(7):
                ball = build_ball(system, radius)
                max_length = default_max_length(system)
                cycles = enumerate_embedded_cycles(ball, max_length)
                assert cycles == unpruned_cycles(ball, max_length)
                assert_same_essentiality(ball, cycles)

    def test_atilde2_radius_18(self, atilde2):
        ball = build_ball(atilde2, 18)
        cycles = enumerate_embedded_cycles(ball, 6)
        assert cycles == unpruned_cycles(ball, 6)
        assert_same_essentiality(ball, cycles)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_systems(self, data):
        system = data.draw(random_systems(max_rank=4, finite_orders=(2, 3, 4, 5, 6)))
        radius = data.draw(st.integers(0, 4))
        ball = build_ball(system, radius)
        max_length = data.draw(st.integers(0, 2 * radius + 4))
        cycles = enumerate_embedded_cycles(ball, max_length)
        assert cycles == unpruned_cycles(ball, max_length)
        assert_same_essentiality(ball, cycles)


class TestRelatorCycles:
    def test_a2_single_hexagon(self, a2):
        cycles = relator_cycles(build_ball(a2, 3))
        assert len(cycles) == 1
        assert len(cycles[0]) == 6

    def test_branched_square_count_grows_with_radius(self, branched):
        assert len(relator_cycles(build_ball(branched, 3))) == 2  # cosets at e and s
        assert len(relator_cycles(build_ball(branched, 4))) == 4  # plus ts and us

    def test_all_infinite_orders_give_none(self, free2):
        assert relator_cycles(build_ball(free2, 4)) == []

    def test_partial_traces_are_dropped(self, a2):
        # at radius 2 the hexagon cannot close inside the ball
        assert relator_cycles(build_ball(a2, 2)) == []

    def test_matches_enumeration_on_complete_ball(self, a3):
        ball = build_ball(a3, 6)
        assert ball.complete
        assert relator_cycles(ball) == relator_traces.relator_cycles(ball)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_shape_matches_traces_on_incomplete_balls(self, data):
        # an order 5 makes the keys canonical words
        system = data.draw(random_systems(max_rank=4, finite_orders=(2, 3, 4, 5, 6)))
        ball = build_ball(system, data.draw(st.integers(0, 5)))
        assume(not ball.complete)
        assert relator_cycles(ball) == relator_traces.relator_cycles(ball)
        m = system.max_finite_order()
        cycles = enumerate_embedded_cycles(ball, 2 * m + 1 if m is not None else 7)
        assert relator_traces.status(verify_essential_characterization(ball)) == relator_traces.status(
            relator_traces.verify_essential_characterization(ball, cycles)
        )


class TestEssentiality:
    def test_hexagon_essential(self, a2):
        ball = build_ball(a2, 3)
        report = is_essential(ball, enumerate_embedded_cycles(ball, 6)[0])
        assert report.essential and report.certified

    def test_commuting_square_essential(self, branched):
        ball = build_ball(branched, 4)
        square = find_cycle(ball, ["e", "t", "t u", "u"])
        report = is_essential(ball, square)
        assert report.essential and report.certified

    def test_cube_hexagon_not_essential(self, cube):
        ball = build_ball(cube, 3)
        hexagon = find_cycle(ball, ["e", "a", "a b", "a b c", "b c", "c"])
        report = is_essential(ball, hexagon)
        assert not report.essential
        assert report.certified  # the ball is the whole group
        u, v, dist, paths = report.failure
        assert {u, v} == {0, vertex_of(ball, parse_word(cube, "a b c"))}
        assert dist == 3
        assert paths == 6

    def test_certification_radius_rule(self, branched):
        shallow = build_ball(branched, 2)
        square = enumerate_embedded_cycles(shallow, 4)[0]
        assert not certifies(shallow, square)  # tu sits at the boundary
        deep = build_ball(branched, 4)
        assert certifies(deep, find_cycle(deep, ["e", "t", "t u", "u"]))

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_reduced_word_counts_match_rewriting(self, path):
        system = parse_system(path.read_text())
        for radius in range(6):
            ball = build_ball(system, radius)
            assert ball.reduced_word_counts == [m_class_size(system, ball.word(v)) for v in range(ball.size)]

    def test_complete_ball_certifies_everything(self, cube):
        ball = build_ball(cube, 3)
        assert all(certifies(ball, c) for c in enumerate_embedded_cycles(ball, 6))


class TestAlternation:
    def test_relator_cycles_alternate(self, a2, branched):
        for system, radius in [(a2, 3), (branched, 3)]:
            for cycle in relator_cycles(build_ball(system, radius)):
                assert is_alternating(cycle)

    def test_cube_hexagon_does_not_alternate(self, cube):
        ball = build_ball(cube, 3)
        hexagon = find_cycle(ball, ["e", "a", "a b", "a b c", "b c", "c"])
        assert not is_alternating(hexagon)

    @staticmethod
    def assert_alternating_cycles_have_relator_length(ball, max_length):
        # an embedded cycle alternating s, t fills a coset of <s, t>: 2 m(s, t) edges
        for cycle in enumerate_embedded_cycles(ball, max_length):
            if is_alternating(cycle):
                assert len(cycle) == 2 * ball.system.order(*cycle.labels[:2])

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_alternating_cycles_have_relator_length(self, path):
        ball = build_ball(parse_system(path.read_text()), 6)
        self.assert_alternating_cycles_have_relator_length(ball, 13)

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_alternating_cycles_have_relator_length(self, data):
        system = data.draw(random_systems(max_rank=4, finite_orders=(2, 3, 4, 5, 6)))
        ball = build_ball(system, data.draw(st.integers(0, 4)))
        self.assert_alternating_cycles_have_relator_length(ball, data.draw(st.integers(0, 13)))


class TestCharacterization:
    @pytest.mark.parametrize(
        "fixture,radius",
        [("a2", 4), ("a2", 5), ("a3", 5), ("a3", 6), ("cube", 3), ("cube", 4), ("branched", 4), ("atilde2", 6)],
    )
    def test_certified_essential_equals_certified_relator(self, fixture, radius, request):
        system = request.getfixturevalue(fixture)
        report = verify_essential_characterization(build_ball(system, radius))
        assert report.ok, (report.essential_not_relator, report.relator_not_essential)

    def test_a2_radius4_counts(self, a2):
        # one hexagon through e, read in both directions
        report = verify_essential_characterization(build_ball(a2, 4))
        assert report.essential == ((0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0))
        assert report.certified_relator == 2

    def test_cube_radius3_only_squares(self, cube):
        # the three faces at e, each read in both directions; the hexagons through e are read too
        ball = build_ball(cube, 3)
        report = verify_essential_characterization(ball)
        assert report.ok
        assert sorted(report.essential) == [(0, 1, 0, 1), (0, 2, 0, 2), (1, 0, 1, 0), (1, 2, 1, 2), (2, 0, 2, 0), (2, 1, 2, 1)]

    def test_statuses_match_the_translate_oracle(self):
        # the cycle words read once against every certified translate: every shipped,
        # frontier and rank-3 diagram at r <= 8, on balls of at most 20 000 vertices
        cases = 0
        for system in [parse_system(p.read_text()) for p in DIAGRAMS + FRONTIER] + RANK3:
            for radius in range(9):
                ball = build_ball(system, radius)
                if ball.size > 20000:
                    break
                report = verify_essential_characterization(ball)
                assert relator_traces.status(report) == relator_traces.status(
                    relator_traces.verify_essential_characterization(ball)
                ), (system.names, system.finite_pairs(), radius)
                cases += 1
        assert cases >= 625

    def test_reads_the_callers_ball(self, monkeypatch):
        # words of length <= 2 r lie in the ball: triangle578 at r = 5 reads words up
        # to 10 (none certified below r = 10), where the cycles command reads up to 16
        # from a ball of radius 8
        ball = build_ball(parse_system((DIAGRAMS[0].parent / "frontier" / "triangle578.cox").read_text()), 5)
        monkeypatch.setattr(coxaut.cycles, "build_ball", None)
        assert relator_traces.status(verify_essential_characterization(ball)) == "vacuous"

    def test_reads_the_count_table_below_the_half_length(self, atilde2):
        ball = build_ball(atilde2, 6)
        verify_essential_characterization(ball)
        assert len(ball.reduced_word_counts_below(0)) == len(ball.interior(3)) < ball.size


class TestMapCycle:
    def test_identity_map(self, a2):
        ball = build_ball(a2, 3)
        cycle = enumerate_embedded_cycles(ball, 6)[0]
        assert relator_traces.map_cycle(ball, tuple(range(ball.size)), cycle) == cycle

    def test_partial_map_returns_none(self, a2):
        ball = build_ball(a2, 3)
        cycle = enumerate_embedded_cycles(ball, 6)[0]
        vmap = [None] * ball.size
        assert relator_traces.map_cycle(ball, vmap, cycle) is None

    def test_non_cycle_image_raises(self, a2):
        ball = build_ball(a2, 3)
        cycle = enumerate_embedded_cycles(ball, 6)[0]
        vmap = list(range(ball.size))
        vmap[1], vmap[2] = 0, 0  # collapse two vertices
        with pytest.raises(ValueError):
            relator_traces.map_cycle(ball, vmap, cycle)

import json
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings

from coxaut import cli
from coxaut.ball import build_ball, count_paths, distance, distances_within
from coxaut.cycles import enumerate_embedded_cycles
from coxaut.system import parse_system
from coxaut.words import LimitExceeded, format_word, parse_word, reduce_by_rewriting, reduce_word

from conftest import DIAGRAMS, RANK3, ball_words, make_system, random_systems, star, vertex_of
from payloads import ball_payload, run_json

FRONTIER = sorted((Path(__file__).resolve().parent.parent / "diagrams" / "frontier").glob("*.cox"))


def vid(ball, text):
    return vertex_of(ball, parse_word(ball.system, text))


def invariant_balls():
    """Every shipped and frontier diagram at each r <= 6 (free10 at r <= 3) and
    the rank-3 diagrams at r = 5: verify leaves these ball invariants to the builder."""
    for path in DIAGRAMS + FRONTIER:
        system = parse_system(path.read_text())
        for radius in range(4 if path.stem == "free10" else 7):
            yield build_ball(system, radius)
    for system in RANK3:
        yield build_ball(system, 5)


def reference_ball(system, radius):
    """build_ball's (adj, last, length) by a plain BFS that finds each v·s by
    the rewriting oracle: vertices in order of first reach, frontier in id
    order, generators in index order."""
    index, words, adj = {(): 0}, [()], []
    for word in words:  # grows as the search reaches new vertices
        for s in system.generators():
            w = reduce_by_rewriting(system, word + (s,))
            if w not in index and len(w) <= radius:
                index[w] = len(words)
                words.append(w)
            adj.append(index.get(w, -1))
    return adj, [w[-1] if w else -1 for w in words], [len(w) for w in words]


# the largest radius of each reference BFS, about 0.2 s of rewriting at most
REFERENCE_RADIUS = {"flexible5": 6, "odd-pivot": 6, "free10": 3, "triangle578": 9}


class TestBuild:
    @pytest.mark.parametrize("path", DIAGRAMS + FRONTIER, ids=lambda p: p.stem)
    def test_matches_reference_bfs(self, path):
        # every smaller ball is the id prefix of length <= r, cut off at its boundary
        system = parse_system(path.read_text())
        top = REFERENCE_RADIUS.get(path.stem, 8)
        adj, last, length = reference_ball(system, top)
        for radius in range(top + 1):
            n = sum(1 for x in length if x <= radius)
            cut = [u if u < n else -1 for u in adj[: n * system.rank]]
            ball = build_ball(system, radius)
            assert (ball.adj, ball.last, ball.length) == (cut, last[:n], length[:n]), radius

    def test_a2_hexagon(self, a2):
        ball = build_ball(a2, 3)
        assert ball.size == 6
        assert len(ball.edges) == 6
        assert ball.complete

    def test_radius_zero(self, a3):
        ball = build_ball(a3, 0)
        assert ball.size == 1
        assert not ball.edges
        assert ball.word(0) == ()

    def test_branched_radius_two(self, branched):
        ball = build_ball(branched, 2)
        words = {ball.system.names[x] for w in ball_words(ball) for x in w}
        assert ball.size == 9  # e, s, t, u, st, su, ts, us, tu (=ut)
        assert words == {"s", "t", "u"}
        # t u = u t: both spellings, walked from e, reach the vertex of the canonical word
        assert star(ball, star(ball, 0)[2])[1] == star(ball, star(ball, 0)[1])[2] == ball_words(ball).index((1, 2))

    def test_deterministic_prefix(self, a3):
        small, large = build_ball(a3, 2), build_ball(a3, 4)
        assert ball_words(large)[: small.size] == ball_words(small)

    def test_bfs_order_is_by_length_then_lex(self, branched):
        ball = build_ball(branched, 2)
        lengths = [len(w) for w in ball_words(ball)]
        assert lengths == sorted(lengths)
        assert ball_words(ball)[1:4] == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("r,expected", [(0, 1), (1, 4), (2, 9), (3, 15), (4, 20), (6, 24)])
    def test_a3_layer_counts(self, a3, r, expected):
        assert build_ball(a3, r).size == expected

    def test_complete_flags(self, a3, atilde2):
        assert not build_ball(a3, 5).complete
        assert build_ball(a3, 6).complete
        assert not build_ball(atilde2, 6).complete

    def test_vertex_count_matches_exhaustive_reduce(self, a2, cube, branched):
        for system, radius in [(a2, 4), (cube, 4), (branched, 4)]:
            elements = set()
            for length in range(radius + 1):
                for word in product(system.generators(), repeat=length):
                    canonical = reduce_word(system, word)
                    if len(canonical) <= radius:
                        elements.add(canonical)
            assert build_ball(system, radius).size == len(elements)

    def test_bipartite_and_interior_degree(self):
        for ball in invariant_balls():
            for u in range(ball.size):
                for s, v in star(ball, u).items():
                    assert star(ball, v)[s] == u
                    assert abs(ball.length[u] - ball.length[v]) == 1
            for v in ball.interior(ball.radius - 1):
                assert len(star(ball, v)) == ball.system.rank
            m = ball.system.max_finite_order()
            cycles = enumerate_embedded_cycles(ball, (2 * m if m is not None else 6) + 1)
            assert all(len(c) % 2 == 0 for c in cycles), (ball.system, ball.radius)

    def test_vertex_guard(self, atilde2):
        with pytest.raises(LimitExceeded):
            build_ball(atilde2, 5, max_vertices=10)

    def test_negative_radius(self, a2):
        with pytest.raises(ValueError):
            build_ball(a2, -1)

    def test_edge_labels_consistent(self, a3):
        ball = build_ball(a3, 3)
        for u, v, s in ball.edges:
            assert star(ball, u)[s] == v
            assert star(ball, v)[s] == u


class TestQueries:
    def test_distance(self, a2, branched):
        hexagon = build_ball(a2, 3)
        assert distance(hexagon, 0, 0) == 0
        assert distance(hexagon, 0, vid(hexagon, "a b a")) == 3
        ball = build_ball(branched, 2)
        assert distance(ball, 0, vid(ball, "t u")) == 2

    def test_distance_equals_word_length(self):
        for ball in invariant_balls():
            assert distances_within(ball, 0, ball.size) == {v: ball.length[v] for v in range(ball.size)}

    def test_count_paths_degenerate(self, a2):
        ball = build_ball(a2, 2)
        assert count_paths(ball, 0, 0, 0) == 1
        assert count_paths(ball, 0, 1, 0) == 0

    def test_count_paths_hexagon_antipodes(self, a2):
        ball = build_ball(a2, 3)
        assert count_paths(ball, 0, vid(ball, "a b a"), 3) == 2

    def test_count_paths_cube_diagonal(self, cube):
        ball = build_ball(cube, 3)
        assert count_paths(ball, 0, vid(ball, "a b c"), 3) == 6

    def test_count_paths_excludes_repeats(self, a2):
        ball = build_ball(a2, 3)
        # walks of length 2 from e back to e exist, simple paths do not
        assert count_paths(ball, 0, 0, 2) == 0

    def test_count_paths_deeper_than_the_recursion_limit(self, free2):
        # the search keeps its path on an explicit stack
        ball = build_ball(free2, 1500)
        assert count_paths(ball, 0, vid(ball, "a b " * 750), 1500) == 1


class TestExports:
    def test_json_shape(self, a2):
        code, out = run_json(a2, ["ball", "--radius", "2"])
        payload = json.loads(out)
        assert code == 0 and payload == ball_payload(build_ball(a2, 2))
        assert payload["radius"] == 2
        assert payload["vertices"][0] == {"id": 0, "word": "e"}
        assert all(len(edge) == 3 for edge in payload["edges"])
        assert payload["edges"] == sorted(payload["edges"])

    def test_dot_output(self, a2):
        dot = build_ball(a2, 1).to_dot()
        assert dot.startswith("graph")
        assert 'label="a"' in dot
        assert "v0 -- v1" in dot

    def test_dot_labels_round_trip(self):
        # a name is any non-blank token, so a label may hold a quote or a backslash
        system = make_system('a"b c\\ \\"d', (0, 1, 3))
        ball = build_ball(system, 2)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        dot = ball.to_dot()
        vertices = re.findall(rf"^  v(\d+) \[label={quoted}\];$", dot, re.M)
        edges = re.findall(rf"^  v(\d+) -- v(\d+) \[label={quoted}\];$", dot, re.M)
        assert len(dot.splitlines()) == 2 + len(vertices) + len(edges)

        def unquote(text):
            return re.sub(r"\\(.)", r"\1", text)

        assert [unquote(text) for _, text in vertices] == ball.texts
        assert [(int(u), int(v), unquote(name)) for u, v, name in edges] == [
            (u, v, system.name_of(s)) for u, v, s in ball.edges
        ]

    @pytest.mark.parametrize("path", DIAGRAMS + FRONTIER, ids=lambda p: p.stem)
    def test_texts_are_formatted_words(self, path):
        system = parse_system(path.read_text())
        for radius in range(4 if path.stem == "free10" else 7):
            ball = build_ball(system, radius)
            assert ball.texts == [format_word(system, w) for w in ball_words(ball)]

    def test_texts_on_rank3_diagrams(self):
        for system in RANK3:
            ball = build_ball(system, 5)
            assert ball.texts == [format_word(system, w) for w in ball_words(ball)]


def assert_tables_match_definitions(ball):
    """interior, star_interior, letter_counts and neighbors against their definitions, read off adj and words."""
    n, rank = ball.size, ball.system.rank
    words = ball_words(ball)
    length = [len(w) for w in words]
    for s in range(rank):
        assert ball.letter_counts(s) == [w.count(s) for w in words]
        assert ball.letter_counts(s) is ball.letter_counts(s)  # memoized
    for u in range(n):
        assert ball.neighbors[u] == sorted(star(ball, u).values())
    for r in range(-1, ball.radius + 2):
        assert list(ball.interior(r)) == [v for v in range(n) if length[v] <= r]
        full_stars = [
            v
            for v in range(n)
            if length[v] <= r and len(star(ball, v)) == rank and all(length[u] <= r for u in star(ball, v).values())
        ]
        assert ball.star_interior(r) == tuple(full_stars)
        assert ball.star_interior(r) is ball.star_interior(r)  # memoized


def assert_non_tree_edges_match(ball):
    """non_tree_edges is the edge list less each vertex's edge to its BFS parent,
    the neighbour one layer down along the last letter of its canonical word."""
    tree = set()
    for v in range(1, ball.size):
        s = ball.word(v)[-1]
        tree.add((star(ball, v)[s], v, s))
    assert ball.non_tree_edges == [e for e in ball.edges if e not in tree]
    assert len(ball.non_tree_edges) == len(ball.edges) - (ball.size - 1)


class TestTables:
    @pytest.mark.parametrize("path", DIAGRAMS + FRONTIER, ids=lambda p: p.stem)
    def test_non_tree_edges(self, path):
        system = parse_system(path.read_text())
        for radius in range(4 if path.stem == "free10" else 7):
            ball = build_ball(system, radius)
            assert_non_tree_edges_match(ball)
            if system.max_finite_order() is None:  # the Cayley graph is a tree
                assert ball.non_tree_edges == []

    @given(random_systems(finite_orders=(2, 3, 4, 5, 6)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_non_tree_edges_on_random_diagrams(self, system):
        assert_non_tree_edges_match(build_ball(system, 4))

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_edges_from_id_ranges(self, path):
        # every edge once with u < v, sorted; cut into id ranges at any step
        ball = build_ball(parse_system(path.read_text()), 5)
        assert ball.edges == sorted((u, v, s) for u in range(ball.size) for s, v in star(ball, u).items() if u < v)
        for step in (1, 2, 7, ball.size):
            assert [e for a in range(0, ball.size, step) for e in ball.edges_from(a, a + step)] == ball.edges
        assert ball.edges_from(ball.size, ball.size + 5) == ball.edges_from(3, 3) == []

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_diagrams(self, path):
        system = parse_system(path.read_text())
        for radius in range(7):
            assert_tables_match_definitions(build_ball(system, radius))

    @given(random_systems())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_diagrams(self, system):
        assert_tables_match_definitions(build_ball(system, 3))

    def test_json_export_builds_no_label_table(self, atilde2, monkeypatch):
        # ball --format json must not pay for a per-vertex table or the whole
        # edge list
        balls = []
        monkeypatch.setattr(cli, "build_ball", lambda *args, **kwargs: balls.append(build_ball(*args, **kwargs)) or balls[-1])
        assert run_json(atilde2, ["ball", "--radius", "4"])[0] == 0
        (ball,) = balls
        assert "rows" not in vars(ball) and "neighbors" not in vars(ball) and "edges" not in vars(ball)
        ball.to_dot()
        assert "rows" not in vars(ball) and "neighbors" not in vars(ball)

    def test_neighbors_keep_no_rows(self, atilde2):
        ball = build_ball(atilde2, 4)
        assert ball.neighbors and "rows" not in vars(ball)

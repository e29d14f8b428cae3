"""Root-system keys against the m-operation rewriting engine.

reduce_word, m_class_size and build_ball use integer root-system keys
whenever every finite order is in {2, 3, 4, 6}.  The rewriting engine is
the reference here: random diagrams with orders in {2, 3, 4, 6, inf} and
every shipped diagram must give the same canonical forms, m-class sizes
and balls both ways.
"""

import pytest
from hypothesis import given, settings, strategies as st

from coxaut.ball import build_ball
from coxaut.system import parse_system
from coxaut.words import LimitExceeded, m_class, m_class_size, reduce_by_rewriting, reduce_word

from conftest import DIAGRAMS, crystallographic_systems, make_system


@st.composite
def system_and_word(draw, max_len=10):
    system = draw(crystallographic_systems())
    word = tuple(draw(st.lists(st.integers(0, system.rank - 1), max_size=max_len)))
    return system, word


def rewriting_ball(system, radius):
    """Reference BFS: every product reduced by rewriting, vertices told apart by canonical word."""
    words = [()]
    index = {(): 0}
    adj = [{}]
    frontier = [0]
    for layer in range(1, radius + 1):
        next_frontier = []
        for v in frontier:
            for s in system.generators():
                target = reduce_by_rewriting(system, words[v] + (s,))
                if target not in index:
                    assert len(target) == layer
                    index[target] = len(words)
                    words.append(target)
                    adj.append({})
                    next_frontier.append(index[target])
                u = index[target]
                adj[v][s] = u
                adj[u][s] = v
        frontier = next_frontier
    return words, adj


def assert_same_ball(system, radius):
    ball = build_ball(system, radius)
    words, adj = rewriting_ball(system, radius)
    assert ball.words == words
    assert ball.adj == adj
    assert ball.index == {w: i for i, w in enumerate(words)}


class TestReduce:
    @given(system_and_word())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_rewriting(self, pair):
        system, word = pair
        assert system.cartan is not None
        canonical = reduce_word(system, word)
        assert not system._reduce_cache  # the key path memoizes nothing
        assert canonical == reduce_by_rewriting(system, word)

    def test_keys_ignore_the_closure_guard(self, atilde2):
        word = (0, 1, 0, 2, 1, 0, 1, 2, 0, 1)
        assert reduce_word(atilde2, word, max_states=1) == reduce_by_rewriting(atilde2, word)


class TestMClassSize:
    @given(system_and_word())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_enumeration(self, pair):
        system, word = pair
        canonical = reduce_word(system, word)
        assert m_class_size(system, canonical) == len(m_class(system, canonical))

    def test_two_blocks_without_enumeration(self):
        # two blocks of four commuting generators, infinite order between
        # blocks: (4!)^4 reduced words, counted over 1 + 4 * 15 elements
        # (peel a nonempty subset of the leading block, four times)
        system = make_system(
            "a b c d e f g h",
            *[(s, t, 2) for block in ((0, 1, 2, 3), (4, 5, 6, 7)) for s in block for t in block if s < t],
        )
        word = tuple(range(8)) * 2
        assert reduce_word(system, word) == word
        assert m_class_size(system, word, max_states=61) == 331_776
        with pytest.raises(LimitExceeded):
            m_class_size(system, word, max_states=60)

    def test_fallback_enumerates(self):
        system = make_system("a b", (0, 1, 5))
        assert m_class_size(system, (0, 1, 0, 1, 0)) == 2
        with pytest.raises(LimitExceeded):
            m_class_size(system, (0, 1, 0, 1, 0), max_states=1)


class TestBall:
    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_diagrams_match_rewriting(self, path):
        system = parse_system(path.read_text())
        assert system.cartan is not None
        assert_same_ball(system, 6)

    @given(crystallographic_systems(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_diagrams_match_rewriting(self, system, radius):
        assert_same_ball(system, radius)

    def test_bfs_invariant_can_fail(self):
        # A wrong Cartan matrix: rho -> (-2) -> (4), a new key reached through a descent.
        system = make_system("a")
        system.cartan = ((3,),)
        with pytest.raises(AssertionError):
            build_ball(system, 2)


class TestFallback:
    """Orders outside {2, 3, 4, 6} have no integer Cartan matrix and keep rewriting."""

    def test_i2_5(self):
        system = make_system("a b", (0, 1, 5))
        assert system.cartan is None
        ball = build_ball(system, 5)
        assert ball.size == 10
        assert ball.complete
        assert system._reduce_cache  # ball and reduce went through rewriting
        assert reduce_word(system, (1, 0, 1, 0, 1)) == (0, 1, 0, 1, 0)
        assert reduce_word(system, (0, 1) * 5) == ()
        assert_same_ball(system, 5)

    def test_guard_applies(self):
        system = make_system("a b", (0, 1, 5))
        with pytest.raises(LimitExceeded):
            reduce_word(system, (0, 1, 0, 1, 0, 0), max_states=1)

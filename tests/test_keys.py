"""Root-system keys and relator-walk balls against the m-operation rewriting engine.

reduce_word and m_class_size use integer root-system keys whenever every
finite order is in {2, 3, 4, 6}; build_ball walks relator cycles on every
diagram and never calls the word engine.  The rewriting engine is the
reference here: random diagrams, every shipped diagram and every rank-3
diagram must give the same canonical forms, m-class sizes and balls both
ways.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxaut.ball import build_ball
from coxaut.system import parse_system
from coxaut.words import (
    LimitExceeded,
    m_class,
    m_class_size,
    reduce_by_rewriting,
    reduce_word,
)

from conftest import DIAGRAMS, RANK3, ball_words, crystallographic_systems, make_system, random_systems, star, vertex_of

FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))

FLEXIBLE5 = Path(__file__).resolve().parent.parent / "diagrams" / "frontier" / "flexible5.cox"


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
    assert ball_words(ball) == words
    assert [star(ball, v) for v in range(ball.size)] == adj
    assert [vertex_of(ball, w) for w in words] == list(range(len(words)))


class TestReduce:
    @given(system_and_word())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_rewriting(self, pair):
        system, word = pair
        assert system.cartan is not None
        canonical = reduce_word(system, word)
        assert not system._reduce_cache  # the key path memoizes nothing
        assert canonical == reduce_by_rewriting(system, word)

    @given(system_and_word(max_len=8), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_m_class_spellings_match_rewriting(self, pair, data):
        # every reduced spelling of an element, and each with a cancelling pair inserted
        system, word = pair
        canonical = reduce_by_rewriting(system, word)
        s = data.draw(st.integers(0, system.rank - 1))
        for spelling in sorted(m_class(system, canonical)):
            assert reduce_word(system, spelling) == canonical
            assert reduce_word(system, spelling[:1] + (s, s) + spelling[1:]) == canonical

    def test_fallback_words_match_rewriting(self):
        # no Cartan matrix: every word of I2(5) up to length 6, past its longest element
        system = make_system("a b", (0, 1, 5))
        assert system.cartan is None
        for length in range(7):
            for word in product(system.generators(), repeat=length):
                assert reduce_word(system, word) == reduce_by_rewriting(system, word)

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
            "a b c d f g h i",
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

    @given(random_systems(4, finite_orders=(2, 3, 4, 5, 6, 7, 8, 10, 12)), st.integers(0, 5))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_orders_match_rewriting(self, system, radius):
        assert_same_ball(system, radius)

    @pytest.mark.parametrize("path", FRONTIER, ids=lambda p: p.stem)
    def test_frontier_diagrams_match_rewriting(self, path):
        # orders 5, 7 and 8: relator walks go m - 1 layers down and up, and a
        # walk may reach a parent that is not yet expanded; free10 has no walk
        system = parse_system(path.read_text())
        for radius in range(8 if system.max_finite_order() else 4):
            assert_same_ball(system, radius)

    @given(random_systems(3, finite_orders=(3, 4, 5, 6, 7, 8)), st.integers(5, 7))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_deep_walks_match_rewriting(self, system, radius):
        assert_same_ball(system, radius)

    def test_rank3_diagrams_match_rewriting(self):
        for system in RANK3:
            assert_same_ball(system, 6)

    @given(random_systems(4, finite_orders=(2, 3, 4, 5, 6, 7, 8)), st.integers(0, 5))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_flat_arrays_match_rewriting(self, system, radius):
        """The flat adj, last and length arrays read entry by entry against the rewriting oracle."""
        ball = build_ball(system, radius)
        rank, adj = ball.rank, ball.adj
        words = ball_words(ball)
        assert len(adj) == rank * ball.size
        for v, word in enumerate(words):
            # the canonical form, and the lex-least of the element's reduced words
            assert reduce_by_rewriting(system, word) == word
            assert word == min(m_class(system, word))
            assert ball.length[v] == len(word)
            assert ball.last[v] == (word[-1] if word else -1)
        # ids in (length, lex) order
        keys = [(len(w), w) for w in words]
        assert keys == sorted(set(keys))
        index = {w: v for v, w in enumerate(words)}
        for v, word in enumerate(words):
            for s in range(rank):
                target = reduce_by_rewriting(system, word + (s,))
                u = adj[v * rank + s]
                if len(target) > radius:
                    assert u == -1
                else:
                    assert u == index[target]
                    assert adj[u * rank + s] == v

    def test_never_uses_the_word_engine(self):
        # a wrong Cartan matrix changes nothing: the ball reads only the diagram
        system = make_system("a")
        system.cartan = ((3,),)
        ball = build_ball(system, 2)
        assert ball_words(ball) == [(), (0,)]
        assert ball.complete
        # an order 5 leaves no Cartan matrix, and still no word is reduced
        system = parse_system(FLEXIBLE5.read_text())
        assert system.cartan is None
        build_ball(system, 8)
        assert not system._reduce_cache


class TestFallback:
    """Orders outside {2, 3, 4, 6} have no integer Cartan matrix: reduce keeps rewriting."""

    def test_i2_5(self):
        system = make_system("a b", (0, 1, 5))
        assert system.cartan is None
        ball = build_ball(system, 5)
        assert ball.size == 10
        assert ball.complete
        assert not system._reduce_cache  # the ball reduced no word
        assert reduce_word(system, (1, 0, 1, 0, 1)) == (0, 1, 0, 1, 0)
        assert reduce_word(system, (0, 1) * 5) == ()
        assert system._reduce_cache  # reduce went through rewriting
        assert_same_ball(system, 5)

    def test_guard_applies(self):
        system = make_system("a b", (0, 1, 5))
        with pytest.raises(LimitExceeded):
            reduce_word(system, (0, 1, 0, 1, 0, 0), max_states=1)

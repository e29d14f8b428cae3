from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coxaut.words import (
    LimitExceeded,
    apply_m_operation,
    format_word,
    inverse_word,
    m_class,
    m_class_size,
    m_closure,
    multiply,
    parse_word,
    reduce_word,
)

from conftest import make_system


class TestMOperation:
    def test_braid(self, a2):
        assert apply_m_operation(a2, (0, 1, 0), 0, 0, 1) == (1, 0, 1)

    def test_commuting_swap(self, branched):
        assert apply_m_operation(branched, (1, 2), 0, 1, 2) == (2, 1)

    def test_interior_position(self, a2):
        # abab with the segment bab at position 1 replaced by aba
        assert apply_m_operation(a2, (0, 1, 0, 1), 1, 1, 0) == (0, 0, 1, 0)

    def test_rejects(self, a2, free2):
        with pytest.raises(ValueError):
            apply_m_operation(a2, (0, 1, 0), 1, 0, 1)  # does not fit
        with pytest.raises(ValueError):
            apply_m_operation(a2, (0, 1, 1), 0, 0, 1)  # segment mismatch
        with pytest.raises(ValueError):
            apply_m_operation(free2, (0, 1), 0, 0, 1)  # infinite order
        with pytest.raises(ValueError):
            apply_m_operation(a2, (0, 0, 0), 0, 0, 0)  # equal generators


class TestClosureAndReducedness:
    def test_m_class_braid(self, a2):
        assert m_class(a2, (0, 1, 0)) == {(0, 1, 0), (1, 0, 1)}

    def test_m_class_empty(self, a2):
        assert m_class(a2, ()) == {()}

    def test_m_class_commuting(self, branched):
        assert m_class(branched, (1, 2)) == {(1, 2), (2, 1)}

    def test_m_class_rejects_unreduced(self, a2):
        with pytest.raises(ValueError):
            m_class(a2, (0, 0))

    def test_closure_allows_unreduced(self, a2):
        closure = m_closure(a2, (0, 1, 0, 1))
        assert (0, 0, 1, 0) in closure  # one braid move away

    def test_is_reduced(self, a2):
        # a word is reduced when it spells an element of its own length
        assert len(reduce_word(a2, (0, 1, 0))) == 3
        assert len(reduce_word(a2, (0, 1, 0, 1))) < 4  # braid move exposes a repeat
        assert len(reduce_word(a2, (0, 0))) < 2
        assert reduce_word(a2, ()) == ()

    def test_closure_guard(self, atilde2):
        with pytest.raises(LimitExceeded):
            m_closure(atilde2, (0, 1, 0, 2, 1, 0, 1, 2, 0, 1), max_states=3)


class TestReduce:
    def test_examples(self, a2, branched):
        assert reduce_word(a2, (0, 0)) == ()
        assert reduce_word(a2, (0, 1, 0, 1)) == (1, 0)
        assert reduce_word(branched, (1, 2, 1)) == (2,)  # tut -> utt -> u

    def test_canonical_is_lex_least(self, a2):
        assert reduce_word(a2, (1, 0, 1)) == (0, 1, 0)

    def test_idempotent(self, a3):
        word = (0, 1, 2, 1, 0, 1)
        once = reduce_word(a3, word)
        assert reduce_word(a3, once) == once

    def test_memo_survives_repeats(self, a3):
        assert reduce_word(a3, (0, 1, 0, 1)) == reduce_word(a3, (0, 1, 0, 1))

    def test_words_equal(self, a2):
        assert reduce_word(a2, (0, 1, 0)) == reduce_word(a2, (1, 0, 1))
        assert reduce_word(a2, ()) == reduce_word(a2, (0, 0))
        assert reduce_word(a2, (0,)) != reduce_word(a2, (1,))

    def test_word_length(self, a2):
        assert len(reduce_word(a2, (0, 1, 0, 1))) == 2

    def test_multiply(self, a2, branched):
        assert multiply(a2, (), (0,)) == (0,)
        assert multiply(a2, (0,), (0,)) == ()
        assert multiply(branched, (2, 1), (2,)) == (1,)  # utu = t

    def test_inverse_word(self, a3):
        word = (0, 1, 2)
        assert multiply(a3, word, inverse_word(word)) == ()

    def test_order_longer_than_the_word(self):
        # no m-operation of a pair with m > len(word) fits, so m(a, b) = 10**12
        # acts on words this short as if (a, b) had infinite order
        huge = make_system("a b c", (0, 1, 10**12), (1, 2, 5))
        free_ab = make_system("a b c", (1, 2, 5))
        for length in range(6):
            for word in product(range(3), repeat=length):
                canonical = reduce_word(huge, word)
                assert canonical == reduce_word(free_ab, word)
                assert m_class_size(huge, canonical) == m_class_size(free_ab, canonical)


class TestWordText:
    def test_round_trip(self, branched):
        assert parse_word(branched, "s t u t") == (0, 1, 2, 1)
        assert format_word(branched, (0, 1, 2, 1)) == "s t u t"

    def test_empty_spellings(self, branched):
        assert parse_word(branched, "e") == ()
        assert parse_word(branched, "") == ()
        assert parse_word(branched, "  ") == ()
        assert format_word(branched, ()) == "e"

    def test_unknown_name(self, a2):
        with pytest.raises(Exception):
            parse_word(a2, "a q")


SYSTEMS = [
    make_system("a b", (0, 1, 3)),
    make_system("a b c", (0, 1, 3), (1, 2, 3), (0, 2, 2)),
    make_system("s t u", (1, 2, 2)),
    make_system("a b"),
]


@st.composite
def system_and_word(draw, max_len=8):
    system = draw(st.sampled_from(SYSTEMS))
    word = tuple(draw(st.lists(st.integers(0, system.rank - 1), max_size=max_len)))
    return system, word


class TestProperties:
    @given(system_and_word())
    @settings(max_examples=200, deadline=None)
    def test_reduce_shortens_and_preserves_parity(self, pair):
        system, word = pair
        canonical = reduce_word(system, word)
        assert len(canonical) <= len(word)
        assert len(canonical) % 2 == len(word) % 2

    @given(system_and_word(), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_multiply_is_involutive_per_generator(self, pair, s):
        system, word = pair
        s = s % system.rank
        once = multiply(system, word, (s,))
        assert abs(len(once) - len(reduce_word(system, word))) == 1
        assert multiply(system, once, (s,)) == reduce_word(system, word)

    @given(system_and_word())
    @settings(max_examples=100, deadline=None)
    def test_m_class_members_are_equal_and_equal_length(self, pair):
        system, word = pair
        canonical = reduce_word(system, word)
        for member in m_class(system, canonical):
            assert len(member) == len(canonical)
            assert reduce_word(system, member) == canonical

    @given(system_and_word())
    @settings(max_examples=100, deadline=None)
    def test_appending_ss_preserves_element(self, pair):
        system, word = pair
        for s in system.generators():
            assert reduce_word(system, word) == reduce_word(system, word + (s, s))

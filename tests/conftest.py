from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import strategies as st

from coxaut.system import CoxeterSystem
from coxaut.words import reduce_word

DIAGRAMS = sorted((Path(__file__).resolve().parent.parent / "diagrams").glob("*.cox"))


def star(ball, v: int) -> dict[int, int]:
    """{s: v·s} for every generator s whose edge at v lies in the ball, read off the flat adj."""
    rank = ball.rank
    return {s: u for s, u in enumerate(ball.adj[v * rank : (v + 1) * rank]) if u >= 0}


def label(ball, u: int, v: int) -> int | None:
    """The label of the edge between u and v; None when they are not adjacent."""
    for s, w in star(ball, u).items():
        if w == v:
            return s
    return None


def vertex_of(ball, word) -> int | None:
    """The vertex of the element that word spells, in any spelling: its canonical
    word walked from the identity; None outside the ball."""
    canonical = reduce_word(ball.system, word)
    if len(canonical) > ball.radius:
        return None
    v = 0
    for s in canonical:
        v = ball.adj[v * ball.rank + s]
    return v


def ball_words(ball) -> list[tuple[int, ...]]:
    """Every vertex's canonical word, in id order."""
    return [ball.word(v) for v in range(ball.size)]


def make_system(names: str, *pairs) -> CoxeterSystem:
    """Build a system from 'a b c' plus (i, j, m) triples."""
    name_list = names.split()
    return CoxeterSystem(name_list, {(i, j): m for i, j, m in pairs})


@st.composite
def random_systems(draw, max_rank=4, finite_orders=(2, 3, 4, 6)):
    """Random diagrams of rank <= max_rank with every finite order in finite_orders."""
    rank = draw(st.integers(1, max_rank))
    orders = {}
    for s in range(rank):
        for t in range(s + 1, rank):
            m = draw(st.sampled_from((*finite_orders, None)))
            if m is not None:
                orders[(s, t)] = m
    return CoxeterSystem([f"g{i}" for i in range(rank)], orders)


def crystallographic_systems(max_rank=4):
    """Random diagrams of rank <= max_rank with every finite order in {2, 3, 4, 6}."""
    return random_systems(max_rank)


# Every rank-3 diagram with orders in {2, 3, 4, 5, 6, inf} up to relabelling
# (56): relabelling permutes the three pairs freely, so a diagram is a
# multiset of three orders.
RANK3 = [
    make_system("a b c", *((s, t, m) for (s, t), m in zip(((0, 1), (0, 2), (1, 2)), ms) if m is not None))
    for ms in combinations_with_replacement((2, 3, 4, 5, 6, None), 3)
]


@pytest.fixture(scope="session")
def a2():
    return make_system("a b", (0, 1, 3))


@pytest.fixture(scope="session")
def a3():
    return make_system("a b c", (0, 1, 3), (1, 2, 3), (0, 2, 2))


@pytest.fixture(scope="session")
def b2():
    return make_system("a b", (0, 1, 4))


@pytest.fixture(scope="session")
def atilde2():
    return make_system("a b c", (0, 1, 3), (1, 2, 3), (0, 2, 3))


@pytest.fixture(scope="session")
def cube():
    return make_system("a b c", (0, 1, 2), (1, 2, 2), (0, 2, 2))


@pytest.fixture(scope="session")
def free2():
    return make_system("a b")


@pytest.fixture(scope="session")
def branched():
    """Free product of C2 (pivot s) with C2 x C2 (commuting t, u); flexible."""
    return make_system("s t u", (1, 2, 2))

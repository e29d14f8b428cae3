import random

import pytest
from hypothesis import given, settings, strategies as st

from coxaut.automorphisms import (
    BallAutomorphism,
    FactoredAutomorphism,
    coupling_violations,
    decompose,
    diagram_aut,
    identity_stabilizer_census,
    left_mult,
    local_permutation_field,
    local_permutations,
    pivot_field,
    psi_n,
    psi_phi,
    verify_ball_automorphism,
    walked_map,
)
from coxaut.ball import build_ball
from coxaut.system import (
    CoxeterSystem,
    FlexibilityWitness,
    enumerate_diagram_automorphisms,
    is_flexible,
    parse_system,
)
from coxaut.words import LimitExceeded, parse_word, reduce_by_rewriting, reduce_word

import map_checks
from conftest import DIAGRAMS, RANK3, ball_words, make_system, star, vertex_of
from psi_words import psi_n_word, psi_phi_word


def vid(ball, text):
    return vertex_of(ball, parse_word(ball.system, text))


FRONTIER = sorted(DIAGRAMS[0].parent.glob("frontier/*.cox"))
FLEXIBLE = [
    (name, system)
    for name, system in [(p.stem, parse_system(p.read_text())) for p in DIAGRAMS + FRONTIER]
    + [(f"rank3-{i}", system) for i, system in enumerate(RANK3)]
    if is_flexible(system) is not None
]


@pytest.fixture(scope="module")
def branched_witness(branched):
    witness = is_flexible(branched)
    assert witness is not None
    return witness


class TestLeftMult:
    def test_identity_word(self, a2):
        ball = build_ball(a2, 3)
        aut = left_mult(ball, ())
        assert aut.vmap == tuple(range(ball.size))
        assert aut.interior_radius == 3

    def test_translation_on_hexagon(self, a2):
        ball = build_ball(a2, 3)
        aut = left_mult(ball, parse_word(a2, "a"))
        assert aut.vmap[vid(ball, "e")] == vid(ball, "a")
        assert aut.vmap[vid(ball, "b a")] == vid(ball, "a b a")
        assert None not in aut.vmap
        assert verify_ball_automorphism(ball, aut).ok

    def test_interior_shrinks_on_incomplete_ball(self, branched):
        ball = build_ball(branched, 3)
        aut = left_mult(ball, parse_word(branched, "s"))
        assert aut.interior_radius == 2
        assert None in aut.vmap  # boundary words push outside
        assert verify_ball_automorphism(ball, aut).ok

    def test_complete_ball_keeps_full_interior(self, a3):
        ball = build_ball(a3, 6)
        aut = left_mult(ball, parse_word(a3, "a b"))
        assert aut.interior_radius == 6
        assert None not in aut.vmap

    def test_multiplier_longer_than_radius(self, a2):
        ball = build_ball(a2, 1)
        with pytest.raises(ValueError):
            left_mult(ball, parse_word(a2, "a b"))

    def test_multiplier_is_reduced_first(self, a2):
        ball = build_ball(a2, 1)
        aut = left_mult(ball, parse_word(a2, "a a b b"))  # reduces to e
        assert aut.vmap == tuple(range(ball.size))


class TestDiagramAut:
    def test_swap_on_branched(self, branched):
        ball = build_ball(branched, 3)
        d = (0, 2, 1)
        aut = diagram_aut(ball, d)
        assert aut.vmap[vid(ball, "t")] == vid(ball, "u")
        assert aut.vmap[vid(ball, "s t")] == vid(ball, "s u")
        assert None not in aut.vmap
        assert aut.interior_radius == ball.radius
        assert verify_ball_automorphism(ball, aut).ok

    def test_reversal_on_a3(self, a3):
        ball = build_ball(a3, 4)
        aut = diagram_aut(ball, (2, 1, 0))
        assert aut.vmap[vid(ball, "a b")] == vid(ball, "c b")
        assert verify_ball_automorphism(ball, aut).ok


class TestFactored:
    """The (word, d) pair arithmetic of map_checks, the oracle for to_ball."""

    def test_act(self, a3):
        f = (parse_word(a3, "a"), (2, 1, 0))
        assert map_checks.act(a3, f, parse_word(a3, "c")) == ()  # a * rev(c) = a a = e
        assert map_checks.act(a3, f, parse_word(a3, "b")) == parse_word(a3, "a b")

    def test_identity_element(self, a3):
        e = ((), tuple(a3.generators()))
        assert map_checks.is_identity(e)
        w = parse_word(a3, "a b c")
        assert map_checks.act(a3, e, w) == reduce_word(a3, w)

    def test_composition_law(self, branched):
        swap = (0, 2, 1)
        f = (parse_word(branched, "s"), swap)
        g = (parse_word(branched, "t"), tuple(branched.generators()))
        assert map_checks.compose(branched, f, g) == (parse_word(branched, "s u"), swap)  # s * swap(t)
        assert map_checks.compose(branched, g, f) == (parse_word(branched, "t s"), swap)

    def test_word_only_composition_multiplies(self, a2):
        ident = tuple(a2.generators())
        f = (parse_word(a2, "a"), ident)
        g = (parse_word(a2, "b a"), ident)
        assert map_checks.compose(a2, f, g)[0] == parse_word(a2, "a b a")

    def test_inverse(self, a3):
        f = (parse_word(a3, "a b"), (2, 1, 0))
        assert map_checks.is_identity(map_checks.compose(a3, f, map_checks.inverse(a3, f)))
        assert map_checks.is_identity(map_checks.compose(a3, map_checks.inverse(a3, f), f))

    @pytest.mark.parametrize("radius", [4, 6, "no-cartan"])
    @pytest.mark.parametrize("constructor", ["left_mult", "diagram_aut", "psi_phi", "psi_n", "to_ball"])
    def test_to_ball_matches_pointwise_action(self, constructor, radius, a3, branched):
        # reference: reduce f(x) by rewriting and look it up among the ball's
        # words, independent of keys.  The a3 ball is complete at radius 6;
        # the psi maps need a flexible diagram, whose balls are proper.  The
        # no-cartan diagrams have an order 5, so their keys are words: I2(5)
        # is complete at radius 5, and the flexible one (pivot t, phi
        # swapping u and v) is proper at radius 4.  Its pivot has order 5
        # with s, so psi_n is undefined there; psi_n is tested on a diagram
        # whose pivot s has no diagram neighbour (phi swapping t and u).
        if radius == "no-cartan":
            rigid, rigid_radius = make_system("a b", (0, 1, 5)), 5
            flexible, flexible_radius = make_system("s t u v", (0, 1, 5), (0, 2, 2), (0, 3, 2)), 4
            if constructor == "psi_n":
                with pytest.raises(ValueError, match="pivot t has odd order 5 with s"):
                    psi_n(build_ball(flexible, flexible_radius), is_flexible(flexible), 2)
                flexible = make_system("s t u v", (1, 2, 5))
            assert rigid.cartan is None and flexible.cartan is None
        else:
            rigid, flexible = a3, branched
            rigid_radius = flexible_radius = radius
        witness = is_flexible(flexible)
        rev = tuple(reversed(rigid.generators()))
        a = (0,)
        cases = {
            "left_mult": (rigid, lambda ball: left_mult(ball, a * 3), lambda x: a + x),
            "diagram_aut": (rigid, lambda ball: diagram_aut(ball, rev), lambda x: tuple(rev[s] for s in x)),
            "psi_phi": (
                flexible,
                lambda ball: psi_phi(ball, witness),
                lambda x: psi_phi_word(flexible, witness, x),
            ),
            "psi_n": (
                flexible,
                lambda ball: psi_n(ball, witness, 2),
                lambda x: psi_n_word(flexible, witness, 2, x),
            ),
            "to_ball": (
                rigid,
                lambda ball: FactoredAutomorphism(a, rev).to_ball(ball),
                lambda x: a + tuple(rev[s] for s in x),
            ),
        }
        system, construct, f = cases[constructor]
        ball = build_ball(system, rigid_radius if system is rigid else flexible_radius)
        assert ball.complete == (system is rigid and radius != 4)
        aut = construct(ball)
        ids = {w: i for i, w in enumerate(ball_words(ball))}
        # exact even on the proper ball: with a left factor of length 1 only a
        # vertex's own image can leave the ball, never a parent's on its walk
        assert aut.vmap == tuple(ids.get(reduce_by_rewriting(system, f(x))) for x in ball_words(ball))
        # a left factor of length 1 costs one unit of interior in a proper ball
        shrink = constructor in ("left_mult", "to_ball") and not ball.complete
        assert aut.interior_radius == ball.radius - shrink


class TestPsiPhi:
    def test_word_images(self, branched, branched_witness):
        ball = build_ball(branched, 3)
        aut = psi_phi(ball, branched_witness)
        cases = [
            ("t", "u"),  # no pivot: phi applies
            ("u s", "t s"),  # phi before the pivot
            ("s t", "s t"),  # pivot first: nothing to rewrite
            ("t u s", "t u s"),  # phi(tu) = ut = tu as an element
        ]
        for src, out in cases:
            assert aut.vmap[vid(ball, src)] == vid(ball, out)

    def test_ball_map_is_automorphism(self, branched, branched_witness):
        ball = build_ball(branched, 5)
        aut = psi_phi(ball, branched_witness)
        report = verify_ball_automorphism(ball, aut)
        assert report.ok and None not in aut.vmap
        assert aut.vmap[0] == 0

    def test_preserves_word_length(self, branched, branched_witness):
        ball = build_ball(branched, 5)
        aut = psi_phi(ball, branched_witness)
        for v in range(ball.size):
            assert ball.length[aut.vmap[v]] == ball.length[v]

    def test_rejects_invalid_witness(self, branched):
        ball = build_ball(branched, 3)
        bad = FlexibilityWitness(pivot=1, phi=(0, 2, 1))
        with pytest.raises(ValueError):
            psi_phi(ball, bad)

    def test_not_left_multiplication_or_diagram(self, branched, branched_witness):
        ball = build_ball(branched, 5)
        assert decompose(ball, psi_phi(ball, branched_witness)) is None


class TestPsiN:
    def test_word_images(self, branched, branched_witness):
        ball = build_ball(branched, 4)
        cases = [
            (1, "s t", "s u"),
            (2, "s t s t", "s t s u"),
            (3, "s t s t", "s t s t"),  # fewer than 3 pivots: fixed
            (1, "t u", "t u"),  # pivot-free words are always fixed
        ]
        for n, src, out in cases:
            assert psi_n(ball, branched_witness, n).vmap[vid(ball, src)] == vid(ball, out)

    def test_n_must_be_positive(self, branched, branched_witness):
        ball = build_ball(branched, 2)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                psi_n(ball, branched_witness, n)

    def test_ball_maps_verify(self, branched, branched_witness):
        ball = build_ball(branched, 6)
        for n in (1, 2, 3):
            aut = psi_n(ball, branched_witness, n)
            assert verify_ball_automorphism(ball, aut).ok
            assert aut.vmap[0] == 0

    def test_family_pairwise_distinct(self, branched, branched_witness):
        ball = build_ball(branched, 6)
        report = map_checks.psi_family_distinctness(ball, branched_witness, 3)
        assert report.ok, report.detail
        # triangular: psi_n fixes (st)^k exactly for k < n
        assert report.fixed == (
            (False, False, False),
            (True, False, False),
            (True, True, False),
        )

    def test_family_needs_deep_ball(self, branched, branched_witness):
        with pytest.raises(ValueError):
            map_checks.psi_family_distinctness(build_ball(branched, 3), branched_witness, 2)


ORDERS = (2, 3, 4, 5, 6, None)  # None is infinite; an order 5 makes the keys canonical words


@st.composite
def coxeter_systems(draw, max_rank=4):
    """Random diagrams of rank <= max_rank with every order in ORDERS."""
    rank = draw(st.integers(1, max_rank))
    orders = {}
    for s in range(rank):
        for t in range(s + 1, rank):
            m = draw(st.sampled_from(ORDERS))
            if m is not None:
                orders[(s, t)] = m
    return CoxeterSystem([f"g{i}" for i in range(rank)], orders)


@st.composite
def flexible_systems(draw, max_rank=4):
    """Random flexible diagrams: generators 1 and 2 are swapped by a symmetry
    of the diagram and joined to the pivot 0 by infinite orders."""
    rank = draw(st.integers(3, max_rank))
    swap = {1: 2, 2: 1}
    orders = {}
    for s in range(rank):
        for t in range(s + 1, rank):
            image = tuple(sorted((swap.get(s, s), swap.get(t, t))))
            if image < (s, t):
                m = orders.get(image)  # the image pair is already drawn
            else:
                m = None if s == 0 and t in swap else draw(st.sampled_from(ORDERS))
            if m is not None:
                orders[(s, t)] = m
    return CoxeterSystem([f"g{i}" for i in range(rank)], orders)


def witnesses(system):
    """Every flexibility witness: a pivot and a nontrivial phi fixing it and its neighbors."""
    return [
        FlexibilityWitness(pivot, phi)
        for pivot in system.generators()
        for phi in enumerate_diagram_automorphisms(system)
        if phi != tuple(system.generators()) and all(phi[x] == x for x in [pivot] + system.neighbors(pivot))
    ]


def assert_matches_rewriting(ball, aut, f, interior, total=True):
    """aut is "reduce f(x) by rewriting, look it up among the ball's words".

    A map that is not total (a left factor on a proper ball) may be None
    beyond its interior where its walk left the ball: it must then agree with
    the oracle wherever it is defined, and be defined on the whole interior.
    """
    ids = {w: i for i, w in enumerate(ball_words(ball))}
    expected = tuple(ids.get(reduce_by_rewriting(ball.system, f(x))) for x in ball_words(ball))
    if total:
        assert aut.vmap == expected
    else:
        # a defined image equals the oracle's, so one the oracle puts outside the ball is None
        assert all(x is None or x == y for x, y in zip(aut.vmap, expected))
        assert None not in aut.vmap[: len(ball.interior(interior))]
    assert aut.interior_radius == interior


class TestFieldWalk:
    """The BFS-tree walk of every constructor against the rewriting oracle."""

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_factored_maps_match_rewriting(self, data):
        system = data.draw(coxeter_systems())
        ball = build_ball(system, data.draw(st.integers(0, 4)))
        w = tuple(data.draw(st.lists(st.integers(0, system.rank - 1), max_size=ball.radius)))
        d = data.draw(st.sampled_from(enumerate_diagram_automorphisms(system)))
        # to_ball walks w as spelled, so it loses the length of its element, not of w
        shrink = 0 if ball.complete else len(reduce_by_rewriting(system, w))
        to_ball = FactoredAutomorphism(w, d).to_ball(ball)
        total = ball.complete
        assert_matches_rewriting(ball, to_ball, lambda x: w + tuple(d[s] for s in x), ball.radius - shrink, total)
        assert_matches_rewriting(ball, diagram_aut(ball, d), lambda x: tuple(d[s] for s in x), ball.radius)
        assert_matches_rewriting(ball, left_mult(ball, w), lambda x: w + x, ball.radius - shrink, total)

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_psi_maps_match_rewriting(self, data):
        system = data.draw(flexible_systems())
        ball = build_ball(system, data.draw(st.integers(0, 4)))
        witness = data.draw(st.sampled_from(witnesses(system)))
        n = data.draw(st.integers(1, 3))
        psi = psi_phi(ball, witness)
        assert_matches_rewriting(ball, psi, lambda x: psi_phi_word(system, witness, x), ball.radius)
        # psi_phi's image does not depend on the reduced word: every edge follows its field
        assert verify_ball_automorphism(ball, psi).broken == []
        odd = [t for t in system.neighbors(witness.pivot) if system.order(witness.pivot, t) % 2]
        if odd:
            with pytest.raises(ValueError, match=f"odd order {system.order(witness.pivot, odd[0])} with"):
                psi_n(ball, witness, n)
            return
        psi_k = psi_n(ball, witness, n)
        assert_matches_rewriting(ball, psi_k, lambda x: psi_n_word(system, witness, n, x), ball.radius)
        # so does psi_n's, when every neighbour of the pivot has even order with it
        assert verify_ball_automorphism(ball, psi_k).broken == []


class TestFieldViolations:
    def test_standard_maps_follow_constant_fields(self, branched):
        ball = build_ball(branched, 4)
        swap = (0, 2, 1)
        identity = tuple(branched.generators())
        assert verify_ball_automorphism(ball, left_mult(ball, (0, 1))).broken == []
        assert verify_ball_automorphism(ball, diagram_aut(ball, swap)).broken == []
        # a field that errs where the walk does not read it walks the same map, which
        # keeps adjacency and breaks that field on one edge off the BFS tree
        for d in (identity, swap):
            field = map_checks.erring_field(ball, lambda x, d=d: d)
            aut = walked_map(ball, 0, field)
            assert aut == diagram_aut(ball, d)
            report = verify_ball_automorphism(ball, aut)
            assert report.ok and report.broken == [next(e for e in ball.non_tree_edges if e[0])]

    def test_fails_on_a_rule_that_is_no_witness(self):
        # phi swaps the pivot t with u: validate_witness rejects it, and the
        # walk down the BFS tree then disagrees with the non-tree edges
        system = parse_system(next(p for p in DIAGRAMS if p.stem == "flexible").read_text())
        bad = FlexibilityWitness(pivot=1, phi=(0, 2, 1))
        ball = build_ball(system, 3)
        identity = tuple(system.generators())

        def field(x):  # pivot_field's rule for psi_phi
            return identity if bad.pivot in ball.word(x) else bad.phi

        aut = walked_map(ball, 0, field)
        assert verify_ball_automorphism(ball, aut).broken
        with pytest.raises(ValueError):
            pivot_field(ball, bad)


class TestVerification:
    def test_flags_broken_edge(self, a2):
        # a field that swaps the letters at a walks a b to e and a b a to a: the
        # edge (b a, a b a) off the BFS tree then maps to (b a, a), not adjacent
        ball = build_ball(a2, 3)
        va = vid(ball, "a")
        aut = walked_map(ball, 0, lambda x: (1, 0) if x == va else (0, 1))
        assert aut.vmap[vid(ball, "a b")] == 0 and aut.vmap[vid(ball, "a b a")] == va
        report = verify_ball_automorphism(ball, aut)
        assert not report.ok
        assert any("non-adjacent" in msg for msg in report.violations)
        assert report == map_checks.verify_ball_automorphism(ball, aut)

    @pytest.mark.parametrize("path", DIAGRAMS + FRONTIER, ids=lambda p: p.stem)
    def test_walk_is_defined_on_its_interior(self, path):
        # why verify_ball_automorphism tests no vertex for an image (see coxaut.checks):
        # a walk from any start of length <= 2, with any per-vertex field, is defined
        # at every vertex of its interior
        system, rng = parse_system(path.read_text()), random.Random(33)
        for radius in range(3 if path.stem == "free10" else 6):
            ball = build_ball(system, radius)
            for start in ball.interior(2):
                perms = [tuple(rng.sample(range(system.rank), system.rank)) for _ in range(ball.size)]
                aut = walked_map(ball, start, perms.__getitem__)
                assert None not in aut.vmap[: len(ball.interior(aut.interior_radius))], (radius, start)

    def test_flags_non_injective(self, a2):
        ball = build_ball(a2, 2)
        vmap = [0] * ball.size
        report = verify_ball_automorphism(ball, BallAutomorphism(tuple(vmap), 0, lambda x: (0, 1)))
        assert any("not injective" in msg for msg in report.violations)


class TestLocalPermutations:
    def test_identity_gives_identity_everywhere(self, a2):
        ball = build_ball(a2, 3)
        aut = left_mult(ball, ())
        field = local_permutations(ball, aut.vmap, ball.star_interior(aut.interior_radius))
        assert set(field.values()) == {(0, 1)}  # non-vacuous

    def test_left_mult_field_is_identity(self, branched):
        ball = build_ball(branched, 4)
        aut = left_mult(ball, parse_word(branched, "s t"))
        field = local_permutation_field(ball, aut)
        assert set(field.values()) == {tuple(branched.generators())}  # non-vacuous

    def test_diagram_field_is_its_permutation(self, branched):
        ball = build_ball(branched, 4)
        aut = diagram_aut(ball, (0, 2, 1))
        field = local_permutation_field(ball, aut)
        assert set(field.values()) == {(0, 2, 1)}

    @pytest.mark.parametrize(
        "system, radius",
        [
            pytest.param(system, radius, id=f"{name}-r{radius}")
            for name, system in FLEXIBLE
            # free10's sphere of radius r has 10 * 9^(r-1) vertices
            for radius in range(2, 3 if name == "free10" else 7)
        ],
    )
    def test_exotic_field_is_not_constant(self, system, radius):
        # what verify no longer tests, since psi-m-class-well-defined and
        # psi-verified decide it: the field, the factoring, the word lengths
        witness = is_flexible(system)
        ball = build_ball(system, radius)
        psi = psi_phi(ball, witness)
        field = local_permutation_field(ball, psi)
        assert len(set(field.values())) > 1
        assert field[0] == witness.phi  # phi visible at the identity
        assert field[star(ball, 0)[witness.pivot]] == tuple(system.generators())  # past the pivot nothing moves
        assert decompose(ball, psi) is None
        maps = [psi]
        try:
            maps += [psi_n(ball, witness, n) for n in range(1, min(radius, 5) + 1)]
        except ValueError:  # an odd-order neighbour of the pivot
            pass
        for aut in maps:
            assert [ball.length[x] for x in aut.vmap] == ball.length

    def test_star_interior_boundary_rule(self, branched):
        ball = build_ball(branched, 3)
        inside = ball.star_interior(2)
        assert vid(ball, "e") in inside
        assert vid(ball, "t") in inside
        assert vid(ball, "t u") not in inside  # neighbor ts has length 3

    def test_star_interior_includes_longest_element(self, a2):
        ball = build_ball(a2, 3)  # complete: the hexagon
        assert ball.star_interior(3) == tuple(range(6))

    def test_undefined_vertex_raises(self, a2):
        ball = build_ball(a2, 3)
        aut = BallAutomorphism((0,) + (None,) * (ball.size - 1), 0, None)
        with pytest.raises(ValueError, match="vertex 1 has no image"):
            local_permutations(ball, aut.vmap, (1,))

    def test_boundary_vertex_raises(self, a2):
        # a boundary vertex's row of adj holds -1, which must not be read as
        # the last vertex's image: on the r=1 ball (e, a, b) the images
        # (a, e, b) would give a the permutation (0, 1) without the guard
        ball = build_ball(a2, 1)
        assert ball.adj[2:4] == [0, -1]  # a's row: a·a = e, a·b outside
        for images in [(1, 0, 2), left_mult(ball, ()).vmap]:
            with pytest.raises(ValueError, match="vertex 1 has no full star in the ball"):
                local_permutations(ball, images, (1,))


class TestCoupling:
    def test_left_mult_and_diagram_satisfy_coupling(self, a3):
        ball = build_ball(a3, 4)
        for aut in [left_mult(ball, parse_word(a3, "a")), diagram_aut(ball, (2, 1, 0))]:
            assert coupling_violations(ball, local_permutation_field(ball, aut)) == []

    def test_exotic_map_satisfies_coupling(self, branched, branched_witness):
        # the whole point: the local permutations differ but couple correctly
        ball = build_ball(branched, 5)
        assert coupling_violations(ball, local_permutation_field(ball, psi_phi(ball, branched_witness))) == []

    def test_boundary_artifact_fails_coupling(self):
        # the radius-2 ball of this system is a tree, so swapping the two
        # leaves below a is a genuine ball automorphism; its permutation
        # field jumps by (b c) across the a-edge at the identity, and the
        # coupling law pins b down there because m(a, b) is finite
        system = make_system("a b c", (0, 1, 3))
        ball = build_ball(system, 2)
        vmap = list(range(ball.size))
        a, ab, ac = vid(ball, "a"), vid(ball, "a b"), vid(ball, "a c")
        vmap[ab], vmap[ac] = ac, ab
        aut = walked_map(ball, 0, lambda x: (0, 2, 1) if x == a else (0, 1, 2))  # the swap, walked
        assert aut.vmap == tuple(vmap)
        assert verify_ball_automorphism(ball, aut).ok
        violations = coupling_violations(ball, local_permutation_field(ball, aut))
        assert violations
        assert violations == map_checks.coupling_violations(ball, aut, 2)
        assert any(s == 0 and x == 1 for _, _, s, x in violations)


def outcome(check, *args):
    """check(*args), or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_checks_match_oracle(ball, aut):
    """aut was walked from aut.field: the report, read on the non-tree edges,
    equals map_checks' scan of every edge, with its broken edges; and
    assert_field_matches_oracle."""
    report = verify_ball_automorphism(ball, aut)
    assert report == map_checks.verify_ball_automorphism(ball, aut)  # ok, and violations in order
    assert report.broken == map_checks.broken_edges(ball, aut, aut.field)
    assert_field_matches_oracle(ball, aut)


def assert_field_matches_oracle(ball, aut):
    """aut's own field read off its images, or the error, and the coupling list
    equal map_checks'; this reading takes any map, walked or not."""
    own = outcome(map_checks.local_permutation_field, ball, aut)
    assert outcome(local_permutation_field, ball, aut) == own
    if not isinstance(own, str):
        assert coupling_violations(ball, own) == map_checks.coupling_violations(ball, aut)


def corrupted_maps(ball, aut):
    """(kind, map) for aut with two images swapped (an adjacent pair and a far
    pair), with an interior image set to None, and with an image moved to a
    vertex adjacent to none of the images of its star; each keeps aut's field,
    which no longer walks it."""
    vmap = list(aut.vmap)
    for u, v in [(1, min(2, ball.size - 1)), (0, ball.size - 1), (1, ball.neighbors[1][-1])]:
        swapped = vmap.copy()
        swapped[u], swapped[v] = swapped[v], swapped[u]
        yield "swapped", BallAutomorphism(tuple(swapped), aut.interior_radius, aut.field)
    for v in (0, 1, len(ball.interior(1)) - 1):
        holed = vmap.copy()
        holed[v] = None
        yield "holed", BallAutomorphism(tuple(holed), aut.interior_radius, aut.field)
    for v in (1, len(ball.interior(1)) - 1):
        if vmap[v] is None:
            continue
        near = {vmap[u] for u in star(ball, v).values()} | {vmap[v]}
        far = [x for x in range(ball.size) if all(x not in star(ball, y).values() for y in near - {None})]
        if far:
            moved = vmap.copy()
            moved[v] = far[-1]
            yield "moved", BallAutomorphism(tuple(moved), aut.interior_radius, aut.field)


def shipped_maps(ball):
    """Every map verify walks on this ball: left multiplications by words of
    length <= 2, diagram maps, psi_phi and psi_1..psi_3."""
    system = ball.system
    maps = [left_mult(ball, w) for w in ball_words(ball) if len(w) <= min(2, ball.radius)]
    maps += [diagram_aut(ball, d) for d in enumerate_diagram_automorphisms(system)]
    witness = is_flexible(system)
    if witness is not None:
        maps.append(psi_phi(ball, witness))
        maps += [psi_n(ball, witness, n) for n in (1, 2, 3)]
    return maps


def entry_maps(ball):
    """The census entries at the default probe radius, as maps walked from no field."""
    probe = max(ball.radius - (ball.system.max_finite_order() or 1), 0)
    return [map_checks.entry_map(ball, e, probe) for e in identity_stabilizer_census(ball, probe).entries]


def assert_walked_maps_match_to_ball(ball):
    """walked_map from every start in interior(2), with each diagram
    automorphism d as its constant field: the interior is radius - |start|, or
    the radius on a complete ball; the map breaks no edge of its field; and
    to_ball of start's canonical word with d gives the same map."""
    for d in enumerate_diagram_automorphisms(ball.system):
        field = lambda x: d
        for start in ball.interior(2):
            aut = walked_map(ball, start, field)
            assert aut.interior_radius == (ball.radius if ball.complete else ball.radius - ball.length[start])
            report = verify_ball_automorphism(ball, aut)
            assert report.ok and report.broken == []
            assert FactoredAutomorphism(ball.word(start), d).to_ball(ball) == aut


class TestChecksMatchOracle:
    """The checks on the per-ball tables against map_checks, which scans adj."""

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_shipped_maps(self, path):
        system = parse_system(path.read_text())
        for radius in range(6):
            ball = build_ball(system, radius)
            for aut in shipped_maps(ball):
                assert_checks_match_oracle(ball, aut)
            for aut in entry_maps(ball):
                assert map_checks.verify_ball_automorphism(ball, aut).ok
                assert_field_matches_oracle(ball, aut)
            assert_walked_maps_match_to_ball(ball)

    @pytest.mark.parametrize("path", DIAGRAMS, ids=lambda p: p.stem)
    def test_corrupted_maps(self, path):
        # a corrupted map is walked from no field, so only its own field is read
        system = parse_system(path.read_text())
        ball = build_ball(system, 4)
        for aut in shipped_maps(ball) + entry_maps(ball):
            for _, corrupted in corrupted_maps(ball, aut):
                assert_field_matches_oracle(ball, corrupted)

    def test_exotic_maps_and_their_corruptions(self):
        # psi and psi_n on flexible at every r <= 7: the one pass gives the oracle's
        # report and violation order; sound and corrupted, the own field or error
        flexible = parse_system((DIAGRAMS[0].parent / "flexible.cox").read_text())
        witness = is_flexible(flexible)
        for radius in range(8):
            ball = build_ball(flexible, radius)
            for n in (None, 1, 2, 3):
                aut = psi_phi(ball, witness) if n is None else psi_n(ball, witness, n)
                assert_checks_match_oracle(ball, aut)
                for _, corrupted in corrupted_maps(ball, aut) if radius >= 2 else ():
                    assert_field_matches_oracle(ball, corrupted)
                if radius >= 3:  # broken on the outer sphere, with the field at e intact
                    vmap, a = list(aut.vmap), len(ball.interior(radius - 1))
                    vmap[a], vmap[-1] = vmap[-1], vmap[a]
                    corrupted = BallAutomorphism(tuple(vmap), 1, aut.field)
                    assert_field_matches_oracle(ball, corrupted)
                    assert list(local_permutation_field(ball, corrupted)) == [0]

    def test_exotic_maps_verified_without_the_edge_list(self):
        # psi and psi_n are read on the non-tree edges alone: the ball's edge list is never built
        flexible = parse_system((DIAGRAMS[0].parent / "flexible.cox").read_text())
        witness = is_flexible(flexible)
        for radius in (3, 4, 7):
            ball = build_ball(flexible, radius)
            for aut in [psi_phi(ball, witness)] + [psi_n(ball, witness, n) for n in (1, 2, 3)]:
                report = verify_ball_automorphism(ball, aut)
                assert report.ok and report.broken == []
            assert "edges" not in vars(ball)


class TestComposeAndDecompose:
    def test_compose_ball_matches_left_mult_product(self, a3):
        ball = build_ball(a3, 6)
        la = left_mult(ball, parse_word(a3, "a"))
        lb = left_mult(ball, parse_word(a3, "b"))
        assert map_checks.compose_ball(ball, la, lb).vmap == left_mult(ball, parse_word(a3, "a b")).vmap

    def test_compose_interior_from_definedness(self, branched):
        ball = build_ball(branched, 4)
        ls = left_mult(ball, parse_word(branched, "s"))
        lt = left_mult(ball, parse_word(branched, "t"))
        composed = map_checks.compose_ball(ball, ls, lt)
        assert composed.interior_radius == 2
        assert verify_ball_automorphism(ball, composed).ok

    def test_decompose_left_mult(self, a3):
        ball = build_ball(a3, 4)
        w = parse_word(a3, "a b")
        f = decompose(ball, left_mult(ball, w))
        assert f is not None
        assert f.word == w
        assert f.diagram == (0, 1, 2)

    def test_decompose_diagram(self, a3):
        ball = build_ball(a3, 4)
        f = decompose(ball, diagram_aut(ball, (2, 1, 0)))
        assert f is not None
        assert f.word == ()
        assert f.diagram == (2, 1, 0)

    def test_decompose_round_trip(self, a3):
        ball = build_ball(a3, 5)
        original = FactoredAutomorphism(parse_word(a3, "a b"), (2, 1, 0))
        recovered = decompose(ball, original.to_ball(ball))
        assert recovered == original

    def test_decompose_rejects_label_breaking_star(self):
        # with only m(a, b) = 3 finite the radius-2 ball is a tree, so the
        # letterwise swap a <-> c preserves adjacency; but its permutation at
        # the identity maps the order-3 pair onto an infinite one, so no
        # factored form exists even locally
        system = make_system("a b c", (0, 1, 3))
        ball = build_ball(system, 2)
        sigma = {0: 2, 1: 1, 2: 0}
        vmap = tuple(vertex_of(ball, tuple(sigma[x] for x in w)) for w in ball_words(ball))
        aut = walked_map(ball, 0, lambda x: (2, 1, 0))
        assert aut.vmap == vmap
        assert verify_ball_automorphism(ball, aut).ok
        with pytest.raises(ValueError):
            decompose(ball, aut)

    def test_decompose_needs_identity_star(self, a2):
        ball = build_ball(a2, 2)
        vmap = (0,) + (None,) * (ball.size - 1)
        with pytest.raises(ValueError):
            decompose(ball, BallAutomorphism(vmap, 0, None))


class TestCensus:
    def test_hexagon_census(self, a2):
        census = identity_stabilizer_census(build_ball(a2, 3), 1)
        assert census.count == 2
        assert census.exotic_count == 0
        assert {e.diagram for e in census.entries} == {(0, 1), (1, 0)}

    def test_a3_census_is_diagram_only(self, a3):
        census = identity_stabilizer_census(build_ball(a3, 4), 2)
        assert census.count == 2
        assert census.diagram_count == 2
        assert census.search_nodes > 0

    def test_flexible_census_finds_exotics(self, branched):
        census = identity_stabilizer_census(build_ball(branched, 5), 4)
        assert census.count == 128
        assert census.diagram_count == 2
        assert census.exotic_count == 126

    def test_entries_verify_and_fix_identity(self, branched):
        ball = build_ball(branched, 4)
        census = identity_stabilizer_census(ball, 3)
        for entry in census.entries:
            assert entry.images[0] == 0
            assert len(entry.images) == census.probe_count
            assert map_checks.verify_ball_automorphism(ball, map_checks.entry_map(ball, entry, 3)).ok

    def test_single_generator(self):
        system = make_system("c")
        census = identity_stabilizer_census(build_ball(system, 1), 1)
        assert census.count == 1
        assert census.entries[0].verdict == "diagram"

    def test_probe_zero_collapses_everything(self, branched):
        census = identity_stabilizer_census(build_ball(branched, 3), 0)
        assert census.count == 1

    def test_probe_beyond_radius(self, a2):
        with pytest.raises(ValueError):
            identity_stabilizer_census(build_ball(a2, 2), 3)

    def test_node_guard(self, branched):
        with pytest.raises(LimitExceeded):
            identity_stabilizer_census(build_ball(branched, 4), 3, max_nodes=1)

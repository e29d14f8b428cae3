import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import coxaut.system
from coxaut.system import (
    CoxeterSystem,
    FlexibilityWitness,
    LimitExceeded,
    ParseError,
    cycle_notation,
    diagram_group,
    enumerate_diagram_automorphisms,
    is_flexible,
    is_label_preserving,
    parse_system,
    validate_witness,
)

from conftest import RANK3, make_system, random_systems


class TestParsing:
    def test_minimal(self):
        system = parse_system("gens a\n")
        assert system.names == ("a",)
        assert system.rank == 1

    def test_pairs_and_defaults(self):
        system = parse_system("gens s t u\npair t u 2\n")
        assert system.order(1, 2) == 2
        assert system.order(2, 1) == 2
        assert system.order(0, 1) == math.inf
        assert system.order(0, 0) == 1
        assert system.finite_pairs() == [(1, 2, 2)]

    def test_comments_and_blank_lines(self):
        system = parse_system("# a comment\n\ngens a b  # trailing\npair a b 3\n")
        assert system.order(0, 1) == 3

    def test_inf_token_means_omission(self):
        system = parse_system("gens a b\npair a b inf\n")
        assert system.order(0, 1) == math.inf

    @pytest.mark.parametrize(
        "text",
        [
            "pair a b 3\n",  # no gens line
            "gens a a\n",  # duplicate names
            "gens e f\npair e f 3\n",  # a generator named e, which spells the identity
            "gens a b\ngens c d\n",  # two gens lines
            "gens a b\npair a a 2\n",  # self pair
            "gens a b\npair a b 1\n",  # order < 2
            "gens a b\npair a b x\n",  # bad token
            "gens a b\npair a c 2\n",  # unknown name
            "gens a b\npair a b 2\npair b a 3\n",  # duplicate pair
            "gens a b\npair a a inf\n",  # self pair that never reaches CoxeterSystem
            "gens a b\npair a b inf\npair b a inf\n",  # duplicate inf pair
            "gens a b\nfrobnicate a b\n",  # unknown directive
            "gens a b\npair a b\n",  # wrong arity
            "",  # empty file
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_system(text)

    def test_json_echo_sorted(self):
        system = parse_system("gens a b c\npair b c 3\npair a b 3\n")
        assert system.to_json_dict() == {
            "generators": ["a", "b", "c"],
            "orders": [[0, 1, 3], [1, 2, 3]],
        }

    def test_name_lookup(self):
        system = parse_system("gens x y\npair x y 5\n")
        assert system.index_of("y") == 1
        with pytest.raises(ParseError):
            system.index_of("z")


class TestDiagramAutomorphisms:
    def test_branched_has_swap(self, branched):
        assert enumerate_diagram_automorphisms(branched) == [(0, 1, 2), (0, 2, 1)]

    def test_single_generator(self):
        assert enumerate_diagram_automorphisms(make_system("a")) == [(0,)]

    def test_a3_reversal(self, a3):
        assert enumerate_diagram_automorphisms(a3) == [(0, 1, 2), (2, 1, 0)]

    def test_forms_a_group(self, atilde2):
        auts = enumerate_diagram_automorphisms(atilde2)
        assert len(auts) == 6  # all orders equal: full symmetric group
        group = set(auts)
        for d in auts:
            assert tuple(sorted(range(3), key=d.__getitem__)) in group  # d's inverse
            for e in auts:
                assert tuple(d[x] for x in e) in group  # d after e

    def test_cycle_notation(self, branched):
        auts = enumerate_diagram_automorphisms(branched)
        assert cycle_notation(auts[0], branched.names) == "id"
        assert cycle_notation(auts[1], branched.names) == "(t u)"

    def test_cycle_notation_matches_reference(self):
        for rank in range(1, 7):
            names = [f"g{i}" for i in range(rank)]
            for images in permutations(range(rank)):
                assert cycle_notation(images, names) == reference_cycle_notation(images, names), images

    def test_node_guard(self, monkeypatch):
        # rank 13 has no cap; the free diagram's 13! automorphisms trip the node guard
        monkeypatch.setattr(coxaut.system, "DEFAULT_MAX_NODES", 1000)
        system = CoxeterSystem([f"g{i}" for i in range(13)], {})
        with pytest.raises(LimitExceeded, match="diagram automorphism search exceeded 1000 nodes"):
            enumerate_diagram_automorphisms(system)


class TestFlexibility:
    def test_branched_witness(self, branched):
        witness = is_flexible(branched)
        assert witness is not None
        assert witness.pivot == 0
        assert witness.phi == (0, 2, 1)
        validate_witness(branched, witness)

    @pytest.mark.parametrize("fixture", ["a2", "a3", "b2", "atilde2", "cube", "free2"])
    def test_not_flexible(self, fixture, request):
        assert is_flexible(request.getfixturevalue(fixture)) is None

    def test_fourth_generator_neighbor(self):
        # pivot s has a finite-order neighbor v that phi must fix; t,u swap freely
        system = make_system("s t u v", (0, 3, 3))
        witness = is_flexible(system)
        assert witness is not None
        assert witness.pivot == 0
        assert witness.phi[3] == 3

    def test_witness_validation_rejects_bad_witnesses(self, branched, a3):
        swap = (0, 2, 1)
        with pytest.raises(ValueError):
            validate_witness(branched, FlexibilityWitness(1, swap))  # moves the pivot
        with pytest.raises(ValueError):
            validate_witness(branched, FlexibilityWitness(0, tuple(branched.generators())))
        with pytest.raises(ValueError):
            # (a c) preserves labels in A3 but moves a, a neighbor of b
            validate_witness(a3, FlexibilityWitness(1, (2, 1, 0)))
        with pytest.raises(ValueError):
            # not label-preserving for the branched system? (s t) swaps orders inf/2
            validate_witness(branched, FlexibilityWitness(2, (1, 0, 2)))

    def test_label_preservation_predicate(self, a3):
        assert is_label_preserving(a3, (2, 1, 0))
        assert not is_label_preserving(a3, (1, 0, 2))

    def test_label_preservation_matches_all_pairs_on_rank3(self):
        # every map of three generators to three: the 6 permutations and the
        # 21 maps that are not injective
        for system in RANK3:
            for images in product(range(3), repeat=3):
                assert is_label_preserving(system, images) == all_pairs_label_preserving(system, images), (system, images)

    @given(random_systems(max_rank=5, finite_orders=(2, 3, 4, 5, 6)), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_label_preservation_matches_all_pairs(self, system, data):
        n = system.rank
        maps = [*permutations(range(n)), *data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=20))]
        for images in maps:
            assert is_label_preserving(system, images) == all_pairs_label_preserving(system, images), images


def all_pairs_label_preserving(system, images):
    """The definition: m(images[s], images[t]) == m(s, t) for every pair s < t."""
    n = system.rank
    return all(system.order(images[s], images[t]) == system.order(s, t) for s in range(n) for t in range(s + 1, n))


def reference_cycle_notation(images, names):
    """Each orbit of length > 1 listed once, from its least generator, in the
    order of those generators; 'id' when there is none."""
    cycles = []
    for start in range(len(images)):
        orbit = [start]
        while images[orbit[-1]] != start:
            orbit.append(images[orbit[-1]])
        if len(orbit) > 1 and start == min(orbit):
            cycles.append("(" + " ".join(names[x] for x in orbit) + ")")
    return "".join(cycles) or "id"


def brute_force_automorphisms(system):
    return [images for images in permutations(system.generators()) if is_label_preserving(system, images)]


def brute_force_witness(system):
    """The smallest pivot, then the lexicographically smallest non-identity
    automorphism fixing it and its neighbors, as (pivot, images)."""
    automorphisms = brute_force_automorphisms(system)[1:]
    for pivot in system.generators():
        star = [pivot] + system.neighbors(pivot)
        for images in automorphisms:
            if all(images[x] == x for x in star):
                return pivot, images
    return None


def closure(system, generators):
    """The image tuples of the group the generators generate."""
    group = {tuple(system.generators())}
    frontier = list(group)
    while frontier:
        images = frontier.pop()
        for d in generators:
            product = tuple(d[x] for x in images)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


class TestSearchMatchesBruteForce:
    """The pruned search lists what filtering every permutation lists, in
    order, and the stabilizer chain has its order and generates it."""

    @staticmethod
    def assert_matches(system):
        expected = brute_force_automorphisms(system)
        assert enumerate_diagram_automorphisms(system) == expected
        order, strong_generators = diagram_group(system)
        assert order == len(expected)
        assert closure(system, strong_generators) == set(expected)
        witness = is_flexible(system)
        found = None if witness is None else (witness.pivot, witness.phi)
        assert found == brute_force_witness(system)

    def test_free_rank10_group_unlisted(self, monkeypatch):
        # one extension search places each of the 10 generators once, so a
        # 10-node guard admits the 45 searches and trips on any listing
        monkeypatch.setattr(coxaut.system, "DEFAULT_MAX_NODES", 10)
        system = CoxeterSystem([f"g{i}" for i in range(10)], {})
        order, strong_generators = diagram_group(system)
        assert order == math.factorial(10) == 3628800
        assert len(strong_generators) == 45
        with pytest.raises(LimitExceeded):
            enumerate_diagram_automorphisms(system)

    def test_every_rank3_diagram(self):
        for system in RANK3:
            self.assert_matches(system)

    # one order and infinity: mostly symmetric diagrams, many of them flexible
    @pytest.mark.parametrize("finite_orders", [(2, 3, 4, 5, 6, 7), (3,)])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_diagrams(self, finite_orders, data):
        self.assert_matches(data.draw(random_systems(max_rank=6, finite_orders=finite_orders)))

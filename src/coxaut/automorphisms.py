"""Automorphisms of Cayley balls: standard, factored, and exotic.

Maps of a ball are stored as partial vertex maps with an interior radius:
the map is defined on every vertex of word length at most that radius.
Every map is built by walked_map: a start vertex, the image of e, and a
label field walked down the BFS tree (ball.field_map), which the map keeps.
Beyond the interior a vertex has its true image when the images of every
prefix of its canonical word lie in the ball, and None otherwise, even
where the true image lies in the ball.  Left multiplications lose one unit
of interior per letter; diagram automorphisms and the exotic maps are total.

A factored automorphism is a pair (w, d) of a group element and a diagram
automorphism acting by x -> w * d(x): the walk from w with the constant
field d.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat

from .ball import CayleyBall, field_map
from .system import (
    DEFAULT_MAX_NODES,
    CoxeterSystem,
    FlexibilityWitness,
    LimitExceeded,
    diagram_group,
    is_label_preserving,
    validate_witness,
)
from .words import Word, reduce_word


class BallAutomorphism:
    """A partial vertex map, defined at least on word lengths <= interior_radius,
    and field, the label field it was walked from."""

    __slots__ = ("vmap", "interior_radius", "field")

    def __init__(self, vmap: tuple[int | None, ...], interior_radius: int, field):
        self.vmap = vmap
        self.interior_radius = interior_radius
        self.field = field

    def __eq__(self, other):
        if type(other) is not BallAutomorphism:
            return NotImplemented
        return self.vmap == other.vmap and self.interior_radius == other.interior_radius


def walked_map(ball: CayleyBall, start: int, field) -> BallAutomorphism:
    """The map f with f(e) = start and f(x·s) = f(x)·field(x)[s], walked by
    ball.field_map; every ball map is built here.  Its interior is the radius
    on a complete ball, else radius - |w|, w the element at start, where
    field_map defines every image."""
    interior = ball.radius if ball.complete else ball.radius - ball.length[start]
    return BallAutomorphism(field_map(ball, start, field), interior, field)


def left_mult(ball: CayleyBall, word: Word) -> BallAutomorphism:
    """x -> w x.  Interior shrinks by the length of w unless the ball is complete."""
    w = reduce_word(ball.system, tuple(word))
    return FactoredAutomorphism(w, tuple(ball.system.generators())).to_ball(ball)


def diagram_aut(ball: CayleyBall, d: tuple[int, ...]) -> BallAutomorphism:
    """x -> d(x) letterwise, d an image tuple.  Total: diagram automorphisms preserve word length."""
    return walked_map(ball, 0, lambda x: d)


class FactoredAutomorphism:
    """The pair (word, diagram) acting as x -> word * diagram(x), diagram an image tuple."""

    __slots__ = ("word", "diagram")

    def __init__(self, word: Word, diagram: tuple[int, ...]):
        self.word = word
        self.diagram = diagram

    def __eq__(self, other):
        if type(other) is not FactoredAutomorphism:
            return NotImplemented
        return self.word == other.word and self.diagram == other.diagram

    def to_ball(self, ball: CayleyBall) -> BallAutomorphism:
        """The ball map, walked from the vertex that word reaches from e; it
        loses the element's length of interior unless the ball is complete.
        A proper prefix of a word no longer than the radius spells an element
        shorter than the radius, whose star lies in the ball, so the walk
        along word never leaves it."""
        if len(self.word) > ball.radius:
            raise ValueError(f"multiplier length {len(self.word)} exceeds the ball radius {ball.radius}")
        adj, rank, start = ball.adj, ball.rank, 0
        for s in self.word:
            start = adj[start * rank + s]
        return walked_map(ball, start, lambda x: self.diagram)


# -- exotic maps -------------------------------------------------------------


def pivot_field(ball: CayleyBall, witness: FlexibilityWitness, n: int | None = None):
    """The label field of psi_phi (n None: phi where the canonical word has no
    pivot) or of psi_n (phi where it has at least n pivots), else the identity.

    psi_phi applies phi to a reduced word before its first pivot and psi_n
    after its n-th; phi fixes the pivot, so the image of w s is the image of w
    followed by field(w)[s].  Raises ValueError unless witness is valid and,
    for psi_n, validate_psi_n passes.
    """
    system = ball.system
    validate_witness(system, witness)
    phi = witness.phi
    identity = tuple(system.generators())
    if n is not None:
        validate_psi_n(system, witness)
    pivots = ball.letter_counts(witness.pivot)  # counted once per ball, shared by psi and every psi_n
    if n is None:
        return lambda x: identity if pivots[x] else phi
    return lambda x: phi if pivots[x] >= n else identity


def validate_psi_n(system: CoxeterSystem, witness: FlexibilityWitness) -> None:
    """ValueError unless each diagram neighbour t of the pivot p has even order
    with it: psi_n is a map on elements only when the number of pivots is.
    Reduced words of one element are joined by m-operations.  phi carries one
    on a pair without p, a block on one side of the n-th pivot, to the move on
    the image pair; one on (p, t) with m(p, t) even keeps the block's pivot
    count, and phi fixes its letters.  Either way the images differ by one
    m-operation.  With m(p, t) odd, p t p and t p t differ in pivot count.
    """
    p = witness.pivot
    for t in system.neighbors(p):
        if system.order(p, t) % 2:
            raise ValueError(
                f"psi_n is undefined: the pivot {system.name_of(p)} has odd order {system.order(p, t)} "
                f"with {system.name_of(t)}, so words of one element differ in pivot count"
            )


def psi_phi(ball: CayleyBall, witness: FlexibilityWitness) -> BallAutomorphism:
    """psi, walked from pivot_field(ball, witness)."""
    return walked_map(ball, 0, pivot_field(ball, witness))


def psi_n(ball: CayleyBall, witness: FlexibilityWitness, n: int) -> BallAutomorphism:
    """psi_n, walked from pivot_field(ball, witness, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return walked_map(ball, 0, pivot_field(ball, witness, n))


# -- verification ------------------------------------------------------------


class VerificationReport:
    """The checks of a ball map; broken lists the edges that break the field
    it was walked from."""

    __slots__ = ("ok", "violations", "broken")

    def __init__(self, ok: bool, violations: tuple[str, ...], broken=None):
        self.ok = ok
        self.violations = violations
        self.broken = broken

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        return (self.ok, self.violations) == (other.ok, other.violations)


def verify_ball_automorphism(ball: CayleyBall, aut: BallAutomorphism) -> VerificationReport:
    """Injectivity and edge preservation of aut, a map walked from aut.field
    (walked_map, field_map), in one pass.

    Edges are checked wherever both endpoint images exist, not only in the
    interior: every constructor in this module restricts a map of the full
    Cayley graph, so any defined pair must respect adjacency.  A total
    injective map on a finite vertex set is a bijection, and a bijection
    sending edges to edges sends non-edges to non-edges, so these checks
    suffice for total maps to certify a genuine graph automorphism.  A walk
    is defined on its whole interior (see coxaut.checks), so no vertex there
    is tested for an image.

    An edge (u, v, s), u the shorter end, is broken when aut(v) is not the
    field(u)[s]-neighbour of aut(u); only broken edges can join a non-adjacent
    pair.  field_map set aut(v) from aut(u) across every tree edge, so only
    ball.non_tree_edges are read.  Every reduced word of v is one of such a u
    followed by s, so, by induction on length, no broken edge means aut's
    image does not depend on the reduced word.
    """
    vmap, adj, rank, field = aut.vmap, ball.adj, ball.rank, aut.field
    violations = []
    values = set(vmap)
    holes = None in values
    if len(values) - holes < len(vmap) - (vmap.count(None) if holes else 0):  # not injective
        first: dict[int, int] = {}
        for v, x in enumerate(vmap):
            u = v if x is None else first.setdefault(x, v)
            if u != v:
                violations.append(f"not injective: vertices {u} and {v} both map to {x}")
    broken = [
        (u, v, s)
        for u, v, s in ball.non_tree_edges
        if (fu := vmap[u]) is not None and (fv := vmap[v]) is not None and adj[fu * rank + field(u)[s]] != fv
    ]
    for u, v, s in broken:
        fu, fv = vmap[u], vmap[v]
        if fv not in adj[fu * rank : fu * rank + rank]:
            violations.append(f"edge ({u}, {v}) labeled {ball.system.name_of(s)} maps to non-adjacent pair ({fu}, {fv})")
    return VerificationReport(not violations, tuple(violations), broken)


# -- local permutations ------------------------------------------------------


def local_permutations(ball: CayleyBall, images, vertices) -> dict[int, tuple[int, ...]]:
    """v -> the label permutation that the map with these images induces at v
    (s -> the label of the edge from images[v] to the image of v·s), for each v
    of vertices, in their order: the only reader of a label field off images.

    Each neighbour's image is found by position in the row of adj at v's
    image, which checks every edge at v.  ValueError at the first vertex
    without a full star in the ball or without an image, or where an edge
    goes to a non-edge or a neighbour has no image.

    A left multiplication produces the identity at every vertex; a diagram
    automorphism produces its own permutation at every vertex; a non-constant
    field is the signature of an exotic map.
    """
    adj, rank = ball.adj, ball.rank
    field = {}
    for v in vertices:
        row = adj[v * rank : v * rank + rank]
        if -1 in row:
            raise ValueError(f"vertex {v} has no full star in the ball")
        fv = images[v]
        if fv is None:
            raise ValueError(f"vertex {v} has no image")
        image_row = adj[fv * rank : fv * rank + rank]
        try:
            field[v] = tuple(map(image_row.index, map(images.__getitem__, row)))
        except ValueError:  # a neighbour image is None, or an edge goes to a non-edge
            for u in row:
                if images[u] is not None and images[u] not in image_row:
                    raise ValueError(f"edge ({v}, {u}) maps to non-adjacent pair ({fv}, {images[u]})") from None
            raise ValueError(f"local permutation at star-interior vertex {v} is not total") from None
    return field


def local_permutation_field(ball: CayleyBall, aut: BallAutomorphism) -> dict[int, tuple[int, ...]]:
    """aut's local permutations at every star-interior vertex, in id order."""
    return local_permutations(ball, aut.vmap, ball.star_interior(aut.interior_radius))


def coupling_violations(ball: CayleyBall, field: dict[int, tuple[int, ...]]) -> list[tuple[int, int, int, int]]:
    """Adjacent-vertex coupling: across an s-edge (v, vs), the local permutations
    at v and vs agree on s and on every generator at finite order with s.

    field maps vertices, in id order, to their local permutations.  Returns
    (v, u, s, x) tuples naming each violation, v in the field's order; empty
    means the law holds throughout the field's vertices.  A census entry's
    support_field gives the same list as its whole star interior's field.
    """
    fixed_sets = {s: [s] + ball.system.neighbors(s) for s in ball.system.generators()}
    violations: list[tuple[int, int, int, int]] = []
    adj, rank = ball.adj, ball.rank
    for v, pv in field.items():
        for s, u in enumerate(adj[v * rank : v * rank + rank]):
            pu = field.get(u)
            if pu is None or pu == pv:
                continue
            for x in fixed_sets[s]:
                if pv[x] != pu[x]:
                    violations.append((v, u, s, x))
    return violations


# -- decomposition -----------------------------------------------------------


def decompose(ball: CayleyBall, aut: BallAutomorphism) -> FactoredAutomorphism | None:
    """Recover (w, d) with aut(x) = w * d(x) on the interior, if that form exists.

    w is the image of the identity and d the local permutation there, read by
    local_permutations, which raises ValueError unless e's star is mapped.
    Raises ValueError when that permutation does not preserve the pair orders
    (no factored form can exist, not even in spirit); returns None when the
    factored candidate disagrees with the map somewhere on the interior, the
    signature of an exotic map.
    """
    fe, images = aut.vmap[0], local_permutations(ball, aut.vmap, (0,))[0]
    if not is_label_preserving(ball.system, images):
        raise ValueError("the local permutation at the identity does not preserve pair orders")
    expected = walked_map(ball, fe, lambda x: images).vmap
    for v in ball.interior(aut.interior_radius):
        if expected[v] is None or expected[v] != aut.vmap[v]:
            return None
    return FactoredAutomorphism(ball.word(fe), images)


# -- identity-stabilizer census ----------------------------------------------


class StabilizerEntry:
    """One automorphism class, keyed by its restriction images to the probe
    sub-ball; diagram is the image tuple of a diagram entry's label
    permutation, None for an exotic one; support lists the probe ids it moves."""

    __slots__ = ("images", "verdict", "diagram", "support")

    def __init__(self, images: tuple[int, ...], verdict: str, diagram: tuple[int, ...] | None, support: tuple[int, ...]):
        self.images = images
        self.verdict = verdict
        self.diagram = diagram
        self.support = support

    def __eq__(self, other):
        if type(other) is not StabilizerEntry:
            return NotImplemented
        return (self.images, self.verdict, self.diagram) == (other.images, other.verdict, other.diagram)

    def __hash__(self):
        return hash(self.images)


class StabilizerCensus:
    """The census as a permutation group on the probe ids: transversals[i - 1]
    holds one restriction fixing 0 .. i-1 and moving i per image of i found,
    and each element is one product u_1 u_2 ... with u_i the identity or in
    transversals[i - 1] (Sims; Seress, Permutation Group Algorithms, ch. 4)."""

    def __init__(
        self,
        ball: CayleyBall,
        probe_radius: int,
        probe_count: int,
        transversals: tuple[tuple[tuple[int, ...], ...], ...],
        diagram_count: int,
        search_nodes: int,
        max_nodes: int,
    ):
        self.ball = ball
        self.probe_radius = probe_radius
        self.probe_count = probe_count
        self.transversals = transversals
        self.diagram_count = diagram_count
        self.search_nodes = search_nodes
        self.max_nodes = max_nodes

    @property
    def count(self) -> int:
        return math.prod(1 + len(level) for level in self.transversals)

    @property
    def exotic_count(self) -> int:
        return self.count - self.diagram_count

    @property
    def generators(self) -> tuple[StabilizerEntry, ...]:
        """The strong generators: every transversal member, level by level; a
        member for base point i fixes 0 .. i-1, so its support starts at i."""
        return self._entries([(i, images) for i, level in enumerate(self.transversals, 1) for images in level])

    @cached_property
    def entries(self) -> tuple[StabilizerEntry, ...]:
        """Every element, sorted; each counts as a node against max_nodes."""
        if self.search_nodes + self.count > self.max_nodes:
            raise LimitExceeded(f"stabilizer listing exceeded {self.max_nodes} nodes")
        elements = [tuple(range(self.probe_count))]
        for level in reversed(self.transversals):
            elements += [tuple([u[x] for x in h]) for u in level for h in elements]
        return self._entries(zip(repeat(0), sorted(elements)))

    def _entries(self, restrictions) -> tuple[StabilizerEntry, ...]:
        """A diagram entry restricts diagram_aut(d), d its label permutation at e
        (or id when e is alone).  With d the identity, diagram_aut(d) is the
        identity map, so the entry is a diagram entry exactly when its support is
        empty.  Any other diagram_aut(d) is walked down the BFS tree, so it agrees
        with images on the probe ids exactly when each probe vertex v = p s, p its
        parent, has images[v] the d(s)-neighbour of images[p].  restrictions
        are (start, images) pairs, images known to fix the ids below start."""
        ball, n = self.ball, self.probe_count
        system, adj, last, rank = ball.system, ball.adj, ball.last, ball.rank
        identity = tuple(system.generators())
        tree = [(v, adj[v * rank + last[v]], last[v]) for v in range(1, n)]
        diagram_of = {}  # perm, or None when perm breaks a pair order
        entries = []
        for start, images in restrictions:
            support = tuple([v for v in range(start, n) if images[v] != v])
            perm = local_permutations(ball, images, (0,))[0] if n > 1 else identity
            if perm not in diagram_of:
                diagram_of[perm] = perm if is_label_preserving(system, perm) else None
            d = diagram_of[perm]
            if perm == identity:  # diagram_aut(d) is the identity map
                exotic = bool(support)
            else:
                exotic = d is None or any(images[v] != adj[images[p] * rank + perm[s]] for v, p, s in tree)
            verdict, d = ("exotic", None) if exotic else ("diagram", d)
            entries.append(StabilizerEntry(images, verdict, d, support))
        return tuple(entries)


def support_field(ball: CayleyBall, entry: StabilizerEntry, probe_radius: int) -> dict[int, tuple[int, ...]]:
    """entry's local permutations at the vertices of the probe radius's star
    interior within distance 2 of its support, in id order.

    Beyond distance 1 the entry fixes each vertex with its star, so its local
    permutation is the identity; two permutations differ only across edges
    with both ends within distance 2, and coupling_violations reads the same
    list from this field as from the whole star interior's.
    """
    adj, rank, n = ball.adj, ball.rank, len(entry.images)
    k = len(ball.star_interior(probe_radius))
    near = set(entry.support)
    for _ in range(2):  # a star-interior vertex's neighbours are probe ids
        near.update(*[adj[v * rank : v * rank + rank] for v in near if 0 <= v < n])
    return local_permutations(ball, entry.images, sorted([v for v in near if 0 <= v < k]))


def identity_stabilizer_census(ball: CayleyBall, probe_radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> StabilizerCensus:
    """The graph automorphisms of the ball fixing the identity e, restricted to
    the probe sub-ball: those that differ only outside it are boundary
    artifacts of the truncation.  Distance from e is a graph invariant and
    equals word length, so the probe ids, an id-prefix, are kept.

    The base is the probe ids in id order.  For each base point i and each
    neighbour c > i of i's smallest neighbour, one depth-first search fixes
    0 .. i-1, prescribes i -> c and stops at the first extension to the ball.
    A vertex's candidates come from the neighbours of its smallest
    neighbour's image and must match its word length and degree and be
    adjacent to the images of its assigned neighbours, so a completed
    assignment is an automorphism.  The extensions found for i are its orbit,
    less i, under the elements fixing 0 .. i-1, so the order is the product
    of 1 + found.  Each placed candidate is a node against max_nodes.  Each
    node is one of the plain search over all identity-fixing assignments
    (tests/test_census.py runs it), and the subtrees below distinct i -> c
    are disjoint, so search_nodes never exceeds that search's count.

    diagram_count is the diagram group's order once the probe sub-ball holds
    e's star, else 1: a diagram automorphism d is a ball automorphism fixing
    e, and it is fixed by its action on e's star (diagram_aut(d) sends the
    s-neighbour of e to the d(s)-neighbour), so distinct d restrict apart.
    """
    if probe_radius < 0 or probe_radius > ball.radius:
        raise ValueError("probe radius must lie between 0 and the ball radius")
    size = ball.size
    probe_count = len(ball.interior(probe_radius))
    neighbors = ball.neighbors
    # word length and degree as one number: images must match both
    shape = [length * (ball.rank + 1) + len(ids) for length, ids in zip(ball.length, neighbors)]
    # a vertex's smallest neighbour (at most its BFS parent) is assigned before it
    first_anchor = [0] + [ids[0] for ids in neighbors[1:]]
    other_anchors = [[u for u in neighbors[v][1:] if u < v] or () for v in range(size)]  # () shared when empty

    assignment, used = [-1] * size, [False] * size
    transversals, nodes = [], 0
    # pending[v] yields the untried candidates for vertex v; the vertices
    # below v are assigned, and v holds its last tried candidate, or -1
    pending: list = [None] * size
    for i in range(1, probe_count):
        assignment[i - 1] = i - 1
        used[i - 1] = True
        found = []
        pending[i] = (c for c in neighbors[first_anchor[i]] if c > i)
        v = i
        while v >= i:
            if assignment[v] >= 0:
                used[assignment[v]] = False
            shape_v = shape[v]
            anchors = other_anchors[v]
            for c in pending[v]:
                if used[c] or shape[c] != shape_v:
                    continue
                if anchors:
                    ids = neighbors[c]
                    if any(assignment[u] not in ids for u in anchors):
                        continue
                nodes += 1
                if nodes > max_nodes:
                    raise LimitExceeded(f"stabilizer search exceeded {max_nodes} nodes")
                assignment[v] = c
                used[c] = True
                break
            else:
                assignment[v] = -1
                v -= 1
                continue
            v += 1
            if v < size:
                pending[v] = iter(neighbors[assignment[first_anchor[v]]])
                continue
            found.append(tuple(assignment[:probe_count]))
            # one extension per image of i: undo it and try i's next candidate
            for u in range(i + 1, size):
                used[assignment[u]] = False
                assignment[u] = -1
            v = i
        transversals.append(tuple(found))
    order = diagram_group(ball.system)[0] if probe_count > 1 else 1
    return StabilizerCensus(ball, probe_radius, probe_count, tuple(transversals), order, nodes, max_nodes)


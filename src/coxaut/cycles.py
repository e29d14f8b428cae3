"""Embedded cycles in Cayley balls and the essential/relator dichotomy.

An embedded 2n-cycle is essential when every pair of opposite vertices is
at graph distance n with exactly two simple paths of length n between
them (the two arcs of the cycle itself).  A relator cycle is the trace of
(st)^m from some base vertex: an embedded cycle alternating s and t.
On the full Cayley graph the essential cycles are exactly the relator
cycles; on a finite ball that equivalence is only trustworthy for cycles
far enough from the boundary, so every classification carries a
``certified`` flag.
"""

from __future__ import annotations

from .ball import CayleyBall, count_paths_to, distances_within


class EmbeddedCycle:
    """A cycle as a canonical vertex tuple plus the edge labels along it.

    vertices[i] -- vertices[i+1] is the edge labels[i]; labels[-1] closes the
    cycle back to vertices[0].  Canonical form: the smallest vertex id comes
    first and its smaller cycle-neighbor comes second.
    """

    __slots__ = ("vertices", "labels")

    def __init__(self, vertices: tuple[int, ...], labels: tuple[int, ...]):
        self.vertices = vertices
        self.labels = labels

    def __eq__(self, other):
        if type(other) is not EmbeddedCycle:
            return NotImplemented
        return self.vertices == other.vertices and self.labels == other.labels

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def half_length(self) -> int:
        return len(self.vertices) // 2

    def opposite_pairs(self) -> list[tuple[int, int]]:
        n = self.half_length
        return [(self.vertices[i], self.vertices[i + n]) for i in range(n)]


def _canonical_cycle(ball: CayleyBall, vertices: list[int]) -> EmbeddedCycle:
    k = len(vertices)
    start = vertices.index(min(vertices))
    rotated = vertices[start:] + vertices[:start]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    labels = tuple(ball.label(rotated[i], rotated[(i + 1) % k]) for i in range(k))
    return EmbeddedCycle(tuple(rotated), labels)


def enumerate_embedded_cycles(ball: CayleyBall, max_length: int) -> list[EmbeddedCycle]:
    """All embedded cycles of length <= max_length, each exactly once.

    Each cycle is found only from its minimal vertex (the DFS, on an explicit
    stack, only visits larger ids from the root) and only in one direction
    (recorded when the second vertex is smaller than the last), so no
    deduplication pass is needed.  A step to x is skipped when |length[x] -
    length[root]| exceeds the edges left once x is appended: each edge changes
    word length by exactly 1, so no arc that short leads back to the root.
    """
    cycles: list[EmbeddedCycle] = []
    neighbors, length = ball.neighbors, ball.length
    for root in range(ball.size):
        path = [root]
        on_path = {root}
        stack = [iter(neighbors[root])]
        while stack:
            spare = max_length - len(path)  # edges left for the closing arc once nxt is appended
            for nxt in stack[-1]:
                if nxt == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(_canonical_cycle(ball, list(path)))
                elif nxt > root and nxt not in on_path and spare > 0 and abs(length[nxt] - length[root]) <= spare:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(neighbors[nxt]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    cycles.sort(key=lambda c: (len(c), c.vertices))
    return cycles


def map_cycle(ball: CayleyBall, vmap, cycle: EmbeddedCycle) -> EmbeddedCycle | None:
    """Image of a cycle under a vertex map, or None when any image is missing.

    Raises ValueError when the images fail to form an embedded cycle; a
    verified automorphism never does that.
    """
    images = [vmap[v] for v in cycle.vertices]
    if any(x is None for x in images):
        return None
    if len(set(images)) != len(images):
        raise ValueError("cycle image has repeated vertices")
    image = _canonical_cycle(ball, images)
    if None in image.labels:
        raise ValueError("cycle image is not a cycle")
    return image


class EssentialityReport:
    __slots__ = ("essential", "certified", "failure")

    def __init__(self, essential: bool, certified: bool, failure: tuple[int, int, int, int] | None = None):
        self.essential = essential
        self.certified = certified
        # (u, v, distance, path_count) for the first opposite pair violating the test
        self.failure = failure


def certifies(ball: CayleyBall, cycle: EmbeddedCycle) -> bool:
    """Whether the ball is large enough to trust the essentiality verdict.

    A complete ball is the whole graph, so every verdict stands.  Otherwise
    every cycle vertex must lie in the id prefix interior(radius - n): all
    length-n simple paths between opposite vertices then stay inside the
    ball, so distances and path counts match the full Cayley graph.
    """
    return ball.complete or max(cycle.vertices) < len(ball.interior(ball.radius - cycle.half_length))


def is_essential(ball: CayleyBall, cycle: EmbeddedCycle) -> EssentialityReport:
    """Test every opposite pair: distance n and exactly two simple n-paths."""
    certified = certifies(ball, cycle)
    if len(cycle) % 2 != 0:
        return EssentialityReport(False, certified, None)
    n = cycle.half_length
    for u, v in cycle.opposite_pairs():
        # an arc of the cycle joins u and v in n steps, so one BFS bounded by
        # n gives their distance and the table that prunes the path count
        dist_to_v = distances_within(ball, v, n)
        d = dist_to_v.get(u, -1)
        if d != n:
            return EssentialityReport(False, certified, (u, v, d, -1))
        paths = count_paths_to(ball, u, dist_to_v, n)
        if paths != 2:
            return EssentialityReport(False, certified, (u, v, d, paths))
    return EssentialityReport(True, certified, None)


def is_alternating(cycle: EmbeddedCycle) -> bool:
    """Labels read s t s t ... around the whole cycle: a relator cycle.  It lies in
    one coset of <s, t>, a 2 m(s, t)-cycle (a path when m is infinite), so it
    is that whole coset and its length is 2 m(s, t)."""
    k = len(cycle.labels)
    if k % 2 != 0:
        return False
    return all(cycle.labels[i] == cycle.labels[i % 2] for i in range(k)) and cycle.labels[0] != cycle.labels[1]


def relator_cycles(ball: CayleyBall) -> list[EmbeddedCycle]:
    """The traces of (st)^m in the ball: its alternating embedded cycles,
    sorted by length, then vertices."""
    m = ball.system.max_finite_order()
    if m is None:
        return []
    return [c for c in enumerate_embedded_cycles(ball, 2 * m) if is_alternating(c)]


class CharacterizationReport:
    """Certified-essential vs certified-relator comparison on one ball."""

    __slots__ = ("cycles_examined", "essential", "certified_relator", "essential_not_relator", "relator_not_essential")

    def __init__(
        self,
        cycles_examined: int,
        essential: tuple[EmbeddedCycle, ...],
        certified_relator: int,
        essential_not_relator: tuple[EmbeddedCycle, ...],
        relator_not_essential: tuple[EmbeddedCycle, ...],
    ):
        self.cycles_examined = cycles_examined
        self.essential = essential  # the certified essential cycles, in the order they were examined
        self.certified_relator = certified_relator
        self.essential_not_relator = essential_not_relator
        self.relator_not_essential = relator_not_essential

    def __eq__(self, other):
        if type(other) is not CharacterizationReport:
            return NotImplemented
        return (
            self.cycles_examined,
            self.essential,
            self.certified_relator,
            self.essential_not_relator,
            self.relator_not_essential,
        ) == (
            other.cycles_examined,
            other.essential,
            other.certified_relator,
            other.essential_not_relator,
            other.relator_not_essential,
        )

    @property
    def certified_essential(self) -> int:
        return len(self.essential)

    @property
    def ok(self) -> bool:
        return not self.essential_not_relator and not self.relator_not_essential


def verify_essential_characterization(
    ball: CayleyBall, cycles: list[EmbeddedCycle] | None = None
) -> CharacterizationReport:
    """Check that certified essential cycles and certified relator cycles agree.

    cycles must hold every embedded cycle up to twice the largest finite order
    (enumerated here when omitted), hence every relator cycle, which is found
    by alternation; each even certified cycle is tested once.
    Only certified cycles participate on either side: an uncertified relator
    cycle near the boundary may fail the distance test purely because the
    ball cuts off its second arc's competitors.
    """
    if cycles is None:
        m = ball.system.max_finite_order()
        cycles = enumerate_embedded_cycles(ball, 2 * m if m is not None else 4)
    even = [c for c in cycles if len(c) % 2 == 0]
    essentials: dict[tuple[int, ...], EmbeddedCycle] = {}
    relators: dict[tuple[int, ...], EmbeddedCycle] = {}
    for cycle in even:
        if not certifies(ball, cycle):
            continue
        if is_alternating(cycle):
            relators[cycle.vertices] = cycle
        if is_essential(ball, cycle).essential:
            essentials[cycle.vertices] = cycle
    return CharacterizationReport(
        cycles_examined=len(even),
        essential=tuple(essentials.values()),
        certified_relator=len(relators),
        essential_not_relator=tuple(c for key, c in sorted(essentials.items()) if key not in relators),
        relator_not_essential=tuple(c for key, c in sorted(relators.items()) if key not in essentials),
    )

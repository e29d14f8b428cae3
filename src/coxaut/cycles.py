"""Embedded cycles in Cayley balls and the essential/relator dichotomy.

An embedded 2n-cycle is essential when every pair of opposite vertices is
at graph distance n with exactly two simple paths of length n between
them (the two arcs of the cycle itself).  A relator cycle is the trace of
(st)^m from some base vertex: an embedded cycle alternating s and t.
On the full Cayley graph the essential cycles are exactly the relator
cycles; on a finite ball that equivalence is only trustworthy for cycles
far enough from the boundary, so every classification carries a
``certified`` flag.

Both searches read the group's structure instead of searching the ball.
Left multiplication keeps edge labels, and a ball is an induced subgraph,
so an embedded cycle with smallest vertex g is g·C0 for the cycle C0 =
g^-1·C through the identity, with the same label word: the enumeration
finds the label words of the cycles through the identity once and walks
each word from every vertex, while the characterization reads each word
once, on its cycle through the identity, which is how every certified
translate of it reads too.  A path of n edges between vertices n apart
is a geodesic, and a geodesic is simple, so when opposite vertices u, v are
n apart the simple n-paths that essentiality counts are their shortest
paths: when the ball holds all of them (on every pair of a certified cycle)
they are u times the reduced words of u^-1·v, counted by a per-ball table,
and otherwise one bounded BFS counts them.
"""

from __future__ import annotations

from .ball import DEFAULT_MAX_VERTICES, CayleyBall, build_ball


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


def cycle_words(ball: CayleyBall, max_length: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[tuple[int, ...]]:
    """The label words, read from the identity in both directions, of embedded
    cycles through the identity of length at most max_length: at least every one
    whose vertices have word length at most R = min(max_length // 2, 2 * radius),
    which holds every cycle with a translate in the ball.  A vertex of such a
    cycle is at most half its length from the identity along it, and g^-1·c has
    length at most 2 * radius for g, c in the ball.

    The words come from the ball itself when it is complete or its radius is at
    least R, and otherwise from build_ball(system, R, max_vertices), which raises
    LimitExceeded past the guard.  One depth-first search from the identity, on
    an explicit stack, skips a step to x unless length[x] is at most the edges
    left once x is appended: each edge changes word length by exactly 1, so no
    shorter arc leads back to the identity.  A diagram without a finite order
    has no words: its Cayley graph is a tree.
    """
    if ball.system.max_finite_order() is None:
        return []  # no relator: the Cayley graph is a tree
    radius = min(max_length // 2, 2 * ball.radius)
    source = ball if ball.complete or ball.radius >= radius else build_ball(ball.system, radius, max_vertices)
    adj, length, rank = source.adj, source.length, source.rank
    words: list[tuple[int, ...]] = []
    path, labels, on_path = [0], [], {0}
    stack = [iter(range(rank))]
    while stack:
        base = path[-1] * rank
        spare = max_length - len(path)  # edges left for the closing arc once y is appended
        for s in stack[-1]:
            y = adj[base + s]
            if y == 0:
                if len(path) >= 3:
                    words.append((*labels, s))
            elif y > 0 and length[y] <= spare and y not in on_path:
                path.append(y)
                labels.append(s)
                on_path.add(y)
                stack.append(iter(range(rank)))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())
            if labels:
                labels.pop()
    return words


def enumerate_embedded_cycles(
    ball: CayleyBall, max_length: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[EmbeddedCycle]:
    """All embedded cycles of length <= max_length, each exactly once, sorted by
    length, then vertices.

    Each cycle word (cycle_words) is walked from every vertex g along adj; a walk
    stops at an id <= g (-1 included: the walk left the ball), so it keeps only
    cycles whose smallest vertex is g, and a cycle is kept only when its second
    vertex is below its last.  A cycle with smallest vertex g, read in that
    direction, is g·C0 for one cycle C0 through the identity, read from there in
    one direction, so it is found exactly once, in canonical form, and its labels
    are the word itself.  Words are grouped by first letter, so a first step to
    an id <= g ends every walk of its group at once.  max_vertices guards the
    ball the words may need.
    """
    adj, rank = ball.adj, ball.rank
    groups: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for word in cycle_words(ball, max_length, max_vertices):
        groups.setdefault(word[0], []).append((word[1:-1], word))
    first_steps = sorted(groups.items())
    cycles: list[EmbeddedCycle] = []
    if not first_steps:
        return cycles
    for g in range(ball.size):
        base = g * rank
        for first, walks in first_steps:
            y = adj[base + first]
            if y <= g:
                continue
            for body, word in walks:
                v, vertices = y, [g, y]
                for s in body:
                    v = adj[v * rank + s]
                    if v <= g:
                        break
                    vertices.append(v)
                else:
                    if y < v:
                        cycles.append(EmbeddedCycle(tuple(vertices), word))
    cycles.sort(key=lambda c: (len(c), c.vertices))
    return cycles


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
    """Test every opposite pair u, v = vertices[i], vertices[i + n]: distance n and
    exactly two simple n-paths.  An arc of the cycle joins them in n steps, so
    when they are n apart every simple n-path is a geodesic, and the count is the
    number of shortest paths.

    A vertex j steps along a geodesic from u has word length at most
    min(|u| + j, |v| + n - j) <= (|u| + |v| + n) / 2, so when the ball is complete
    or |u| + |v| + n <= 2 * radius every geodesic between u and v lies inside it,
    and the ball's distance and shortest-path count are the group's.  Walking
    labels[i:i + n] from the identity then reaches x = u^-1·v: the distance is
    length[x] and the count is ball.reduced_word_counts[x], the geodesics being
    u times the reduced words of x.  The walk stays inside the ball: its j-th
    vertex u^-1·w, w the vertex j steps along the arc from u, has length
    d(u, w) <= min(j, |x| + n - j) <= (|u| + |v| + n) / 2.  Every pair of a
    certified cycle qualifies (|u|, |v| <= radius - n).  Any other pair is
    measured by one BFS from v, bounded by n, that counts shortest paths inside
    the ball.
    """
    certified = certifies(ball, cycle)
    if len(cycle) % 2 != 0:
        return EssentialityReport(False, certified, None)
    n = cycle.half_length
    vertices, labels = cycle.vertices, cycle.labels
    adj, length, rank = ball.adj, ball.length, ball.rank
    reach = 2 * length[-1] if ball.complete else 2 * ball.radius - n  # bound on length[u] + length[v]
    for i in range(n):
        u, v = vertices[i], vertices[i + n]
        if length[u] + length[v] <= reach:
            x = 0
            for s in labels[i : i + n]:
                x = adj[x * rank + s]
            d, paths = length[x], ball.reduced_word_counts[x]
        else:
            d, paths = _shortest_paths(ball, v, u, n)
        if d != n:
            return EssentialityReport(False, certified, (u, v, d, -1))
        if paths != 2:
            return EssentialityReport(False, certified, (u, v, d, paths))
    return EssentialityReport(True, certified, None)


def _walk(ball: CayleyBall, letters) -> int:
    """The vertex that letters lead to from the identity along adj; -1 once a
    step leaves the ball."""
    adj, rank, x = ball.adj, ball.rank, 0
    for s in letters:
        x = adj[x * rank + s]
        if x < 0:
            break
    return x


def _shortest_paths(ball: CayleyBall, source: int, target: int, bound: int) -> tuple[int, int]:
    """(distance, number of shortest paths) from source to target inside the ball,
    by one layered BFS that stops at the target's layer; (-1, 0) beyond bound."""
    adj, rank = ball.adj, ball.rank
    paths = {source: 1}  # shortest-path counts of every vertex in a finished layer
    layer = paths
    for d in range(1, bound + 1):
        reached: dict[int, int] = {}
        for x, c in layer.items():
            for y in adj[x * rank : x * rank + rank]:
                if y >= 0 and y not in paths:
                    reached[y] = reached.get(y, 0) + c
        if target in reached:
            return d, reached[target]
        paths.update(reached)
        layer = reached
    return -1, 0


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
    """Certified-essential vs certified-relator comparison on one ball, by cycle
    word: the label word, read from the identity, of an embedded cycle through it."""

    __slots__ = ("essential", "certified_relator", "essential_not_relator", "relator_not_essential")

    def __init__(
        self,
        essential: tuple[tuple[int, ...], ...],
        certified_relator: int,
        essential_not_relator: tuple[tuple[int, ...], ...],
        relator_not_essential: tuple[tuple[int, ...], ...],
    ):
        self.essential = essential  # the certified essential words, in the order they were read
        self.certified_relator = certified_relator
        self.essential_not_relator = essential_not_relator
        self.relator_not_essential = relator_not_essential

    @property
    def certified_essential(self) -> int:
        return len(self.essential)

    @property
    def ok(self) -> bool:
        return not self.essential_not_relator and not self.relator_not_essential


def verify_essential_characterization(ball: CayleyBall) -> CharacterizationReport:
    """Check that essential and relator cycles agree, reading each cycle word of
    length 2n <= min(2 * max m, 2 * radius) once, on its cycle C through the
    identity; cycle_words then reads the ball itself.

    A word's verdict is what is_essential gives every certified cycle with its
    labels: walking each half w[i:i + n] from the identity reaches x, of length
    n with two reduced words.  Those x have length at most n, so only that id
    prefix of the reduced-word table is filled.  A word is a relator when it
    alternates two letters.  A word whose verdict and alternation disagree is
    a mismatch; a word counts toward the certified totals when certifies' rule
    holds on C (the ball is complete, or every vertex of C has word length at
    most radius - n).
    """
    m = ball.system.max_finite_order()
    words = [w for w in cycle_words(ball, min(2 * m, 2 * ball.radius)) if len(w) % 2 == 0] if m is not None else []
    adj, length, rank = ball.adj, ball.length, ball.rank
    counts = ball.reduced_word_counts_below(len(ball.interior(max(map(len, words), default=0) // 2)))
    essential, relators, essential_not_relator, relator_not_essential = [], 0, [], []
    for word in words:
        n = len(word) // 2
        alternating = word == word[:2] * n and word[0] != word[1]
        verdict = all(0 <= (x := _walk(ball, word[i : i + n])) and length[x] == n and counts[x] == 2 for i in range(n))
        if verdict != alternating:
            (essential_not_relator if verdict else relator_not_essential).append(word)
        top, v = 0, 0
        for s in word:
            v = adj[v * rank + s]
            top = max(top, v)
        if ball.complete or top < len(ball.interior(ball.radius - n)):
            relators += alternating
            if verdict:
                essential.append(word)
    return CharacterizationReport(tuple(essential), relators, tuple(essential_not_relator), tuple(relator_not_essential))

"""Balls in the Cayley graph with respect to right multiplication.

An element of the ball is its vertex id; its canonical word is kept beside
it, and vertex_of takes any spelling.  x and y are joined by an edge
labeled s exactly when y = x s (equivalently x = y s).  The ball of radius
r contains every element of word length at most r.  Vertex ids are assigned
by breadth-first search from the identity, expanding the frontier in id
order and the generators in index order, so ids are reproducible and the
ball of a smaller radius is an id-prefix of the ball of a larger one.  The
search reads only the diagram and the ball built so far: it never calls
the word engine.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate

from .system import CoxeterSystem
from .words import LimitExceeded, Word, reduce_word

DEFAULT_MAX_VERTICES = 10**6


class CayleyBall:
    """A radius-r ball; vertex 0 is the identity."""

    def __init__(self, system: CoxeterSystem, radius: int):
        self.system = system
        self.radius = radius
        self.words: list[Word] = []
        # adj[v][s] = the vertex v·s when it lies in the ball
        self.adj: list[dict[int, int]] = []
        # star_interior results by radius
        self._stars: dict[int, tuple[int, ...]] = {}

    def _add_vertex(self, word: Word) -> int:
        v = len(self.words)
        self.words.append(word)
        self.adj.append({})
        return v

    def vertex_of(self, word: Word) -> int | None:
        """The vertex of the element that word spells, in any spelling (its canonical
        word walked from the identity); None outside the ball."""
        canonical = reduce_word(self.system, word)
        if len(canonical) > self.radius:
            return None
        v = 0
        for s in canonical:
            v = self.adj[v][s]
        return v

    def _add_edge(self, u: int, v: int, label: int) -> None:
        self.adj[u][label] = v
        self.adj[v][label] = u

    @cached_property
    def edges(self) -> list[tuple[int, int, int]]:
        """Every edge once, as sorted (u, v, label) triples with u < v."""
        return sorted((u, v, s) for u, nbrs in enumerate(self.adj) for s, v in nbrs.items() if u < v)

    @property
    def size(self) -> int:
        return len(self.words)

    def word_length(self, v: int) -> int:
        return len(self.words[v])

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def complete(self) -> bool:
        """True when the ball is the whole Cayley graph (the group is finite).

        Every vertex of the full Cayley graph has degree |S|; a boundary
        vertex of a proper ball is missing at least the edge toward the
        sphere of the next radius, so full degree everywhere means no
        boundary exists.
        """
        return all(len(nbrs) == self.system.rank for nbrs in self.adj)

    @cached_property
    def _layer_ends(self) -> list[int]:
        """_layer_ends[k] = the number of vertices at word length <= k, k <= radius."""
        counts = [0] * (self.radius + 1)
        for w in self.words:
            counts[len(w)] += 1
        return list(accumulate(counts))

    def interior(self, interior_radius: int) -> range:
        """Vertex ids at word length <= interior_radius: an id prefix, since
        breadth-first ids are sorted by word length."""
        if interior_radius < 0:
            return range(0)
        return range(self._layer_ends[min(interior_radius, self.radius)])

    def star_interior(self, interior_radius: int) -> tuple[int, ...]:
        """Vertices with a full star whose members all lie in the certified region.

        In a proper ball this is word length <= interior_radius - 1; in a complete
        ball vertices at the interior radius itself qualify whenever all their
        neighbors stay within it (e.g. the longest element of a finite group).
        Memoized per radius.
        """
        stars = self._stars.get(interior_radius)
        if stars is None:
            end = len(self.interior(interior_radius))
            rank = self.system.rank
            stars = tuple(
                v
                for v, nbrs in enumerate(self.adj[:end])
                if len(nbrs) == rank and all(u < end for u in nbrs.values())
            )
            self._stars[interior_radius] = stars
        return stars

    @cached_property
    def _sorted_neighbors(self) -> list[list[int]]:
        return [sorted(nbrs.values()) for nbrs in self.adj]

    def neighbors(self, v: int) -> list[int]:
        """The neighbors of v in increasing id order (a shared list: do not modify)."""
        return self._sorted_neighbors[v]

    @cached_property
    def texts(self) -> list[str]:
        """texts[v] = format_word(system, words[v]), built on first use: the BFS
        parent's text, the name of v's last letter appended."""
        names, words, adj = self.system.names, self.words, self.adj
        texts = ["e"]
        for v in range(1, self.size):
            s = words[v][-1]
            p = adj[v][s]
            texts.append(f"{texts[p]} {names[s]}" if p else names[s])
        return texts

    @cached_property
    def labels(self) -> list[dict[int, int]]:
        """labels[u][v] = the label of the edge between u and v; built on first use."""
        return [{v: s for s, v in nbrs.items()} for nbrs in self.adj]

    def label(self, u: int, v: int) -> int | None:
        """The label of the edge between u and v; None when they are not adjacent."""
        return self.labels[u].get(v)

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "vertices": [{"id": i, "word": text} for i, text in enumerate(self.texts)],
            "edges": [[u, v, self.system.name_of(s)] for u, v, s in self.edges],
        }

    def to_dot(self) -> str:
        """Graphviz rendering convenience; labels are words and generator names,
        quoted with \\ and " escaped."""
        lines = ["graph cayley_ball {"]
        for i, text in enumerate(self.texts):
            lines.append(f"  v{i} [label={_dot_quoted(text)}];")
        names = [_dot_quoted(name) for name in self.system.names]
        for u, v, s in self.edges:
            lines.append(f"  v{u} -- v{v} [label={names[s]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def build_ball(system: CoxeterSystem, radius: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> CayleyBall:
    """Breadth-first enumeration of all elements of length <= radius.

    A vertex's word is its parent's word plus the generator that reached it
    first.  Parents are expanded in id order and generators in index order,
    so that word is the lexicographically least reduced word: the canonical
    form.  Expanding v, s is a right descent exactly when v already has an
    s-edge.  Otherwise w = v·s may have an earlier parent u = w·t; then s, t
    are right descents of w, so w = x·w0(s, t) with l(w) = l(x) + m(s, t)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2), and the letters
    t, s, t, ... lead from v down m - 1 layers to x and back up to u, whose
    t-edge, once u is expanded, ends at w.  When no walk finds w, w is new.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ball = CayleyBall(system, radius)
    words, adj = ball.words, ball.adj
    # braids[s] = (t, m(s, t)) for the diagram neighbours t of s
    braids = [[(t, system.order(s, t)) for t in system.neighbors(s)] for s in system.generators()]
    frontier = [ball._add_vertex(())]
    for _ in range(radius):
        next_frontier: list[int] = []
        for v in frontier:
            for s in system.generators():
                if s in adj[v]:
                    continue
                w = None
                for t, m in braids[s]:
                    x = v
                    for i in range(2 * m - 2):  # a range: m may be 10**12, the walk stops by layer 0
                        y = adj[x].get((t, s)[i % 2])
                        if i < m - 1 and (y is None or len(words[y]) >= len(words[x])):
                            break  # not m - 1 layers down: no parent of w ends in t
                        if y is None:
                            raise AssertionError("relator walk left the ball below its frontier")
                        x = y
                    else:
                        w = adj[x].get(t)
                        if w is not None:
                            break
                if w is None:
                    if ball.size >= max_vertices:
                        raise LimitExceeded(f"ball exceeded {max_vertices} vertices")
                    w = ball._add_vertex(words[v] + (s,))
                    next_frontier.append(w)
                ball._add_edge(v, w, s)
        frontier = next_frontier
        if not frontier:
            break
    return ball


def field_map(ball: CayleyBall, start: int, field) -> tuple[int | None, ...]:
    """The vertex map f with f(e) = start, a vertex, and f(x·s) = f(x)·field(x)[s],
    field(x) a label permutation as an image tuple, walked along ball edges down the
    BFS tree: a vertex v is p·s for its parent p = v·s, s the last letter of
    its canonical word, so f(v) is the field(p)[s]-neighbour of f(p).  Only
    tree edges are read; automorphisms.field_violations checks the rest.

    f(v) is given exactly when the images of v and of every prefix of its
    canonical word lie in the ball, and is None otherwise.  That includes
    interior(radius - |w|), w the word of start: the image of a prefix p is w
    followed by |p| letters, of length at most |w| + |p| <= radius.
    """
    adj, words = ball.adj, ball.words
    images: list[int | None] = [start]
    for v in range(1, ball.size):
        s = words[v][-1]
        p = adj[v][s]
        fp = images[p]
        images.append(None if fp is None else adj[fp].get(field(p)[s]))
    return tuple(images)


def distances_within(ball: CayleyBall, source: int, bound: int) -> dict[int, int]:
    """Graph distance inside the ball from source to every vertex at most bound
    away, by one BFS that expands no vertex at distance bound."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if dist[x] >= bound:
            continue
        for y in ball.adj[x].values():
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distances_from(ball: CayleyBall, source: int) -> dict[int, int]:
    """Graph distance inside the ball from source to every vertex, by one BFS."""
    return distances_within(ball, source, ball.size)


def distance(ball: CayleyBall, u: int, v: int) -> int | None:
    """Graph distance inside the ball; None when unreachable (never, for balls)."""
    return distances_from(ball, u).get(v)


def count_paths(ball: CayleyBall, u: int, v: int, length: int) -> int:
    """Number of simple paths from u to v of exactly the given length."""
    return count_paths_to(ball, u, distances_within(ball, v, length), length)


def count_paths_to(ball: CayleyBall, u: int, dist_to_v: dict[int, int], length: int) -> int:
    """Number of simple paths from u of exactly the given length to the vertex v
    that dist_to_v measures from; dist_to_v holds every vertex within length of v.

    Depth-first on an explicit stack, with a distance-from-target prune: a
    partial path with k steps left is abandoned unless it is within k of v.
    """
    if length == 0:
        return 1 if dist_to_v.get(u) == 0 else 0
    count = 0
    path = [u]
    on_path = {u}
    stack = [iter(ball.adj[u].values())]
    while stack:
        remaining = length - len(path)  # steps left once y is on the path
        for y in stack[-1]:
            d = dist_to_v.get(y)
            if d is None or d > remaining or y in on_path:
                continue
            if remaining == 0:
                count += 1  # d == 0: y is v
                continue
            path.append(y)
            on_path.add(y)
            stack.append(iter(ball.adj[y].values()))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return count

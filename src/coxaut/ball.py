"""Balls in the Cayley graph with respect to right multiplication.

An element of the ball is its vertex id; its canonical word is spelled down
the BFS tree.  x and y are joined by an edge labeled s exactly when y = x s
(equivalently x = y s).  The ball of radius r contains every element of
word length at most r.  Vertex ids are assigned by breadth-first search
from the identity, expanding the frontier in id order and the generators in
index order, so ids are reproducible and the ball of a smaller radius is an
id-prefix of the ball of a larger one.  The search reads only the diagram
and the ball built so far: it never calls the word engine.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import repeat

from .system import CoxeterSystem, LimitExceeded

DEFAULT_MAX_VERTICES = 10**6


class CayleyBall:
    """A radius-r ball; vertex 0 is the identity.  Flat int arrays, rank the
    number of generators: adj[v*rank + s] is the vertex v·s, or -1 when v·s
    lies outside the ball; last[v] is the last letter of v's canonical word
    (-1 at the identity) and length[v] its word length.  v's BFS parent is
    adj[v*rank + last[v]], so word(v) is spelled by walking parents."""

    def __init__(self, system: CoxeterSystem, radius: int, adj: list[int], last: list[int], length: list[int]):
        self.system, self.rank, self.radius = system, system.rank, radius
        self.adj, self.last, self.length = adj, last, length
        # star_interior results by radius, letter_counts results by letter
        self._stars: dict[int, tuple[int, ...]] = {}
        self._letter_counts: dict[int, list[int]] = {}
        self._counts = [1]  # reduced_word_counts_below's id prefix

    @property
    def size(self) -> int:
        return len(self.length)

    def word(self, v: int) -> tuple[int, ...]:
        """v's canonical word, spelled by walking BFS parents."""
        letters = []
        while v:
            letters.append(self.last[v])
            v = self.adj[v * self.rank + letters[-1]]
        return tuple(reversed(letters))

    @cached_property
    def edges(self) -> list[tuple[int, int, int]]:
        """Every edge once, as sorted (u, v, label) triples with u < v."""
        return self.edges_from(0, self.size)

    def edges_from(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """The edges (u, v, label) with start <= u < stop and u < v, sorted: one
        strided slice of adj per label, then one sort."""
        rank, adj, ids = self.rank, self.adj, range(start, stop)
        columns = [zip(ids, adj[start * rank + s : stop * rank : rank], repeat(s)) for s in range(rank)]
        return sorted([e for column in columns for e in column if e[0] < e[1]])

    @cached_property
    def non_tree_edges(self) -> list[tuple[int, int, int]]:
        """The edges (u, v, label), u < v, off the BFS tree, sorted: those whose
        label is not last[v], the letter of v's edge to its parent.  field_map
        walks only tree edges, so a map it walks can break its field only here."""
        adj, last, rank = self.adj, self.last, self.rank
        edges = []
        for s in range(rank):
            edges += [(u, v, s) for u, v in enumerate(adj[s::rank]) if u < v and last[v] != s]
        edges.sort()
        return edges

    @cached_property
    def complete(self) -> bool:
        """True when the ball is the whole Cayley graph (the group is finite): a
        boundary vertex of a proper ball misses at least its edge toward the
        next sphere, so no missing adj entry means no boundary."""
        return -1 not in self.adj

    def interior(self, interior_radius: int) -> range:
        """Vertex ids at word length <= interior_radius: an id prefix, since
        breadth-first ids are sorted by word length."""
        return range(bisect_right(self.length, interior_radius))

    def star_interior(self, interior_radius: int) -> tuple[int, ...]:
        """Vertices with a full star inside length interior_radius: an id prefix,
        memoized per radius.  Lengths < min(interior_radius, radius) qualify; a
        vertex of length l <= radius with its star inside length l has every
        generator as a descent, so it is the longest element of a finite group,
        the last id of a complete ball, and then every vertex qualifies."""
        stars = self._stars.get(interior_radius)
        if stars is None:
            if self.complete and interior_radius >= self.length[-1]:
                stars = tuple(range(self.size))
            else:
                stars = tuple(self.interior(min(interior_radius, self.radius) - 1))
            self._stars[interior_radius] = stars
        return stars

    def letter_counts(self, s: int) -> list[int]:
        """counts[v] = the letters s in v's canonical word, counted down the BFS
        tree; memoized per letter."""
        counts = self._letter_counts.get(s)
        if counts is None:
            adj, last, rank = self.adj, self.last, self.rank
            counts = [0] * self.size
            for v in range(1, self.size):
                counts[v] = counts[adj[v * rank + last[v]]] + (last[v] == s)
            self._letter_counts[s] = counts
        return counts

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """neighbors[v] = the neighbors of v in increasing id order; built on first
        use, by sorting each row of adj and dropping its -1 entries."""
        return [sorted(row)[row.count(-1) :] for row in zip(*[iter(self.adj)] * self.rank)]

    @cached_property
    def reduced_word_counts(self) -> list[int]:
        """reduced_word_counts[v] = the number of reduced words of v, i.e. of geodesics
        from the identity to v, for every vertex: reduced_word_counts_below(size)."""
        return self.reduced_word_counts_below(self.size)

    def reduced_word_counts_below(self, stop: int) -> list[int]:
        """The reduced-word counts of at least the ids below stop, filled in id
        order and kept: 1 at the identity, and otherwise the sum of the counts at
        v·s over v's right descents s (a reduced word of v is one of v·s followed
        by s), which have smaller ids."""
        adj, length, rank, counts = self.adj, self.length, self.rank, self._counts
        for v in range(len(counts), stop):
            below = length[v] - 1
            counts.append(sum(counts[u] for u in adj[v * rank : v * rank + rank] if u >= 0 and length[u] == below))
        return counts

    @cached_property
    def texts(self) -> list[str]:
        """texts[v] = format_word(system, word(v)), built on first use: the BFS
        parent's text, the name of v's last letter appended."""
        names, adj, last, rank = self.system.names, self.adj, self.last, self.rank
        texts = ["e"]
        for v in range(1, self.size):
            s = last[v]
            p = adj[v * rank + s]
            texts.append(f"{texts[p]} {names[s]}" if p else names[s])
        return texts

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
    form.  Ids are sorted by length and an edge changes length by one, so a
    neighbour one layer down is exactly a smaller id.

    Expanding v, s is a right descent exactly when v already has an s-edge.
    Otherwise w = v·s may have an earlier parent u = w·t; then s, t are right
    descents of w, so w = x·w0(s, t) with l(w) = l(x) + m(s, t)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2), and the letters
    t, s, t, ... lead from v down m - 1 layers to x and back up to u, whose
    t-edge ends at w.  Each vertex on the way up is x times a prefix of a
    reduced word of w0(s, t), shorter than w, so it is in the ball with its
    edges down set.  The walk goes down at most l(v) layers, so a pair with
    m(s, t) > l(v) + 1 is never walked.

    So the walks from the first parent v reach every other parent u = w·t,
    and they run when w is made: each one that ends links u's t-slot to w.
    A slot still empty when its vertex is expanded therefore leads to a new
    element, and w is made at once, before its walks.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rank = system.rank
    adj, last, length = [-1] * rank, [-1], [0]
    empty_star = [-1] * rank
    # braids[s] = (t, m(s, t)) for the diagram neighbours t of s
    braids = [[(t, system.order(s, t)) for t in system.neighbors(s)] for s in system.generators()]
    start = 0
    for layer in range(1, radius + 1):
        end = len(last)
        # walks[s] = (letters down, letters up, t): t s t ... of length 2m - 2, cut in half
        walks = [
            [(word[: m - 1], word[m - 1 :], t) for t, m in pairs if m <= layer for word in [(t, s) * (m - 1)]]
            for s, pairs in enumerate(braids)
        ]
        for v in range(start, end):
            base = v * rank
            for s in range(rank):
                if adj[base + s] >= 0:
                    continue
                w = len(last)
                if w >= max_vertices:
                    raise LimitExceeded(f"ball exceeded {max_vertices} vertices")
                last.append(s)
                adj += empty_star
                adj[base + s] = w
                adj[w * rank + s] = v
                for down, up, t in walks[s]:
                    x = v
                    for a in down:  # no parent of w ends in t unless each step is down
                        y = adj[x * rank + a]
                        if not 0 <= y < x:
                            break
                        x = y
                    else:
                        for a in up:
                            x = adj[x * rank + a]
                        adj[x * rank + t] = w
                        adj[w * rank + t] = x
        length += [layer] * (len(last) - end)
        start = end
        if start == len(last):
            break
    return CayleyBall(system, radius, adj, last, length)


def field_map(ball: CayleyBall, start: int, field) -> tuple[int | None, ...]:
    """The vertex map f with f(e) = start, a vertex, and f(x·s) = f(x)·field(x)[s],
    field(x) a label permutation as an image tuple, walked along ball edges down the
    BFS tree: a vertex v is p·s for its parent p = v·s, s the last letter of
    its canonical word, so f(v) is the field(p)[s]-neighbour of f(p).  Only
    tree edges are read; verify_ball_automorphism checks the rest against field.

    f(v) is given exactly when the images of v and of every prefix of its
    canonical word lie in the ball, and is None otherwise.  That includes
    interior(radius - |w|), w the word of start: the image of a prefix p is w
    followed by |p| letters, of length at most |w| + |p| <= radius.
    """
    adj, last, rank = ball.adj, ball.last, ball.rank
    images: list[int | None] = [start]
    for v in range(1, ball.size):
        s = last[v]
        p = adj[v * rank + s]
        fp = images[p]
        x = -1 if fp is None else adj[fp * rank + field(p)[s]]
        images.append(None if x < 0 else x)
    return tuple(images)


def distances_within(ball: CayleyBall, source: int, bound: int) -> dict[int, int]:
    """Graph distance inside the ball from source to every vertex at most bound
    away, by one BFS that expands no vertex at distance bound."""
    neighbors = ball.neighbors
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if dist[x] >= bound:
            continue
        for y in neighbors[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance(ball: CayleyBall, u: int, v: int) -> int | None:
    """Graph distance inside the ball; None when unreachable (never, for balls)."""
    return distances_within(ball, u, ball.size).get(v)


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
    neighbors = ball.neighbors
    count = 0
    path = [u]
    on_path = {u}
    stack = [iter(neighbors[u])]
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
            stack.append(iter(neighbors[y]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return count

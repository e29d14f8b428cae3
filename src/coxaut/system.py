"""Coxeter systems, their defining diagrams, and diagram automorphisms.

A system is given by a finite ordered generator set S and the symmetric
order function m(s, t) in {2, 3, ...} or infinity for distinct s, t.
Generators are handled as dense integer ids in declaration order; only
finite orders are stored, every unlisted pair is infinite.  A diagram
automorphism, a label-preserving permutation of S, is its image tuple: the
image of generator s at position s.
"""

from __future__ import annotations

import math

INFINITY = math.inf

# Node guard of the diagram-automorphism search (read at call time) and the
# default max_nodes of the identity-stabilizer census.
DEFAULT_MAX_NODES = 10**6

# Integer Cartan entries (a_st, a_ts), s < t, by the finite order m(s, t).
# With a_st = a_ts = -2 for an infinite order, the Weyl group of the
# resulting generalized Cartan matrix is the Coxeter group, because
# a_st * a_ts = 0, 1, 2, 3, 4 gives m = 2, 3, 4, 6, infinity (Kac,
# Infinite Dimensional Lie Algebras, Prop. 3.13).
CARTAN_ENTRIES = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}


class ParseError(ValueError):
    """Raised for malformed diagram files or word strings."""


class LimitExceeded(RuntimeError):
    """An enumeration guard tripped; the result is indeterminate, not wrong."""


class CoxeterSystem:
    """A generator list plus the finite pair orders; immutable after construction."""

    def __init__(self, names, finite_orders):
        names = tuple(names)
        if not names:
            raise ParseError("at least one generator is required")
        if len(set(names)) != len(names):
            raise ParseError("duplicate generator names")
        if "e" in names:
            raise ParseError("a generator may not be named 'e': every printed word spells the identity as 'e'")
        orders: dict[tuple[int, int], int] = {}
        for (s, t), m in dict(finite_orders).items():
            if s == t:
                raise ParseError(f"self-pair ({names[s]}, {names[s]}) is not allowed")
            if not isinstance(m, int) or m < 2:
                raise ParseError(f"order for ({names[s]}, {names[t]}) must be an integer >= 2, got {m!r}")
            key = (min(s, t), max(s, t))
            if key in orders and orders[key] != m:
                raise ParseError(f"conflicting orders for ({names[key[0]]}, {names[key[1]]})")
            orders[key] = m
        self.names = names
        self._orders = orders
        self._index = {name: i for i, name in enumerate(names)}
        self.cartan = _cartan_matrix(len(names), orders)
        # Memo of canonical forms for the rewriting engine, keyed by word
        # tuple; systems with a Cartan matrix never fill it.
        self._reduce_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._diagram_group: tuple[int, tuple[tuple[int, ...], ...]] | None = None
        self._order_table: tuple[list[list], list[list[int]]] | None = None

    @property
    def rank(self) -> int:
        return len(self.names)

    def generators(self) -> range:
        return range(self.rank)

    def order(self, s: int, t: int):
        """m(s, t): 1 on the diagonal, a stored finite value, or INFINITY."""
        if s == t:
            return 1
        return self._orders.get((min(s, t), max(s, t)), INFINITY)

    def is_finite(self, s: int, t: int) -> bool:
        return s != t and (min(s, t), max(s, t)) in self._orders

    def finite_pairs(self) -> list[tuple[int, int, int]]:
        """Sorted (s, t, m) triples with s < t and m finite: the diagram edges."""
        return sorted((s, t, m) for (s, t), m in self._orders.items())

    def neighbors(self, s: int) -> list[int]:
        """Generators joined to s by a diagram edge (finite order)."""
        return [t for t in self.generators() if t != s and self.is_finite(s, t)]

    def max_finite_order(self) -> int | None:
        return max(self._orders.values()) if self._orders else None

    def name_of(self, s: int) -> str:
        return self.names[s]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown generator name {name!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.names),
            "orders": [[s, t, m] for s, t, m in self.finite_pairs()],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoxeterSystem):
            return NotImplemented
        return self.names == other.names and self._orders == other._orders

    def __repr__(self) -> str:
        pairs = ", ".join(f"m({self.names[s]},{self.names[t]})={m}" for s, t, m in self.finite_pairs())
        return f"CoxeterSystem({' '.join(self.names)}{'; ' + pairs if pairs else ''})"


def _cartan_matrix(rank: int, orders: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...] | None:
    """Rows of an integer generalized Cartan matrix for the system, or None
    when some finite order is outside CARTAN_ENTRIES."""
    if any(m not in CARTAN_ENTRIES for m in orders.values()):
        return None
    rows = [[2 if s == t else -2 for t in range(rank)] for s in range(rank)]
    for (s, t), m in orders.items():
        rows[s][t], rows[t][s] = CARTAN_ENTRIES[m]
    return tuple(tuple(row) for row in rows)


def parse_system(text: str) -> CoxeterSystem:
    """Parse the diagram file format.

    Line-oriented, '#' starts a comment.  The first real line is
    ``gens <name1> <name2> ...``; each following line is
    ``pair <nameA> <nameB> <m>`` with m an integer >= 2 or ``inf``
    (equivalent to omitting the pair).
    """
    names: tuple[str, ...] | None = None
    pair_lines: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if names is None:
            if tokens[0] != "gens":
                raise ParseError(f"line {lineno}: expected 'gens' line first")
            if len(tokens) < 2:
                raise ParseError(f"line {lineno}: 'gens' needs at least one name")
            names = tuple(tokens[1:])
        elif tokens[0] == "gens":
            raise ParseError(f"line {lineno}: duplicate 'gens' line")
        elif tokens[0] == "pair":
            if len(tokens) != 4:
                raise ParseError(f"line {lineno}: expected 'pair <a> <b> <m>'")
            pair_lines.append((tokens[1], tokens[2], tokens[3]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if names is None:
        raise ParseError("missing 'gens' line")

    # CoxeterSystem checks generator names and orders; this checks only what
    # the file format adds, including self-pairs, which an inf line never passes on
    index = {name: i for i, name in enumerate(names)}
    orders: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    for a, b, m_token in pair_lines:
        for name in (a, b):
            if name not in index:
                raise ParseError(f"unknown generator name {name!r} in pair line")
        s, t = index[a], index[b]
        if s == t:
            raise ParseError(f"self-pair ({a}, {b}) is not allowed")
        key = (min(s, t), max(s, t))
        if key in seen:
            raise ParseError(f"pair ({a}, {b}) specified twice")
        seen.add(key)
        if m_token == "inf":
            continue
        try:
            m = int(m_token)
        except ValueError:
            raise ParseError(f"order must be an integer or 'inf', got {m_token!r}") from None
        orders[(s, t)] = m
    return CoxeterSystem(names, orders)


def cycle_notation(images: tuple[int, ...], names) -> str:
    """A permutation of the generators, given by its image tuple, as disjoint
    cycles over generator names; 'id' when trivial."""
    seen = set()
    cycles = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        cycles.append("(" + " ".join(names[i] for i in cycle) + ")")
    return "".join(cycles) if cycles else "id"


def is_label_preserving(system: CoxeterSystem, images: tuple[int, ...]) -> bool:
    """Whether images, one generator id per generator, keeps every pair order.

    An injective map sends pairs to pairs injectively, so once each stored
    finite pair goes to a stored pair of the same order, the finite pairs map
    onto the finite pairs and the infinite ones onto the infinite ones.  A map
    that is not injective sends some pair to m = 1 and keeps no order.
    """
    if len(set(images)) != len(images):
        return False
    orders = system._orders
    for (s, t), m in orders.items():
        a, b = images[s], images[t]
        if orders.get((a, b) if a < b else (b, a)) != m:
            return False
    return True


def _order_table(system: CoxeterSystem) -> tuple[list[list], list[list[int]]]:
    """(order, same_shape): order[s][t] = m(s, t), and same_shape[s] the
    generators c, in increasing order, whose row m(c, .) rearranges m(s, .).
    Built on the first diagram search and memoized per system."""
    if system._order_table is None:
        n = system.rank
        order = [[system.order(s, t) for t in range(n)] for s in range(n)]
        shapes = [sorted(row) for row in order]
        system._order_table = order, [[c for c in range(n) if shapes[c] == shape] for shape in shapes]
    return system._order_table


def _label_preserving_images(system: CoxeterSystem, prescribed: dict[int, int]):
    """Yield the label-preserving permutations of S extending prescribed, a
    partial assignment {s: image}, as image tuples in lexicographic order.

    Depth-first on an explicit stack: generator s tries, in increasing order,
    each c whose row m(c, .) rearranges m(s, .), has m(c, prescribed[f]) == m(s, f)
    for each prescribed f (only m(c, c) is 1: a prescribed s gets its image, no
    other s does) and, unused, m(c, images[t]) == m(s, t) for t < s.  Every kept
    c is a node; more than DEFAULT_MAX_NODES raise LimitExceeded.
    """
    n = system.rank
    order, same_shape = _order_table(system)
    candidates = [
        [c for c in same if all(order[c][prescribed[f]] == row[f] for f in prescribed)]
        for same, row in zip(same_shape, order)
    ]
    images: list[int] = []
    stack = [iter(candidates[0])]  # the untried candidates of generators 0 .. len(images)
    nodes = 0
    while stack:
        s = len(images)
        for c in stack[-1]:
            if c not in images and [order[c][x] for x in images] == order[s][:s]:
                break
        else:
            stack.pop()
            if images:
                images.pop()
            continue
        nodes += 1
        if nodes > DEFAULT_MAX_NODES:
            raise LimitExceeded(f"diagram automorphism search exceeded {DEFAULT_MAX_NODES} nodes")
        images.append(c)
        if s + 1 < n:
            stack.append(iter(candidates[s + 1]))
        else:
            yield tuple(images)
            images.pop()


def enumerate_diagram_automorphisms(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """All label-preserving permutations of S, as image tuples in lexicographic order.

    The identity comes first (it is lexicographically least).  The result is
    closed under composition and inverse: it is the diagram automorphism group.
    Raises LimitExceeded when the search passes DEFAULT_MAX_NODES nodes.
    """
    return list(_label_preserving_images(system, {}))


def diagram_group(system: CoxeterSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The diagram automorphism group as (order, strong generators), unlisted.

    Base: the generators in order.  The automorphisms fixing 0 .. i-1 move i to
    itself and to each c > i for which {0: 0, ..., i-1: i-1, i: c} has a
    label-preserving extension; the first one found is a coset representative,
    kept as a strong generator.  By orbit-stabilizer at each level the order is
    the product of the orbit sizes, and the representatives of levels i and up
    generate level i (Sims; Seress, Permutation Group Algorithms, 2003, ch. 4).
    Each extension search is guarded by DEFAULT_MAX_NODES; memoized per system.
    """
    if system._diagram_group is None:
        order, strong_generators = 1, []
        for i in system.generators():
            fixed = {s: s for s in range(i)}
            found = [next(_label_preserving_images(system, {**fixed, i: c}), None) for c in range(i + 1, system.rank)]
            representatives = [images for images in found if images is not None]
            strong_generators += representatives
            order *= 1 + len(representatives)
        system._diagram_group = order, tuple(strong_generators)
    return system._diagram_group


class FlexibilityWitness:
    """A pivot generator and a nontrivial diagram automorphism phi, an image
    tuple, fixing it and all its neighbors."""

    __slots__ = ("pivot", "phi")

    def __init__(self, pivot: int, phi: tuple[int, ...]):
        self.pivot = pivot
        self.phi = phi


def validate_witness(system: CoxeterSystem, witness: FlexibilityWitness) -> None:
    """Raise ValueError unless the witness satisfies the flexibility conditions."""
    phi = witness.phi
    if len(phi) != system.rank:
        raise ValueError("witness permutation has the wrong rank")
    if not is_label_preserving(system, phi):
        raise ValueError("witness permutation does not preserve pair orders")
    if phi == tuple(system.generators()):
        raise ValueError("witness permutation is trivial")
    if phi[witness.pivot] != witness.pivot:
        raise ValueError("witness permutation moves the pivot")
    for t in system.neighbors(witness.pivot):
        if phi[t] != t:
            raise ValueError(f"witness permutation moves {system.name_of(t)}, a neighbor of the pivot")


def is_flexible(system: CoxeterSystem) -> FlexibilityWitness | None:
    """Search for a flexibility witness; None when the diagram is not flexible.

    Deterministic choice: smallest pivot index, then lexicographically
    smallest images; each pivot's search stops after the identity and one more.
    """
    for pivot in system.generators():
        found = _label_preserving_images(system, {t: t for t in [pivot, *system.neighbors(pivot)]})
        next(found)  # the identity
        for images in found:
            return FlexibilityWitness(pivot, images)
    return None

"""The ball-map checks read straight off the adjacency lists: the reference
oracle for coxaut's table-driven checks.

coxaut.automorphisms checks a map with the per-ball tables of CayleyBall
(the non-tree edges, the interior prefix, the memoized star interior);
these functions scan ball.adj and ball.length instead, as the checks were
first written, so that a test can compare reports, fields and violation
lists with code that shares none of those tables.  coxaut's
verify_ball_automorphism reads a map's non-tree edges against aut.field,
the field it was walked from; the one here scans every edge of any map, so
a map that a test builds by hand and no field walks is checked here.

psi_family_distinctness is the check verify ran as psi-family-distinct
until its outcome was derived from pivot_field (see coxaut.checks): the
psi_n are pairwise distinct.

A factored automorphism (w, d), d an image tuple, acts by x -> w d(x),
pairs compose by (w1, d1)(w2, d2) = (w1 d1(w2), d1 d2) and invert by
(w, d)^-1 = (d^-1(w^-1), d^-1); act, compose, inverse and is_identity do
this word arithmetic with the word engine, and compose_ball composes two
ball maps vertex by vertex, so that a test can compare both with the maps
coxaut walks.
"""

from coxaut.automorphisms import BallAutomorphism, VerificationReport, psi_n
from coxaut.ball import CayleyBall
from coxaut.system import CoxeterSystem, FlexibilityWitness, validate_witness
from coxaut.words import Word, inverse_word, multiply, reduce_word

from conftest import label, star

Factored = tuple[Word, tuple[int, ...]]


def act(system: CoxeterSystem, f: Factored, x: Word) -> Word:
    w, d = f
    return multiply(system, w, tuple(d[s] for s in x))


def compose(system: CoxeterSystem, f: Factored, g: Factored) -> Factored:
    """f after g."""
    (w1, d1), (w2, d2) = f, g
    return multiply(system, w1, tuple(d1[s] for s in w2)), tuple(d1[s] for s in d2)


def inverse(system: CoxeterSystem, f: Factored) -> Factored:
    w, d = f
    dinv = tuple(sorted(range(len(d)), key=d.__getitem__))
    return reduce_word(system, tuple(dinv[s] for s in inverse_word(w))), dinv


def is_identity(f: Factored) -> bool:
    w, d = f
    return not w and d == tuple(range(len(d)))


def compose_ball(ball: CayleyBall, outer: BallAutomorphism, inner: BallAutomorphism) -> BallAutomorphism:
    """outer after inner; the interior radius is recomputed from actual
    definedness.  Its field at x is inner's at x followed by outer's at
    inner(x), the field a walk of the composition reads."""
    vmap = tuple(None if mid is None else outer.vmap[mid] for mid in inner.vmap)
    undefined = [ball.length[v] - 1 for v, x in enumerate(vmap) if x is None]

    def field(x):
        outer_perm = outer.field(inner.vmap[x])
        return tuple(outer_perm[t] for t in inner.field(x))

    return BallAutomorphism(vmap, min([ball.radius, *undefined]), field)


def interior(ball: CayleyBall, interior_radius: int) -> list[int]:
    return [v for v in range(ball.size) if ball.length[v] <= interior_radius]


def star_interior(ball: CayleyBall, interior_radius: int) -> list[int]:
    rank = ball.system.rank
    return [
        v
        for v in range(ball.size)
        if ball.length[v] <= interior_radius
        and len(star(ball, v)) == rank
        and all(ball.length[u] <= interior_radius for u in star(ball, v).values())
    ]


def verify_ball_automorphism(ball: CayleyBall, aut: BallAutomorphism) -> VerificationReport:
    violations: list[str] = []
    for v in interior(ball, aut.interior_radius):
        if aut.vmap[v] is None:
            violations.append(f"undefined at interior vertex {v} (length {ball.length[v]})")
    images: dict[int, int] = {}
    for v, x in enumerate(aut.vmap):
        if x is None:
            continue
        if x in images:
            violations.append(f"not injective: vertices {images[x]} and {v} both map to {x}")
        else:
            images[x] = v
    for u, v, s in ball.edges:
        fu, fv = aut.vmap[u], aut.vmap[v]
        if fu is None or fv is None:
            continue
        if label(ball, fu, fv) is None:
            violations.append(
                f"edge ({u}, {v}) labeled {ball.system.name_of(s)} maps to non-adjacent pair ({fu}, {fv})"
            )
    return VerificationReport(ok=not violations, violations=tuple(violations))


def broken_edges(ball: CayleyBall, aut: BallAutomorphism, field) -> list[tuple[int, int, int]]:
    """The edges (u, v, s), u < v, with both ends mapped where aut(v) is not
    the field(u)[s]-neighbour of aut(u), in (u, v, s) order."""
    broken = []
    for u in range(ball.size):
        for s, v in star(ball, u).items():
            fu, fv = aut.vmap[u], aut.vmap[v]
            if u < v and fu is not None and fv is not None and star(ball, fu).get(field(u)[s]) != fv:
                broken.append((u, v, s))
    return sorted(broken)


def local_permutation(ball: CayleyBall, aut: BallAutomorphism, v: int) -> dict[int, int]:
    fv = aut.vmap[v]
    if fv is None:
        raise ValueError(f"vertex {v} has no image")
    result: dict[int, int] = {}
    for s, u in star(ball, v).items():
        fu = aut.vmap[u]
        if fu is None:
            continue
        image = label(ball, fv, fu)
        if image is None:
            raise ValueError(f"edge ({v}, {u}) maps to non-adjacent pair ({fv}, {fu})")
        result[s] = image
    return result


def local_permutation_field(
    ball: CayleyBall, aut: BallAutomorphism, interior_radius: int | None = None
) -> dict[int, tuple[int, ...]]:
    if interior_radius is None:
        interior_radius = aut.interior_radius
    vertices = star_interior(ball, interior_radius)
    rank = ball.system.rank
    field: dict[int, tuple[int, ...]] = {}
    for v in vertices:
        pi = local_permutation(ball, aut, v)
        if len(pi) != rank:
            raise ValueError(f"local permutation at star-interior vertex {v} is not total")
        field[v] = tuple(pi[s] for s in range(rank))
    return field


def entry_map(ball: CayleyBall, entry, probe_radius: int) -> BallAutomorphism:
    """A census entry as a ball map: its probe images, undefined beyond them.
    No field walks it, so verify_ball_automorphism here checks it."""
    return BallAutomorphism(entry.images + (None,) * (ball.size - len(entry.images)), probe_radius, None)


def coupling_violations(
    ball: CayleyBall, aut: BallAutomorphism, interior_radius: int | None = None
) -> list[tuple[int, int, int, int]]:
    field = local_permutation_field(ball, aut, interior_radius)
    fixed_sets = {s: [s] + ball.system.neighbors(s) for s in ball.system.generators()}
    violations: list[tuple[int, int, int, int]] = []
    for v, pv in field.items():
        for s, u in star(ball, v).items():
            if u not in field:
                continue
            pu = field[u]
            for x in fixed_sets[s]:
                if pv[x] != pu[x]:
                    violations.append((v, u, s, x))
    return violations


class PsiFamilyReport:
    """Fixed/moved behavior of psi_n on the test words (p t)^k."""

    def __init__(self, fixed: tuple[tuple[bool, ...], ...], problems: list[str]):
        self.fixed = fixed
        self.ok = not problems
        self.detail = "; ".join(problems) if problems else f"{len(fixed)} maps pairwise distinct"


def psi_family_distinctness(ball: CayleyBall, witness: FlexibilityWitness, n_max: int) -> PsiFamilyReport:
    """Check that psi_1, ..., psi_n_max are pairwise distinct maps.

    With p the pivot and t a generator moved by phi, the element (p t)^k is
    fixed by psi_n exactly when k < n, so the column at k = n separates psi_n
    from every psi_m with m > n.  The ball must contain every test element,
    hence the radius requirement.
    """
    system = ball.system
    if ball.radius < 2 * n_max:
        raise ValueError(f"radius {ball.radius} too small; need at least {2 * n_max} for n_max={n_max}")
    validate_witness(system, witness)
    t = next(t for t in system.generators() if witness.phi[t] != t)
    tests, v = [], 0
    for _ in range(n_max):
        v = star(ball, star(ball, v)[witness.pivot])[t]
        tests.append(v)
    rows = [tuple(psi_n(ball, witness, n).vmap[v] == v for v in tests) for n in range(1, n_max + 1)]
    problems = [
        f"psi_{n} on (pt)^{k}: fixed={fixed}, expected {k < n}"
        for n, row in enumerate(rows, 1)
        for k, fixed in enumerate(row, 1)
        if fixed != (k < n)
    ]
    problems += [
        f"psi_{a + 1} and psi_{b + 1} agree on every test word"
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
        if rows[a] == rows[b]
    ]
    return PsiFamilyReport(tuple(rows), problems)


def erring_field(ball: CayleyBall, field):
    """field, except at the first vertex u > 0 with a non-tree edge (u, v, s) up:
    there s trades images with the last letter of u's canonical word, a label
    down from u.  field_map reads neither at u, so a map walked from the erring
    field is the map walked from field, and it breaks the erring field on
    (u, v, s) when it keeps field there."""
    u, _, s = next(e for e in ball.non_tree_edges if e[0])
    t = ball.last[u]

    def at(x):
        perm = field(x)
        if x != u:
            return perm
        perm = list(perm)
        perm[s], perm[t] = perm[t], perm[s]
        return tuple(perm)

    return at

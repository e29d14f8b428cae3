"""Relator cycles traced letter by letter: the reference oracle for coxaut's
relator cycles.

coxaut.cycles finds the relator cycles by their shape among the enumerated
embedded cycles and certifies a cycle by the breadth-first id prefix; these
functions trace (st)^m from every base vertex instead, as the cycles were
first found, certify by word length, and run the essentiality test on every
even cycle, every translate of a cycle word included, so that a test can
compare relator lists and characterization statuses with code that shares
neither the shape test, the prefix, nor the reading of each word once.
map_cycle carries a cycle through a vertex map, so that a test can check
that a ball automorphism sends cycles to cycles of the same kind.
"""

from coxaut.ball import CayleyBall
from coxaut.cycles import EmbeddedCycle, enumerate_embedded_cycles, is_alternating, is_essential

from conftest import label, star


def canonical(ball: CayleyBall, vertices: list[int]) -> EmbeddedCycle:
    """The smallest vertex first, then its smaller cycle neighbour."""
    start = vertices.index(min(vertices))
    rotated = vertices[start:] + vertices[:start]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    k = len(rotated)
    return EmbeddedCycle(tuple(rotated), tuple(label(ball, rotated[i], rotated[(i + 1) % k]) for i in range(k)))


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
    image = canonical(ball, images)
    if None in image.labels:
        raise ValueError("cycle image is not a cycle")
    return image


def relator_cycles(ball: CayleyBall) -> list[EmbeddedCycle]:
    """Traces of (st)^m for each finite pair, from every base vertex in the ball.

    A trace survives only if all 2m edges lie in the ball and it returns to
    its base; distinct bases on the same cycle give the same canonical form,
    which is deduplicated.
    """
    seen: dict[tuple[int, ...], EmbeddedCycle] = {}
    for base in range(ball.size):
        for s, t, m in ball.system.finite_pairs():
            vertices = [base]
            for i in range(2 * m - 1):
                nxt = star(ball, vertices[-1]).get((s, t)[i % 2])
                if nxt is None:
                    break
                vertices.append(nxt)
            else:
                # the 2m edge labels alternate s, t, ...; the closing one is t
                if star(ball, vertices[-1]).get(t) == base and len(set(vertices)) == 2 * m:
                    cycle = canonical(ball, vertices)
                    seen.setdefault(cycle.vertices, cycle)
    return sorted(seen.values(), key=lambda c: (len(c), c.vertices))


def certifies(ball: CayleyBall, cycle: EmbeddedCycle) -> bool:
    return ball.complete or all(ball.length[v] <= ball.radius - cycle.half_length for v in cycle.vertices)


class TranslateReport:
    """Certified essential cycles against certified relator cycles, translates
    included: cycles, where coxaut's report holds cycle words."""

    def __init__(self, essential, certified_relator, essential_not_relator, relator_not_essential):
        self.essential = essential
        self.certified_relator = certified_relator
        self.essential_not_relator = essential_not_relator
        self.relator_not_essential = relator_not_essential

    @property
    def certified_essential(self) -> int:
        return len(self.essential)

    @property
    def ok(self) -> bool:
        return not self.essential_not_relator and not self.relator_not_essential


def status(report) -> str:
    """essential-census's status for a characterization report: fail on a
    mismatch, else vacuous with no certified essential cycle, else pass."""
    return "fail" if not report.ok else "pass" if report.certified_essential else "vacuous"


def verify_essential_characterization(ball: CayleyBall, cycles: list[EmbeddedCycle] | None = None) -> TranslateReport:
    """The characterization over cycles, by default every embedded cycle up to
    twice the largest finite order, as verify ran it before it read each cycle
    word once."""
    if cycles is None:
        m = ball.system.max_finite_order()
        cycles = enumerate_embedded_cycles(ball, 2 * m) if m is not None else []
    relators = {c.vertices: c for c in relator_cycles(ball) if certifies(ball, c)}
    essentials: dict[tuple[int, ...], EmbeddedCycle] = {}
    for cycle in cycles:
        if len(cycle) % 2 == 0 and is_essential(ball, cycle).essential and certifies(ball, cycle):
            essentials[cycle.vertices] = cycle
    return TranslateReport(
        essential=tuple(essentials.values()),
        certified_relator=len(relators),
        essential_not_relator=tuple(c for key, c in sorted(essentials.items()) if key not in relators),
        relator_not_essential=tuple(c for key, c in sorted(relators.items()) if key not in essentials),
    )


def translate_walk(ball: CayleyBall) -> TranslateReport:
    """essential-census as verify ran it before it read each cycle word once:
    every embedded cycle up to twice the largest finite order, each word walked
    from every vertex, and each certified one filed as a relator when it
    alternates and as essential by is_essential."""
    m = ball.system.max_finite_order()
    essentials, relators = {}, {}
    for cycle in enumerate_embedded_cycles(ball, 2 * m) if m is not None else ():
        if len(cycle) % 2 == 0 and certifies(ball, cycle):
            if is_alternating(cycle):
                relators[cycle.vertices] = cycle
            if is_essential(ball, cycle).essential:
                essentials[cycle.vertices] = cycle
    return TranslateReport(
        essential=tuple(essentials.values()),
        certified_relator=len(relators),
        essential_not_relator=tuple(c for key, c in sorted(essentials.items()) if key not in relators),
        relator_not_essential=tuple(c for key, c in sorted(relators.items()) if key not in essentials),
    )

"""Relator cycles traced letter by letter: the reference oracle for coxaut's
relator cycles.

coxaut.cycles finds the relator cycles by their shape among the enumerated
embedded cycles and certifies a cycle by the breadth-first id prefix; these
functions trace (st)^m from every base vertex instead, as the cycles were
first found, certify by word length, and run the essentiality test on every
even cycle, so that a test can compare relator lists and characterization
reports with code that shares neither the shape test nor the prefix.
map_cycle carries a cycle through a vertex map, so that a test can check
that a ball automorphism sends cycles to cycles of the same kind.
"""

from coxaut.ball import CayleyBall
from coxaut.cycles import CharacterizationReport, EmbeddedCycle, is_essential

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


def verify_essential_characterization(ball: CayleyBall, cycles: list[EmbeddedCycle]) -> CharacterizationReport:
    relators = {c.vertices: c for c in relator_cycles(ball) if certifies(ball, c)}
    essentials: dict[tuple[int, ...], EmbeddedCycle] = {}
    examined = 0
    for cycle in cycles:
        if len(cycle) % 2 == 0:
            examined += 1
            if is_essential(ball, cycle).essential and certifies(ball, cycle):
                essentials[cycle.vertices] = cycle
    return CharacterizationReport(
        cycles_examined=examined,
        essential=tuple(essentials.values()),
        certified_relator=len(relators),
        essential_not_relator=tuple(c for key, c in sorted(essentials.items()) if key not in relators),
        relator_not_essential=tuple(c for key, c in sorted(relators.items()) if key not in essentials),
    )

"""The operation list of each workload, generated from the seed.

Every operation is one ``coxaut`` command line.  ``verify-matrix`` and
``deep-ball`` have fixed lists; ``word-problem`` draws its words from the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DIAGRAMS = ("a2", "a3", "atilde2", "b2", "c2", "c2cubed", "flexible", "free2")
VERIFY_RADIUS = 6
# Diagrams whose verify takes well under a second.  They hold the median of
# verify-matrix, and a short call picks up more of the machine's
# second-to-second jitter than a long one, so each pass calls them
# VERIFY_QUICK_CALLS times in a row, each call with a freshly loaded system.
VERIFY_QUICK = ("a2", "a3", "b2", "c2", "free2")
VERIFY_QUICK_CALLS = 3

# word-problem strata.  Random words over the non-abelian diagrams sit at
# the fast end (milliseconds).  c2cubed is elementary abelian, so the
# m-closure of a word is exactly the set of rearrangements of its letters:
# a seeded shuffle of a fixed letter multiset has a closure cost set by the
# multiset alone.  Those strata hold the median and the 90th percentile,
# so the seed changes the words but not where the latency percentiles fall.
RANDOM_WORDS = (("atilde2", 12, 4), ("a3", 8, 4), ("b2", 14, 4), ("flexible", 14, 4))
C2CUBED_SHUFFLES = (((3, 3, 3), 20), ((4, 3, 3), 6), ((4, 4, 3), 2))
# The long slice: its closure passes the guard, so the operation is undecided today.
LONG_SHUFFLE = (5, 5, 4)
LONG_MAX_STATES = 100_000


@dataclass(frozen=True)
class Op:
    """One command line plus what its oracle needs to know."""

    kind: str
    diagram: str
    argv: tuple[str, ...]
    radius: int | None = None
    word: str | None = None
    calls: int = 1  # back-to-back calls per pass; the latency is their median

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def diagram_path(diagram: str) -> str:
    return f"diagrams/{diagram}.cox"


def verify_matrix() -> list[Op]:
    argv = ("--radius", str(VERIFY_RADIUS), "--format", "json")
    return [
        Op(
            "verify",
            d,
            ("verify", diagram_path(d), *argv),
            radius=VERIFY_RADIUS,
            calls=VERIFY_QUICK_CALLS if d in VERIFY_QUICK else 1,
        )
        for d in DIAGRAMS
    ]


def deep_ball() -> list[Op]:
    def op(kind, diagram, radius, *extra):
        argv = (kind, diagram_path(diagram), "--radius", str(radius), *extra, "--format", "json")
        return Op(kind, diagram, argv, radius=radius)

    return [
        op("ball", "atilde2", 20),
        op("ball", "flexible", 15),
        op("cycles", "atilde2", 18),
        op("exotic", "flexible", 14),
        op("exotic", "flexible", 12, "--n", "3"),
    ]


def word_problem(seed: int, systems) -> list[Op]:
    """Seeded words; ``systems`` maps diagram names to parsed systems (for generator names)."""
    rng = random.Random(seed)

    def reduce_op(diagram, letters, *extra):
        word = " ".join(letters)
        return Op("reduce", diagram, ("reduce", diagram_path(diagram), word, *extra, "--format", "json"), word=word)

    def shuffled(counts):
        letters = [name for name, c in zip(systems["c2cubed"].names, counts) for _ in range(c)]
        rng.shuffle(letters)
        return letters

    ops = []
    for diagram, length, count in RANDOM_WORDS:
        names = systems[diagram].names
        ops += [reduce_op(diagram, [rng.choice(names) for _ in range(length)]) for _ in range(count)]
    for counts, count in C2CUBED_SHUFFLES:
        ops += [reduce_op("c2cubed", shuffled(counts)) for _ in range(count)]
    ops.append(reduce_op("c2cubed", shuffled(LONG_SHUFFLE), "--max-states", str(LONG_MAX_STATES)))
    # interleave the strata so each one's latencies are sampled across the whole pass
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, systems) -> list[Op]:
    if workload == "verify-matrix":
        return verify_matrix()
    if workload == "deep-ball":
        return deep_ball()
    if workload == "word-problem":
        return word_problem(seed, systems)
    raise KeyError(f"unknown workload {workload!r}")

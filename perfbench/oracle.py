"""Per-operation oracles, independent of the m-operation rewriting engine.

Words are checked in the integer geometric representation: every shipped
diagram has all finite orders in {2, 3, 4, 6}, so a generalized Cartan
matrix with a_st * a_ts = 0, 1, 2, 3 (and a_st = a_ts = -2 for an infinite
order) has the Coxeter group as its Weyl group (Kac, Infinite Dimensional
Lie Algebras, Prop. 3.13).  An element w is stored as the integer matrix of
w^-1 acting on simple-root coordinates; its column s is w^-1(alpha_s), which
is a negative root exactly when s is a left descent of w.  Peeling the
smallest left descent gives the lexicographically least reduced word, which
is what ``coxaut reduce`` calls the canonical form.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

# (a_st, a_ts) for s < t, keyed by the order m(s, t).
CARTAN_ENTRIES = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}


class OracleError(AssertionError):
    """The program's output disagrees with what the oracle predicts."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


class Geometric:
    """The geometric representation of one Coxeter system, on integer vectors."""

    def __init__(self, names, finite_pairs):
        self.names = tuple(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        cartan = [[2 if i == j else -2 for j in range(n)] for i in range(n)]
        for s, t, m in finite_pairs:
            if m not in CARTAN_ENTRIES:
                raise ValueError(f"order {m} has no integer Cartan entries")
            cartan[s][t], cartan[t][s] = CARTAN_ENTRIES[m]
        self.cartan = cartan
        self.identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self._reduced_word_counts: dict = {}

    @property
    def rank(self) -> int:
        return len(self.names)

    # The simple reflection S_s is the identity except in row s, where
    # (S_s v)_s = v_s - sum_j a_sj v_j.

    def _reflect_left(self, matrix, s: int):
        """S_s * matrix: only row s changes."""
        a = self.cartan[s]
        row = tuple(
            matrix[s][k] - sum(a[j] * matrix[j][k] for j in range(self.rank)) for k in range(self.rank)
        )
        return matrix[:s] + (row,) + matrix[s + 1 :]

    def _reflect_right(self, matrix, s: int):
        """matrix * S_s: column j loses a_sj times column s."""
        a = self.cartan[s]
        return tuple(tuple(r[j] - a[j] * r[s] for j in range(self.rank)) for r in matrix)

    def inverse_matrix(self, word) -> tuple:
        """The matrix of w^-1 = s_xk ... s_x1 for the word x1 ... xk."""
        matrix = self.identity
        for s in word:
            matrix = self._reflect_left(matrix, s)
        return matrix

    def left_descents(self, inv) -> list[int]:
        """Generators s with l(s w) < l(w): those where w^-1(alpha_s) is negative."""
        return [s for s in range(self.rank) if all(row[s] <= 0 for row in inv)]

    def canonical(self, word) -> tuple[int, ...]:
        """Lexicographically least reduced word for the element spelled by word."""
        inv = self.inverse_matrix(word)
        out: list[int] = []
        while True:
            descents = self.left_descents(inv)
            if not descents:
                return tuple(out)
            s = descents[0]
            out.append(s)
            inv = self._reflect_right(inv, s)

    def reduced_word_count(self, word) -> int:
        """Number of reduced words for the element: sum over left descents, memoized by element."""
        return self._count(self.inverse_matrix(word))

    def _count(self, inv) -> int:
        cached = self._reduced_word_counts.get(inv)
        if cached is not None:
            return cached
        descents = self.left_descents(inv)
        total = 1 if not descents else sum(self._count(self._reflect_right(inv, s)) for s in descents)
        self._reduced_word_counts[inv] = total
        return total

    def parse(self, text: str) -> tuple[int, ...]:
        tokens = text.split()
        if tokens == ["e"]:
            return ()
        return tuple(self.index[tok] for tok in tokens)

    def format(self, word) -> str:
        return " ".join(self.names[s] for s in word) if word else "e"


def is_flexible(rank: int, order) -> bool:
    """Brute-force flexibility: some pivot s and some nontrivial permutation of the
    generators preserving every pair order and fixing s and every t with m(s, t) finite."""
    pairs = [(s, t) for s in range(rank) for t in range(s + 1, rank)]
    autos = [
        p
        for p in itertools.permutations(range(rank))
        if any(p[i] != i for i in range(rank)) and all(order(p[s], p[t]) == order(s, t) for s, t in pairs)
    ]
    for pivot in range(rank):
        fixed = [pivot] + [t for t in range(rank) if t != pivot and order(pivot, t) != math.inf]
        if any(all(p[x] == x for x in fixed) for p in autos):
            return True
    return False


def expected_probe_radius(max_finite_order, radius: int) -> int:
    """verify's default probe radius: radius minus the largest finite order (radius - 1 with no edges)."""
    return max(radius - (max_finite_order if max_finite_order is not None else 1), 0)


def check_verify(code: int, stdout: str, *, radius: int, flexible: bool, probe_radius: int) -> bool:
    """Oracle for ``verify --format json``; returns whether the run was decided.

    Exit 3 means a guard tripped: it is undecided, not wrong, and it must
    come exactly when some check is indeterminate.  The verdict is
    INDETERMINATE only then; otherwise it must be the one the structure
    theory predicts, and INCONCLUSIVE is accepted only at probe radius 0,
    where the census cannot tell diagram automorphisms apart.
    """
    _expect(code in (0, 3), f"verify exited {code}")
    report = json.loads(stdout)
    _expect(report["radius"] == radius, f"radius {report['radius']} != {radius}")
    _expect(report["probe_radius"] == probe_radius, f"probe radius {report['probe_radius']} != {probe_radius}")
    _expect(report["flexible"] == flexible, f"flexible={report['flexible']}, oracle says {flexible}")
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    _expect(not failing, f"failing checks: {failing}")
    _expect(
        all(c["status"] in ("pass", "vacuous", "indeterminate") for c in report["checks"]),
        "unknown check status",
    )
    indeterminate = any(c["status"] == "indeterminate" for c in report["checks"])
    _expect(indeterminate == (code == 3), f"exit {code} with indeterminate checks: {indeterminate}")
    if report["verdict"] == "INDETERMINATE":
        _expect(code == 3, f"verdict INDETERMINATE with exit {code}")
        return False
    expected = "NONDISCRETE-EVIDENCE" if flexible else "DISCRETE-EVIDENCE"
    accepted = {expected} | ({"INCONCLUSIVE"} if probe_radius == 0 else set())
    _expect(report["verdict"] in accepted, f"verdict {report['verdict']}, expected {expected}")
    return code == 0


def ball_size(diagram: str, radius: int) -> int:
    """Closed-form vertex counts of Cayley balls for the infinite diagrams deep-ball uses."""
    if diagram == "atilde2":
        return 1 + 3 * radius * (radius + 1) // 2
    if diagram == "flexible":
        # growth series (1 + x)^2 / (1 - x - x^2): sphere sizes 1, 3, 5, 8, 13, ...
        spheres = [1, 3, 5]
        while len(spheres) <= radius:
            spheres.append(spheres[-1] + spheres[-2])
        return sum(spheres[: radius + 1])
    raise KeyError(f"no closed form for {diagram}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(code: int, stdout: str, expected_sha256: str) -> bool:
    """Oracle for deep-ball output: byte-identical to the recorded output."""
    _expect(code == 0, f"exited {code}")
    _expect(sha256(stdout) == expected_sha256, "output differs from the recorded SHA-256")
    return True


def check_ball(code: int, stdout: str, *, diagram: str, radius: int, expected_sha256: str) -> bool:
    _expect(code == 0, f"ball exited {code}")
    vertices = json.loads(stdout)["vertices"]
    _expect(len(vertices) == ball_size(diagram, radius), f"{len(vertices)} vertices, closed form {ball_size(diagram, radius)}")
    return check_digest(code, stdout, expected_sha256)


def check_reduce(code: int, stdout: str, *, geometric: Geometric, word: str) -> bool:
    """Oracle for ``reduce --format json``; exit 3 (closure guard) is undecided."""
    _expect(code in (0, 3), f"reduce exited {code}")
    if code == 3:
        return False
    out = json.loads(stdout)
    given = geometric.parse(word)
    canonical = geometric.parse(out["canonical"])
    _expect(
        geometric.inverse_matrix(canonical) == geometric.inverse_matrix(given),
        "canonical word represents a different element",
    )
    _expect(len(geometric.canonical(canonical)) == len(canonical), "canonical word is not reduced")
    least = geometric.canonical(given)
    expected = {
        "input": word,
        "canonical": geometric.format(least),
        "length": len(least),
        "m_class_size": geometric.reduced_word_count(given),
    }
    _expect(out == expected, f"reduce output {out} != {expected}")
    return True

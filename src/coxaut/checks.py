"""The per-system invariant suite behind the verify command.

Each check returns pass, fail, vacuous (nothing in range to test), or
indeterminate (an enumeration guard tripped; no claim either way).  The
closing verdict is deliberately labeled -EVIDENCE: a finite ball cannot
prove anything about the infinite graph, it can only agree or disagree
with what the structure theory predicts.

A check is kept only when some ball or map the code can produce fails it
while every other kept check passes.  Dropped by that rule:

- interior-degree: build_ball expands every vertex of length < radius on
  every generator and never removes an adjacency entry.
- no-odd-cycles: bipartite-edges reads every adjacency entry, so every
  step changes the parity of the word length and no cycle is odd.
- essential-alternation: a certified essential cycle that does not
  alternate lands in essential_not_relator and fails essential-census.
- essential-cycle-image: census entries, and psi once psi-verified
  passes, are ball automorphisms that keep word length, and is_essential
  and certifies read only the ball graph and word lengths.
- rewriting-phi-commutation: it ran on diagram_group's strong generators,
  which are label-preserving, and commutation_violations is empty exactly
  for those.
- distance-equals-length: once bipartite-edges passes, every adjacency
  entry has its reverse and joins consecutive word lengths, and build_ball
  gives each vertex v = p s an edge to its parent p one layer down; so a
  path from e has at least as many steps as the length of its end, and the
  parent chain has exactly that many.
- psi-field-witness: once psi-m-class-well-defined passes, psi sends each
  s-neighbour of e to its phi(s)-neighbour, so it fixes the pivot p, which
  phi fixes; past p its field is the identity, so it fixes every neighbour
  of p.  At r >= 2 both stars lie in the star interior, with local
  permutations phi and the identity, and phi is not the identity, so the
  field is not constant.
- psi-family-distinct: psi_n is walked from e down the canonical words.
  With t moved by phi, m(p, t) is infinite (phi fixes the pivot's
  finite-order partners), so (p t)^k has one reduced word, its canonical
  word.  Along it pivot_field's n-th field is the identity through the
  n-th pivot and phi after it, and phi fixes p.  So psi_n fixes (p t)^k
  for k < n, and for k >= n walks to (p t)^(n-1) (p phi(t))^(k-n+1), a
  word whose neighbouring letters all have infinite order, so reduced and
  not (p t)^k.  That triangular fixed/moved table makes the psi_n
  pairwise distinct; tests/map_checks.py keeps the check as an oracle.

left-mult-identity-field does not walk the identity: build_ball links each
vertex v = p s to its parent p one layer down, so once bipartite-edges
passes the identity's walk sends v to p's s-neighbour, v, and every edge to
itself.  It walks the generators and the words of length 2.  The walk from
g h is the walk from g after the one from h wherever the walk from g is
defined on the other's images, as it is at length <= r - 2; each step of
the composition is an edge, so an edge or injection it breaks there is
broken by a generator walk.  Nearer the boundary the argument fails: on the
diagram m(a, b) = 2, m(a, c) = m(b, c) = 3 at r = 3, with the c-edges at a
and b swapped (a joined to b c, b to a c), the walks from a c and b c break
an edge of lengths 2 and 3 while every other kept check passes.

Three tests inside the psi checks go by the same rule:

- totality: psi and psi_n are walked from e, so their interior is the
  whole ball, and a walk is defined on its interior (below).
- word length: psi and psi_n are walked from e, so they fix it, and a
  total, injective, edge-preserving map of a finite graph is an
  automorphism (it is a bijection and, being injective on the edges, onto
  them); it keeps the distance from e, which is word length.
- decompose: it reads psi's local permutation at e, phi, and compares psi
  with diagram_aut(phi).  t moved by phi has infinite order with p (phi
  fixes p's finite-order partners), so p t is reduced and lies in the ball
  at r >= 2; diagram_aut(phi) sends it to p phi(t), and psi to p t, so psi
  never factors.

Each map is built once and verified once, against the field it was walked
from, which it carries: left-mult-identity-field, diagram-aut-field,
psi-m-class-well-defined (psi-verified reads the same psi report) and
psi-n-verified.  Only an edge that breaks that field can join a
non-adjacent pair, so psi-n-verified lists the violations that reading
psi_n's own field would, in the same order.  A tree edge cannot break the
field its map was walked from: field_map sets f(v), for v's edge (p, v, s)
to its BFS parent, to the field(p)[s]-neighbour of f(p), which is the test
itself.  So verify_ball_automorphism reads only ball.non_tree_edges (none
on a tree).

verify_ball_automorphism tests no vertex of a map's interior for an image:
a walk is defined there.  Let w be its start and v a vertex of length at
most r - |w|, its interior on a proper ball.  Each proper prefix p of v's
canonical word is walked to a vertex |p| edges from w, and an edge joins
consecutive lengths, so its length is at most |w| + |p| < r; its star lies
in the ball, as build_ball expands every vertex shorter than r on every
generator.  So field_map never reads -1 on the way to v.  A complete ball
has no -1 entry at all.  This is the argument that dropped interior-degree.

essential-census reads each cycle word w of length 2n <= min(2 max m, 2r)
once, on its cycle C through e, where it used to classify every certified
translate g C.  No translate walk can fail where that reading passes.  A
certified translate has every vertex of length at most r - n, so n <= r and
w is read.  Each of its opposite pairs u, v has |u| + |v| + n <= 2r, so
is_essential walks the half of w between them from e and reads length and
the reduced-word count there: the reading's verdict for w, pair by pair; and
alternation reads the labels alone.  So a translate whose verdict and
alternation disagree has a word whose verdict and alternation disagree, and
the reading fails on every such read word, certified or not.  Certification
only decides what counts toward pass: a word counts when C is certified,
which holds once r >= 2n (each vertex of C is at most n from e along C).  On
a ball that build_ball makes, a read word's verdict is the group's (the
reduced words of an x with |x| <= n <= r stay in the ball), so a word fails
only where the characterization is false in the group; and pass and vacuous
are as before, since the cycle through e of a relator, the coset <s, t>, has
the least longest word length, m, among its translates.

census-diagram-consistency fails on a rigid diagram exactly when the
census has an exotic entry.  The diagram restrictions form a subgroup of
the census group of order diagram_count (each is a ball automorphism fixing
e, and restrictions compose), and the strong generators generate the
census group; so all of them are diagram restrictions exactly when the
census order is diagram_count.  Once diagram-aut-field passes, a diagram
restriction's field is constant.

census-coupling runs on the census's strong generators, as its property
is closed under composition.  The field of f g at v is f's at g(v) after
g's at v, and g keeps the star interior.  If g couples and keeps pair
orders, it carries s and its finite-order partners at the s-edge (v, u)
onto s' and partners at the s'-edge (g(v), g(u)), where f's coupling
applies; so f g couples.

A diagram generator's field is constant once diagram-aut-field passes (or
is vacuous), and a constant field couples, so census-coupling then skips
diagram generators, and lists none when the census order is diagram_count.
Any other generator is the identity outside distance 1 of its support (the
probe ids it moves), so its field changes only across edges within
distance 2, the vertices support_field reads.  A permutation that breaks
pair orders is not the identity, so it lies within distance 1 too: the
first one in vertex order, which the check names, is the same in that
field as in the whole star interior's.
"""

from __future__ import annotations

from functools import cache

from .automorphisms import (
    VerificationReport,
    coupling_violations,
    diagram_aut,
    identity_stabilizer_census,
    psi_n,
    psi_phi,
    support_field,
    verify_ball_automorphism,
    walked_map,
)
from .ball import DEFAULT_MAX_VERTICES, build_ball
from .cycles import verify_essential_characterization
from .system import (
    DEFAULT_MAX_NODES,
    CoxeterSystem,
    diagram_group,
    is_flexible,
    is_label_preserving,
)
from .words import LimitExceeded, apply_m_operation, format_word


class CheckResult:
    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        self.name = name
        self.status = status  # pass | fail | vacuous | indeterminate
        self.detail = detail


class SystemReport:
    __slots__ = ("radius", "probe_radius", "flexible", "verdict", "checks")

    def __init__(self, radius: int, probe_radius: int, flexible: bool, verdict: str, checks: tuple[CheckResult, ...]):
        self.radius = radius
        self.probe_radius = probe_radius
        self.flexible = flexible
        self.verdict = verdict
        self.checks = checks

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    @property
    def indeterminate(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "indeterminate")

    @property
    def ok(self) -> bool:
        return not self.failures and not self.indeterminate


def commutation_violations(system: CoxeterSystem, phi: tuple[int, ...]) -> list[str]:
    """Exact test: every m-operation commutes with letterwise phi, an image tuple.

    For each finite pair (u, v) and each orientation, the m-operation turns
    the alternating word u v u ... of length m(u, v) into v u v ...; phi of
    the result must equal the (phi u, phi v) m-operation applied to phi of
    the word.  A move anywhere in a longer word is this move with a prefix
    and suffix that phi maps letterwise, and ss-deletions commute with any
    letterwise map, so an empty result means phi commutes with every
    rewriting move.  A pair whose image has another order has no image move
    at all, which makes the result empty exactly when phi is label-preserving.
    """
    violations: list[str] = []
    for s, t, m in system.finite_pairs():
        for u, v in ((s, t), (t, s)):
            word = tuple((u, v)[i % 2] for i in range(m))
            via_op = tuple(phi[x] for x in apply_m_operation(system, word, 0, u, v))
            try:
                via_phi = apply_m_operation(system, tuple(phi[x] for x in word), 0, phi[u], phi[v])
            except ValueError:
                violations.append(f"m-operation on pair ({u},{v}): no image move")
                continue
            if via_op != via_phi:
                violations.append(f"m-operation on pair ({u},{v}): image move differs")
    return violations


def default_probe_radius(system: CoxeterSystem, radius: int) -> int:
    """radius minus the largest finite order; one less than the radius if the
    diagram has no edges at all."""
    m = system.max_finite_order()
    return max(radius - (m if m is not None else 1), 0)


def resolve_probe_radius(system: CoxeterSystem, radius: int, probe_radius: int | None) -> int:
    """probe_radius, or the default when None; ValueError unless it lies in 0 .. radius."""
    if probe_radius is None:
        probe_radius = default_probe_radius(system, radius)
    if not 0 <= probe_radius <= radius:
        raise ValueError("probe radius must lie between 0 and the ball radius")
    return probe_radius


def run_system_checks(
    system: CoxeterSystem,
    radius: int = 5,
    probe_radius: int | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SystemReport:
    probe_radius = resolve_probe_radius(system, radius, probe_radius)
    # diagram-aut-field tests only these generators (see README)
    group_order, strong_generators = diagram_group(system)
    witness = is_flexible(system)
    checks: list[CheckResult] = []

    try:
        ball = build_ball(system, radius, max_vertices=max_vertices)
    except LimitExceeded as exc:
        return SystemReport(
            radius,
            probe_radius,
            witness is not None,
            "INDETERMINATE",
            (CheckResult("build-ball", "indeterminate", str(exc)),),
        )

    def add(name: str, body) -> None:
        try:
            status, detail = body()
        except LimitExceeded as exc:
            status, detail = "indeterminate", str(exc)
        checks.append(CheckResult(name, status, detail))

    # -- ball geometry --------------------------------------------------

    def bipartite() -> tuple[str, str]:
        # every adjacency entry, from both ends: each step then changes the
        # parity of the word length, so the ball has no odd cycle
        for s in range(system.rank):
            column = ball.adj[s :: system.rank]  # column[u] = u·s
            for u, v in enumerate(column):
                if v >= 0 and column[v] != u:
                    return "fail", f"edge ({u}, {v}) labeled {system.name_of(s)} is missing at {v}"
                if v >= 0 and abs(ball.length[u] - ball.length[v]) != 1:
                    return "fail", f"edge ({u}, {v}) joins word lengths {ball.length[u]} and {ball.length[v]}"
        edges = (len(ball.adj) - ball.adj.count(-1)) // 2  # half the degree sum
        if not edges:
            return "vacuous", "no edges at this radius"
        return "pass", f"{edges} edges, all joining consecutive lengths"

    add("bipartite-edges", bipartite)

    # -- cycles ----------------------------------------------------------

    def essential_census() -> tuple[str, str]:
        characterization = verify_essential_characterization(ball)
        if not characterization.ok:
            extra = characterization.essential_not_relator or characterization.relator_not_essential
            return "fail", (
                f"{len(characterization.essential_not_relator)} essential non-relator, "
                f"{len(characterization.relator_not_essential)} relator non-essential cycle words; "
                f"e.g. {format_word(system, extra[0])}"
            )
        if characterization.certified_essential == 0:
            return "vacuous", "no certified cycles at this radius"
        return "pass", (
            f"{characterization.certified_essential} certified essential = "
            f"{characterization.certified_relator} certified relator cycle words"
        )

    add("essential-census", essential_census)

    # -- standard automorphisms and their fields -------------------------

    def left_mult_fields() -> tuple[str, str]:
        if radius < 1:
            return "vacuous", "radius too small for left multiplications"
        # the generators, and the words of length 2 once their walks have an interior
        identity, starts = tuple(system.generators()), ball.interior(2 if radius > 2 else 1)[1:]
        field = lambda x: identity
        for v in starts:
            report = verify_ball_automorphism(ball, walked_map(ball, v, field))
            if not report.ok:
                return "fail", f"left_mult({ball.word(v)}) not verified: {report.violations[0]}"
            # no broken edge: every defined edge keeps its label, so the local
            # permutation is the identity wherever it is defined
            if report.broken:
                return "fail", f"left_mult({ball.word(v)}) field is not the constant identity"
        return "pass", f"{len(starts)} left multiplications verified with constant identity fields"

    add("left-mult-identity-field", left_mult_fields)

    def diagram_fields() -> tuple[str, str]:
        if not strong_generators:
            return "vacuous", "the diagram group is trivial"
        for d in strong_generators:
            report = verify_ball_automorphism(ball, diagram_aut(ball, d))
            if not report.ok:
                return "fail", f"diagram_aut({d}) not verified: {report.violations[0]}"
            if report.broken:
                return "fail", f"diagram_aut({d}) field is not constantly d"
        if ball.size == 1:
            return "vacuous", "no edges; fields are empty"
        return "pass", f"{len(strong_generators)} strong generator(s) of the order-{group_order} diagram group verified, fields constant"

    add("diagram-aut-field", diagram_fields)

    # -- identity-stabilizer census ---------------------------------------

    census = None

    def census_runs() -> tuple[str, str]:
        nonlocal census
        census = identity_stabilizer_census(ball, probe_radius, max_nodes=max_nodes)
        counts = f"{census.count} entries ({census.diagram_count} diagram, {census.exotic_count} exotic)"
        return "pass", f"{counts} in {census.search_nodes} search nodes"

    add("census-verified", census_runs)

    def census_coupling() -> tuple[str, str]:
        if census is None:
            return "indeterminate", "census unavailable"
        if probe_radius < 1:
            return "vacuous", "no couplable pairs at this probe radius"
        # a diagram generator's field is constant once diagram-aut-field passes
        diagram_fields_hold = next(c.status for c in checks if c.name == "diagram-aut-field") in ("pass", "vacuous")
        if census.count == census.diagram_count and diagram_fields_hold:
            generators = ()  # every generator is a diagram restriction
        else:
            generators = census.generators
        for g in generators:
            if g.verdict == "diagram" and diagram_fields_hold:
                continue
            field = support_field(ball, g, probe_radius)
            bad = coupling_violations(ball, field)
            if bad:
                v, u, s, x = bad[0]
                return "fail", (
                    f"generator {g.images}: coupling fails across edge ({v},{u}) "
                    f"label {system.name_of(s)} at generator {system.name_of(x)}"
                )
            perm = next((p for p in dict.fromkeys(field.values()) if not is_label_preserving(system, p)), None)
            if perm is not None:
                return "fail", f"generator {g.images}: local permutation {perm} does not preserve pair orders"
        count = sum(map(len, census.transversals))
        return "pass", f"adjacent-vertex coupling holds on {count} strong generator(s), so on all {census.count} census entries"

    add("census-coupling", census_coupling)

    def census_diagram_consistency() -> tuple[str, str]:
        if census is None:
            return "indeterminate", "census unavailable"
        if witness is not None:
            return "vacuous", "flexible diagram; exotic entries are expected"
        if census.exotic_count:
            return "fail", f"{census.exotic_count} exotic census entries on a non-flexible diagram"
        return "pass", f"all {census.count} entries are diagram-automorphism restrictions with constant fields"

    add("census-diagram-consistency", census_diagram_consistency)

    @cache
    def psi() -> VerificationReport:  # read by psi-verified and psi-m-class-well-defined
        return verify_ball_automorphism(ball, psi_phi(ball, witness))

    # -- exotic automorphisms (flexible diagrams only) ---------------------

    def psi_checks() -> tuple[str, str]:
        if witness is None:
            return "vacuous", "diagram is not flexible"
        if radius < 2:
            return "vacuous", "radius too small for the exotic map"
        if not psi().ok:
            return "fail", f"psi not verified: {psi().violations[0]}"
        return "pass", "psi verified total, length-preserving, identity-fixing, and non-factorable"

    add("psi-verified", psi_checks)

    def psi_well_defined() -> tuple[str, str]:
        if witness is None:
            return "vacuous", "diagram is not flexible"
        if ball.size == 1:
            return "vacuous", "no edges at this radius"
        if psi().broken:
            u, v, s = psi().broken[0]
            return "fail", f"psi breaks its field on edge ({u}, {v}) labeled {system.name_of(s)}"
        return "pass", f"psi constant on the m-class at all {ball.size} vertices"

    add("psi-m-class-well-defined", psi_well_defined)

    def psi_n_checks() -> tuple[str, str]:
        if witness is None:
            return "vacuous", "diagram is not flexible"
        if radius < 2:
            return "vacuous", "radius too small"
        for n in range(1, min(radius, 5) + 1):
            try:
                aut = psi_n(ball, witness, n)
            except ValueError as exc:  # an odd-order neighbour of the pivot
                return "vacuous", str(exc)
            report = verify_ball_automorphism(ball, aut)
            if not report.ok:
                return "fail", f"psi_{n} not verified: {report.violations[0]}"
        return "pass", f"psi_1 .. psi_{min(radius, 5)} verified, identity-fixing, length-preserving"

    add("psi-n-verified", psi_n_checks)

    # -- verdict -----------------------------------------------------------

    # a tripped guard (census None among them) leaves no verdict, a failed check
    # no evidence, and so does a census of the identity alone (probe radius 0)
    statuses = {check.status for check in checks}
    if "indeterminate" in statuses:
        verdict = "INDETERMINATE"
    elif "fail" in statuses or probe_radius < 1:
        verdict = "INCONCLUSIVE"
    elif witness is not None and census.count > group_order:
        verdict = "NONDISCRETE-EVIDENCE"
    elif witness is None and census.count == group_order and census.exotic_count == 0:
        verdict = "DISCRETE-EVIDENCE"
    else:
        verdict = "INCONCLUSIVE"

    return SystemReport(radius, probe_radius, witness is not None, verdict, tuple(checks))

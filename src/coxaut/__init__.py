"""Coxeter systems, their Cayley graphs, and the automorphisms of finite balls.

The word problem is solved with integer root-system coordinates when every
finite order is 2, 3, 4 or 6, and by elementary rewriting (m-operations and
ss-deletions) otherwise; balls of the Cayley graph are materialized breadth-first with
deterministic vertex ids; embedded cycles are classified as essential or not
with an explicit certification flag; and ball automorphisms (left
multiplications, diagram automorphisms, the exotic psi maps, and everything
an identity-stabilizer search can find) are constructed, verified, and
decomposed.  Everything is stated on finite balls with an interior-radius
discipline, so truncation can never smuggle in a false claim.
"""

from .system import (
    CoxeterSystem,
    FlexibilityWitness,
    LimitExceeded,
    ParseError,
    diagram_group,
    enumerate_diagram_automorphisms,
    is_flexible,
    parse_system,
    validate_witness,
)
from .words import (
    Word,
    apply_m_operation,
    format_word,
    inverse_word,
    m_class,
    m_class_size,
    m_closure,
    multiply,
    parse_word,
    reduce_word,
)
from .ball import CayleyBall, build_ball, count_paths, distance
from .cycles import (
    EmbeddedCycle,
    enumerate_embedded_cycles,
    is_alternating,
    is_essential,
    relator_cycles,
    verify_essential_characterization,
)
from .automorphisms import (
    BallAutomorphism,
    FactoredAutomorphism,
    StabilizerCensus,
    StabilizerEntry,
    coupling_violations,
    decompose,
    diagram_aut,
    identity_stabilizer_census,
    left_mult,
    local_permutation_field,
    local_permutations,
    pivot_field,
    psi_n,
    psi_phi,
    support_field,
    verify_ball_automorphism,
)
from .checks import CheckResult, SystemReport, commutation_violations, run_system_checks

__all__ = [
    "BallAutomorphism",
    "CayleyBall",
    "CheckResult",
    "CoxeterSystem",
    "EmbeddedCycle",
    "FactoredAutomorphism",
    "FlexibilityWitness",
    "LimitExceeded",
    "ParseError",
    "StabilizerCensus",
    "StabilizerEntry",
    "SystemReport",
    "Word",
    "apply_m_operation",
    "build_ball",
    "commutation_violations",
    "count_paths",
    "coupling_violations",
    "decompose",
    "diagram_aut",
    "diagram_group",
    "distance",
    "enumerate_diagram_automorphisms",
    "enumerate_embedded_cycles",
    "format_word",
    "identity_stabilizer_census",
    "inverse_word",
    "is_alternating",
    "is_essential",
    "is_flexible",
    "left_mult",
    "local_permutation_field",
    "local_permutations",
    "m_class",
    "m_class_size",
    "m_closure",
    "multiply",
    "parse_system",
    "parse_word",
    "pivot_field",
    "psi_n",
    "psi_phi",
    "reduce_word",
    "relator_cycles",
    "run_system_checks",
    "support_field",
    "validate_witness",
    "verify_ball_automorphism",
    "verify_essential_characterization",
]

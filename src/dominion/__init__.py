"""Exact rational toolkit for dominated positive contractions on finite
weighted L1 spaces: lattice operations, induced norms, statement checkers,
zero-two traces, and seeded property sweeps."""

from .calculus import (
    LatticeHomCertificate,
    is_lattice_contraction,
    is_lattice_homomorphism,
    operator_meet,
    operator_modulus,
)
from .core import (
    InternalConsistencyError,
    L1Vector,
    MatrixOperator,
    MeasureSpace,
    SpaceMismatchError,
    compare_l2_norm,
    rat,
)
from .gallery import (
    PNormGapPair,
    ShearTrio,
    UnitGapPair,
    p_norm_gap_pair,
    random_commuting_family,
    random_dominated_pair,
    random_positive_contraction,
    random_signed_operator,
    shear_trio,
    unit_gap_pair,
)
from .theorems import (
    CertificateSearch,
    CommutingFamily,
    DecompositionWitness,
    DominatedPair,
    GridCapExceeded,
    HomIdentityReport,
    HypothesisCheck,
    HypothesisViolation,
    Verdict,
    VerdictReport,
    ZeroTwoTrace,
    build_decomposition,
    check_damped_powers,
    check_family_grid,
    check_hom_identities,
    check_meet_bound,
    check_pair_product,
    find_epsilon_certificate,
    zero_two_trace,
)

__version__ = "0.1.0"

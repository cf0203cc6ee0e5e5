"""orbitref: decide reflexivity, orbit reflexivity and C-orbit reflexivity
of finite-dimensional operators from their Jordan block structure, construct
explicit non-reflexivity witnesses with machine-checkable certificates, and
verify the finite-field statements by exhaustive enumeration."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetExceeded,
    CriterionHolds,
    DivisionByZero,
    FiniteFieldUnsupported,
    MixedFields,
    NotPrime,
    NotSplit,
    NumericKindUnsupported,
    OrbitrefError,
    ParseError,
    ShapeMismatch,
    WrongField,
)
from .fields import (  # noqa: F401
    QI,
    QQ,
    ComplexFloats,
    Field,
    FiniteField,
    GaussianRationals,
    Rationals,
    Scalar,
    embed,
)
from .linalg import (  # noqa: F401
    Matrix,
    Polynomial,
    char_poly,
    commutator_is_zero,
    embed_matrix,
    matpow,
    rank,
)
from .spectra import (  # noqa: F401
    EigenResult,
    ProfileEntry,
    SpectralProfile,
    block_profile,
    eigenvalues,
)
from .deciders import (  # noqa: F401
    Verdict,
    decide_algebraic_f_orbit_reflexive,
    decide_c_orbit_reflexive,
    decide_orbit_reflexive,
    decide_reflexive,
    max_modulus_gap,
    upgrade_algebraic_verdict,
)
from .witness import (  # noqa: F401
    WitnessReport,
    build_c_orbit_witness,
    canonical_jordan,
    validate_witness,
)
from .oracle import (  # noqa: F401
    OrbitSet,
    Orbref0Result,
    enumerate_orbref0,
    orbref0_contains,
    power_orbit,
    scan_space,
)
from .counterexample import (  # noqa: F401
    CounterexampleVector,
    apply_S,
    apply_T_power,
    factorial_truncation_holds,
    verify_no_single_power,
)

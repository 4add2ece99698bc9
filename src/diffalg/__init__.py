"""Exact decision procedures for differential transcendence of solutions of
linear difference and q-difference equations over Q(x).

The package decides, with machine-checkable certificates, whether solutions
of first-order and higher-order linear (q-)difference equations satisfy any
polynomial differential equation: telescoper searches for indefinite sums,
the twisted-ratio test for hypergeometric-type products, the full
classification for sigma(z) = a*z + b, a matrix integrability test, and the
inverse-problem classification of sigma(y) - y = f.  Everything reduces to
rational-solution problems solved in exact arithmetic.  The procedure that
makes a positive certificate checks it once, by exact substitution, and
raises ``InternalVerificationError`` if it fails; negative verdicts carry
obstruction witnesses.
"""

from .dispersion import (
    MultStandardForm,
    StandardDecomp,
    additive_standard_decomp,
    dispersion,
    is_standard,
    multiplicative_standard_form,
    polar_dispersion,
)
from .criteria import (
    DACertificate,
    DAStatus,
    DAVerdict,
    GroupClass,
    GroupKind,
    IntegrabilityResult,
    IntegrabilityStatus,
    Telescoper,
    companion_matrix,
    find_telescoper,
    group_classify_inhomog_sum,
    hypergeom_da_test,
    inhomog_da_classify,
    integrability_test,
    mult_dependence_test,
    verify_conjugating_matrix,
    verify_first_order_witness,
    verify_telescoper,
)
from .errors import (
    BoundExceededError,
    DiffAlgError,
    InternalVerificationError,
    NonStandardInputError,
    ParseError,
    PreconditionError,
    SingularMatrixError,
    ZeroInputError,
)
from .linalg import MatrixRF
from .numcore import (
    Poly,
    Rat,
    RatFun,
    partial_split,
    poly_gcd,
)
from .parsing import format_ratfun, parse_matrix, parse_ratfun
from .solver import (
    ScalarDiffEq,
    SolutionSpace,
    Status,
    VectorSolutionSpace,
    scalar_eq_from_ratfun_coeffs,
    solve_first_order,
    solve_scalar,
    solve_system,
)
from .structures import (
    ConstLinDiffOp,
    DiffStructure,
    apply_derivation,
    apply_op,
    apply_sigma,
    q_structure,
    shift_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ConstLinDiffOp",
    "DACertificate",
    "DAStatus",
    "DAVerdict",
    "DiffAlgError",
    "DiffStructure",
    "GroupClass",
    "GroupKind",
    "IntegrabilityResult",
    "IntegrabilityStatus",
    "InternalVerificationError",
    "MatrixRF",
    "MultStandardForm",
    "NonStandardInputError",
    "ParseError",
    "Poly",
    "PreconditionError",
    "Rat",
    "RatFun",
    "ScalarDiffEq",
    "SingularMatrixError",
    "SolutionSpace",
    "StandardDecomp",
    "Status",
    "Telescoper",
    "VectorSolutionSpace",
    "ZeroInputError",
    "additive_standard_decomp",
    "apply_derivation",
    "apply_op",
    "apply_sigma",
    "companion_matrix",
    "dispersion",
    "find_telescoper",
    "format_ratfun",
    "group_classify_inhomog_sum",
    "hypergeom_da_test",
    "inhomog_da_classify",
    "integrability_test",
    "is_standard",
    "mult_dependence_test",
    "multiplicative_standard_form",
    "parse_matrix",
    "parse_ratfun",
    "partial_split",
    "polar_dispersion",
    "poly_gcd",
    "q_structure",
    "scalar_eq_from_ratfun_coeffs",
    "shift_structure",
    "solve_first_order",
    "solve_scalar",
    "solve_system",
    "verify_conjugating_matrix",
    "verify_first_order_witness",
    "verify_telescoper",
]

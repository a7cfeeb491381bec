"""Boundary-control toolkit for finite and semi-infinite Jacobi matrices.

Simulates the discrete-time boundary-driven dynamics, builds response
vectors and connecting operators, recovers coefficients from boundary
data (the inverse problem), diagnoses moment-problem determinacy from
eigenvalue sequences, and constructs reproducing kernels and the
Hermite-Biehler function of the associated spaces of entire functions.
"""

from .core import (
    BoundaryControl,
    CoefficientUnderrunError,
    CoefficientValidation,
    ConditioningError,
    ConditioningWarning,
    InsufficientDataError,
    JacobiBCError,
    JacobiCoefficients,
    MomentSequence,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    NotLimitCircleError,
    PrecisionMode,
    ResponseVector,
    SpectralData,
    materialize_matrix,
    validate_coefficients,
)
from .dynamics import (
    ControlOperatorMatrix,
    WaveField,
    apply_response,
    control_operator,
    response_vector,
    solve_finite,
    solve_semi_infinite,
)
from .spectral import (
    eval_chebyshev,
    extension_parameter,
    fourier_image,
    quadrature,
    solution_via_spectrum,
    spectral_data,
)
from .moments import (
    ChebyshevTransform,
    HankelMatrix,
    HankelPositivityReport,
    build_hankel,
    chebyshev_transform,
    hankel_min_eigs,
    hankel_positivity,
    moments_to_response,
    response_to_moments,
)
from .connecting import (
    ConnectingMatrix,
    ResponseValidation,
    connecting_from_hankel,
    connecting_from_response,
    connecting_from_spectrum,
    gram_from_control,
    validate_response,
)
from .inverse import RecoveryResult, recover_from_moments, recover_from_response
from .determinacy import (
    DeterminacyReport,
    Verdict,
    circle_bound_connecting,
    circle_bound_hankel,
    classify,
    connecting_eig_sequences,
    deficiency_partial_sums,
)
from .debranges import (
    HermiteBiehlerFunction,
    KreinSolution,
    hermite_biehler,
    kernel_finite,
    kernel_from_E,
    kernel_infinite,
    krein_solve,
    krein_solve_hankel,
    scalar_product,
)

__version__ = "0.1.0"

"""Every argument check of the library raises its own exception with its
own message: one case per ``raise`` of a check that the other tests do
not reach."""

import re

import numpy as np
import pytest

from jacobi_bc import (BoundaryControl, ChebyshevTransform, ConnectingMatrix,
                       HankelMatrix, JacobiCoefficients, SpectralData,
                       build_hankel, chebyshev_transform,
                       circle_bound_connecting, circle_bound_hankel,
                       connecting_from_hankel, connecting_from_response,
                       connecting_from_spectrum, eval_chebyshev,
                       extension_parameter, fourier_image, hermite_biehler,
                       kernel_finite, materialize_matrix,
                       recover_from_response, response_vector, scalar_product,
                       solve_finite)
from jacobi_bc.spectral import chebyshev_all, eval_p_all

FINITE = JacobiCoefficients.from_arrays([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
FREE = JacobiCoefficients.free()
FIELD = solve_finite(FINITE, 3, [1], 2)
TWO_NODES = SpectralData([-1.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize("call, error, message", [
    (lambda: recover_from_response([1, 0, 1], 0),
     ValueError, "horizon must be >= 1"),
    (lambda: response_vector(FINITE, 0), ValueError, "length must be >= 1"),
    (lambda: solve_finite(FINITE, 0, [1], 2),
     ValueError, "n_space must be >= 1"),
    (lambda: FIELD.value(4, 0), IndexError, "space index 4 outside 0..3"),
    (lambda: FIELD.value(0, 3), IndexError, "time index 3 outside -1..2"),
    (lambda: materialize_matrix(FINITE, 0), ValueError, "size must be >= 1"),
    (lambda: BoundaryControl.impulse(0), ValueError, "horizon must be >= 1"),
    (lambda: JacobiCoefficients(a=[1.0]),
     ValueError, "supply both coefficient arrays or neither"),
    (lambda: JacobiCoefficients(a=[1.0], b=[0.0], a_rule=lambda n: 1),
     ValueError, "supply explicit arrays or rules, not both"),
    (lambda: JacobiCoefficients.from_arrays([], []),
     ValueError, "the off-diagonal array must contain a_0"),
    (lambda: JacobiCoefficients(a_rule=lambda n: 1),
     ValueError, "generator-backed coefficients need both rules"),
    (lambda: SpectralData([0.0, 1.0], [1.0]),
     ValueError, "eigenvalues and weights must be matching 1-D arrays"),
    (lambda: ConnectingMatrix(np.zeros((2, 3))),
     ValueError, "connecting matrix must be square"),
    (lambda: HankelMatrix(np.zeros((2, 3))),
     ValueError, "Hankel matrix must be square"),
    (lambda: ChebyshevTransform(np.zeros(3)),
     ValueError, "Chebyshev transform must be square"),
    (lambda: connecting_from_response([1.0], 0),
     ValueError, "size must be >= 1"),
    (lambda: connecting_from_spectrum(TWO_NODES, 0),
     ValueError, "size must be >= 1"),
    (lambda: build_hankel([1.0], 0), ValueError, "size must be >= 1"),
    (lambda: chebyshev_transform(0), ValueError, "size must be >= 1"),
    (lambda: connecting_from_hankel(np.eye(2), 3),
     ValueError, "Hankel block smaller than the requested size"),
    (lambda: kernel_finite(FINITE, 1j, 0.5),
     ValueError, "horizon is required with coefficient input"),
    (lambda: kernel_finite(FINITE, 1j, 0.5, 2, method="bogus"),
     ValueError, "unknown kernel backend 'bogus'"),
    (lambda: scalar_product([1.0], [1.0, 2.0], np.eye(2)),
     ValueError, "coefficient vectors must match the block size"),
    (lambda: hermite_biehler(FINITE, 0), ValueError, "horizon must be >= 1"),
    (lambda: circle_bound_hankel(FREE, 0),
     ValueError, "truncation must be >= 1"),
    (lambda: circle_bound_connecting(FREE, 0),
     ValueError, "truncation must be >= 1"),
    (lambda: eval_p_all(FINITE, 0, 0.5),
     ValueError, "the polynomial index starts at 1"),
    (lambda: eval_chebyshev(-1, 0.5), ValueError, "the index must be >= 0"),
    (lambda: chebyshev_all(0, 0.5), ValueError, "t_max must be >= 1"),
    (lambda: fourier_image([], 0.5),
     ValueError, "control must have at least one entry"),
    (lambda: extension_parameter(FINITE, 1),
     ValueError, "n_max must be >= 2"),
], ids=["recover-horizon", "response-length", "solve-finite-size",
        "field-space-index", "field-time-index", "materialize-size",
        "impulse-horizon", "coefficients-one-array",
        "coefficients-arrays-and-rules", "coefficients-no-a0",
        "coefficients-one-rule", "spectral-data-shapes",
        "connecting-not-square", "hankel-not-square",
        "transform-not-square", "connecting-size",
        "spectrum-size", "hankel-size", "transform-size",
        "hankel-block-too-small", "kernel-no-horizon", "kernel-method",
        "scalar-product-shapes", "hermite-biehler-horizon",
        "circle-hankel-truncation", "circle-connecting-truncation",
        "eval-p-index", "eval-chebyshev-index", "chebyshev-all-size",
        "fourier-empty-control", "extension-n-max"])
def test_argument_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from jacobi_bc import (
    ComplexDataError,
    ConnectingMatrix,
    InsufficientDataError,
    JacobiCoefficients,
    PrecisionMode,
    build_hankel,
    chebyshev_transform,
    connecting_eig_sequences,
    connecting_from_hankel,
    connecting_from_response,
    connecting_from_spectrum,
    control_operator,
    gram_from_control,
    hankel_min_eigs,
    response_to_moments,
    response_vector,
    spectral_data,
    validate_response,
)
from jacobi_bc.connecting import _lower_product, _mirror_lower

from conftest import random_coefficients

FREE = JacobiCoefficients.free()
B1 = JacobiCoefficients.from_rules(lambda n: 1, lambda n: 1 if n == 1 else 0)


class TestFromResponse:
    def test_free_identity(self):
        conn = connecting_from_response([1, 0, 0], 2)
        assert np.array_equal(conn.matrix, np.eye(2))

    def test_ones_response(self):
        conn = connecting_from_response([1, 1, 1], 2)
        assert np.array_equal(conn.matrix, [[1, 1], [1, 2]])

    def test_trivial(self):
        assert np.array_equal(connecting_from_response([0.25], 1).matrix, [[0.25]])

    @pytest.mark.parametrize("kind", ["float", "fraction", "mpf"])
    def test_matches_defining_sum(self, rng, kind):
        size = 12
        raw = rng.uniform(-2.0, 2.0, 2 * size - 1)
        r = {"float": raw,
             "fraction": np.array([Fraction(v) for v in raw], dtype=object),
             "mpf": np.array([mpf(v) for v in raw], dtype=object)}[kind]
        mat = connecting_from_response(r, size).matrix
        # a caller's mpf computes in the caller's own context, as here
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                terms = range(min(i, j))
                expected = sum(r[abs(i - j) + 2 * k] for k in terms)
                assert mat[i - 1, j - 1] == expected

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            connecting_from_response([1, 0], 2)

    def test_corner_top_nesting(self, rng):
        # leading principal blocks of the corner-top filling are the
        # smaller-horizon matrices, bit for bit in every arithmetic; that
        # is what makes C_T = W_T^* W_T
        raw = response_vector(random_coefficients(rng, 8), 15).as_array()
        for r in (raw, np.array([Fraction(v) for v in raw], dtype=object),
                  np.array([mpf(v) for v in raw], dtype=object)):
            big = connecting_from_response(r, 8).matrix
            small = connecting_from_response(r, 5).matrix
            assert [(type(v), v) for v in big[:5, :5].ravel()] == [
                (type(v), v) for v in small.ravel()]


class TestFromSpectrum:
    def test_free_identity(self):
        conn = connecting_from_spectrum(spectral_data(FREE, 4), 4)
        assert np.max(np.abs(conn.matrix - np.eye(4))) < 1e-12

    def test_matches_dynamic_formula(self, rng):
        co = random_coefficients(rng, 8)
        data = spectral_data(co, 8)
        dyn = connecting_from_response(response_vector(co, 15), 8)
        spec = connecting_from_spectrum(data, 8)
        scale = max(1.0, np.max(np.abs(dyn.matrix)))
        assert np.max(np.abs(dyn.matrix - spec.matrix)) < 1e-10 * scale

    def test_trivial_is_s0(self):
        conn = connecting_from_spectrum(spectral_data(FREE, 3), 1)
        assert abs(conn.matrix[0, 0] - 1.0) < 1e-14

    def test_rejects_size_beyond_nodes(self):
        with pytest.raises(ValueError):
            connecting_from_spectrum(spectral_data(FREE, 3), 4)


class TestGram:
    def test_free_identity(self):
        assert np.array_equal(gram_from_control(FREE, 5).matrix, np.eye(5))

    def test_b1(self):
        conn = gram_from_control(B1, 2)
        assert np.array_equal(conn.matrix, [[1, 1], [1, 2]])

    def test_trivial(self):
        assert np.array_equal(gram_from_control(FREE, 1).matrix, [[1.0]])


class TestFromHankel:
    def test_semicircle_identity(self):
        conn = connecting_from_hankel(build_hankel([1, 0, 1], 2))
        assert np.array_equal(conn.matrix, np.eye(2))

    def test_order_two_transform_is_identity(self):
        hank = build_hankel([1, 1, 2], 2)
        assert np.array_equal(connecting_from_hankel(hank).matrix, [[1, 1], [1, 2]])

    def test_semicircle_three_exact_rational(self):
        s = [Fraction(v) for v in (1, 0, 1, 0, 2)]
        conn = connecting_from_hankel(build_hankel(np.array(s, dtype=object), 3))
        assert conn.matrix.tolist() == np.eye(3, dtype=int).tolist()


def _eighths(rng, low, high, count):
    """``count`` random multiples of 1/8 in [low, high]."""
    numerators = rng.integers(round(8 * low), round(8 * high) + 1, count)
    return [Fraction(int(k), 8) for k in numerators]


def _product_families(size):
    """Exact families for the triangular products: a random finite one
    (its wall at size + 1 lies beyond the horizon), geometric(3), and a
    finite one whose Dirichlet wall at depth + 1 reflects within it."""
    rng = np.random.default_rng(size)
    depth = max(1, size // 2)
    return {
        "random": JacobiCoefficients.from_arrays(
            [1] + _eighths(rng, 0.5, 2, size - 1), _eighths(rng, -1, 1, size)),
        "geometric3": JacobiCoefficients.geometric(3),
        "wall": JacobiCoefficients.from_arrays(
            [1] + _eighths(rng, 0.5, 2, depth - 1), _eighths(rng, -1, 1, depth)),
    }


def _assert_matches_full_product(got, x, low):
    """``got`` against the full product _mirror_lower(x @ low.T): object
    entries bit-identical (value and type); each DOUBLE entry that the
    full product keeps finite within 1e-13 of the size of its terms,
    (|x| |low|^T)_ij, the scale of the rounding of a dot product."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _mirror_lower(x @ low.T)
    if ref.dtype == object:
        assert [(type(v), v) for v in got.ravel()] == [
            (type(v), v) for v in ref.ravel()]
        return
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _mirror_lower(np.abs(x) @ np.abs(low).T)
    kept = np.isfinite(ref)
    assert np.all(np.abs(got[kept] - ref[kept]) <= 1e-13 * scale[kept])


class TestTriangularProducts:
    """The triangular products against the full products they replace."""

    SIZES = [1, 2, 7, 8, 9, 16, 17, 40]

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    @pytest.mark.parametrize("size", SIZES)
    def test_gram_matches_full_product(self, size, precision):
        families = _product_families(size)
        # control_operator simulates `size` sites: the wall family is short
        for name in ("random", "geometric3"):
            co = families[name]
            w = control_operator(co, size, precision).matrix
            _assert_matches_full_product(
                gram_from_control(co, size, precision).matrix, w.T, w.T)

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    @pytest.mark.parametrize("size", SIZES)
    def test_hankel_matches_full_product(self, size, precision):
        for co in _product_families(size).values():
            r = response_vector(co, 2 * size - 1, precision)
            smat = build_hankel(response_to_moments(r, precision).as_array(),
                                size).matrix
            lam = chebyshev_transform(size).matrix.astype(
                np.result_type(smat, float))
            with np.errstate(over="ignore", invalid="ignore"):
                x = lam @ smat
            _assert_matches_full_product(connecting_from_hankel(smat).matrix,
                                         x, lam)

    def test_double_gram_has_no_nan_from_skipped_zeros(self):
        # geometric(2) overflows W_T in DOUBLE; a term with an exact zero
        # of W_T is skipped, so it cannot make 0 * inf = NaN.  Every entry
        # whose own nonzero terms are finite matches EXTENDED.
        co, size = JacobiCoefficients.geometric(2), 48
        got = gram_from_control(co, size).matrix
        ext = gram_from_control(co, size, PrecisionMode.EXTENDED).matrix
        w = control_operator(co, size).matrix
        checked = 0
        for i in range(size):
            for j in range(i + 1):
                nonzero = w[:j + 1, j] != 0
                want = float(ext[i, j])
                if not (np.isfinite(w[:j + 1, i][nonzero]).all()
                        and np.isfinite(w[:j + 1, j]).all()
                        and np.isfinite(want)):
                    continue
                checked += 1
                assert abs(got[i, j] - want) <= 1e-13 * abs(want), (i, j)
        assert np.isfinite(got[24, 47]) and np.isfinite(got[47, 28])
        assert checked > size * (size + 1) // 2 - 300

    @pytest.mark.parametrize("size", [2, 9, 16, 40])
    def test_at_most_half_the_multiplications(self, rng, size):
        count = [0]

        class Counted:
            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                count[0] += 1
                return Counted(self.value * other.value)

            def __add__(self, other):
                return Counted(self.value + other.value)

        def counted(mat):
            out = np.empty(mat.shape, dtype=object)
            out.flat = [Counted(v) for v in mat.ravel().tolist()]
            return out

        x = counted(rng.integers(-9, 10, (size, size)))
        low = counted(np.tril(rng.integers(-9, 10, (size, size))))
        full = x @ low.T
        full_count, count[0] = count[0], 0
        got = _lower_product(x, low)
        assert full_count == size ** 3 and count[0] <= full_count // 2
        below = np.tri(size, dtype=bool)
        assert [v.value for v in got[below]] == [v.value for v in full[below]]


class TestFourWay:
    def test_agreement(self, rng):
        for _ in range(8):
            size = int(rng.integers(1, 17))
            co = random_coefficients(rng, size)
            r = response_vector(co, 2 * size - 1)
            mats = [
                connecting_from_response(r, size).matrix,
                connecting_from_spectrum(spectral_data(co, size), size).matrix,
                gram_from_control(co, size).matrix,
                connecting_from_hankel(
                    build_hankel(response_to_moments(r).as_array(), size)).matrix,
            ]
            scale = max(1.0, max(np.max(np.abs(m)) for m in mats))
            worst = max(np.max(np.abs(x - y))
                        for i, x in enumerate(mats) for y in mats[i + 1:])
            assert worst < 1e-9 * scale

    def test_positive_definite_on_genuine_data(self, rng):
        co = random_coefficients(rng, 10)
        conn = connecting_from_response(response_vector(co, 19), 10)
        assert conn.is_positive_definite()

    def test_positive_definite_beyond_the_float_range(self):
        # exact C_40 of geometric(3): entries of up to 745 digits
        r = response_vector(JacobiCoefficients.geometric(3), 79,
                            PrecisionMode.RATIONAL)
        conn = connecting_from_response(r, 40)
        assert max(conn.matrix.ravel()) > 10 ** 744
        assert conn.is_positive_definite()
        assert not ConnectingMatrix(-conn.matrix).is_positive_definite()


class TestValidateResponse:
    def test_accepts_genuine(self, rng):
        co = random_coefficients(rng, 7)
        r = response_vector(co, 13)
        verdict = validate_response(r, 7)
        assert verdict.accepted and verdict.min_eigenvalue > 0

    def test_rejects_with_certificate(self):
        verdict = validate_response([1, 2, 0], 2)
        assert not verdict.accepted
        assert abs(verdict.min_eigenvalue - (-1.0)) < 1e-12

    def test_trivial(self):
        verdict = validate_response([1.0], 1)
        assert verdict.accepted and verdict.min_eigenvalue == 1.0

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_verdict_is_the_certificate_sign(self, rng, precision):
        genuine = response_vector(random_coefficients(rng, 5), 9).as_array()
        # [1, 1, 0] gives the singular block [[1, 1], [1, 1]]
        for r, size in ((genuine, 5), ([1, 2, 0], 2), ([1, 1, 0], 2),
                        ([1.0], 1)):
            verdict = validate_response(r, size, precision)
            assert verdict.accepted == (verdict.min_eigenvalue > 0)


@pytest.mark.parametrize("precision", list(PrecisionMode))
@pytest.mark.parametrize("route, name", [
    (hankel_min_eigs, "s"),
    (connecting_eig_sequences, "r"),
    (validate_response, "r"),
], ids=["hankel_min_eigs", "connecting_eig_sequences", "validate_response"])
def test_data_eigenvalue_routes_refuse_complex_data(route, name, precision):
    # refused as recovery refuses it, before any eigenvalue work, in every
    # mode; none of them ends in an internal error or drops the imaginary part
    with pytest.raises(ComplexDataError, match=f"^{name}_0 = "):
        route([1 + 1j, 0, 1, 0, 2], 3, precision)

import json
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jacobi_bc import (
    BoundaryControl,
    CoefficientUnderrunError,
    ComplexDataError,
    JacobiCoefficients,
    MomentSequence,
    PrecisionMode,
    ResponseVector,
    SpectralData,
    materialize_matrix,
    recover_from_response,
    response_vector,
    validate_coefficients,
)
from jacobi_bc.cli import _coefficients
from jacobi_bc.core import _finite_reals, sequence_values

from conftest import random_coefficients


@pytest.mark.parametrize("values, dtype", [
    ([1, 3 ** 40], object),          # numpy: float64, off by -33
    ([1, 2 ** 64], object),          # numpy's own object array
    ([1, 2], np.int64),
    ([1, 2.5], float),
    ([1, 3 ** 40, 0.5], object),     # whatever else the list holds
    (np.array([1.0, 3.0 ** 40]), float),
])
def test_sequence_values_keeps_a_list_of_ints_exact(values, dtype):
    arr = sequence_values(values)
    assert arr.dtype == dtype
    if dtype is object:
        assert arr.tolist() == values


@pytest.mark.parametrize("read, message", [
    (lambda: JacobiCoefficients.from_arrays([1, 2 + 0j, 3j],
                                            [0, 0, 0]).a_head(3), "a_2 = 3j"),
    (lambda: recover_from_response([1, 2 + 0j, 3j, 0, 1], 3), "r_2 = 3j"),
    (lambda: JacobiCoefficients.from_arrays([1, 2, 3 + 0j],
                                            [0, 0, 0]).a_head(3),
     "a_2 = (3+0j)"),
    (lambda: recover_from_response(np.array([1, 0, 2 + 0j, 0, 1]), 3),
     "r_0 = (1+0j)"),
    # numpy's complex64 is no Python complex, yet as complex as one
    (lambda: JacobiCoefficients.from_arrays(
        np.array([1, .5 + .5j, 1], dtype=np.complex64), [0, 0, 0]).a_head(3),
     "a_1 = (0.5+0.5j)"),
    (lambda: JacobiCoefficients.from_arrays(
        np.array([1, .5 + .5j, 1], dtype=np.complex64), [0, 0, 0]).a(1),
     "a_1 = (0.5+0.5j)"),
], ids=["coefficient list", "data list", "list of zero imaginary parts",
        "complex array of zero imaginary parts", "complex64 head",
        "complex64 entry"])
def test_a_list_and_an_array_name_the_same_complex_entry(read, message):
    # coefficients reach the check as a list, data as the reader's
    # ndarray; both name the first entry with a nonzero imaginary part,
    # where the list named the first of complex type, a_1 = (2+0j).  When
    # none has one, the first of complex type: entry 0 of a complex array
    with pytest.raises(ComplexDataError, match=f"^{re.escape(message)} is"):
        read()


class TestMaterialize:
    def test_free_block(self):
        mat = materialize_matrix(JacobiCoefficients.free(), 2)
        assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])

    def test_one_by_one(self):
        co = JacobiCoefficients.from_arrays([1.0], [1.0])
        assert np.array_equal(materialize_matrix(co, 1), [[1.0]])

    def test_geometric_three(self):
        mat = materialize_matrix(JacobiCoefficients.geometric(2), 3)
        assert np.array_equal(mat, [[0, 2, 0], [2, 0, 4], [0, 4, 0]])

    def test_underrun(self):
        co = JacobiCoefficients.from_arrays([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(CoefficientUnderrunError):
            materialize_matrix(co, 3)

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_bitwise_symmetric(self, rng, precision):
        co = random_coefficients(rng, 9)
        mat = materialize_matrix(co, 9, precision)
        assert (mat == mat.T).all()

    def test_free_pattern_every_size(self):
        for size in (1, 2, 5, 17):
            mat = materialize_matrix(JacobiCoefficients.free(), size)
            assert np.array_equal(np.diagonal(mat), np.zeros(size))
            if size > 1:
                assert np.array_equal(np.diagonal(mat, 1), np.ones(size - 1))

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_complex_entry_refused(self, precision):
        # DOUBLE and EXTENDED returned a complex block
        co = JacobiCoefficients.from_arrays([1, 0.5 + 0j], [0.0, 0.0])
        with pytest.raises(ComplexDataError,
                           match=re.escape("a_1 = (0.5+0j)")):
            materialize_matrix(co, 2, precision)

    def test_underrun_names_a_before_b(self):
        co = JacobiCoefficients.from_arrays([1, 1], [0, 0])
        with pytest.raises(CoefficientUnderrunError, match=re.escape(
                "a_2 requested, only a_0..a_1 available")):
            materialize_matrix(co, 3)

    @pytest.mark.parametrize("precision", [PrecisionMode.EXTENDED,
                                           PrecisionMode.RATIONAL])
    def test_exact_modes_keep_ints_numpy_would_round(self, precision):
        # a_40 = 3**40 lies in [2^63, 2^64), where numpy rounds a list of
        # ints to float64 (by -33 here); below 2^169 an mpf holds it
        mat = materialize_matrix(JacobiCoefficients.geometric(3), 41,
                                 precision)
        assert mat[39, 40] == mat[40, 39] == 3 ** 40

    def test_rational_mode_exact_entries(self):
        co = JacobiCoefficients.from_arrays(
            [1, Fraction(1, 3)], [Fraction(2, 7), 0])
        mat = materialize_matrix(co, 2, PrecisionMode.RATIONAL)
        assert mat[0, 1] == Fraction(1, 3) and mat[0, 0] == Fraction(2, 7)


class TestValidate:
    def test_free_valid(self):
        assert validate_coefficients(JacobiCoefficients.free()).valid

    def test_negative_off_diagonal(self):
        report = validate_coefficients(
            JacobiCoefficients.from_arrays([1.0, -1.0], [0.0, 0.0]))
        assert not report.valid
        assert any("negative off-diagonal" in msg for msg in report.issues)

    def test_a0_convention(self):
        report = validate_coefficients(JacobiCoefficients.from_arrays([2.0], [0.0]))
        assert not report.valid
        assert any("a_0 convention" in msg for msg in report.issues)

    @pytest.mark.parametrize("a0", [float("nan"), float("inf")])
    def test_nonfinite_a0(self, a0):
        report = validate_coefficients(
            JacobiCoefficients.from_arrays([a0, 1.0], [0.0, 0.0]))
        assert report.issues == ("a_0 is not finite",)

    def test_nonfinite_entry(self):
        report = validate_coefficients(
            JacobiCoefficients.from_arrays([1.0, float("inf")], [0.0, 0.0]))
        assert not report.valid

    def test_all_float_issues_are_worded_per_entry(self):
        nan, inf = float("nan"), float("inf")
        report = validate_coefficients(JacobiCoefficients.from_arrays(
            [2.0, -0.5, nan, 0.0, 1.5], [0.25, inf, -nan, 0.0, 0.5]))
        assert report.issues == (
            "a_0 convention violated: expected a_0 = 1, got 2.0",
            "negative off-diagonal: a_1 = -0.5",
            "a_2 is not finite",
            "negative off-diagonal: a_3 = 0.0",
            "b_2 is not finite",
            "b_3 is not finite")
        assert report.checked_depth == 5
        valid = validate_coefficients(JacobiCoefficients.from_arrays(
            [1.0, 0.5, 1.5], [0.0, -0.0, 0.25]))
        assert valid.valid and valid.issues == () and valid.checked_depth == 3

    def test_ints_pass_as_floats_do(self):
        # an int beyond float64 cannot take the one-pass check, and the
        # per-entry loop accepts it as a finite int
        for a in ([1, 2, 3], [1, 2.5, 10 ** 400], [1.0, 0.5, 3]):
            report = validate_coefficients(
                JacobiCoefficients.from_arrays(a, [0, -1, 0.5]))
            assert report.valid and report.checked_depth == 3
        report = validate_coefficients(
            JacobiCoefficients.from_arrays([1, 10 ** 400, -2], [0, 0, 0]))
        assert report.issues == ("negative off-diagonal: a_2 = -2",)

    def test_a_number_of_any_size_is_finite(self):
        # an mpf was judged by float(), which is inf beyond float64, and
        # so was a long double; EXTENDED reads each of them
        for big in (mpmath.mpf("1e400"), 10 ** 400, Fraction(10 ** 400, 3),
                    np.longdouble("1e400")):
            coeffs = JacobiCoefficients.from_arrays([1, big, 1], [0, 0, 0])
            assert validate_coefficients(coeffs).valid, big
            response_vector(coeffs, 3, PrecisionMode.EXTENDED)
        for bad in (mpmath.mpf("inf"), mpmath.mpf("-inf"), mpmath.mpf("nan")):
            report = validate_coefficients(
                JacobiCoefficients.from_arrays([1, bad, 1], [0, bad, 0]))
            assert report.issues == ("a_1 is not finite", "b_2 is not finite")

    def test_an_int_beyond_float64_is_not_plain(self):
        # math.isfinite raised OverflowError, which each caller caught
        assert _finite_reals([1, 2.5]) and not _finite_reals([1, True])
        assert not _finite_reals([10 ** 400])
        assert not _finite_reals([1.0, -10 ** 400])


class TestCoefficients:
    def test_memoized_rules_are_deterministic(self):
        calls = []

        def a_rule(n):
            calls.append(n)
            return n + 1.0 if n else 1.0

        co = JacobiCoefficients.from_rules(a_rule, lambda n: 0.0)
        first = [co.a(n) for n in range(5)]
        second = [co.a(n) for n in range(5)]
        assert first == second
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_json_round_trip_finite(self):
        # coefficient files are read by the CLI, which owns the format
        co = JacobiCoefficients.from_arrays([1.0, 0.5], [0.25, -0.75])
        text = json.dumps({"a": co.a_head(2), "b": co.b_head(2),
                           "generator": None})
        back = _coefficients(json.loads(text), "c.json")
        assert back.a_head(2) == co.a_head(2)
        assert back.b_head(2) == co.b_head(2)

    def test_json_round_trip_generator(self):
        for co, kind, params in (
                (JacobiCoefficients.free(), "free", {}),
                (JacobiCoefficients.geometric(3), "geometric", {"ratio": 3})):
            back = _coefficients({"a": [], "b": [], "generator": {
                "kind": kind, "params": params}}, "c.json")
            assert repr(back) == repr(co)
            assert back.a_head(6) == co.a_head(6)

    def test_b_indexed_from_one(self):
        co = JacobiCoefficients.from_arrays([1.0, 2.0], [5.0, 6.0])
        assert co.b(1) == 5.0 and co.b(2) == 6.0
        with pytest.raises(IndexError):
            co.b(0)

    def test_geometric_keeps_integers(self):
        co = JacobiCoefficients.geometric(2)
        assert co.a(10) == 1024 and isinstance(co.a(10), int)

    def test_heads_slice_the_stored_entries(self):
        co = JacobiCoefficients.from_arrays([1, Fraction(1, 3), 2.5],
                                            [Fraction(2, 7), -1, 0.5])
        assert co.a_head(3) == [1, Fraction(1, 3), 2.5]
        assert co.b_head(2) == [Fraction(2, 7), -1]
        assert co.a_head(0) == co.b_head(0) == []

    def test_heads_past_the_end_name_the_first_missing_entry(self):
        # the message a per-entry loop over a() and b() gives
        co = JacobiCoefficients.from_arrays([1.0, 0.5], [0.25, -0.75])
        with pytest.raises(CoefficientUnderrunError) as exc:
            co.a_head(5)
        assert str(exc.value) == ("coefficient underrun: a_2 requested, "
                                  "only a_0..a_1 available")
        with pytest.raises(CoefficientUnderrunError) as exc:
            co.b_head(5)
        assert str(exc.value) == ("coefficient underrun: b_3 requested, "
                                  "only b_1..b_2 available")


class TestControlAndSequences:
    def test_impulse(self):
        ctrl = BoundaryControl.impulse(4)
        assert ctrl.values == (1, 0, 0, 0)
        assert ctrl.horizon == 4

    def test_padding(self):
        ctrl = BoundaryControl((1, 2))
        assert ctrl.padded(4) == [1, 2, 0, 0]
        with pytest.raises(ValueError):
            ctrl.padded(1)

    def test_response_vector_container(self):
        r = ResponseVector([1.0, 0.5])
        assert len(r) == 2 and r[1] == 0.5 and list(r) == [1.0, 0.5]

    def test_moment_sequence_rejects_2d(self):
        with pytest.raises(ValueError):
            MomentSequence([[1.0, 2.0]])

    def test_spectral_data_checks(self):
        with pytest.raises(ValueError):
            SpectralData(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            SpectralData(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
        data = SpectralData(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
        assert data.lambdas[0] == -1.0  # sorted ascending

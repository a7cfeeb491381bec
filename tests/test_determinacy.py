import json
import warnings

import numpy as np
import pytest

from jacobi_bc import (
    ConditioningWarning,
    JacobiBCError,
    JacobiCoefficients,
    NotLimitCircleError,
    Orientation,
    PrecisionMode,
    Verdict,
    build_hankel,
    circle_bound_connecting,
    circle_bound_hankel,
    classify,
    connecting_from_hankel,
    connecting_eig_sequences,
    deficiency_partial_sums,
    hankel_min_eigs,
    response_to_moments,
    response_vector,
)

from jacobi_bc import _multiprec
from jacobi_bc.cli import main

from conftest import random_coefficients, report_fields, semicircle_moments

FREE = JacobiCoefficients.free()
GEO = JacobiCoefficients.geometric(2)


def geometric_exact_response(t_max):
    return response_vector(GEO, 2 * t_max - 1, PrecisionMode.RATIONAL).as_array()


class TestHankelSequence:
    def test_semicircle_decreases(self):
        lam = hankel_min_eigs(semicircle_moments(23), 12)
        assert lam[11] < lam[3]
        assert all(lam[i + 1] < lam[i] for i in range(1, 11))

    def test_trivial(self):
        assert hankel_min_eigs([1.0], 1)[0] == 1.0

    def test_geometric_bounded_below(self):
        s = response_to_moments(geometric_exact_response(10),
                                PrecisionMode.RATIONAL).as_array()
        lam = hankel_min_eigs(s, 10, PrecisionMode.EXTENDED)
        assert np.all(lam > 0.5)
        assert abs(lam[9] - lam[7]) < 1e-2  # stabilizing


class TestConnectingSequences:
    def test_free_is_one(self):
        r = response_vector(FREE, 127)
        beta, gamma = connecting_eig_sequences(r, 64)
        assert np.array_equal(beta, np.ones(64))
        assert np.array_equal(gamma, np.ones(64))

    def test_trivial(self):
        assert connecting_eig_sequences([1.0], 1)[0][0] == 1.0

    def test_geometric_stabilizes_above_bound(self):
        r = geometric_exact_response(16)
        beta = connecting_eig_sequences(r, 16, PrecisionMode.EXTENDED)[0]
        bound = float(circle_bound_connecting(GEO, 60))
        assert abs(beta[15] - beta[10]) < 1e-3
        assert beta[15] >= bound - 1e-6

    def test_gamma_dominates_beta(self, rng):
        r = response_vector(random_coefficients(rng, 8), 15)
        beta, gamma = connecting_eig_sequences(r, 8)
        assert np.all(gamma >= beta)

    def test_b1_gamma(self):
        co = JacobiCoefficients.from_rules(lambda n: 1,
                                           lambda n: 1 if n == 1 else 0)
        gamma = connecting_eig_sequences(response_vector(co, 3), 2)[1]
        assert abs(gamma[1] - (3 + np.sqrt(5)) / 2) < 1e-12

    def test_monotonicity(self, rng):
        for _ in range(5):
            size = int(rng.integers(2, 11))
            r = response_vector(random_coefficients(rng, size), 2 * size - 1)
            beta, gamma = connecting_eig_sequences(r, size, PrecisionMode.EXTENDED)
            assert np.all(np.diff(beta) <= 1e-12)
            assert np.all(np.diff(gamma) >= -1e-12)

    def test_beta_ties_to_hankel_transform(self, rng):
        # beta_T must equal the smallest eigenvalue of the conjugated
        # Hankel block, linking the dynamic and moment sides
        size = 7
        co = random_coefficients(rng, size)
        r = response_vector(co, 2 * size - 1)
        beta = connecting_eig_sequences(r, size)[0][-1]
        hank = build_hankel(response_to_moments(r).as_array(), size)
        other = connecting_from_hankel(hank).min_eigenvalue()
        assert abs(beta - other) < 1e-9 * max(1.0, abs(beta))


class TestCircleBounds:
    def test_hankel_single_term(self):
        assert abs(float(circle_bound_hankel(FREE, 1)) - 1.0) < 1e-12

    def test_connecting_single_term(self):
        assert abs(float(circle_bound_connecting(FREE, 1)) - 1 / np.pi) < 1e-12

    def test_free_divergence_detected(self):
        with pytest.raises(NotLimitCircleError):
            circle_bound_hankel(FREE, 60)
        with pytest.raises(NotLimitCircleError):
            circle_bound_connecting(FREE, 60)

    def test_geometric_bounds_hold(self):
        s = response_to_moments(geometric_exact_response(16),
                                PrecisionMode.RATIONAL).as_array()
        lam = hankel_min_eigs(s, 16, PrecisionMode.EXTENDED)
        bound = circle_bound_hankel(GEO, 60)
        assert bound.tail_estimate < 1e-10
        assert lam[-1] >= float(bound) - 1e-6

    def test_geometric_connecting_bound_positive(self):
        bound = circle_bound_connecting(GEO, 60)
        assert 0 < float(bound) < 1


class TestDeficiency:
    def test_geometric_converges(self):
        p_sums, q_sums = deficiency_partial_sums(GEO, 60)
        assert (p_sums[-1] - p_sums[-6]) / p_sums[-1] < 1e-10
        assert (q_sums[-1] - q_sums[-6]) / q_sums[-1] < 1e-10

    def test_free_diverges(self):
        p_sums, _ = deficiency_partial_sums(FREE, 60)
        assert (p_sums[-1] - p_sums[-6]) / p_sums[-1] > 1e-3


class TestClassify:
    def test_free_determinate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            report = classify(FREE, 24)
        assert report.verdict is Verdict.LIKELY_DETERMINATE

    def test_geometric_indeterminate(self):
        report = classify(GEO, 24, PrecisionMode.EXTENDED)
        assert report.verdict is Verdict.LIKELY_INDETERMINATE
        assert report.connecting_bound is not None
        assert report.beta_seq[-1] >= report.connecting_bound - 1e-6

    @pytest.mark.parametrize("precision", [PrecisionMode.DOUBLE,
                                           PrecisionMode.EXTENDED])
    def test_one_factorization_per_matrix(self, monkeypatch, precision):
        # S_N and C_T are factored at most once each: lambda_N and beta_T
        # come from the O(N^2) recurrence, so on positive-definite input
        # neither an O(N^3) factorization nor a per-block eigen-solve runs
        factored, solved = [], []
        factor, solve = _multiprec.pd_factor, _multiprec.sym_eigenvalues

        def counting_factor(matrix):
            factored.append(np.asarray(matrix).shape[0])
            return factor(matrix)

        def counting_solve(matrix, mode):
            solved.append(np.asarray(matrix).shape[0])
            return solve(matrix, mode)

        monkeypatch.setattr(_multiprec, "pd_factor", counting_factor)
        monkeypatch.setattr(_multiprec, "sym_eigenvalues", counting_solve)
        classify(GEO, 6, precision)
        hankel_min_eigs(semicircle_moments(11), 6, precision)
        assert factored == []
        assert solved == []

    @pytest.mark.parametrize("precision", [PrecisionMode.DOUBLE,
                                           PrecisionMode.EXTENDED])
    @pytest.mark.parametrize("size", [5, 12, 40])
    def test_finite_family_reads_only_its_entries(self, rng, size, precision):
        # the deficiency sums stop at the family's size instead of reading
        # a_n past its end; a finite matrix is never called indeterminate
        families = [random_coefficients(rng, size),
                    JacobiCoefficients.from_arrays([1] * size, [0] * size)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            for co in families:
                report = classify(co, 8, precision)
                assert report.verdict is not Verdict.LIKELY_INDETERMINATE
                assert len(report.deficiency_p) == size

    def test_insufficient_horizon(self):
        report = classify(FREE, 1)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_report_serializes(self, tmp_path):
        # the CLI writes the report; the package itself knows no file format
        coeffs = tmp_path / "free.json"
        coeffs.write_text('{"generator": {"kind": "free"}}')
        argv = ["diagnose", "--input", str(coeffs), "--N-max", "6", "--output"]
        assert main(argv + [str(tmp_path / "d.json")]) == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["verdict"] == "LikelyDeterminate"
        assert doc["lambda_seq"] == classify(FREE, 6).lambda_seq.tolist()
        assert main(argv + [str(tmp_path / "d.csv"), "--format", "csv"]) == 0
        rows = (tmp_path / "d.csv").read_text().splitlines()
        assert rows[0] == "N,lambda_N,beta_N,gamma_N"
        assert len(rows) == 7


class TestOverflowedGamma:
    GEO3 = JacobiCoefficients.geometric(3)

    def test_no_inf_minus_inf(self):
        # gamma_26..gamma_30 of geometric(3) exceed the float64 range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = classify(self.GEO3, 30, PrecisionMode.EXTENDED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = classify(self.GEO3, 30, PrecisionMode.EXTENDED)
        assert np.isinf(strict.gamma_seq[25:]).all()
        assert np.isfinite(strict.gamma_seq[:25]).all()
        assert strict.verdict is quiet.verdict is Verdict.LIKELY_INDETERMINATE
        assert report_fields(strict) == report_fields(quiet)

    @pytest.mark.parametrize("n_max", [26, 27, 28])
    def test_overflow_is_not_a_bounded_gamma(self, n_max):
        # gamma overflows inside the last four blocks: not a stable value
        report = classify(self.GEO3, n_max, PrecisionMode.EXTENDED)
        assert np.isinf(report.gamma_seq[-1])
        assert report.verdict is Verdict.LIKELY_INDETERMINATE

    @pytest.mark.parametrize("gamma, fails", [
        ([1.0, np.inf, np.inf], False), ([1.0, np.inf, 5.0], True)])
    def test_monotonicity_across_inf(self, monkeypatch, gamma, fails):
        from jacobi_bc import determinacy
        monkeypatch.setattr(determinacy, "leading_eig_extremes",
                            lambda *a: (np.ones(3), np.array(gamma)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if fails:
                with pytest.raises(JacobiBCError, match="gamma .* at T=3"):
                    connecting_eig_sequences(response_vector(FREE, 5), 3)
            else:
                connecting_eig_sequences(response_vector(FREE, 5), 3)


class TestOverflowedDeficiencySums:
    # |p_n(i)|^2 passes 1.8e308 before n = 60 for geometric(0.5), and at
    # n = 2 for a_1 = 1e-200
    GEO_HALF = JacobiCoefficients.geometric(0.5)
    TINY = JacobiCoefficients.from_arrays([1, 1e-200, 1], [0, 0, 0])

    @pytest.mark.parametrize("coeffs, depth", [(GEO_HALF, 60), (TINY, 3)],
                             ids=["geometric0.5", "a1=1e-200"])
    def test_sums_turn_inf(self, coeffs, depth):
        p_sums, q_sums = deficiency_partial_sums(coeffs, depth)
        assert np.isposinf(p_sums[-1]) and np.isposinf(q_sums[-1])
        assert p_sums[0] == 1.0

    @pytest.mark.parametrize("bound", [circle_bound_hankel,
                                       circle_bound_connecting])
    @pytest.mark.parametrize("coeffs, depth", [(GEO_HALF, 60), (TINY, 3)],
                             ids=["geometric0.5", "a1=1e-200"])
    def test_circle_bounds_are_unavailable(self, bound, coeffs, depth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotLimitCircleError, match="overflows float64"):
                bound(coeffs, depth)

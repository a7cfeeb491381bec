import json
import re
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobi_bc import (
    ComplexDataError,
    ConditioningWarning,
    JacobiBCError,
    JacobiCoefficients,
    NotLimitCircleError,
    PrecisionMode,
    Verdict,
    build_hankel,
    circle_bound_connecting,
    circle_bound_hankel,
    classify,
    connecting_from_hankel,
    connecting_from_response,
    connecting_eig_sequences,
    deficiency_partial_sums,
    hankel_min_eigs,
    kernel_finite,
    recover_from_moments,
    response_to_moments,
    response_vector,
    solve_finite,
)

from jacobi_bc import _multiprec, moments
from jacobi_bc.cli import main
from jacobi_bc.determinacy import _circle_nodes, _partial_square_sums
from jacobi_bc.spectral import TAIL_WINDOW, eval_p_all, relative_tail

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
        other = _multiprec.sym_eigenvalues(connecting_from_hankel(hank).matrix,
                                           PrecisionMode.DOUBLE)[0]
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
                # a size-n measure has n atoms: S_N and C_T are singular
                # beyond n, and the data route's C_T is the oracle of gamma
                past = slice(size, None)
                assert list(report.lambda_seq[past]) == [0.0] * (8 - size)
                assert list(report.beta_seq[past]) == [0.0] * (8 - size)
                gamma = connecting_eig_sequences(
                    response_vector(co, 15, precision), 8, precision)[1]
                assert np.allclose(report.gamma_seq, gamma, rtol=1e-13, atol=0)

    def test_insufficient_horizon(self):
        report = classify(FREE, 1)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_conflicting_signals_are_noted(self):
        # free up to a_10, so C_T = I and gamma_T = 1 for T <= 6, and
        # a_n = 4^n past it, so the deficiency sums converge
        coeffs = JacobiCoefficients.from_rules(
            lambda n: 1 if n <= 10 else 4 ** n, lambda n: 0)
        report = classify(coeffs, 6)
        assert list(report.gamma_seq) == [1.0] * 6
        assert report.lambda_seq[-1] > 1e-2
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "conflicting signals; raise n_max or precision" in report.notes

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_the_tail_tolerance_splits_geometric_1_5_from_1_6(self,
                                                              precision):
        # the relative depth-60 tails are 4.9e-10 (ratio 1.5) and 1.4e-11
        # (ratio 1.6): TAIL_TOL = 1e-10 lies between them, so a tenfold
        # change either way moves one of the two verdicts
        inconclusive = classify(JacobiCoefficients.geometric(1.5), 24,
                                precision)
        indeterminate = classify(JacobiCoefficients.geometric(1.6), 24,
                                 precision)
        assert inconclusive.verdict is Verdict.INCONCLUSIVE
        assert indeterminate.verdict is Verdict.LIKELY_INDETERMINATE

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_a_lambda_just_above_eps_det_stays_up(self, precision):
        # a_n = 3^n / 128 (n >= 1) is indeterminate, and its lambda_N
        # settles at 4.2e-8: above EPS_DET = 1e-8, so lambda neither
        # decays nor fails to stay up, and the converged deficiency sums
        # decide; a threshold of 1e-7 would read a decay
        coeffs = JacobiCoefficients.from_rules(
            lambda n: Fraction(3 ** n, 128) if n else 1, lambda n: 0)
        report = classify(coeffs, 16, precision)
        assert 1e-8 < report.lambda_seq.min() < 1e-7
        assert report.verdict is Verdict.LIKELY_INDETERMINATE

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


def _carleman(p):
    """a_n = (n+1)^p, b_n = 0: determinate (Carleman) for p <= 1."""
    return JacobiCoefficients.from_arrays([(n + 1) ** p for n in range(70)],
                                          [0] * 70)


ROUTE_FAMILIES = {"free": FREE, "geometric1.5": JacobiCoefficients.geometric(1.5),
                  "geometric2": GEO, "geometric3": JacobiCoefficients.geometric(3),
                  "carleman0.5": _carleman(0.5), "carleman0.7": _carleman(0.7),
                  "carleman1": _carleman(1)}


def _field_route_gamma(coeffs, size, n_max, precision):
    """gamma_T as classify read it off the simulated impulse field: the
    rows 1..size and times 1..n_max lifted to the eigenvalue mode, their
    frexp table and the scaled LAPACK loop."""
    field = solve_finite(coeffs, size, [1], n_max, precision).values[1:, 2:]
    mode = _multiprec._eigen_mode(precision)
    top, exp = _multiprec._leading_top_eigs(
        _multiprec._frexp_table(_multiprec.lift(field, mode)), gram=True)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(top, exp)


def _assert_field_route_bits(coeffs, n_max, precision):
    size = min(n_max, coeffs.size) if coeffs.is_finite else n_max
    gamma = classify(coeffs, n_max, precision).gamma_seq
    assert np.array_equal(gamma, _field_route_gamma(coeffs, size, n_max,
                                                    precision))


def _relative_gap(got, want):
    return np.max(np.abs(np.asarray(got) / np.asarray(want) - 1))


@pytest.mark.parametrize("precision", list(PrecisionMode))
@pytest.mark.parametrize("coeffs, entry", [
    (JacobiCoefficients.from_rules(lambda n: 1, lambda n: 0.5j), "b_1"),
    (JacobiCoefficients.from_arrays([1, 1, 1j, 1], [0, 0, 0, 0]), "a_2"),
    (JacobiCoefficients.from_arrays(
        [1, _multiprec.lift([2 + 1j], PrecisionMode.EXTENDED)[0]], [0, 0]),
     "a_1"),
    # past n_max, where only the deficiency sums and circle bounds read it
    (JacobiCoefficients.from_rules(lambda n: 1,
                                   lambda n: 1j if n == 40 else 0), "b_40"),
    (JacobiCoefficients.from_arrays([1, 1, 1, 1], [0, 0, 0j, 0]), "b_3"),
], ids=["complex_b", "complex_a", "mpc_a", "deep_b", "zero_imaginary_b"])
def test_classify_refuses_complex_coefficients(coeffs, entry, precision):
    with pytest.raises(ComplexDataError, match=f"^{entry} = "):
        classify(coeffs, 8, precision)


@pytest.mark.parametrize("n_max", [0, -1])
def test_classify_refuses_n_max_below_1(n_max):
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        classify(JacobiCoefficients.free(), n_max)


class TestCoefficientRoute:
    """classify reads lambda_N, beta_T and gamma_T off the coefficients:
    the orthonormal rows for lambda and beta, the simulated W_T for
    gamma.  The data route (the simulated response, its moments, and
    Wheeler's recurrence on them) is its EXTENDED oracle, and EXTENDED is
    the oracle of DOUBLE."""

    @pytest.mark.parametrize("n_max", [8, 24, 64])
    @pytest.mark.parametrize("name", list(ROUTE_FAMILIES))
    def test_double_agrees_with_extended(self, name, n_max):
        co = ROUTE_FAMILIES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            double = classify(co, n_max)
            extended = classify(co, n_max, PrecisionMode.EXTENDED)
        assert double.verdict is extended.verdict
        for seq in ("lambda_seq", "beta_seq"):
            got, want = getattr(double, seq), getattr(extended, seq)
            assert _relative_gap(got, want) <= 1e-13, seq
        finite = np.isfinite(double.gamma_seq)
        assert list(finite) == list(np.isfinite(extended.gamma_seq))
        assert _relative_gap(double.gamma_seq[finite],
                             extended.gamma_seq[finite]) <= 1e-13

    @pytest.mark.parametrize("n_max", [8, 24, 64])
    @pytest.mark.parametrize("name", list(ROUTE_FAMILIES))
    def test_extended_agrees_with_the_data_route(self, name, n_max):
        co = ROUTE_FAMILIES[name]
        report = classify(co, n_max, PrecisionMode.EXTENDED)
        r = response_vector(co, 2 * n_max - 1, PrecisionMode.EXTENDED)
        s = response_to_moments(r, PrecisionMode.EXTENDED)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            lam = hankel_min_eigs(s, n_max, PrecisionMode.EXTENDED)
        beta, gamma = connecting_eig_sequences(r, n_max,
                                               PrecisionMode.EXTENDED)
        assert _relative_gap(report.lambda_seq, lam) <= 1e-14
        assert _relative_gap(report.beta_seq, beta) <= 1e-14
        finite = np.isfinite(gamma)
        assert list(np.isfinite(report.gamma_seq)) == list(finite)
        assert _relative_gap(report.gamma_seq[finite], gamma[finite]) <= 1e-14

    @pytest.mark.parametrize("name, blocks", [
        ("geometric3", (2, 10, 20, 25)), ("carleman0.7", (3, 12, 24)),
        ("geometric1.5", (5, 17, 24))])
    def test_gamma_matches_a_50_digit_eigensolver(self, name, blocks):
        co = ROUTE_FAMILIES[name]
        size = max(blocks)
        gamma = classify(co, size, PrecisionMode.EXTENDED).gamma_seq
        r = response_vector(co, 2 * size - 1, PrecisionMode.EXTENDED)
        top = connecting_from_response(r, size, PrecisionMode.EXTENDED).matrix
        oracle = mpmath.MPContext()
        oracle.dps = 50
        for t in blocks:
            want = max(oracle.eigsy(oracle.matrix(top[:t, :t].tolist()),
                                    eigvals_only=True))
            assert abs(gamma[t - 1] / float(want) - 1) <= 2e-15, t

    @settings(max_examples=40)
    @given(data=st.data())
    def test_gamma_keeps_the_bits_of_the_field_route_on_eighths(self, data):
        def eighths(low, high, count):
            return data.draw(st.lists(
                st.integers(low, high).map(lambda k: Fraction(k, 8)),
                min_size=count, max_size=count))

        size = data.draw(st.integers(1, 12))
        coeffs = JacobiCoefficients.from_arrays(
            [1] + eighths(4, 16, size - 1), eighths(-8, 8, size))
        n_max = data.draw(st.integers(1, 24))
        for precision in PrecisionMode:
            _assert_field_route_bits(coeffs, n_max, precision)

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    @pytest.mark.parametrize("coeffs", [
        JacobiCoefficients.geometric(1.5), JacobiCoefficients.geometric(2),
        JacobiCoefficients.geometric(3), _carleman(0.5), _carleman(0.7),
        _carleman(1)], ids=["geometric1.5", "geometric2", "geometric3",
                            "carleman0.5", "carleman0.7", "carleman1"])
    def test_gamma_keeps_the_bits_of_the_field_route(self, coeffs, precision):
        _assert_field_route_bits(coeffs, 24, precision)

    @pytest.mark.parametrize("precision", [PrecisionMode.EXTENDED,
                                           PrecisionMode.RATIONAL])
    def test_gamma_makes_no_number_cell(self, monkeypatch, precision):
        # the object sweep hands gamma frexp fields: no Fraction or mpf
        # cell is emitted, and no object table is read back
        kinds, tables = [], []
        emitted, frexp_table = _multiprec._emitted, _multiprec._frexp_table

        def counting_emitted(vec, kind, *args):
            kinds.append(kind)
            return emitted(vec, kind, *args)

        def counting_table(arr):
            tables.append(arr.dtype)
            return frexp_table(arr)

        monkeypatch.setattr(_multiprec, "_emitted", counting_emitted)
        monkeypatch.setattr(_multiprec, "_frexp_table", counting_table)
        classify(GEO, 12, precision)
        # gamma's cells and the rows of Q for lambda and beta: float fields
        assert set(kinds) == {float}
        assert tables == []

    @pytest.mark.parametrize("precision", [PrecisionMode.EXTENDED,
                                           PrecisionMode.RATIONAL])
    def test_krein_kernel_makes_no_number_cell(self, monkeypatch, precision):
        # the object sweep hands the Krein solve W_T's columns as ints:
        # no Fraction or mpf cell of W_T is emitted, lifted to mpf or read
        # back into lines
        kinds, calls = [], []
        emitted = _multiprec._emitted

        def counting_emitted(vec, kind, *args):
            kinds.append(kind)
            return emitted(vec, kind, *args)

        monkeypatch.setattr(_multiprec, "_emitted", counting_emitted)
        for name in ("_to_extended", "_int_lines"):
            monkeypatch.setattr(_multiprec, name, lambda *args, name=name,
                                call=getattr(_multiprec, name):
                                calls.append(name) or call(*args))
        coeffs = random_coefficients(np.random.default_rng(5), 13)
        krein = kernel_finite(coeffs, 0.3 + 1j, -0.4, 12, method="krein",
                              precision=precision)
        assert abs(krein - kernel_finite(coeffs, 0.3 + 1j, -0.4, 12)) <= (
            1e-12 * abs(krein))
        assert not {_multiprec._MPF, Fraction} & set(kinds)
        assert calls == []

    def test_moment_recovery_reads_its_moments_once(self, monkeypatch):
        # EXTENDED moment recovery lifts s once, reads it once into the
        # integer form and converts it there, by no row's dot: the only
        # mpf it makes are the pivots, alpha_k and beta_k of its two runs,
        # and it divides no mpf, as the pivot ratios would
        context = _multiprec._load_extended()
        horizon = 12
        s = _multiprec.lift(response_to_moments(response_vector(
            random_coefficients(np.random.default_rng(6), horizon),
            2 * horizon - 1, PrecisionMode.RATIONAL), PrecisionMode.RATIONAL),
            PrecisionMode.EXTENDED)
        calls, kinds, made = [], [], []
        for module, name in ((_multiprec, "lift"), (moments, "lift"),
                             (_multiprec, "dot"), (moments, "dot"),
                             (_multiprec, "_read")):
            monkeypatch.setattr(module, name, lambda *args, name=name,
                                call=getattr(module, name):
                                calls.append((name, len(args[0])))
                                or call(*args))
        emitted, make_mpf = _multiprec._emitted, context.make_mpf
        monkeypatch.setattr(_multiprec, "_emitted", lambda vec, kind, *args:
                            kinds.append(kind) or emitted(vec, kind, *args))
        monkeypatch.setattr(context, "make_mpf",
                            lambda fields: made.append(1) or make_mpf(fields))
        monkeypatch.setattr(context.mpf, "__truediv__", None)
        result = recover_from_moments(s, horizon, PrecisionMode.EXTENDED)
        assert np.max(np.abs(result.a)) > 0
        assert [c for c in calls if c[0] != "_read" or c[1] > 1] == [
            ("lift", s.size), ("_read", s.size)]
        assert kinds.count(context.mpf) == 2 * horizon
        assert len(made) == 2 * (3 * horizon - 2)

    def test_overflowed_double_rows_give_zero(self, monkeypatch):
        # p_2 = (1e200 x^2 - 1e-200) / 1e-200: its x^2 coefficient passes
        # 1.8e308, so lambda_3 < 1 / (1.8e308)^2 rounds to 0.0; no block
        # holding inf or NaN reaches LAPACK
        co = JacobiCoefficients.from_arrays([1, 1e-200, 1e-200, 1, 1],
                                            [0] * 5)
        sizes = []
        top = _multiprec._top_eigenvalue

        def checked(block):
            assert np.isfinite(block).all()
            sizes.append(block.shape[0])
            return top(block)

        monkeypatch.setattr(_multiprec, "_top_eigenvalue", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            double = classify(co, 5)
        extended = classify(co, 5, PrecisionMode.EXTENDED)
        assert list(double.lambda_seq[2:]) == [0.0] * 3
        assert list(double.lambda_seq) == list(extended.lambda_seq)
        assert list(double.beta_seq) == list(extended.beta_seq)
        assert sizes

    def test_overflowed_double_field_gives_inf_gamma(self):
        # W_T of geometric(2) holds inf and NaN in double from T = 46 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(GEO, 64)
        overflowed = np.flatnonzero(~np.isfinite(report.gamma_seq))
        assert overflowed.size and np.isposinf(report.gamma_seq[overflowed]).all()
        assert list(overflowed) == list(range(overflowed[0], 64))
        assert report.verdict is Verdict.LIKELY_INDETERMINATE
        assert np.all(report.lambda_seq > 0.7) and np.all(report.beta_seq > 0.8)


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

    @pytest.mark.parametrize("rise, fails", [(5e-13, False), (5e-12, True)])
    def test_monotonicity_slack(self, monkeypatch, rise, fails):
        # beta may rise by the slack 1e-12 plus the DOUBLE noise floor,
        # 1e3 eps = 2.2e-13 at norm 1, and by no more
        from jacobi_bc import determinacy
        beta = np.array([1.0, 1.0 + rise, 1.0])
        monkeypatch.setattr(determinacy, "leading_eig_extremes",
                            lambda *a: (beta, np.ones(3)))
        if fails:
            with pytest.raises(JacobiBCError, match="beta .* at T=2"):
                connecting_eig_sequences(response_vector(FREE, 5), 3)
        else:
            connecting_eig_sequences(response_vector(FREE, 5), 3)

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


def _table_square_sums(coeffs, truncation, nodes):
    """``determinacy._partial_square_sums`` as it was when it stacked the
    truncation x nodes table of p_n(z) and summed it with np.cumsum,
    kept verbatim as the oracle."""
    with np.errstate(over="ignore", invalid="ignore"):
        pv = eval_p_all(coeffs, truncation, np.asarray(nodes))
        sums = np.cumsum(np.abs(pv) ** 2, axis=0)
    overflowed = np.count_nonzero(~np.isfinite(sums[-1]))
    if overflowed:
        raise NotLimitCircleError(
            "not limit circle: sum_n |p_n(z)|^2 overflows float64 at "
            f"{overflowed} of {len(nodes)} quadrature nodes")
    if truncation <= 2 * TAIL_WINDOW:
        return sums[-1], float("nan")
    rel = relative_tail(sums)
    prev = relative_tail(sums[:-TAIL_WINDOW], sums[-1])
    growing = (rel >= prev) & (rel > 1e-12)
    if np.any(growing):
        raise NotLimitCircleError(
            "not limit circle: sum_n |p_n(z)|^2 has a non-decreasing "
            f"tail at {int(np.count_nonzero(growing))} of {len(nodes)} "
            "quadrature nodes")
    return sums[-1], float(np.max(rel))


def _bound_outcome(bound, coeffs, truncation):
    """The estimate's fields as bytes, or the error's type and message."""
    try:
        est = bound(coeffs, truncation)
    except NotLimitCircleError as exc:
        return type(exc), str(exc)
    return np.array([est.value, est.tail_estimate]).tobytes(), est.truncation


class TestStreamedSquareSums:
    """The circle bounds sum |p_n|^2 while the recurrence runs, keeping
    the last partial sums only; the stacked table is their oracle."""

    @pytest.mark.parametrize("bound", [circle_bound_hankel,
                                       circle_bound_connecting])
    @pytest.mark.parametrize("coeffs, truncation", [
        (GEO, 60), (JacobiCoefficients.geometric(1.3), 60),
        (JacobiCoefficients.geometric(4), 60), (FREE, 60),
        (TestOverflowedDeficiencySums.GEO_HALF, 60),
        (JacobiCoefficients.from_arrays([1, 2, 3, 1, 2, 5], [0] * 6), 6),
        (random_coefficients(np.random.default_rng(3), 60), 60),
        (GEO, 2 * TAIL_WINDOW), (GEO, 2 * TAIL_WINDOW + 1), (GEO, 1)],
        ids=["geometric2", "geometric1.3", "geometric4", "free",
             "geometric0.5", "finite-symmetric", "random", "window-2",
             "window-2+1", "one-term"])
    def test_equal_the_stacked_table(self, monkeypatch, bound, coeffs,
                                     truncation):
        from jacobi_bc import determinacy
        got = _bound_outcome(bound, coeffs, truncation)
        monkeypatch.setattr(determinacy, "_partial_square_sums",
                            _table_square_sums)
        assert got == _bound_outcome(bound, coeffs, truncation)

    def test_free_tail_grows_at_the_same_nodes(self):
        with pytest.raises(NotLimitCircleError) as streamed:
            circle_bound_hankel(FREE, 60)
        message = str(streamed.value)
        count = _circle_nodes(60)
        assert message.startswith("not limit circle: sum_n |p_n(z)|^2 has "
                                  "a non-decreasing tail at ")
        assert message.endswith(f" of {count} quadrature nodes")
        nodes = np.exp(2j * np.pi * np.arange(count) / count)
        with pytest.raises(NotLimitCircleError) as table:
            _table_square_sums(FREE, 60, nodes)
        assert message == str(table.value)

    def test_short_truncation_has_no_tail(self):
        nodes = np.cos(np.arange(1, 9) / 3)
        sums, tail = _partial_square_sums(GEO, 2 * TAIL_WINDOW, nodes)
        want, _ = _table_square_sums(GEO, 2 * TAIL_WINDOW, nodes)
        assert np.isnan(tail) and sums.tobytes() == want.tobytes()

    def test_hankel_bound_holds_no_node_table(self):
        # the depth x nodes complex table of p_n took 3.9 MB at depth 60;
        # the streamed sums keep a few rows of _circle_nodes(60) = 64 nodes
        circle_bound_hankel(GEO, 60)
        tracemalloc.start()
        try:
            circle_bound_hankel(GEO, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _circle_sums(coeffs, truncation, count):
    """``_partial_square_sums`` on the count-node trapezoid grid, or the
    error's type and message with its node counts masked."""
    nodes = np.exp(1j * (2 * np.pi * np.arange(count) / count))
    try:
        return _partial_square_sums(coeffs, truncation, nodes)
    except NotLimitCircleError as exc:
        return type(exc), re.sub(r"at \d+ of \d+ quadrature",
                                 "at # of # quadrature", str(exc))


def _exact_circle_mean(coeffs, truncation):
    """The unit-circle mean of sum_{n<=K} |p_n|^2 in 40-digit mpmath: by
    Parseval, the sum of the squared monomial coefficients of p_1..p_K."""
    ctx = mpmath.MPContext()
    ctx.dps = 40
    prev, cur, total = [], [ctx.mpf(1)], ctx.mpf(0)
    for n in range(1, truncation + 1):
        total += sum(c * c for c in cur)
        a_n, a_prev, b_n = (ctx.mpf(coeffs.a(n)), ctx.mpf(coeffs.a(n - 1)),
                            ctx.mpf(coeffs.b(n)))
        # p_{n+1} = ((z - b_n) p_n - a_{n-1} p_{n-1}) / a_n
        nxt = [0] + cur
        for k, c in enumerate(cur):
            nxt[k] -= b_n * c
        for k, c in enumerate(prev):
            nxt[k] -= a_prev * c
        prev, cur = cur, [c / a_n for c in nxt]
    return total


def _exact_chebyshev_integral(coeffs, truncation):
    """The integral of sum_{n<=K} p_n(x)^2 against dx / sqrt(1 - x^2) over
    (-1, 1) in 40-digit mpmath, from the monomial coefficients of
    p_1..p_K and the moments pi C(k, k/2) / 2^k (k even) of the weight."""
    ctx = mpmath.MPContext()
    ctx.dps = 40
    moments = [ctx.pi * ctx.binomial(k, k // 2) / ctx.mpf(2) ** k
               if k % 2 == 0 else 0 for k in range(2 * truncation - 1)]
    prev, cur, total = [], [ctx.mpf(1)], ctx.mpf(0)
    for n in range(1, truncation + 1):
        total += sum(ci * cj * moments[i + j] for i, ci in enumerate(cur)
                     for j, cj in enumerate(cur))
        a_n, a_prev, b_n = (ctx.mpf(coeffs.a(n)), ctx.mpf(coeffs.a(n - 1)),
                            ctx.mpf(coeffs.b(n)))
        nxt = [0] + cur
        for k, c in enumerate(cur):
            nxt[k] -= b_n * c
        for k, c in enumerate(prev):
            nxt[k] -= a_prev * c
        prev, cur = cur, [c / a_n for c in nxt]
    return total


class TestCircleNodes:
    """The trapezoid rule of ``circle_bound_hankel`` runs on the smallest
    power of two >= K nodes: exact for the degree K - 1 integrand, and
    nested in the larger power-of-two grids."""

    def test_smallest_power_of_two_at_least_the_truncation(self):
        assert [_circle_nodes(k) for k in (1, 2, 3, 60, 64, 65, 2049)] == [
            1, 2, 4, 64, 64, 128, 4096]

    @settings(max_examples=120)
    @given(truncation=st.integers(1, 200),
           family=st.one_of(
               st.floats(1.2, 4).map(JacobiCoefficients.geometric),
               st.just(FREE),
               st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 40))))
    @example(truncation=60, family=TestOverflowedDeficiencySums.GEO_HALF)
    def test_sums_are_the_2048_grid_sums_at_its_nested_nodes(
            self, truncation, family):
        if isinstance(family, tuple):
            seed, extra = family
            family = random_coefficients(np.random.default_rng(seed),
                                         truncation + extra)
        count = _circle_nodes(truncation)
        got = _circle_sums(family, truncation, count)
        want = _circle_sums(family, truncation, 2048)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert isinstance(got[0], np.ndarray)
            assert got[0].tobytes() == want[0][::2048 // count].tobytes()
            # the tail estimate is a max over a subset of the nodes
            assert not got[1] > want[1]

    @pytest.mark.parametrize("coeffs, truncation", [
        *[(JacobiCoefficients.geometric(q), k)
          for q in (1.6, 2.2, 3) for k in (11, 30, 60)],
        *[(random_coefficients(np.random.default_rng(seed), 80), 10)
          for seed in (5, 6, 7)]])
    def test_bound_is_the_exact_mean_to_eight_ulps(self, coeffs, truncation):
        # the rounding of each node's sum averages out less over 16 nodes
        # than over 2048: on 40 random size-80 families at K = 10 the
        # 16-node bound was within 5.9 ulps, the 2048-node one within 3.7
        want = 1 / _exact_circle_mean(coeffs, truncation)
        value = circle_bound_hankel(coeffs, truncation).value
        assert abs(value - want) <= 8 * np.spacing(value)

    @pytest.mark.parametrize("coeffs, truncation", [
        *[(JacobiCoefficients.geometric(q), k)
          for q in (1.6, 2.2, 3) for k in (11, 30, 60)],
        *[(random_coefficients(np.random.default_rng(seed), 80), 10)
          for seed in (5, 6, 7)]])
    def test_connecting_bound_is_the_exact_integral_to_eight_ulps(
            self, coeffs, truncation):
        # on K nodes it was within 0-2 ulps of the exact value at these
        # points; the 256-node rule was 1 ulp nearer geometric(3) at K = 60
        want = 1 / _exact_chebyshev_integral(coeffs, truncation)
        value = circle_bound_connecting(coeffs, truncation).value
        assert abs(value - want) <= 8 * np.spacing(value)

    @pytest.mark.parametrize("truncation", [300, 600])
    @pytest.mark.parametrize("q", [1.1, 2])
    def test_gauss_chebyshev_is_exact_past_its_fewest_nodes(self, q,
                                                            truncation):
        coeffs = JacobiCoefficients.geometric(q)
        nodes = 2 * truncation
        x = np.cos((2 * np.arange(1, nodes + 1) - 1) * np.pi / (2 * nodes))
        sums, _ = _partial_square_sums(coeffs, truncation, x)
        want = 1 / float(np.pi / nodes * np.sum(sums))
        got = circle_bound_connecting(coeffs, truncation).value
        assert abs(got / want - 1) <= 1e-14

    def test_gauss_chebyshev_nodes_follow_the_truncation(self):
        with pytest.raises(NotLimitCircleError,
                           match=" of 300 quadrature nodes$"):
            circle_bound_connecting(JacobiCoefficients.geometric(1.01), 300)

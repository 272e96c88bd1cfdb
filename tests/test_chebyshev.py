import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import (
    ChebyshevSeries,
    DomainError,
    cheb_eval_first,
    cheb_eval_second,
    cheb_weighted_integral,
    normalized_eval,
    series_eval,
)
from specden.chebyshev import (
    NORM_0,
    NORM_K,
    series_weighted_cdf,
    series_weighted_first_moment,
    series_weighted_integral,
)

from conftest import quad_weighted_integral

SQRT_PI = math.sqrt(math.pi)


class TestFirstKind:
    def test_degree_zero_is_one(self):
        assert cheb_eval_first(0, 0.3) == 1.0

    def test_degree_one_is_identity(self):
        assert cheb_eval_first(1, -0.7) == -0.7

    def test_degree_two(self):
        # 2 * 0.5 * 0.5 - 1
        assert cheb_eval_first(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_bounded_by_one_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        t_prev, t_cur = np.ones_like(xs), xs.copy()
        for k in range(2, 129):
            t_prev, t_cur = t_cur, 2.0 * xs * t_cur - t_prev
            assert np.abs(t_cur).max() <= 1.0 + 1e-9, f"k={k}"
        # the grid recurrence and the public entry point agree at the top degree
        np.testing.assert_allclose(cheb_eval_first(128, xs), t_cur, rtol=0, atol=0)

    def test_matches_cosine_identity(self):
        for k in (3, 17, 50):
            theta = 0.8123
            assert cheb_eval_first(k, math.cos(theta)) == pytest.approx(
                math.cos(k * theta), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cheb_eval_first(3, 1.0 + 1e-6)

    def test_clamps_tiny_drift(self):
        assert cheb_eval_first(3, 1.0 + 1e-13) == pytest.approx(1.0)


class TestSecondKind:
    def test_u_minus_one_is_zero(self):
        assert cheb_eval_second(-1, 0.4) == 0.0

    def test_u_one(self):
        assert cheb_eval_second(1, 0.4) == pytest.approx(0.8)

    def test_value_at_one_is_k_plus_one(self):
        assert cheb_eval_second(3, 1.0) == pytest.approx(4.0)

    def test_bounded_by_k_plus_one_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        u_prev, u_cur = np.ones_like(xs), 2.0 * xs
        assert np.abs(u_cur).max() <= 2.0 + 1e-9
        for k in range(2, 129):
            u_prev, u_cur = u_cur, 2.0 * xs * u_cur - u_prev
            assert np.abs(u_cur).max() <= k + 1 + 1e-9, f"k={k}"


class TestNormalized:
    def test_zeroth_is_inverse_sqrt_pi(self):
        assert normalized_eval(0, 0.123) == pytest.approx(0.5641895835477563, abs=1e-12)

    def test_first_at_one(self):
        assert normalized_eval(1, 1.0) == pytest.approx(0.7978845608028654, abs=1e-12)

    def test_second_combines_with_raw_eval(self):
        assert normalized_eval(2, 0.5) == pytest.approx(-0.5 * NORM_K)


class TestWeightedIntegral:
    def test_total_weight_is_pi(self):
        assert cheb_weighted_integral(0, -1.0, 1.0) == pytest.approx(math.pi, abs=1e-14)

    def test_odd_symmetric_vanishes(self):
        assert cheb_weighted_integral(1, -1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_k2_half_interval_is_zero(self):
        # the printed antiderivative -cos(k asin x)/k would give 1 here; the
        # correct value (quadrature-verified) is 0
        assert cheb_weighted_integral(2, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        # the quadrature oracle agrees once both stop at the same truncated endpoint
        assert cheb_weighted_integral(2, 0.0, 1.0 - 1e-6) == pytest.approx(
            quad_weighted_integral(2, 0.0, 1.0 - 1e-6), abs=1e-10)

    # the last 1e-9 before the edge trips quad's roundoff detector, as in
    # test_degree_360_near_the_edges
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_quadrature_oracle_near_the_edge(self, k):
        # uniform pieces missed the weight's mass within 1e-6 of +1 by 1.4e-6
        b = 1.0 - 1e-12
        assert cheb_weighted_integral(k, 0.3, b) == pytest.approx(
            quad_weighted_integral(k, 0.3, b), abs=1e-10)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(0, 101))
            a, b = np.sort(rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, 2))
            if b - a < 1e-3:
                continue
            assert cheb_weighted_integral(k, a, b) == pytest.approx(
                quad_weighted_integral(k, a, b), abs=1e-10)

    def test_orthonormality_under_weight(self):
        import scipy.integrate

        for i in range(0, 21, 4):
            for j in range(i, 21, 5):
                val, _ = scipy.integrate.quad(
                    lambda th: normalized_eval(i, math.cos(th)) * normalized_eval(j, math.cos(th)),
                    0.0, math.pi, epsabs=1e-12, limit=200)
                expected = 1.0 if i == j else 0.0
                assert val == pytest.approx(expected, abs=1e-8), (i, j)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            cheb_weighted_integral(3, 0.5, 0.5)
        with pytest.raises(DomainError):
            cheb_weighted_integral(3, 0.9, 0.1)
        with pytest.raises(DomainError):
            cheb_weighted_integral(3, -1.5, 0.5)

    @given(
        st.integers(min_value=0, max_value=40),
        st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_additivity(self, k, endpoints):
        a, b, c = sorted(endpoints)
        whole = cheb_weighted_integral(k, a, c)
        split = cheb_weighted_integral(k, a, b) + cheb_weighted_integral(k, b, c)
        # same antiderivative on both paths: difference is one rounding step
        assert whole == pytest.approx(split, abs=5e-15)


class TestSeries:
    def test_constant_one(self):
        series = ChebyshevSeries(np.array([SQRT_PI]))
        assert series_eval(series, 0.2) == pytest.approx(1.0, abs=1e-15)

    def test_identity_function(self):
        series = ChebyshevSeries(np.array([0.0, math.sqrt(math.pi / 2.0)]))
        assert series_eval(series, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_endpoint_sum(self):
        series = ChebyshevSeries(np.array([1.0, 1.0]))
        assert series_eval(series, 1.0) == pytest.approx(NORM_0 + NORM_K, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        series = ChebyshevSeries(rng.standard_normal(9))
        xs = rng.uniform(-1, 1, 17)
        vec = series_eval(series, xs)
        for x, v in zip(xs, vec):
            assert series_eval(series, float(x)) == pytest.approx(v, rel=1e-14, abs=1e-14)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            ChebyshevSeries(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            ChebyshevSeries(np.zeros((2, 2)))

    def test_weighted_integral_matches_termwise(self):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(7)
        series = ChebyshevSeries(coeffs)
        a, b = -0.8, 0.6
        by_terms = coeffs[0] * NORM_0 * cheb_weighted_integral(0, a, b) + sum(
            coeffs[k] * NORM_K * cheb_weighted_integral(k, a, b) for k in range(1, 7))
        assert series_weighted_integral(series, a, b) == pytest.approx(by_terms, abs=1e-13)

    def test_cdf_endpoints(self):
        series = ChebyshevSeries(np.array([SQRT_PI / math.pi]))  # integrates to 1
        cdf = series_weighted_cdf(series, np.array([-1.0, 0.0, 1.0]))
        assert cdf[0] == pytest.approx(0.0, abs=1e-14)
        assert cdf[1] == pytest.approx(0.5, abs=1e-14)
        assert cdf[2] == pytest.approx(1.0, abs=1e-14)

    def test_first_moment_against_quadrature(self):
        import scipy.integrate

        rng = np.random.default_rng(5)
        series = ChebyshevSeries(rng.standard_normal(6))
        a, b = -0.7, 0.9
        expected, _ = scipy.integrate.quad(
            lambda th: math.cos(th) * series_eval(series, math.cos(th)),
            math.acos(b), math.acos(a), epsabs=1e-12, limit=200)
        assert series_weighted_first_moment(series, a, b) == pytest.approx(expected, abs=1e-10)

EDGE = 1.0 - 1e-12


class TestVectorizedClosedForms:
    @pytest.fixture
    def series(self):
        return ChebyshevSeries(np.random.default_rng(21).standard_normal(81))

    def test_array_endpoints_match_scalar_calls(self, series):
        rng = np.random.default_rng(22)
        a, b = np.sort(rng.uniform(-1.0, 1.0, (2, 40)), axis=0)
        a[:3], b[:3] = [-1.0, -EDGE, 0.25], [1.0, EDGE, 0.25]
        for fn in (series_weighted_integral, series_weighted_first_moment):
            vec = fn(series, a, b)
            assert vec.shape == a.shape
            for lo, hi, v in zip(a, b, vec):
                assert fn(series, float(lo), float(hi)) == pytest.approx(v, rel=1e-14, abs=1e-14)
            np.testing.assert_array_equal(fn(series, a.reshape(5, 8), b.reshape(5, 8)),
                                          vec.reshape(5, 8))

    def test_empty_interval_is_zero_and_reversed_raises(self, series):
        same = np.array([-1.0, 0.1, 1.0])
        for fn in (series_weighted_integral, series_weighted_first_moment):
            assert fn(series, 0.4, 0.4) == 0.0
            np.testing.assert_array_equal(fn(series, same, same), 0.0)
            with pytest.raises(DomainError):
                fn(series, 0.5, 0.4)
            with pytest.raises(DomainError):
                fn(series, np.array([0.0, 0.5]), np.array([0.1, 0.4]))

    # in the last 1e-9 before each edge 1 - x*x rounds and trips quad's
    # roundoff detector; those pieces still agree with the closed form to 4e-12
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_degree_360_near_the_edges(self):
        rng = np.random.default_rng(360)
        ks = (0, 1, 180, 360)
        sparse = np.zeros(361)
        sparse[list(ks)] = rng.standard_normal(len(ks))
        for a, b in ((-EDGE, EDGE), (0.3, EDGE), (-EDGE, -0.2)):
            reference = sum(
                sparse[k] * (NORM_0 if k == 0 else NORM_K) * quad_weighted_integral(k, a, b)
                for k in ks)
            assert series_weighted_integral(ChebyshevSeries(sparse), a, b) == pytest.approx(
                reference, abs=1e-10)

        # every degree at once, against the single-degree closed form:
        # x T_0 = T_1 and x T_k = (T_{k+1} + T_{k-1}) / 2
        coeffs = rng.standard_normal(361)
        series = ChebyshevSeries(coeffs)
        for a, b in ((-EDGE, EDGE), (0.3, EDGE), (-EDGE, -0.2)):
            raw = [cheb_weighted_integral(j, a, b) for j in range(362)]
            integral = coeffs[0] * NORM_0 * raw[0] + sum(
                coeffs[k] * NORM_K * raw[k] for k in range(1, 361))
            moment = coeffs[0] * NORM_0 * raw[1] + sum(
                coeffs[k] * NORM_K * 0.5 * (raw[k + 1] + raw[k - 1]) for k in range(1, 361))
            assert series_weighted_integral(series, a, b) == pytest.approx(integral, abs=1e-12)
            assert series_weighted_first_moment(series, a, b) == pytest.approx(moment, abs=1e-12)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import (
    ChebyshevSeries,
    DomainError,
    cheb_weighted_integral,
    series_eval,
)
from specden.chebyshev import (
    NORM_0,
    NORM_K,
    _forward_sum,
    _three_term,
    series_weighted_cdf,
    series_weighted_first_moment,
    series_weighted_integral,
)

from conftest import quad_weighted_integral

SQRT_PI = math.sqrt(math.pi)


def _forward_sum_loop(weights, xs, second_kind):
    """Reference: the accumulating sweep as an explicit loop."""
    acc = np.full_like(xs, weights[0])
    if weights.size > 1:
        two_x = 2.0 * xs
        p_prev = np.ones_like(xs)
        p_cur = two_x.copy() if second_kind else xs.copy()
        acc += weights[1] * p_cur
        for w in weights[2:]:
            p_prev, p_cur = p_cur, two_x * p_cur - p_prev
            acc += w * p_cur
    return acc


def _unit_sweep(k, x, second_kind=False):
    """T_k (or U_k) at ``x`` through the program's accumulating sweep, with
    weight 1 on degree k and 0 elsewhere: every other term adds an exact zero,
    so the result is the recurrence's own P_k bit for bit."""
    weights = np.zeros(k + 1)
    weights[k] = 1.0
    return _forward_sum(weights, np.atleast_1d(np.asarray(x, dtype=float)), second_kind)


def _unit_series(k):
    """The series ``Tbar_k``: coefficient 1 on degree k."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return ChebyshevSeries(coeffs)


def _tbar(k, theta):
    """Tbar_k(cos theta) by the closed form ``cos(k theta)``, independent of any sweep."""
    return (NORM_0 if k == 0 else NORM_K) * math.cos(k * theta)


def _cheb_eval_second_loop(k, x):
    """Reference: the U_k sweep as an explicit loop, for k >= 1."""
    u_prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    u_cur = 2.0 * x
    for _ in range(2, k + 1):
        u_prev, u_cur = u_cur, 2.0 * x * u_cur - u_prev
    return u_cur


class TestFirstKind:
    def test_degree_zero_is_one(self):
        assert _unit_sweep(0, 0.3)[0] == 1.0
        assert series_eval(_unit_series(0), 0.3) == NORM_0

    def test_degree_one_is_identity(self):
        assert _unit_sweep(1, -0.7)[0] == -0.7
        assert series_eval(_unit_series(1), -0.7) == -0.7 * NORM_K

    def test_degree_two(self):
        # 2 * 0.5 * 0.5 - 1
        assert _unit_sweep(2, 0.5)[0] == pytest.approx(-0.5, abs=1e-15)
        assert series_eval(_unit_series(2), 0.5) == pytest.approx(-0.5 * NORM_K, abs=1e-15)

    def test_bounded_by_one_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        t_prev, t_cur = np.ones_like(xs), xs.copy()
        for k in range(2, 129):
            t_prev, t_cur = t_cur, 2.0 * xs * t_cur - t_prev
            assert np.abs(t_cur).max() <= 1.0 + 1e-9, f"k={k}"
        # the grid recurrence and the program's sweep agree at the top degree
        np.testing.assert_allclose(_unit_sweep(128, xs), t_cur, rtol=0, atol=0)
        np.testing.assert_allclose(series_eval(_unit_series(128), xs), NORM_K * t_cur,
                                   rtol=0, atol=0)

    def test_matches_cosine_identity(self):
        for k in (3, 17, 50):
            theta = 0.8123
            assert _unit_sweep(k, math.cos(theta))[0] == pytest.approx(
                math.cos(k * theta), abs=1e-10)
            assert series_eval(_unit_series(k), math.cos(theta)) == pytest.approx(
                _tbar(k, theta), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            series_eval(_unit_series(3), 1.0 + 1e-6)

    def test_clamps_tiny_drift(self):
        assert series_eval(_unit_series(3), 1.0 + 1e-13) == pytest.approx(NORM_K)


class TestSecondKind:
    def test_u_minus_one_is_zero(self):
        # the sweep seeded with U_{-1} = 0 and U_0 = 1 (the error recurrence's
        # seed) runs into the second-kind sweep that starts at U_1 = 2x
        xs = np.linspace(-1.0, 1.0, 101)
        seeded = _three_term(lambda u: 2.0 * xs * u, np.zeros_like(xs), np.ones_like(xs))
        assert np.all(next(seeded) == 0.0)
        for k, u in zip(range(6), seeded):
            np.testing.assert_array_equal(u, _unit_sweep(k, xs, second_kind=True))

    def test_u_one(self):
        assert _unit_sweep(1, 0.4, second_kind=True)[0] == pytest.approx(0.8)

    def test_value_at_one_is_k_plus_one(self):
        assert _unit_sweep(3, 1.0, second_kind=True)[0] == pytest.approx(4.0)

    def test_bounded_by_k_plus_one_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        u_prev, u_cur = np.ones_like(xs), 2.0 * xs
        assert np.abs(u_cur).max() <= 2.0 + 1e-9
        for k in range(2, 129):
            u_prev, u_cur = u_cur, 2.0 * xs * u_cur - u_prev
            assert np.abs(u_cur).max() <= k + 1 + 1e-9, f"k={k}"
        np.testing.assert_array_equal(_unit_sweep(128, xs, second_kind=True), u_cur)


class TestNormalized:
    def test_zeroth_is_inverse_sqrt_pi(self):
        assert series_eval(_unit_series(0), 0.123) == pytest.approx(0.5641895835477563, abs=1e-12)

    def test_first_at_one(self):
        assert series_eval(_unit_series(1), 1.0) == pytest.approx(0.7978845608028654, abs=1e-12)

    def test_second_combines_with_raw_eval(self):
        assert series_eval(_unit_series(2), 0.5) == pytest.approx(-0.5 * NORM_K)


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
                    lambda th: _tbar(i, th) * _tbar(j, th),
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


class TestAgainstHandLoops:
    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_forward_sum_both_kinds(self, degree):
        rng = np.random.default_rng(degree)
        weights = rng.standard_normal(degree + 1)
        xs = np.concatenate([[-1.0, -0.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 1000)])
        for second_kind in (False, True):
            np.testing.assert_array_equal(_forward_sum(weights, xs, second_kind),
                                          _forward_sum_loop(weights, xs, second_kind))

    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_cheb_eval_second(self, degree):
        # U_k from the second-kind sweep with a unit weight vector
        xs = np.random.default_rng(degree).uniform(-1.0, 1.0, 1000)
        for k in (1, 2, degree):
            np.testing.assert_array_equal(_unit_sweep(k, xs, second_kind=True),
                                          _cheb_eval_second_loop(k, xs))
            assert _unit_sweep(k, 0.37, second_kind=True)[0] == _cheb_eval_second_loop(k, 0.37)

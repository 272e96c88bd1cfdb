import math

import numpy as np
import pytest
import scipy.integrate

from specden import (
    ChebyshevSeries,
    MomentVector,
    damp_moments,
    degree_for_accuracy,
    jackson_coefficients,
    moments_from_spectrum,
    series_eval,
)
from specden.chebyshev import NORM_0, NORM_K
from specden.jackson import full_convolution


class TestCoefficients:
    def test_degree_four_values(self):
        # hand convolution of [1,2,3,2,1] with itself, non-negative indices
        assert jackson_coefficients(4).values.tolist() == [19, 16, 10, 4, 1]

    def test_last_value_is_one(self):
        for degree in (4, 8, 16, 64):
            assert jackson_coefficients(degree).values[-1] == 1

    def test_strictly_decreasing_positive(self):
        values = jackson_coefficients(32).values
        assert values[-1] > 0
        assert np.all(np.diff(values) < 0)

    def test_leading_ratio_is_one(self):
        assert jackson_coefficients(8).ratios[0] == 1.0

    def test_degree_four_ratios(self):
        ratios = jackson_coefficients(4).ratios
        expected = [1.0, 16 / 19, 10 / 19, 4 / 19, 1 / 19]
        np.testing.assert_allclose(ratios, expected, rtol=0, atol=0)

    def test_rejects_bad_degrees(self):
        for bad in (0, -4, 2, 6, 17):
            with pytest.raises(ValueError):
                jackson_coefficients(bad)

    def test_full_convolution_symmetric(self):
        conv = full_convolution(12)
        np.testing.assert_array_equal(conv, conv[::-1])

    def test_matches_direct_summation(self):
        # the explicit double sum over the triangle supports
        for degree in (4, 8):
            half = degree // 2 + 1
            direct = [
                sum(
                    max(half - abs(j), 0) * max(half - abs(j + k), 0)
                    for j in range(-degree // 2 - 1, degree // 2 + 2 - k)
                )
                for k in range(degree + 1)
            ]
            assert jackson_coefficients(degree).values.tolist() == direct

    def test_large_degree_stays_exact(self):
        values = jackson_coefficients(4096).values
        # closed-form check of the tail against the direct sum at one index
        assert values[-1] == 1
        assert values[0] == sum((4096 // 2 + 1 - abs(j)) ** 2 for j in range(-2048, 2049))


class TestDegreeForAccuracy:
    def test_matches_formula(self):
        assert degree_for_accuracy(0.1) == 180
        assert degree_for_accuracy(0.05) == 360
        assert degree_for_accuracy(1.0) == 20

    def test_is_multiple_of_four_and_sufficient(self):
        for eps in (0.3, 0.11, 0.07, 0.013):
            degree = degree_for_accuracy(eps)
            assert degree % 4 == 0
            assert degree >= 18.0 / eps
            assert degree - 4 < 18.0 / eps


class TestDamping:
    def test_zero_moments_keep_only_constant(self):
        moments = MomentVector(degree=4, values=np.zeros(4))
        series = damp_moments(moments, jackson_coefficients(4))
        np.testing.assert_allclose(series.coefficients,
                                   [NORM_0, 0.0, 0.0, 0.0, 0.0], atol=0)

    def test_unit_moments_reproduce_ratios(self):
        moments = MomentVector(degree=4, values=np.ones(4))
        series = damp_moments(moments, jackson_coefficients(4))
        expected = jackson_coefficients(4).ratios.copy()
        expected[0] = NORM_0
        np.testing.assert_allclose(series.coefficients, expected, atol=0)

    def test_degree_mismatch_rejected(self):
        moments = MomentVector(degree=8, values=np.zeros(8))
        with pytest.raises(ValueError):
            damp_moments(moments, jackson_coefficients(4))

    def test_zero_matrix_spectrum_stays_nonnegative(self):
        # two-point spectrum at the origin; damped series of s/w
        moments = moments_from_spectrum(np.zeros(2), 16)
        series = damp_moments(moments, jackson_coefficients(16))
        grid = np.linspace(-1.0, 1.0, 10_000)
        assert series_eval(series, grid).min() >= -1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positivity_preserved_for_random_spectra(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-1.0, 1.0, 37)
        moments = moments_from_spectrum(lam, 24)
        series = damp_moments(moments, jackson_coefficients(24))
        grid = np.linspace(-1.0, 1.0, 10_000)
        assert series_eval(series, grid).min() >= -1e-10


def _chebyshev_coefficients_by_quadrature(func, degree):
    """<f, w*Tbar_k> for k = 0..degree through the angle substitution, with
    Tbar_k(cos th) = NORM_0 or NORM_K times cos(k th)."""
    coeffs = np.empty(degree + 1)
    for k in range(degree + 1):
        norm = NORM_0 if k == 0 else NORM_K
        coeffs[k], _ = scipy.integrate.quad(
            lambda th: func(math.cos(th)) * norm * math.cos(k * th),
            0.0, math.pi, epsabs=1e-12, limit=300)
    return coeffs


class TestUniformApproximationBound:
    @pytest.mark.parametrize("func,name", [(abs, "abs"), (lambda x: max(0.0, x), "relu")])
    def test_lipschitz_bound_18_over_degree(self, func, name):
        for degree in (8, 16, 32, 64):
            coeffs = _chebyshev_coefficients_by_quadrature(func, degree)
            damped = ChebyshevSeries(jackson_coefficients(degree).ratios * coeffs)
            grid = np.linspace(-1.0, 1.0, 10_000)
            approx = series_eval(damped, grid)
            target = np.array([func(x) for x in grid])
            err = np.abs(approx - target).max()
            assert err <= 18.0 / degree, f"{name}: N={degree}, err={err}"

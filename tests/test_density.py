
import numpy as np
import pytest

from specden import (
    DensityEstimate,
    check_density,
    export_plot_data,
    full_kpm,
    idealized_kpm,
    jackson_coefficients,
    moments_from_spectrum,
    perturbed_moments,
    w1_density_vs_spectrum,
)
from specden.chebyshev import NORM_0, ChebyshevSeries
from specden.cli import _write_csv
from specden.density import PLOT_POINTS
from specden.moments import MomentVector

from conftest import random_spectrum_matrix


def _delta_density(value, degree, n=3):
    moments = moments_from_spectrum(np.full(n, value), degree)
    return idealized_kpm(moments, jackson_coefficients(degree))


class TestIdealized:
    def test_origin_spike_is_a_density(self):
        q = _delta_density(0.0, 16)
        check_density(q)
        assert q.integrate(-1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_requires_exact_moments(self):
        mv = MomentVector(degree=8, values=np.zeros(8), provenance="hutchinson", ell=2)
        with pytest.raises(ValueError):
            idealized_kpm(mv, jackson_coefficients(8))

    def test_degree_mismatch(self):
        mv = moments_from_spectrum(np.zeros(2), 8)
        with pytest.raises(ValueError):
            idealized_kpm(mv, jackson_coefficients(12))

    def test_mass_concentrates_at_unit_spike(self):
        q = _delta_density(1.0, 40, n=5)
        assert q.integrate(1.0 - 0.45, 1.0) >= 0.9

    def test_wasserstein_within_target(self):
        from specden import dense_eigenvalues, exact_moments, exact_oracle

        matrix, _ = random_spectrum_matrix(120, seed=77)
        truth = dense_eigenvalues(matrix)
        degree = 180  # eps = 0.1
        moments = exact_moments(exact_oracle(matrix), degree)
        q = idealized_kpm(moments, jackson_coefficients(degree))
        check_density(q)
        assert w1_density_vs_spectrum(q, truth) <= 0.1


class TestFullKpm:
    def test_constant_coefficient_exact(self):
        for degree in (8, 40, 180):
            mv = moments_from_spectrum(np.linspace(-0.9, 0.9, 11), degree)
            q = full_kpm(mv, jackson_coefficients(degree))
            # algebraic identity: (1/sqrt(pi) + sqrt(2)/N)/(1 + sqrt(2 pi)/N) = 1/sqrt(pi)
            assert abs(q.series.coefficients[0] - NORM_0) <= 1e-15

    def test_adversarial_perturbation_stays_valid(self):
        degree = 40
        mv = moments_from_spectrum(np.linspace(-1.0, 1.0, 30), degree)
        for signs in (np.ones(degree), -np.ones(degree), None):
            bad = perturbed_moments(mv, 1.0 / degree**2, signs=signs, seed=5)
            q = full_kpm(bad, jackson_coefficients(degree))
            check_density(q)

    def test_close_to_idealized_with_exact_moments(self):
        degree = 40
        mv = moments_from_spectrum(np.random.default_rng(0).uniform(-1, 1, 50), degree)
        qi = idealized_kpm(mv, jackson_coefficients(degree))
        qf = full_kpm(mv, jackson_coefficients(degree))
        xs = np.linspace(-1.0, 1.0, 20001)
        w1 = np.trapezoid(np.abs(qi.cdf(xs) - qf.cdf(xs)), xs)
        assert w1 <= 11.0 / degree

    def test_robustness_end_to_end(self):
        # perturbed moments still give W1 <= 2 * 18/N against the truth
        from specden import dense_eigenvalues, exact_moments, exact_oracle

        degree = 72
        for seed in range(3):
            matrix, _ = random_spectrum_matrix(80, seed=100 + seed)
            truth = dense_eigenvalues(matrix)
            mv = exact_moments(exact_oracle(matrix), degree)
            for mode_signs in (np.ones(degree), None):
                bad = perturbed_moments(mv, 1.0 / degree**2, signs=mode_signs, seed=seed)
                q = full_kpm(bad, jackson_coefficients(degree))
                assert w1_density_vs_spectrum(q, truth) <= 2.0 * 18.0 / degree


class TestIntegration:
    def test_unit_total_mass(self):
        q = _delta_density(0.3, 24)
        assert q.integrate(-1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_additive_split(self):
        q = _delta_density(-0.2, 24)
        left = q.integrate(-1.0, 0.0)
        right = q.integrate(0.0, 1.0)
        assert left + right == pytest.approx(1.0, abs=1e-12)

    def test_origin_spike_central_mass(self):
        q = _delta_density(0.0, 64)
        assert q.integrate(-0.3, 0.3) >= 0.8

    def test_cdf_is_monotone(self):
        q = _delta_density(0.5, 32)
        xs = np.linspace(-1.0, 1.0, 2001)
        cdf = q.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)


class TestSerialization:
    def test_json_round_trip(self):
        q = _delta_density(0.1, 16)
        back = DensityEstimate.from_json(q.to_json())
        np.testing.assert_array_equal(back.series.coefficients, q.series.coefficients)
        assert back.metadata == q.metadata

    def test_json_deterministic(self):
        a = _delta_density(0.1, 16).to_json()
        b = _delta_density(0.1, 16).to_json()
        assert a == b

    def test_rejects_other_forms(self):
        with pytest.raises(ValueError):
            DensityEstimate.from_json('{"N": 1, "coefficients": [1, 2], "form": "monomial"}')

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            DensityEstimate.from_json(
                '{"N": 3, "coefficients": [1.0, 2.0], "form": "w-times-normalized-chebyshev"}')


class TestPlotData:
    def test_grid_stays_inside_margin(self):
        q = _delta_density(0.0, 16)
        xs, ys = export_plot_data(q)
        assert xs.min() >= -1.0 + 0.9e-4 and xs.max() <= 1.0 - 0.9e-4
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.isfinite(ys))

    def test_csv_export(self, tmp_path):
        q = _delta_density(0.0, 16)
        path = tmp_path / "density.csv"
        _write_csv(path, dict(zip(("x", "q"), export_plot_data(q))))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,q"
        assert len(lines) == PLOT_POINTS + 1


class TestValidation:
    def test_check_density_catches_negative(self):
        series = ChebyshevSeries(np.array([NORM_0, 1.0]))  # strongly signed
        q = DensityEstimate(series=series, metadata={})
        with pytest.raises(AssertionError):
            check_density(q)

    def test_check_density_catches_bad_constant(self):
        series = ChebyshevSeries(np.array([0.9 * NORM_0]))
        q = DensityEstimate(series=series, metadata={})
        with pytest.raises(AssertionError):
            check_density(q)

    def test_every_construction_validates(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            lam = rng.uniform(-1, 1, 25)
            mv = moments_from_spectrum(lam, 20)
            check_density(idealized_kpm(mv, jackson_coefficients(20)))
            noisy = perturbed_moments(mv, 1.0 / 400.0, seed=seed)
            check_density(full_kpm(noisy, jackson_coefficients(20)))

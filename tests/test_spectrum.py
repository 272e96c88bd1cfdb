
import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import (
    DiscreteSpectrum,
    dense_eigenvalues,
    discretize_greedy,
    discretize_optimal,
    idealized_kpm,
    jackson_coefficients,
    moments_from_spectrum,
    resample_spectrum,
    w1_density_vs_spectrum,
    w1_discrete,
)
from specden.spectrum import _cell_grid

from conftest import UniformDensity, random_spectrum_matrix

spectra = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=12)


def _origin_spike(degree):
    mv = moments_from_spectrum(np.zeros(3), degree)
    return idealized_kpm(mv, jackson_coefficients(degree))


def _kpm_density(values, degree):
    return idealized_kpm(moments_from_spectrum(values, degree), jackson_coefficients(degree))


def _discretize_optimal_per_slab(q, n):
    """Reference: the same slab search, then one closed-form call per slab."""
    total = float(q.integrate(-1.0, 1.0))
    targets = total * np.arange(1, n) / n
    lo = np.full(n - 1, -1.0)
    hi = np.full(n - 1, 1.0)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        err = np.asarray(q.cdf(mid)) - targets
        if np.all(np.abs(err) <= 1e-10):
            break
        below = err < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    bounds = np.concatenate([[-1.0], np.maximum.accumulate(mid), [1.0]])
    points = np.empty(n)
    for j in range(n):
        left, right = bounds[j], bounds[j + 1]
        if right - left <= 1e-15:
            points[j] = 0.5 * (left + right)
        else:
            points[j] = q.first_moment(left, right) / (total / n)
    return np.clip(points, -1.0, 1.0)


def _w1_density_vs_spectrum_per_panel(q, spectrum, resolution=10_000):
    """Reference: the same batched crossing search, then one closed-form call per panel side."""
    n = spectrum.n
    breaks = np.concatenate([[-1.0], spectrum.values, [1.0]])
    levels = np.arange(n + 1) / n

    def cdf_integral(lo, hi, f_lo, f_hi):
        return hi * f_hi - lo * f_lo - q.first_moment(lo, hi)

    f_vals = np.asarray(q.cdf(breaks), dtype=float)
    width = np.diff(breaks)
    h_lo = f_vals[:-1] - levels
    h_hi = f_vals[1:] - levels
    live = width > 0
    crossing = live & (h_lo < 0.0) & (h_hi > 0.0)
    idx = np.flatnonzero(crossing)
    a = breaks[:-1][idx].copy()
    b = breaks[1:][idx].copy()
    tol = width[idx] / resolution
    for _ in range(200):
        if np.all(b - a <= tol):
            break
        mid = 0.5 * (a + b)
        below = np.asarray(q.cdf(mid)) - levels[idx] < 0.0
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    cuts = 0.5 * (a + b)
    f_cuts = np.asarray(q.cdf(cuts), dtype=float)

    total = 0.0
    cut_pos = 0
    for i in np.flatnonzero(live):
        lo, hi = breaks[i], breaks[i + 1]
        level = levels[i]
        f_lo, f_hi = f_vals[i], f_vals[i + 1]
        if not crossing[i]:
            area = cdf_integral(lo, hi, f_lo, f_hi) - level * (hi - lo)
            total += area if h_lo[i] >= 0.0 else -area
        else:
            cut, f_cut = cuts[cut_pos], f_cuts[cut_pos]
            cut_pos += 1
            total += level * (cut - lo) - cdf_integral(lo, cut, f_lo, f_cut)
            total += cdf_integral(cut, hi, f_cut, f_hi) - level * (hi - cut)
    return total


class TestDiscreteSpectrum:
    def test_sorted_on_construction(self):
        s = DiscreteSpectrum(np.array([0.5, -0.5, 0.0]))
        np.testing.assert_array_equal(s.values, [-0.5, 0.0, 0.5])

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum(np.array([0.0, 1.5]))

    def test_tolerated_drift_clipped(self):
        s = DiscreteSpectrum(np.array([1.0 + 1e-10]))
        assert s.values[0] == 1.0

    def test_text_round_trip(self, tmp_path):
        s = DiscreteSpectrum(np.array([-0.25, 0.5]))
        path = tmp_path / "spec.txt"
        s.save_text(path)
        np.testing.assert_array_equal(DiscreteSpectrum.load_text(path).values, s.values)

    def test_json_round_trip(self):
        s = DiscreteSpectrum(np.array([-0.25, 0.5]))
        np.testing.assert_array_equal(DiscreteSpectrum.from_json(s.to_json()).values, s.values)


class TestW1Discrete:
    def test_identical_is_zero(self):
        s = DiscreteSpectrum(np.array([-0.3, 0.1, 0.9]))
        assert w1_discrete(s, s) == 0.0

    def test_hand_value(self):
        a = DiscreteSpectrum(np.array([0.0, 1.0]))
        b = DiscreteSpectrum(np.array([0.5, 1.0]))
        assert w1_discrete(a, b) == pytest.approx(0.25)

    def test_order_invariance(self):
        a = DiscreteSpectrum(np.array([-1.0, 1.0]))
        b = DiscreteSpectrum(np.array([1.0, -1.0]))
        assert w1_discrete(a, b) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            w1_discrete(DiscreteSpectrum(np.zeros(2)), DiscreteSpectrum(np.zeros(3)))

    @given(spectra, spectra, spectra)
    @settings(max_examples=80, deadline=None)
    def test_metric_properties(self, xs, ys, zs):
        size = min(len(xs), len(ys), len(zs))
        a = DiscreteSpectrum(np.array(xs[:size]))
        b = DiscreteSpectrum(np.array(ys[:size]))
        c = DiscreteSpectrum(np.array(zs[:size]))
        assert w1_discrete(a, b) == w1_discrete(b, a)
        assert w1_discrete(a, c) <= w1_discrete(a, b) + w1_discrete(b, c) + 1e-12


class TestGreedyDiscretization:
    def test_uniform_hand_trace(self):
        out = discretize_greedy(UniformDensity(), n=2, eps=0.5)
        np.testing.assert_array_equal(out.values, [0.0, 1.0])

    def test_single_value_lands_where_mass_completes(self):
        out = discretize_greedy(UniformDensity(), n=1, eps=0.5)
        np.testing.assert_array_equal(out.values, [1.0])

    def test_emits_exactly_n(self):
        q = _origin_spike(32)
        for n in (1, 7, 100, 345):
            assert discretize_greedy(q, n, 0.05).n == n

    def test_origin_spike_stays_central(self):
        q = _origin_spike(180)  # eps = 0.1 target
        out = discretize_greedy(q, 100, 0.1)
        central = (out.values >= -0.3) & (out.values <= 0.3)
        # the carry rule walks the final sub-1/n residue to the last grid
        # point whenever the density has any positive right tail, so one
        # value may sit at 1; everything else concentrates at the spike
        assert central.sum() >= 99
        assert np.all(out.values[~central] == 1.0)
        # the stray unit costs at most 2/n in transport, inside the 3-eps bound
        assert w1_discrete(out, DiscreteSpectrum(np.zeros(100))) <= 3 * 0.1

    def test_grid_edges(self):
        edges = _cell_grid(0.5)
        np.testing.assert_allclose(edges, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # non-divisible step shortens the last cell to end at 1
        edges = _cell_grid(0.3)
        assert edges[-1] == 1.0
        assert edges[-1] - edges[-2] <= 0.3 + 1e-12

    def test_three_eps_guarantee(self):
        from specden import exact_moments, exact_oracle

        eps = 0.25
        degree = 72
        matrix, _ = random_spectrum_matrix(60, seed=15)
        truth = dense_eigenvalues(matrix)
        q = idealized_kpm(exact_moments(exact_oracle(matrix), degree),
                          jackson_coefficients(degree))
        recovered = discretize_greedy(q, truth.n, eps)
        assert w1_discrete(recovered, truth) <= 3.0 * eps

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            discretize_greedy(UniformDensity(), 2, 0.0)
        with pytest.raises(ValueError):
            discretize_greedy(UniformDensity(), 2, 1.0)


class TestOptimalDiscretization:
    def test_uniform_two_points(self):
        out = discretize_optimal(UniformDensity(), 2)
        np.testing.assert_allclose(out.values, [-0.5, 0.5], atol=1e-9)

    def test_uniform_four_points(self):
        out = discretize_optimal(UniformDensity(), 4)
        np.testing.assert_allclose(out.values, [-0.75, -0.25, 0.25, 0.75], atol=1e-9)

    def test_single_point_is_mean(self):
        q = _origin_spike(24)
        out = discretize_optimal(q, 1)
        assert out.values[0] == pytest.approx(q.first_moment(-1.0, 1.0), abs=1e-9)

    def test_never_worse_than_greedy_against_source(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            lam = rng.uniform(-1.0, 1.0, 40)
            q = idealized_kpm(moments_from_spectrum(lam, 24), jackson_coefficients(24))
            n = 25
            greedy = discretize_greedy(q, n, 0.1)
            optimal = discretize_optimal(q, n)
            assert (w1_density_vs_spectrum(q, optimal)
                    <= w1_density_vs_spectrum(q, greedy) + 1e-12)

    def test_self_distance_shrinks_like_slab_width(self):
        q = _origin_spike(40)
        d_coarse = w1_density_vs_spectrum(q, discretize_optimal(q, 100))
        d_fine = w1_density_vs_spectrum(q, discretize_optimal(q, 1000))
        assert d_fine < d_coarse
        assert d_fine <= 2e-3


class TestAgainstPerSlabReferences:
    @pytest.mark.parametrize("n, degree", [(2000, 80), (200, 360)])
    def test_vectorized_matches_loops(self, n, degree):
        truth = DiscreteSpectrum(np.random.default_rng(n + degree).uniform(-1.0, 1.0, n))
        q = _kpm_density(truth.values, degree)
        np.testing.assert_allclose(discretize_optimal(q, n).values,
                                   _discretize_optimal_per_slab(q, n), rtol=0, atol=1e-12)
        assert w1_density_vs_spectrum(q, truth) == pytest.approx(
            _w1_density_vs_spectrum_per_panel(q, truth), abs=1e-12)

    def test_optimal_discretization_time_gate(self):
        # the 14-bit hypercube's spectrum, 16384 slabs at degree 80: one
        # closed-form call per slab took 2.5-4 s on a 2-vCPU VM, one array call 0.2 s
        bits = 14
        values = np.repeat(1.0 - 2.0 * np.arange(bits + 1) / bits,
                           [comb(bits, j) for j in range(bits + 1)])
        q = _kpm_density(values, 80)
        start = time.perf_counter()
        out = discretize_optimal(q, values.size)
        elapsed = time.perf_counter() - start
        assert out.n == values.size
        assert elapsed < 1.5, f"discretize_optimal took {elapsed:.2f} s"


class TestDensityVsSpectrumDistance:
    def test_uniform_against_single_atom(self):
        # integral |(x+1)/2 - step(x)| dx = 1/2
        assert w1_density_vs_spectrum(UniformDensity(), DiscreteSpectrum(np.zeros(1))) \
            == pytest.approx(0.5, abs=1e-9)

    def test_spike_distance_decays_with_degree(self):
        truth = DiscreteSpectrum(np.zeros(5))
        last = None
        for degree in (16, 32, 64, 128):
            q = _origin_spike(degree)
            dist = w1_density_vs_spectrum(q, truth)
            assert dist <= 18.0 / degree
            if last is not None:
                assert dist < last
            last = dist

    def test_agrees_with_discrete_resampling(self):
        q = _origin_spike(32)
        truth = DiscreteSpectrum(np.random.default_rng(2).uniform(-1, 1, 50))
        continuous = w1_density_vs_spectrum(q, truth)
        for m, tol in ((200, 2e-2), (2000, 3e-3)):
            discrete = w1_discrete(discretize_optimal(q, m), resample_spectrum(truth, m))
            assert abs(continuous - discrete) <= tol

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            w1_density_vs_spectrum(UniformDensity(), DiscreteSpectrum(np.zeros(1)), resolution=10)


class TestDenseEigenvalues:
    def test_diagonal(self):
        out = dense_eigenvalues(np.diag([0.5, -0.25]))
        np.testing.assert_allclose(out.values, [-0.25, 0.5], atol=1e-12)

    def test_two_by_two_swap(self):
        out = dense_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-12)

    def test_hypercube_spectrum(self):
        from specden import generate_graph

        graph, truth = generate_graph("hypercube", bits=4)
        out = dense_eigenvalues(graph.norm_adjacency.toarray())
        np.testing.assert_allclose(out.values, truth.values, atol=1e-10)

    def test_matches_lapack(self):
        matrix, lam = random_spectrum_matrix(50, seed=123)
        ours = dense_eigenvalues(matrix)
        lapack = np.sort(np.linalg.eigvalsh(matrix.to_dense()))
        np.testing.assert_allclose(ours.values, lapack, atol=1e-9)
        # the prescribed spectrum is a reference independent of any solver
        np.testing.assert_allclose(ours.values, lam, atol=1e-9)

    def test_trace_and_frobenius_identities(self):
        matrix, _ = random_spectrum_matrix(40, seed=9)
        vals = dense_eigenvalues(matrix).values
        dense = matrix.to_dense()
        assert vals.sum() == pytest.approx(np.trace(dense), abs=1e-8)
        assert (vals**2).sum() == pytest.approx(np.linalg.norm(dense) ** 2, abs=1e-8)

    def test_size_guard(self):
        class Huge:
            shape = (5000, 5000)

        with pytest.raises(ValueError):
            dense_eigenvalues(np.zeros((4097, 4097)))

    def test_zero_matrix(self):
        out = dense_eigenvalues(np.zeros((3, 3)))
        np.testing.assert_array_equal(out.values, np.zeros(3))


import math
import statistics
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import (
    DiscreteSpectrum,
    approx_hutchinson_moments,
    dense_eigenvalues,
    discretize_greedy,
    discretize_optimal,
    exact_graph_oracle,
    full_kpm,
    generate_graph,
    hutchinson_moments,
    idealized_kpm,
    jackson_coefficients,
    moments_from_spectrum,
    sampled_graph_oracle,
    w1_density_vs_spectrum,
    w1_discrete,
)
from specden.chebyshev import ChebyshevSeries
from specden.density import DensityEstimate
from specden.spectrum import MASS_TOL, _cdf_roots, _cell_grid, _slab_bounds

from conftest import UniformDensity, random_spectrum_matrix

spectra = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=12)


def _origin_spike(degree):
    mv = moments_from_spectrum(np.zeros(3), degree)
    return idealized_kpm(mv, jackson_coefficients(degree))


def _kpm_density(values, degree):
    return idealized_kpm(moments_from_spectrum(values, degree), jackson_coefficients(degree))


def _spike_at_minus_one():
    # degree 1000: F moves more than MASS_TOL per ulp for x + 1 below ~1e-10,
    # where the first of 256 slab boundaries lies
    return _kpm_density(np.full(4, -1.0), 1000)


def resample_spectrum(spectrum, m):
    """m mid-quantiles of the empirical distribution of a spectrum."""
    qs = (np.arange(m) + 0.5) / m
    idx = np.minimum((qs * spectrum.n).astype(int), spectrum.n - 1)
    return DiscreteSpectrum(spectrum.values[idx])


def _hypercube14_spectrum():
    bits = 14
    return np.repeat(1.0 - 2.0 * np.arange(bits + 1) / bits,
                     [comb(bits, j) for j in range(bits + 1)])


def _discretize_greedy_fraction_chain(q, n, eps):
    """Reference: the floor-and-carry chain over cells in rational arithmetic."""
    edges = _cell_grid(eps)
    masses = np.maximum(np.diff(np.asarray(q.cdf(edges), dtype=float)), 0.0)
    total = sum(Fraction(float(m)) for m in masses)
    if total <= 0:
        raise ValueError("density has no positive mass on [-1, 1]")
    out = []
    remainder = Fraction(0)
    for t, m in zip(edges[1:], masses):
        v = remainder + Fraction(float(m)) / total
        whole = int(v * n)
        remainder = v - Fraction(whole, n)
        out.extend([float(t)] * whole)
    return np.asarray(out)


class _CellMasses:
    """A 'density' whose cells on the eps-grid hold prescribed masses.

    Its CDF alternates between 0 and the masses, so the discretizers' clipped
    differences recover every other mass exactly and zero in between.
    """

    def __init__(self, masses):
        self.cdf_values = np.zeros(2 * len(masses) + 1)
        self.cdf_values[1::2] = masses

    def cdf(self, x):
        assert np.size(x) == self.cdf_values.size
        return self.cdf_values


def _greedy_inputs(eps):
    """KPM densities plus pathological masses, each defined on eps's grid."""
    cells = _cell_grid(eps).size - 1
    rng = np.random.default_rng(cells)
    inputs = {
        "hypercube14-kpm80": _kpm_density(_hypercube14_spectrum(), 80),
        "uniform-kpm360": _kpm_density(rng.uniform(-1.0, 1.0, 500), 360),
        "origin-spike-kpm40": _origin_spike(40),
        "uniform": UniformDensity(),
    }
    for scale in (1.0, 1e8, 1e20):
        # divergent-probe-like series: negative lobes, mass far from 1
        coeffs = scale * rng.standard_normal(81)
        coeffs[0] = 1.0 / np.sqrt(np.pi)
        inputs[f"raw-series-{scale:g}"] = DensityEstimate(
            series=ChebyshevSeries(coeffs), metadata={})
    half = cells // 2
    inputs["masses-1e-300-to-1e300"] = _CellMasses(10.0 ** rng.uniform(-300, 300, half))
    subnormal = np.where(rng.random(half) < 0.5, 0.0, 5e-324 * rng.integers(1, 1000, half))
    subnormal[-1] = 5e-324  # the smallest positive double
    inputs["subnormal-and-zero-masses"] = _CellMasses(subnormal)
    inputs["one-cell-holds-the-mass"] = _CellMasses(np.eye(half)[half // 2])
    inputs["non-monotone-cdf"] = _CellMasses(rng.standard_normal(half))
    return inputs


def _bisection_slab_bounds(q, total, n):
    """Reference: bisect every slab boundary from [-1, 1] against the CDF."""
    targets = total * np.arange(1, n) / n
    lo = np.full(n - 1, -1.0)
    hi = np.full(n - 1, 1.0)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        err = np.asarray(q.cdf(mid)) - targets
        if np.all(np.abs(err) <= 1e-10):
            return mid
        below = err < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    raise RuntimeError("reference bisection did not converge")


def _discretize_optimal_per_slab(q, n, slab_bounds=_slab_bounds):
    """Reference: the given slab search, then one closed-form call per slab."""
    total = float(q.integrate(-1.0, 1.0))
    bounds = np.concatenate([[-1.0], np.maximum.accumulate(slab_bounds(q, total, n)), [1.0]])
    points = np.empty(n)
    for j in range(n):
        left, right = bounds[j], bounds[j + 1]
        if right - left <= 1e-15:
            points[j] = 0.5 * (left + right)
        else:
            points[j] = q.first_moment(left, right) / (total / n)
    return np.clip(points, -1.0, 1.0)


def _w1_density_vs_spectrum_per_break(q, spectrum):
    """Reference: the score split at every eigenvalue, repeated ones included,
    so each copy after the first adds an empty panel; same search and sums."""
    lam = spectrum.values
    n = spectrum.n
    breaks = np.concatenate([[-1.0], lam, [1.0]])
    levels = np.arange(n + 1) / n

    def cdf_integral(lo, hi, f_lo, f_hi):
        return hi * f_hi - lo * f_lo - q.first_moment(lo, hi)

    f_vals = np.asarray(q.cdf(breaks), dtype=float)
    width = np.diff(breaks)
    h_lo = f_vals[:-1] - levels
    h_hi = f_vals[1:] - levels
    live = width > 0
    crossing = live & (h_lo < 0.0) & (h_hi > 0.0)

    plain = live & ~crossing
    lo, hi = breaks[:-1][plain], breaks[1:][plain]
    area = (cdf_integral(lo, hi, f_vals[:-1][plain], f_vals[1:][plain])
            - levels[plain] * (hi - lo))
    total = np.sum(np.where(h_lo[plain] >= 0.0, area, -area))

    idx = np.flatnonzero(crossing)
    if idx.size:
        lo, hi, level = breaks[:-1][idx], breaks[1:][idx], levels[idx]
        cuts = _cdf_roots(q, lo, hi, h_lo[idx], h_hi[idx], level, "crossing")
        f_cuts = np.asarray(q.cdf(cuts), dtype=float)
        total += np.sum(level * (cuts - lo) - cdf_integral(lo, cuts, f_vals[:-1][idx], f_cuts)
                        + cdf_integral(cuts, hi, f_cuts, f_vals[1:][idx])
                        - level * (hi - cuts))
    return float(total)


def _w1_density_vs_spectrum_per_panel(q, spectrum, resolution=10_000):
    """Reference: bisect each crossing to (panel width) / resolution, then one
    closed-form call per panel side."""
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
        assert path.read_text() == "-0.25\n0.5\n"
        np.testing.assert_array_equal(DiscreteSpectrum.load_text(path).values, s.values)

    def test_json_round_trip(self):
        s = DiscreteSpectrum(np.array([-0.25, 0.5]))
        np.testing.assert_array_equal(DiscreteSpectrum.from_json(s.to_json()).values, s.values)
        legacy = DiscreteSpectrum.from_json('{"n": 2, "values": [-0.25, 0.5]}')
        assert legacy.support == (-1.0, 1.0)


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


class _KinkedDensity:
    """Piecewise-constant density on [-1, 1] with half its mass left of 0.2."""

    def integrate(self, a, b):
        return float(self.cdf(b)[0] - self.cdf(a)[0])

    def cdf(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        return np.where(xs <= 0.2, (xs + 1.0) / 2.4, 0.5 + (xs - 0.2) / 1.6)


class _CountingDensity:
    """Wraps a density and counts the points its CDF is evaluated at, per call
    in ``cdf_sizes`` and in total in ``cdf_points``."""

    def __init__(self, q):
        self.q = q
        self.cdf_sizes = []

    @property
    def cdf_points(self):
        return sum(self.cdf_sizes)

    def cdf(self, x):
        self.cdf_sizes.append(np.size(x))
        return self.q.cdf(x)

    def integrate(self, a, b):
        return self.q.integrate(a, b)

    def first_moment(self, a, b):
        return self.q.first_moment(a, b)


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

    def test_unconverged_search_names_boundary_and_target(self, monkeypatch):
        # n = 4: the table brackets the median in [0, 0.5], across the kink,
        # where one regula falsi step lands at 0.1538; the other two targets
        # lie on straight pieces of the CDF and converge in that step
        monkeypatch.setattr("specden.spectrum.SEARCH_STEPS", 1)
        with pytest.raises(RuntimeError,
                           match=r"after 1 steps: boundary 2 of 3, .* target mass 0\.5$"):
            discretize_optimal(_KinkedDensity(), 4)


class TestSlabBoundarySearch:
    """The table-bracketed Illinois search against the bisection it replaced."""

    @pytest.mark.parametrize("values, degree", [
        (_hypercube14_spectrum(), 80), (np.random.default_rng(0).uniform(-1.0, 1.0, 500), 360),
    ], ids=["hypercube14-kpm80", "uniform500-kpm360"])
    def test_matches_bisection_and_meets_mass_tolerance(self, values, degree):
        q, n = _kpm_density(values, degree), values.size
        total = float(q.integrate(-1.0, 1.0))
        bounds = _slab_bounds(q, total, n)
        targets = total * np.arange(1, n) / n
        assert np.max(np.abs(q.cdf(bounds) - targets)) <= MASS_TOL
        bisected = DiscreteSpectrum(_discretize_optimal_per_slab(q, n, _bisection_slab_bounds))
        assert w1_discrete(discretize_optimal(q, n), bisected) <= 1e-6

    def test_non_monotone_cdf_meets_mass_tolerance(self):
        # negative lobes: the running-maximum table still brackets a sign change
        coeffs = np.random.default_rng(5).standard_normal(81)
        coeffs[0] = 1.0 / np.sqrt(np.pi)
        q = DensityEstimate(series=ChebyshevSeries(coeffs), metadata={})
        assert np.any(np.diff(q.cdf(np.linspace(-1.0, 1.0, 1001))) < 0)
        n = 2000
        total = float(q.integrate(-1.0, 1.0))
        bounds = _slab_bounds(q, total, n)
        assert np.max(np.abs(q.cdf(bounds) - total * np.arange(1, n) / n)) <= MASS_TOL

    def test_search_ends_on_one_ulp_bracket(self):
        # no float within MASS_TOL of the first target: the search ends on a
        # one-ulp bracket around the root instead of raising after SEARCH_STEPS
        q, n = _spike_at_minus_one(), 256
        total = float(q.integrate(-1.0, 1.0))
        bounds = _slab_bounds(q, total, n)
        targets = total * np.arange(1, n) / n
        off = np.abs(q.cdf(bounds) - targets) > MASS_TOL
        assert off[0] and bounds[0] + 1.0 < 1e-9
        below = q.cdf(np.nextafter(bounds[off], -2.0)) - targets[off]
        above = q.cdf(np.nextafter(bounds[off], 2.0)) - targets[off]
        assert np.all((below < 0.0) & (above > 0.0))
        assert discretize_optimal(q, n).n == n

    def test_cdf_points_evaluated(self):
        # host-independent work count: the n+1 table plus ~2 Illinois points
        # per boundary; the bisection it replaced evaluated ~37 n points
        n = 16384
        q = _CountingDensity(_kpm_density(_hypercube14_spectrum(), 80))
        discretize_optimal(q, n)
        assert q.cdf_points <= 8 * n, q.cdf_points


class TestAgainstPerSlabReferences:
    @pytest.mark.parametrize("n, degree", [(2000, 80), (200, 360)])
    def test_vectorized_matches_loops(self, n, degree):
        truth = DiscreteSpectrum(np.random.default_rng(n + degree).uniform(-1.0, 1.0, n))
        q = _kpm_density(truth.values, degree)
        np.testing.assert_allclose(discretize_optimal(q, n).values,
                                   _discretize_optimal_per_slab(q, n), rtol=0, atol=1e-12)
        assert w1_density_vs_spectrum(q, truth) == pytest.approx(
            _w1_density_vs_spectrum_per_panel(q, truth, resolution=10**9), abs=1e-12)

    @pytest.mark.parametrize("n, eps", [(16384, 0.005), (1000, 0.005), (7, 0.1), (1, 0.5)])
    def test_greedy_matches_fraction_chain(self, n, eps):
        for name, q in _greedy_inputs(eps).items():
            np.testing.assert_array_equal(discretize_greedy(q, n, eps).values,
                                          _discretize_greedy_fraction_chain(q, n, eps),
                                          err_msg=name)

    def test_greedy_rejects_no_positive_mass_like_the_chain(self):
        q = _CellMasses(np.zeros(_cell_grid(0.1).size // 2))
        for discretize in (discretize_greedy, _discretize_greedy_fraction_chain):
            with pytest.raises(ValueError):
                discretize(q, 10, 0.1)

    def test_greedy_discretization_time_gate(self):
        # table1's hypercube-14 call: 16384 values on the 0.005 grid; the
        # rational floor-and-carry chain took ~6 ms a call on a 2-vCPU VM,
        # the integer cumulative floor ~0.8 ms
        values = _hypercube14_spectrum()
        q = _kpm_density(values, 80)
        times = []
        for _ in range(20):
            start = time.perf_counter()
            discretize_greedy(q, values.size, 0.005)
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 0.0025, times

    def test_optimal_discretization_time_gate(self):
        # the 14-bit hypercube's spectrum, 16384 slabs at degree 80: one
        # closed-form call per slab took 2.5-4 s on a 2-vCPU VM, one array call 0.2 s
        values = _hypercube14_spectrum()
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


    def test_crossing_on_one_ulp_bracket(self):
        # the panel [-1, 0] at level 1/256 crosses where no float meets
        # MASS_TOL (see TestSlabBoundarySearch); a fine bisection agrees
        q, n = _spike_at_minus_one(), 256
        truth = DiscreteSpectrum(np.concatenate([[-1.0], np.zeros(n - 1)]))
        assert w1_density_vs_spectrum(q, truth) == pytest.approx(
            _w1_density_vs_spectrum_per_panel(q, truth, resolution=10**12), abs=1e-12)


def _hypercube14_density(method):
    graph, truth = generate_graph("hypercube", bits=14)
    if method == "hutchinson":
        mv = hutchinson_moments(exact_graph_oracle(graph), 80, 2, 3)
    else:  # the sampled oracle at estimate-hc14's budget: its CDF is not monotone
        mv = approx_hutchinson_moments(
            sampled_graph_oracle(graph, math.ceil(0.92 * graph.nnz), seed=3), 80, 2, 3)
    return full_kpm(mv, jackson_coefficients(80)), truth


def _cohort_density(degree):
    matrix, _ = random_spectrum_matrix(200, seed=1000)
    truth = dense_eigenvalues(matrix)
    return _kpm_density(truth.values, degree), truth


def _clique_plus_matching_density():
    # +-1 with multiplicity n/4 (n/4 + 1 at +1): repeats at both ends of [-1, 1]
    _, truth = generate_graph("clique-plus-matching", n=1000)
    return _kpm_density(truth.values, 40), truth


class TestW1OverDistinctEigenvalues:
    @pytest.mark.parametrize("make", [
        lambda: _hypercube14_density("hutchinson"),
        lambda: _hypercube14_density("sampled"),
        lambda: _cohort_density(180),
        lambda: _cohort_density(360),
        _clique_plus_matching_density,
    ], ids=["hypercube14-hutchinson", "hypercube14-sampled", "cohort-180", "cohort-360",
            "clique-plus-matching-1000"])
    def test_equals_split_at_every_eigenvalue(self, make):
        q, truth = make()
        assert w1_density_vs_spectrum(q, truth) == _w1_density_vs_spectrum_per_break(q, truth)

    def test_cdf_table_has_one_point_per_distinct_eigenvalue(self):
        # the first CDF call is the table at the breaks: -1, the 15 distinct
        # hypercube-14 eigenvalues and 1, where every eigenvalue made 16386
        q = _CountingDensity(_kpm_density(_hypercube14_spectrum(), 80))
        w1_density_vs_spectrum(q, DiscreteSpectrum(_hypercube14_spectrum()))
        assert q.cdf_sizes[0] == 17, q.cdf_sizes


class TestDenseEigenvalues:
    def test_diagonal(self):
        out = dense_eigenvalues(np.diag([0.5, -0.25]))
        np.testing.assert_allclose(out.values, [-0.25, 0.5], atol=1e-12)

    def test_two_by_two_swap(self):
        out = dense_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-12)

    def test_hypercube_spectrum(self):
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

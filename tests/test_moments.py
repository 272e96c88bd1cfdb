import itertools
import math

import numpy as np
import pytest
import scipy.sparse

from specden import (
    MomentVector,
    SymmetricMatrix,
    approx_hutchinson_moments,
    exact_moments,
    exact_oracle,
    generate_graph,
    hutchinson_moments,
    moments_from_spectrum,
    noisy_oracle,
    sampled_graph_oracle,
)
from specden import moments
from specden.chebyshev import NORM_0, NORM_K, _three_term
from specden.moments import _sweep_products, rademacher

from conftest import random_spectrum_matrix


def _repetition_count(n, degree, delta):
    """Hutchinson repetitions for the paper's lemma at the per-moment
    tolerance tol = 1/N^2: ``max(1, ceil(16 log^2(N/delta) / (n tol^2)))``.
    The constant 16 is an empirical calibration, not a proven value."""
    tol = 1.0 / degree**2
    raw = 16.0 * math.log(degree / delta) ** 2 / (n * tol**2)
    return max(1, math.ceil(raw))


def _as_csr(matrix):
    """The same matrix held as CSR, so ``exact_moments`` takes the basis sweep."""
    return SymmetricMatrix(scipy.sparse.csr_matrix(matrix.operand))


#: both storage types of a matrix: dense takes the eigensolve, CSR the sweep
STORAGE_TYPES = (lambda matrix: matrix, _as_csr)


def _sweep_products_loop(oracle, g, degree):
    """Reference: the plain probe sweep as an explicit loop, N oracle calls."""
    products = np.empty(degree)
    v_prev = g
    v_cur = oracle.apply(g)
    products[0] = g @ v_cur
    for k in range(2, degree + 1):
        v_prev, v_cur = v_cur, 2.0 * oracle.apply(v_cur) - v_prev
        products[k - 1] = g @ v_cur
    return products


def _doubled_products_loop(step, v_0, v_1, degree, inner):
    """Reference: <v_0, v_k> for k = 1..N from v_0..v_{N/2} as an explicit loop,
    through T_2j = 2 T_j^2 - T_0 and T_2j+1 = 2 T_j+1 T_j - T_1."""
    products = np.empty(degree)
    base = inner(v_0, v_0)
    products[0] = inner(v_0, v_1)
    v_prev, v_cur = v_0, v_1
    for j in range(1, degree // 2 + 1):
        if j > 1:
            v_prev, v_cur = v_cur, 2.0 * step(v_cur) - v_prev
            products[2 * j - 2] = 2.0 * inner(v_cur, v_prev) - products[0]
        products[2 * j - 1] = 2.0 * inner(v_cur, v_cur) - base
    return products


def _exact_moments_loop(oracle, degree, max_block_elements):
    """Reference: the blocked, doubled basis sweep as an explicit loop."""
    n = oracle.dimension
    block = max(1, min(n, max_block_elements // n))
    values = np.zeros(degree)
    for start in range(0, n, block):
        cols = np.arange(start, min(start + block, n))
        basis = np.zeros((n, cols.size))
        basis[cols, np.arange(cols.size)] = 1.0
        values += _doubled_products_loop(oracle.apply_block, basis,
                                         oracle.apply_block(basis), degree,
                                         lambda a, b: np.sum(a * b))
    values *= NORM_K / n
    return values


def _plain_exact_moments_loop(oracle, degree):
    """Reference: the plain basis sweep, one diagonal sum per degree."""
    n = oracle.dimension
    v_prev = np.eye(n)
    v_cur = oracle.apply_block(v_prev)
    values = [np.trace(v_cur)]
    for _ in range(2, degree + 1):
        v_prev, v_cur = v_cur, 2.0 * oracle.apply_block(v_cur) - v_prev
        values.append(np.trace(v_cur))
    return NORM_K / n * np.array(values)


def _moments_from_spectrum_loop(lam, degree):
    """Reference: the pointwise sweep over the eigenvalues as an explicit loop."""
    values = np.empty(degree)
    t_prev = np.ones_like(lam)
    t_cur = lam.copy()
    values[0] = t_cur.mean()
    for k in range(2, degree + 1):
        t_prev, t_cur = t_cur, 2.0 * lam * t_cur - t_prev
        values[k - 1] = t_cur.mean()
    values *= NORM_K
    return values


class TestMomentVector:
    def test_tau_zero_pinned(self):
        mv = MomentVector(degree=4, values=np.zeros(4))
        assert mv.full_coefficients()[0] == NORM_0

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            MomentVector(degree=4, values=np.zeros(5))

    def test_json_round_trip(self):
        mv = MomentVector(degree=8, values=np.linspace(-0.1, 0.1, 8),
                          provenance="hutchinson", ell=3, seed=17)
        back = MomentVector.from_json(mv.to_json())
        assert back.degree == 8 and back.ell == 3 and back.seed == 17
        assert back.provenance == "hutchinson"
        np.testing.assert_array_equal(back.values, mv.values)


class TestExactMoments:
    def test_identity_matrix(self):
        for storage in STORAGE_TYPES:
            oracle = exact_oracle(storage(SymmetricMatrix.from_dense(np.eye(5))))
            mv = exact_moments(oracle, 8)
            np.testing.assert_allclose(mv.values, NORM_K, atol=1e-14)

    def test_zero_matrix_alternation(self):
        # T_k(0) cycles 1, 0, -1, 0 starting from k=0
        expected = NORM_K * np.array([0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
        for storage in STORAGE_TYPES:
            oracle = exact_oracle(storage(SymmetricMatrix.from_dense(np.zeros((3, 3)))))
            mv = exact_moments(oracle, 8)
            np.testing.assert_allclose(mv.values, expected, atol=1e-14)

    def test_traceless_first_moment(self):
        for storage in STORAGE_TYPES:
            oracle = exact_oracle(storage(SymmetricMatrix.from_dense(np.diag([1.0, -1.0]))))
            mv = exact_moments(oracle, 4)
            assert mv.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_costs_n_times_degree_calls(self):
        # an exact oracle doubles: n*N/2 block columns give all N moments
        matrix, _ = random_spectrum_matrix(7, seed=3)
        oracle = exact_oracle(_as_csr(matrix))
        exact_moments(oracle, 12)
        assert oracle.calls == 7 * 12 // 2

    def test_matches_spectrum_path(self):
        matrix, lam = random_spectrum_matrix(24, seed=9)
        via_oracle = exact_moments(exact_oracle(matrix), 16)
        via_spectrum = moments_from_spectrum(lam, 16)
        np.testing.assert_allclose(via_oracle.values, via_spectrum.values, atol=1e-12)

    def test_blocked_sweep_matches_single_block(self, monkeypatch):
        matrix, _ = random_spectrum_matrix(23, seed=12)
        matrix = _as_csr(matrix)
        whole = exact_moments(exact_oracle(matrix), 8)
        monkeypatch.setattr(moments, "MAX_BLOCK_ELEMENTS", 23 * 5)
        chunked = exact_moments(exact_oracle(matrix), 8)
        np.testing.assert_allclose(chunked.values, whole.values, atol=1e-13)

    def test_dense_above_size_limit_sweeps(self, monkeypatch):
        matrix, _ = random_spectrum_matrix(12, seed=31)
        solved = exact_moments(exact_oracle(matrix), 16)
        monkeypatch.setattr(moments, "DENSE_SIZE_LIMIT", 11)
        oracle = exact_oracle(matrix)
        swept = exact_moments(oracle, 16)
        assert oracle.calls == 12 * 16 // 2
        np.testing.assert_allclose(swept.values, solved.values, rtol=0, atol=1e-13)

    def test_dense_eigenvalue_outside_unit_interval_raises(self):
        oracle = exact_oracle(SymmetricMatrix.from_dense(np.diag([1.5, 0.5])))
        with pytest.raises(ValueError, match="outside"):
            exact_moments(oracle, 8)

    def test_exact_values_bounded_by_basis_sup(self):
        # |tau_k| <= sqrt(2/pi) since |Tbar_k| is bounded by that on [-1, 1]
        matrix, _ = random_spectrum_matrix(30, seed=44)
        mv = exact_moments(exact_oracle(matrix), 20)
        assert np.abs(mv.values).max() <= NORM_K + 1e-12


class TestHutchinson:
    def test_identity_is_exact_for_any_probe(self):
        oracle = exact_oracle(SymmetricMatrix.from_dense(np.eye(6)))
        for seed in (0, 1, 99):
            mv = hutchinson_moments(oracle, 8, ell=1, seed=seed)
            np.testing.assert_allclose(mv.values, NORM_K, atol=1e-14)

    def test_traceless_two_by_two_always_zero(self):
        # g^T diag(1,-1) g = g_1^2 - g_2^2 = 0 for every sign vector
        oracle = exact_oracle(SymmetricMatrix.from_dense(np.diag([1.0, -1.0])))
        for seed in range(5):
            mv = hutchinson_moments(oracle, 4, ell=1, seed=seed)
            assert mv.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_full_enumeration_is_unbiased(self):
        # average over all 2^n Rademacher probes equals the exact moments
        n, degree = 6, 12
        matrix, _ = random_spectrum_matrix(n, seed=21)
        oracle = exact_oracle(matrix)
        acc = np.zeros(degree)
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            acc += _sweep_products(oracle, np.array(signs), degree)
        estimate = NORM_K / (n * 2**n) * acc
        exact = exact_moments(exact_oracle(matrix), degree)
        np.testing.assert_allclose(estimate, exact.values, atol=1e-12)

    def test_budget_is_degree_times_ell(self):
        # an exact oracle doubles: N/2 calls per probe give all N moments
        matrix, _ = random_spectrum_matrix(10, seed=4)
        oracle = exact_oracle(matrix)
        hutchinson_moments(oracle, 16, ell=3, seed=0)
        assert oracle.calls == 16 * 3 // 2

    def test_deterministic(self):
        matrix, _ = random_spectrum_matrix(15, seed=8)
        a = hutchinson_moments(exact_oracle(matrix), 8, ell=4, seed=123)
        b = hutchinson_moments(exact_oracle(matrix), 8, ell=4, seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.provenance == "hutchinson"

    def test_rejects_noisy_oracle(self):
        matrix, _ = random_spectrum_matrix(5, seed=0)
        oracle = noisy_oracle(matrix, 0.1, "random-direction", seed=0)
        with pytest.raises(ValueError):
            hutchinson_moments(oracle, 4, ell=1, seed=0)

    def test_repetition_formula_concentrates(self):
        # calibration check for the repetition count at the 1/N^2 tolerance
        n, degree, delta = 100, 4, 0.25
        ell = _repetition_count(n, degree, delta)
        matrix, lam = random_spectrum_matrix(n, seed=6)
        exact = moments_from_spectrum(lam, degree)
        tol = 1.0 / degree**2
        oracle = exact_oracle(matrix)
        hits = 0
        trials = 200
        for trial in range(trials):
            mv = hutchinson_moments(oracle, degree, ell=ell, seed=(31, trial))
            if np.abs(mv.values - exact.values).max() <= tol:
                hits += 1
        assert hits / trials >= 1.0 - delta


class TestApproxHutchinson:
    def test_zero_noise_is_bit_identical(self):
        matrix, _ = random_spectrum_matrix(12, seed=2)
        clean = hutchinson_moments(exact_oracle(matrix), 8, ell=2, seed=5)
        silent = noisy_oracle(matrix, 0.0, "random-direction", seed=5)
        approx = approx_hutchinson_moments(silent, 8, ell=2, seed=5)
        np.testing.assert_array_equal(approx.values, clean.values)
        assert approx.provenance == "hutchinson"

    @pytest.mark.parametrize("mode", ["random-direction", "adversarial-sign"])
    def test_quadratic_bias_bound(self, mode):
        # per-estimator bias through the recurrence, small-scale version
        n, degree, eps_mv = 32, 16, 1e-3
        matrix, _ = random_spectrum_matrix(n, seed=13)
        g = rademacher(n, seed=77)
        noisy = noisy_oracle(matrix, eps_mv, mode, seed=3)
        approx_products = _sweep_products(noisy, g, degree)
        exact_products = _sweep_products(exact_oracle(matrix), g, degree)
        for k in range(1, degree + 1):
            bound = 2.0 * eps_mv * (k + 1) ** 2 * n
            assert abs(approx_products[k - 1] - exact_products[k - 1]) <= bound

    def test_warns_above_recommended_error(self, caplog):
        matrix, _ = random_spectrum_matrix(8, seed=0)
        loud = noisy_oracle(matrix, 0.3, "random-direction", seed=1)
        with caplog.at_level("WARNING"):
            approx_hutchinson_moments(loud, 8, ell=1, seed=0)
        assert any("1/(2N^2)" in rec.message for rec in caplog.records)

    def test_lemma_configuration_meets_tolerance(self):
        # eps_mv = tol/(4N^2) with the calibrated ell keeps every moment within tol
        n, degree, delta = 100, 8, 0.2
        ell = _repetition_count(n, degree, delta)
        tol = 1.0 / degree**2
        matrix, lam = random_spectrum_matrix(n, seed=40)
        exact = moments_from_spectrum(lam, degree)
        oracle = noisy_oracle(matrix, tol / (4 * degree**2), "adversarial-sign", seed=11)
        mv = approx_hutchinson_moments(oracle, degree, ell=ell, seed=11)
        assert np.abs(mv.values - exact.values).max() <= tol
        assert mv.provenance == "hutchinson-approx"


@pytest.mark.parametrize("kind, size", [("hypercube", {"bits": 6}), ("hairy-clique", {"n": 20})],
                         ids=["hypercube6", "hairy-clique20"])
def test_sampled_moments_are_unbiased(kind, size):
    """The mean of R sampled-oracle estimates lands on the exact moments.

    The recurrence is linear and each call draws fresh counts independent of
    its input, so E[v_k] = T_k(A) g and each moment is unbiased. Single runs
    are heavy-tailed, so the budget is 4 nnz: at 1 nnz single runs reach
    |tau| 31 (hypercube-6) and 143 (hairy-clique-20), and the standard errors
    of the two halves of 1000 runs differ by up to 1.6x; at 4 nnz the largest
    run is 3.7 and 13.9 and the halves agree within 1.25x, so the standard
    error is stable and a z-score means what it says. 1000 runs of 12 calls
    take about 0.5 s per graph. For an unbiased sampler, the 4-sigma
    bound fails one of the 24 z-scores with probability about 1.5e-3.
    """
    graph, truth = generate_graph(kind, **size)
    degree, runs = 12, 1000
    exact = moments_from_spectrum(truth.values, degree).values
    estimates = np.array([
        approx_hutchinson_moments(sampled_graph_oracle(graph, 4 * graph.nnz, seed=r),
                                  degree, 1, seed=r).values
        for r in range(runs)])
    halves = estimates.reshape(2, runs // 2, degree).std(axis=1, ddof=1)
    assert np.all(np.maximum(halves[0] / halves[1], halves[1] / halves[0]) <= 1.5)
    z = (estimates.mean(axis=0) - exact) / (estimates.std(axis=0, ddof=1) / math.sqrt(runs))
    print(f"\n{kind}: z-scores of {degree} moments in [{z.min():+.2f}, {z.max():+.2f}]")
    assert np.abs(z).max() <= 4.0


class TestDegreeValidation:
    @pytest.mark.parametrize("degree", [0, -4, 6])
    def test_rejected_before_any_warning(self, degree, caplog):
        matrix, _ = random_spectrum_matrix(8, seed=0)
        loud = noisy_oracle(matrix, 0.3, "random-direction", seed=1)
        with caplog.at_level("WARNING"), pytest.raises(ValueError, match="multiple of 4"):
            approx_hutchinson_moments(loud, degree, 1, 0)
        assert not caplog.records
        assert loud.calls == 0


class TestAgainstHandLoops:
    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_probe_sweeps(self, degree):
        matrix, _ = random_spectrum_matrix(16, seed=degree)
        g = rademacher(16, seed=degree)
        kernel, loop = exact_oracle(matrix), exact_oracle(matrix)
        np.testing.assert_array_equal(
            _sweep_products(kernel, g, degree),
            _doubled_products_loop(loop.apply, g, loop.apply(g), degree, np.dot))
        assert kernel.calls == loop.calls == degree // 2
        kernel, loop = (noisy_oracle(matrix, 1e-3, "random-direction", seed=5)
                        for _ in range(2))
        np.testing.assert_array_equal(_sweep_products(kernel, g, degree),
                                      _sweep_products_loop(loop, g, degree))
        assert kernel.calls == loop.calls == degree

    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_doubling_matches_plain_recurrence(self, degree):
        # the identities are exact; what is left is rounding, well below 1e-12
        matrix, _ = random_spectrum_matrix(16, seed=degree)
        g = rademacher(16, seed=degree)
        doubled = _sweep_products(exact_oracle(matrix), g, degree)
        plain = _sweep_products_loop(exact_oracle(matrix), g, degree)
        np.testing.assert_allclose(doubled / 16, plain / 16, rtol=0, atol=1e-12)
        oracle = exact_oracle(_as_csr(matrix))
        np.testing.assert_allclose(exact_moments(oracle, degree).values,
                                   _plain_exact_moments_loop(oracle, degree),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_exact_moments_over_two_blocks(self, degree, monkeypatch):
        matrix, _ = random_spectrum_matrix(15, seed=degree)
        matrix = _as_csr(matrix)
        oracle = exact_oracle(matrix)
        monkeypatch.setattr(moments, "MAX_BLOCK_ELEMENTS", 15 * 8)
        np.testing.assert_array_equal(
            exact_moments(oracle, degree).values,
            _exact_moments_loop(exact_oracle(matrix), degree, 15 * 8))
        assert oracle.calls == 15 * degree // 2

    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_dense_eigensolve_matches_sparse_sweep(self, degree):
        # one eigensolve against the doubled basis sweep of the same matrix
        matrix, _ = random_spectrum_matrix(16, seed=degree)
        dense, sparse = exact_oracle(matrix), exact_oracle(_as_csr(matrix))
        np.testing.assert_allclose(exact_moments(dense, degree).values,
                                   exact_moments(sparse, degree).values,
                                   rtol=0, atol=1e-12)
        assert dense.calls == 0
        assert sparse.calls == 16 * degree // 2

    @pytest.mark.parametrize("degree", [4, 80, 360])
    def test_moments_from_spectrum(self, degree):
        lam = np.random.default_rng(degree).uniform(-1.0, 1.0, 500)
        np.testing.assert_array_equal(moments_from_spectrum(lam, degree).values,
                                      _moments_from_spectrum_loop(lam, degree))


def recurrence_error_decomposition(oracle, g, degree, exact_apply):
    """Measured accumulated errors of one sweep and their second-kind reconstruction.

    Runs the (possibly approximate) recurrence through ``oracle``, recording
    every oracle response w_0..w_{N-1}, and again through ``exact_apply``
    (the exact ``y -> A y``). Returns (measured, reconstructed):
    ``measured[k] = v_k - v~_k`` and ``reconstructed[k]`` assembled from the
    per-step oracle errors ``xi_k = A v~_{k-1} - w_{k-1}`` as
    ``U_{k-1}(A) xi_1 + 2 sum_{i>=2} U_{k-i}(A) xi_i``. The two must agree to
    rounding; disagreement means the sweep and the error recurrence have
    diverged.
    """
    g = np.asarray(g, dtype=float)
    responses = [oracle.apply(g)]

    def recording_step(v):
        responses.append(oracle.apply(v))
        return 2.0 * responses[-1]

    def exact_step(v):
        return 2.0 * exact_apply(v)

    approx = list(itertools.islice(_three_term(recording_step, g, responses[0]), degree + 1))
    exact = itertools.islice(_three_term(exact_step, g, exact_apply(g)), degree + 1)
    measured = [v - v_approx for v, v_approx in zip(exact, approx)]

    # sweeps[i - 1] yields U_j(A) xi_i for j = 0, 1, ..., one j per outer step
    reconstructed = [np.zeros_like(g)]
    sweeps = []
    for k in range(1, degree + 1):
        xi_k = exact_apply(approx[k - 1]) - responses[k - 1]
        sweeps.append(itertools.islice(_three_term(exact_step, np.zeros_like(g), xi_k), 1, None))
        total = np.zeros_like(g)
        for i, sweep in enumerate(sweeps, start=1):
            u = next(sweep)
            total += u if i == 1 else 2.0 * u
        reconstructed.append(total)
    return measured, reconstructed


class TestRecurrenceDecomposition:
    def test_zero_noise_zero_error(self):
        matrix, _ = random_spectrum_matrix(10, seed=1)
        g = rademacher(10, seed=1)
        measured, reconstructed = recurrence_error_decomposition(
            noisy_oracle(matrix, 0.0, "random-direction", seed=0), g, 8,
            exact_oracle(matrix).apply)
        for k in range(9):
            assert np.linalg.norm(measured[k]) == 0.0
            assert np.linalg.norm(reconstructed[k]) == 0.0

    def test_first_step_error_is_first_injection(self):
        matrix, _ = random_spectrum_matrix(10, seed=2)
        g = rademacher(10, seed=2)
        noisy = noisy_oracle(matrix, 1e-2, "random-direction", seed=8)
        # the first call of a fresh oracle with the same seed draws the same noise
        w_0 = noisy_oracle(matrix, 1e-2, "random-direction", seed=8).apply(g)
        xi_1 = exact_oracle(matrix).apply(g) - w_0
        measured, reconstructed = recurrence_error_decomposition(
            noisy, g, 4, exact_oracle(matrix).apply)
        np.testing.assert_allclose(measured[1], xi_1, atol=1e-14)
        np.testing.assert_allclose(reconstructed[1], xi_1, atol=1e-14)

    def test_reconstruction_matches_measurement(self):
        matrix, _ = random_spectrum_matrix(20, seed=3)
        g = rademacher(20, seed=3)
        noisy = noisy_oracle(matrix, 1e-3, "random-direction", seed=4)
        measured, reconstructed = recurrence_error_decomposition(
            noisy, g, 16, exact_oracle(matrix).apply)
        for k in range(1, 17):
            scale = max(np.linalg.norm(measured[k]), 1e-30)
            assert np.linalg.norm(measured[k] - reconstructed[k]) / scale <= 1e-8

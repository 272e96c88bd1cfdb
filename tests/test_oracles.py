import numpy as np
import pytest

from specden import (
    SymmetricMatrix,
    estimate_spectral_norm,
    exact_oracle,
    load_dense_text,
    load_matrix_market,
    noisy_oracle,
    scale_to_unit_norm,
)
from specden.moments import _sweep_products, rademacher

from conftest import random_spectrum_matrix


class TestExactApply:
    def test_identity(self):
        m = SymmetricMatrix.from_dense(np.eye(4))
        y = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_array_equal(m.matvec(y), y)

    def test_swap(self):
        m = SymmetricMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(m.matvec(np.array([1.0, 0.0])), [0.0, 1.0])

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((50, 50))
        dense[np.abs(dense) < 1.2] = 0.0
        dense = 0.5 * (dense + dense.T)
        rows, cols = np.nonzero(dense)
        sparse = SymmetricMatrix.from_coo(rows, cols, dense[rows, cols], 50)
        dense_m = SymmetricMatrix.from_dense(dense)
        y = rng.standard_normal(50)
        a, b = sparse.matvec(y), dense_m.matvec(y)
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_dimension_mismatch(self):
        m = SymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.matvec(np.ones(4))

    def test_symmetrized_from_one_triangle(self):
        arr = np.array([[1.0, 99.0], [2.0, 3.0]])  # upper triangle ignored
        m = SymmetricMatrix.from_dense(arr)
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 2.0], [2.0, 3.0]])


class TestNoisyApply:
    # one call of a fresh noisy oracle: A y plus an error drawn from
    # default_rng(seed)
    def setup_method(self):
        self.matrix, _ = random_spectrum_matrix(20, seed=5)
        self.y = np.random.default_rng(1).standard_normal(20)

    def test_zero_noise_is_exact(self):
        np.testing.assert_array_equal(
            noisy_oracle(self.matrix, 0.0, "random-direction", seed=0).apply(self.y),
            self.matrix.matvec(self.y))

    @pytest.mark.parametrize("mode", ["random-direction", "adversarial-sign"])
    def test_error_radius_is_exact(self, mode):
        for eps in (1e-3, 0.1, 0.7):
            z = noisy_oracle(self.matrix, eps, mode, seed=2).apply(self.y)
            err = np.linalg.norm(z - self.matrix.matvec(self.y))
            assert err / np.linalg.norm(self.y) == pytest.approx(eps, abs=1e-12)

    def test_deterministic_in_seed(self):
        a = noisy_oracle(self.matrix, 0.3, "random-direction", seed=42).apply(self.y)
        b = noisy_oracle(self.matrix, 0.3, "random-direction", seed=42).apply(self.y)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            noisy_oracle(self.matrix, 1.0, "random-direction", seed=0).apply(self.y)
        with pytest.raises(ValueError):
            noisy_oracle(self.matrix, -0.1, "random-direction", seed=0).apply(self.y)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            noisy_oracle(self.matrix, 0.1, "gaussian", seed=0).apply(self.y)

    def test_oracle_sequence_reproducible(self):
        o1 = noisy_oracle(self.matrix, 0.2, "random-direction", seed=9)
        o2 = noisy_oracle(self.matrix, 0.2, "random-direction", seed=9)
        other = noisy_oracle(self.matrix, 0.2, "random-direction", seed=10)
        for _ in range(4):
            z = o1.apply(self.y)
            np.testing.assert_array_equal(z, o2.apply(self.y))
            assert not np.array_equal(z, other.apply(self.y))
        assert o1.calls == 4

    @pytest.mark.parametrize("mode", ["random-direction", "adversarial-sign"])
    def test_equals_product_plus_drawn_error(self, mode):
        # the reference: np.linalg.norm and a fresh default_rng(seed), from
        # which a new oracle's first call draws; strided columns as well as a
        # contiguous vector, since a strided BLAS dot can round differently
        block = np.random.default_rng(3).standard_normal((20, 8))
        for y in (self.y, *block.T):
            for seed in (0, 42, (7, 3)):
                direction = (np.random.default_rng(seed).standard_normal(20)
                             if mode == "random-direction" else np.sign(y))
                radius = 0.3 * np.linalg.norm(y)
                expected = self.matrix.matvec(y) + (radius / np.linalg.norm(direction)) * direction
                np.testing.assert_array_equal(
                    noisy_oracle(self.matrix, 0.3, mode, seed=seed).apply(y), expected)


class TestNoisyOracle:
    def setup_method(self):
        self.matrix, _ = random_spectrum_matrix(20, seed=5)
        self.y = np.random.default_rng(1).standard_normal(20)

    def test_serial_calls_draw_one_stream(self):
        # call k's direction is the k-th draw of one default_rng(seed)
        oracle = noisy_oracle(self.matrix, 0.2, "random-direction", seed=9)
        stream = np.random.default_rng(9)
        for _ in range(4):
            direction = stream.standard_normal(20)
            expected = self.matrix.matvec(self.y) + (
                0.2 * np.linalg.norm(self.y) / np.linalg.norm(direction)) * direction
            np.testing.assert_array_equal(oracle.apply(self.y), expected)

    def test_zero_radius_draws_nothing(self):
        oracle = noisy_oracle(self.matrix, 0.2, "random-direction", seed=9)
        np.testing.assert_array_equal(oracle.apply(np.zeros(20)), np.zeros(20))
        np.testing.assert_array_equal(
            oracle.apply(self.y),
            noisy_oracle(self.matrix, 0.2, "random-direction", seed=9).apply(self.y))
        assert oracle.calls == 2

    def test_rejects_bad_arguments_when_built(self):
        with pytest.raises(ValueError):
            noisy_oracle(self.matrix, 1.0, "random-direction", seed=0)
        with pytest.raises(ValueError):
            noisy_oracle(self.matrix, 0.1, "gaussian", seed=0)

    @pytest.mark.parametrize("mode", ["random-direction", "adversarial-sign"])
    def test_every_call_of_a_sweep_has_the_exact_radius(self, mode):
        eps = 1e-3
        oracle = noisy_oracle(self.matrix, eps, mode, seed=4)
        inner = oracle.apply_fn
        errors = []

        def recording(y, index):
            z = inner(y, index)
            errors.append(np.linalg.norm(z - self.matrix.matvec(y)) / np.linalg.norm(y))
            return z

        oracle.apply_fn = recording
        _sweep_products(oracle, rademacher(20, seed=4), 80)
        assert oracle.calls == len(errors) == 80
        np.testing.assert_allclose(errors, eps, rtol=0, atol=1e-12)

    def test_two_threads_draw_the_serial_set(self):
        import sys
        import threading

        calls = 400
        eps = 0.2
        truth = self.matrix.matvec(self.y)
        serial = noisy_oracle(self.matrix, eps, "random-direction", seed=12)
        expected = np.array([serial.apply(self.y) for _ in range(2 * calls)])
        shared = noisy_oracle(self.matrix, eps, "random-direction", seed=12)
        outputs = [[], []]

        def worker(sink):
            for _ in range(calls):
                sink.append(shared.apply(self.y))

        threads = [threading.Thread(target=worker, args=(sink,)) for sink in outputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert shared.calls == 2 * calls
        got = np.array(outputs[0] + outputs[1])
        radii = np.linalg.norm(got - truth, axis=1) / np.linalg.norm(self.y)
        np.testing.assert_allclose(radii, eps, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[np.lexsort(got.T[::-1])],
                                      expected[np.lexsort(expected.T[::-1])])


class TestSpectralNorm:
    def test_identity(self):
        m = SymmetricMatrix.from_dense(np.eye(6))
        assert estimate_spectral_norm(m, iterations=50, seed=0) == pytest.approx(1.0, abs=1e-6)

    def test_known_diagonal(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0, 0.5]))
        assert estimate_spectral_norm(m, iterations=80, seed=0) == pytest.approx(3.0, abs=1e-6)

    def test_zero_matrix(self):
        m = SymmetricMatrix.from_dense(np.zeros((3, 3)))
        assert estimate_spectral_norm(m, iterations=10, seed=0) == 0.0

    def test_estimate_never_exceeds_truth(self):
        for seed in range(5):
            m, lam = random_spectrum_matrix(30, seed=seed)
            nu = estimate_spectral_norm(m, iterations=30, seed=seed)
            assert nu <= np.abs(lam).max() + 1e-12

    def test_scaling_helper(self):
        m = SymmetricMatrix.from_dense(np.diag([4.0, -2.0, 1.0]))
        scaled, factor = scale_to_unit_norm(m, seed=0)
        assert factor == pytest.approx(1.0 / (4.0 * 1.05), rel=1e-6)
        assert estimate_spectral_norm(scaled, iterations=60, seed=1) <= 1.0

    def test_zero_matrix_scaling_skipped(self):
        m = SymmetricMatrix.from_dense(np.zeros((3, 3)))
        scaled, factor = scale_to_unit_norm(m)
        assert factor == 1.0
        np.testing.assert_array_equal(scaled.to_dense(), m.to_dense())


class TestCallCounting:
    def test_counts_every_apply(self):
        m, _ = random_spectrum_matrix(10, seed=0)
        oracle = exact_oracle(m)
        y = np.ones(10)
        for _ in range(7):
            oracle.apply(y)
        assert oracle.calls == 7

    def test_block_apply_counts_columns(self):
        m, _ = random_spectrum_matrix(6, seed=1)
        oracle = exact_oracle(m)
        block = np.eye(6)
        out = oracle.apply_block(block)
        assert oracle.calls == 6
        np.testing.assert_allclose(out, m.to_dense(), atol=1e-14)

    def test_counter_safe_under_threads(self):
        import sys
        import threading

        m, _ = random_spectrum_matrix(8, seed=2)
        oracle = exact_oracle(m)
        inner = oracle.apply_fn
        seen = []  # the call index each apply_fn received

        def recording(y, index):
            seen.append(index)
            return inner(y, index)

        oracle.apply_fn = recording
        y = np.ones(8)

        def worker():
            for _ in range(2000):
                oracle.apply(y)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert oracle.calls == 16000
        assert sorted(seen) == list(range(16000))


class TestLoaders:
    def test_matrix_market_symmetric(self, tmp_path):
        path = tmp_path / "small.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 2 0.5\n"
            "3 3 1.5\n")
        m = load_matrix_market(path)
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.5, 1.5]])
        np.testing.assert_allclose(m.to_dense(), expected, atol=0)

    def test_matrix_market_rejects_rectangular(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n"
            "1 1 1.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)

    def test_dense_text(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("0.5 0.1\n0.1 -0.25\n")
        m = load_dense_text(path)
        np.testing.assert_allclose(m.to_dense(), [[0.5, 0.1], [0.1, -0.25]], atol=0)

    def test_dense_text_rejects_rectangular(self, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("0.5 0.1 0.2\n0.1 -0.25 0.0\n")
        with pytest.raises(ValueError):
            load_dense_text(path)

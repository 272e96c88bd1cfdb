"""Matrix-vector oracles: the approximate-multiplication contract and test doubles.

An oracle promises ``||z - A y|| <= error_bound * ||A|| * ||y||`` per call.
Exact oracles have ``error_bound = 0``; the noise-injecting oracle realizes a
worst-case-style oracle with an exactly controlled error radius, which is what
the recurrence stability tests need. It seeds one generator when it is built
and every call draws its error from that stream, in call-arrival order.
Moment estimators are written once against :class:`MatvecOracle` and run
unchanged on exact, noisy, and sampled graph oracles.

``scipy.sparse`` and ``scipy.io`` load on the first sparse build or ``.mtx`` read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass
class SymmetricMatrix:
    """Real symmetric matrix, symmetric by construction.

    ``operand`` is a dense ndarray or a scipy CSR matrix; both multiply
    vectors and column blocks with ``@``. Only one triangle is taken from the
    input; the other is mirrored, so the stored operator is exactly symmetric
    regardless of how the source data was produced.
    """

    operand: np.ndarray | csr_matrix

    @classmethod
    def from_dense(cls, arr) -> "SymmetricMatrix":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        lower = np.tril(arr)
        sym = lower + np.tril(arr, -1).T
        return cls(sym)

    @classmethod
    def from_coo(cls, rows, cols, vals, n) -> "SymmetricMatrix":
        """Build from coordinate data; only the lower triangle of the input is used."""
        import scipy.sparse

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        keep = rows >= cols
        r, c, v = rows[keep], cols[keep], vals[keep]
        off = r != c
        rr = np.concatenate([r, c[off]])
        cc = np.concatenate([c, r[off]])
        vv = np.concatenate([v, v[off]])
        return cls(scipy.sparse.csr_matrix((vv, (rr, cc)), shape=(n, n)))

    @property
    def dimension(self) -> int:
        return self.operand.shape[0]

    def matvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.dimension:
            raise ValueError(f"dimension mismatch: matrix is {self.dimension}, vector is {y.shape[0]}")
        return self.operand @ y

    def to_dense(self) -> np.ndarray:
        if isinstance(self.operand, np.ndarray):
            return self.operand
        return self.operand.toarray()

    def scaled(self, factor: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.operand * factor)


@dataclass
class MatvecOracle:
    """The matrix-vector oracle contract used by every moment estimator.

    ``apply`` maps an n-vector to an n-vector; ``error_bound`` is the declared
    per-call accuracy: 0 for exact oracles, a worst-case radius for the noisy
    wrapper, and the RMS level sqrt(n/t) for the sampled graph oracle.
    ``matrix`` is set by exact oracles only, whose A is materialized. The call
    counter is thread-safe so budget accounting stays exact under concurrent
    use.
    ``apply_fn(y, index)`` receives the call's 0-based index, taken from that
    counter at call arrival. The sampled graph oracle seeds each call from
    it; the noisy oracle ignores it and draws from its one stream.
    """

    dimension: int
    apply_fn: Callable[[np.ndarray, int], np.ndarray]
    error_bound: float = 0.0
    matrix: Optional[SymmetricMatrix] = None
    calls: int = 0
    stats: dict = field(default_factory=dict)  # implementation-specific accounting
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def apply(self, y: np.ndarray) -> np.ndarray:
        with self._lock:
            index = self.calls
            self.calls += 1
        return self.apply_fn(y, index)

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        """Apply to each column of ``block``; counts one call per column.

        Only exact materialized oracles take the fast matmul path; everything
        else loops, so per-call noise or sampling behaviour is unchanged.
        """
        cols = block.shape[1]
        if self.matrix is not None and self.error_bound == 0.0:
            with self._lock:
                self.calls += cols
            return self.matrix.operand @ block
        return np.column_stack([self.apply(block[:, j]) for j in range(cols)])


def exact_oracle(matrix: SymmetricMatrix) -> MatvecOracle:
    return MatvecOracle(
        dimension=matrix.dimension,
        apply_fn=lambda y, _index: matrix.matvec(y),
        error_bound=0.0,
        matrix=matrix,
    )


NOISE_MODES = ("random-direction", "adversarial-sign")


def noisy_oracle(matrix: SymmetricMatrix, eps_mv: float, mode: str, seed) -> MatvecOracle:
    """Noise-injecting oracle: each call returns A y plus an error of norm
    exactly ``eps_mv * ||y||``.

    Assuming the declared ``||A|| <= 1`` this meets the oracle contract with
    equality, which makes the error bound directly testable. The oracle seeds
    one ``numpy.random.default_rng(seed)`` when it is built. A
    ``random-direction`` call with a nonzero radius draws its Gaussian
    direction from it, in call-arrival order and under a lock the oracle
    holds; ``adversarial-sign`` takes ``sign(y)`` and draws nothing. Any
    serial schedule therefore reproduces the same noise sequence. Concurrent
    calls get valid errors of the exact radius, but which call draws which
    direction depends on the order in which they take the lock. ``eps_mv``
    and ``mode`` are checked once, here.

    Norms are ``math.sqrt(v @ v)`` of a contiguous vector, which is what
    ``np.linalg.norm`` computes, bit for bit, without its Python-level
    dispatch (a strided BLAS dot rounds differently).
    """
    if not 0.0 <= eps_mv < 1.0:
        raise ValueError(f"eps_mv must be in [0, 1), got {eps_mv}")
    if mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {mode!r}; expected one of {NOISE_MODES}")
    rng = np.random.default_rng(seed)
    lock = threading.Lock()

    def apply_fn(y, _index):
        y = np.asarray(y, dtype=float)
        z = matrix.matvec(y)
        y = np.ascontiguousarray(y)
        radius = eps_mv * math.sqrt(y @ y)
        if radius == 0.0:
            return z
        if mode == "random-direction":
            with lock:
                direction = rng.standard_normal(y.shape[0])
                norm = math.sqrt(direction @ direction)
                while norm == 0.0:
                    direction = rng.standard_normal(y.shape[0])
                    norm = math.sqrt(direction @ direction)
        else:
            direction = np.sign(y)  # y != 0 here, so the norm is at least 1
            norm = math.sqrt(direction @ direction)
        direction *= radius / norm
        z += direction
        return z

    return MatvecOracle(
        dimension=matrix.dimension,
        apply_fn=apply_fn,
        error_bound=eps_mv,
    )


def estimate_spectral_norm(matrix: SymmetricMatrix, iterations: int = 50, seed=0) -> float:
    """Power-iteration lower estimate of the spectral norm.

    Returns ``||A v_k||`` for the normalized final iterate, which never exceeds
    the true norm. A zero matrix returns 0.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.dimension)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iterations):
        av = matrix.matvec(v)
        norm = float(np.linalg.norm(av))
        if norm == 0.0:
            return 0.0
        estimate = norm
        v = av / norm
    return estimate


def scale_to_unit_norm(matrix: SymmetricMatrix, seed=0) -> tuple[SymmetricMatrix, float]:
    """Rescale so the declared spectral norm bound 1 holds with a safety margin.

    The factor is ``1 / (1.05 nu)``, nu the 100-iteration power estimate.

    Returns (scaled matrix, applied factor). A zero matrix is returned
    unchanged with factor 1. Never applied silently: callers surface the
    factor in their run records.
    """
    nu = estimate_spectral_norm(matrix, iterations=100, seed=seed)
    if nu == 0.0:
        return matrix, 1.0
    factor = 1.0 / (nu * 1.05)
    return matrix.scaled(factor), factor


def load_matrix_market(path) -> SymmetricMatrix:
    """Read a Matrix Market file into a sparse symmetric matrix.

    The reader expands symmetric storage itself; symmetry of the result is
    enforced by re-mirroring the lower triangle.
    """
    import scipy.io
    import scipy.sparse

    mat = scipy.io.mmread(path)
    mat = scipy.sparse.coo_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix in {path} is not square: {mat.shape}")
    return SymmetricMatrix.from_coo(mat.row, mat.col, mat.data, mat.shape[0])


def load_dense_text(path) -> SymmetricMatrix:
    """Read a dense matrix from whitespace-separated text, one row per line."""
    arr = np.loadtxt(path, dtype=float, ndmin=2)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix in {path} is not square: {arr.shape}")
    return SymmetricMatrix.from_dense(arr)

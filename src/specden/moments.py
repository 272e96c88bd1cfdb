"""Normalized Chebyshev moment estimation for spectral densities.

The k-th normalized moment of a matrix A with eigenvalues in [-1, 1] is
``tau_k = (1/n) tr(Tbar_k(A))``. This module computes them three ways:
exactly (a full basis sweep through the matrix recurrence), stochastically
with Hutchinson's estimator, and stochastically through an approximate
matrix-vector oracle. All paths, and the recurrence error decomposition, run
the one forward recurrence of :func:`specden.chebyshev._three_term`,
``T_k(A) g = 2 A T_{k-1}(A) g - T_{k-2}(A) g``, and harvest every moment from a
single sweep per probe vector, so the oracle budget is exactly N calls per
probe.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .chebyshev import NORM_0, NORM_K, _three_term
from .jackson import _check_degree
from .oracles import MatvecOracle

logger = logging.getLogger(__name__)

PROVENANCES = ("exact", "hutchinson", "hutchinson-approx")
#: c in the repetition formula of :func:`default_ell`; 16 is an empirical
#: calibration, not a proven value
ELL_CONSTANT = 16.0


@dataclass(frozen=True)
class MomentVector:
    """Approximations tau_1..tau_N plus the fixed tau_0 = 1/sqrt(pi).

    ``values[k-1]`` holds tau_k. The zeroth moment of any probability density
    is exactly 1/sqrt(pi), so it is pinned rather than estimated.
    """

    degree: int
    values: np.ndarray
    provenance: str = "exact"
    ell: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.degree,):
            raise ValueError(f"need exactly N={self.degree} values, got {vals.shape}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "values", vals)

    @property
    def tau_0(self) -> float:
        return NORM_0

    def full_coefficients(self) -> np.ndarray:
        """[tau_0, tau_1, ..., tau_N] as one vector."""
        return np.concatenate([[NORM_0], self.values])

    def to_json(self) -> str:
        return json.dumps(
            {
                "N": self.degree,
                "ell": self.ell,
                "seed": self.seed,
                "provenance": self.provenance,
                "values": self.values.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentVector":
        obj = json.loads(text)
        return cls(
            degree=obj["N"],
            values=np.asarray(obj["values"], dtype=float),
            provenance=obj["provenance"],
            ell=obj.get("ell", 0),
            seed=obj.get("seed"),
        )


def default_ell(n: int, degree: int, delta: float) -> int:
    """Hutchinson repetitions for an n x n matrix at degree N:
    ``max(1, ceil(c log^2(N/delta) / (n tol^2)))`` with ``c = ELL_CONSTANT``.

    ``tol = 1/N^2`` is the per-moment accuracy at which the damped density
    construction keeps its Wasserstein guarantee.
    """
    _check_degree(degree)
    tol = 1.0 / degree**2
    raw = ELL_CONSTANT * math.log(degree / delta) ** 2 / (n * tol**2)
    return max(1, math.ceil(raw))


def rademacher(n: int, seed) -> np.ndarray:
    """A +-1 probe vector; counter-based seeding keeps repetitions independent
    of execution order."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0


def _sweep_products(oracle: MatvecOracle, g: np.ndarray, degree: int) -> np.ndarray:
    """g^T v_k for k = 1..N from one recurrence sweep (exactly N oracle calls)."""
    sweep = _three_term(lambda v: 2.0 * oracle.apply(v), g, oracle.apply(g))
    return np.array([g @ v for v in islice(sweep, 1, degree + 1)])


def _gather_moments(oracle: MatvecOracle, degree: int, ell: int, seed,
                    provenance: str) -> MomentVector:
    _check_degree(degree)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = oracle.dimension
    per_rep = np.empty((ell, degree))
    for i in range(ell):
        g = rademacher(n, (seed, i))
        per_rep[i] = _sweep_products(oracle, g, degree)
    # reduction in repetition-index order keeps outputs bit-stable
    values = (NORM_K / (ell * n)) * np.add.reduce(per_rep, axis=0)
    return MomentVector(degree=degree, values=values, provenance=provenance,
                        ell=ell, seed=seed)


def hutchinson_moments(oracle: MatvecOracle, degree: int, ell: int, seed) -> MomentVector:
    """Hutchinson estimate of all N moments; unbiased, N*ell oracle calls."""
    if oracle.error_bound != 0.0:
        raise ValueError("hutchinson_moments needs an exact oracle; "
                         "use approx_hutchinson_moments for noisy ones")
    return _gather_moments(oracle, degree, ell, seed, "hutchinson")


def approx_hutchinson_moments(oracle: MatvecOracle, degree: int, ell: int, seed) -> MomentVector:
    """Moment estimation through an approximate oracle.

    Identical to :func:`hutchinson_moments` when the oracle error is zero;
    otherwise each estimator carries a bias of at most
    ``2 eps_mv (k+1)^2 ||g||^2`` through the recurrence. Oracle error above
    1/(2 N^2) is allowed but forfeits that bound, hence the warning.
    """
    _check_degree(degree)
    if oracle.error_bound > 0.5 / degree**2:
        logger.warning(
            "oracle error %.3g exceeds the recommended 1/(2N^2) = %.3g for N=%d; "
            "per-moment bias bounds no longer apply",
            oracle.error_bound, 0.5 / degree**2, degree,
        )
    provenance = "hutchinson" if oracle.error_bound == 0.0 else "hutchinson-approx"
    return _gather_moments(oracle, degree, ell, seed, provenance)


def exact_moments(oracle: MatvecOracle, degree: int,
                  max_block_elements: int = 2**24) -> MomentVector:
    """Exact moments by sweeping the whole standard basis: n*N oracle calls.

    The basis is processed in column blocks (bounded by ``max_block_elements``
    per work array) so memory stays flat; each block runs the matrix
    recurrence and contributes its part of every trace. Expensive for large
    n, by design: this is the ground-truth path.
    """
    if oracle.error_bound != 0.0:
        raise ValueError("exact_moments needs an exact oracle")
    _check_degree(degree)
    n = oracle.dimension
    block = max(1, min(n, max_block_elements // n))
    values = np.zeros(degree)
    for start in range(0, n, block):
        cols = np.arange(start, min(start + block, n))
        diagonal = (cols, np.arange(cols.size))
        basis = np.eye(n, cols.size, -start)
        sweep = _three_term(lambda v: 2.0 * oracle.apply_block(v), basis,
                            oracle.apply_block(basis))
        del basis  # only the sweep holds the block now, so it is freed after two steps
        for k, v in enumerate(islice(sweep, 1, degree + 1)):
            values[k] += v[diagonal].sum()
    values *= NORM_K / n
    return MomentVector(degree=degree, values=values, provenance="exact", ell=0)


def moments_from_spectrum(eigenvalues, degree: int) -> MomentVector:
    """Exact moments of a known spectrum: tau_k = (1/n) sum_i Tbar_k(lambda_i).

    This is the ground-truth path for matrices whose eigendecomposition is
    available in closed form or was computed densely.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    _check_degree(degree)
    sweep = _three_term(lambda t: 2.0 * lam * t, np.ones_like(lam), lam)
    values = NORM_K * np.array([t.mean() for t in islice(sweep, 1, degree + 1)])
    return MomentVector(degree=degree, values=values, provenance="exact", ell=0)


def recurrence_error_decomposition(oracle: MatvecOracle, g: np.ndarray, degree: int,
                                   exact_apply):
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

    approx = list(islice(_three_term(recording_step, g, responses[0]), degree + 1))
    exact = islice(_three_term(exact_step, g, exact_apply(g)), degree + 1)
    measured = [v - v_approx for v, v_approx in zip(exact, approx)]

    # sweeps[i - 1] yields U_j(A) xi_i for j = 0, 1, ..., one j per outer step
    reconstructed = [np.zeros_like(g)]
    sweeps = []
    for k in range(1, degree + 1):
        xi_k = exact_apply(approx[k - 1]) - responses[k - 1]
        sweeps.append(islice(_three_term(exact_step, np.zeros_like(g), xi_k), 1, None))
        total = np.zeros_like(g)
        for i, sweep in enumerate(sweeps, start=1):
            u = next(sweep)
            total += u if i == 1 else 2.0 * u
        reconstructed.append(total)
    return measured, reconstructed

"""Normalized Chebyshev moment estimation for spectral densities.

The k-th normalized moment of a matrix A with eigenvalues in [-1, 1] is
``tau_k = (1/n) tr(Tbar_k(A))``. This module computes them three ways:
exactly, stochastically with Hutchinson's estimator, and stochastically
through an approximate matrix-vector oracle. The exact path takes one LAPACK
eigensolve when the matrix is held densely (up to ``DENSE_SIZE_LIMIT``),
``tau_k = (1/n) sum_i Tbar_k(lambda_i)``, and otherwise sweeps the whole
standard basis through the matrix recurrence. Every sweep runs the one
forward recurrence of :func:`specden.chebyshev._three_term`, ``T_k(A) g =
2 A T_{k-1}(A) g - T_{k-2}(A) g``, and harvests every moment from a single
sweep per probe vector.

On an exact oracle (``error_bound == 0``) the sweep stops at v_{N/2}: the
identities ``T_{2j} = 2 T_j^2 - T_0`` and ``T_{2j+1} = 2 T_{j+1} T_j - T_1``
give every moment up to N from inner products of v_0..v_{N/2} (Weisse,
Wellein, Alvermann & Fehske, Rev. Mod. Phys. 78, 275, 2006), so the budget is
N/2 calls per probe and per basis column. Noisy and sampled oracles run the
whole sweep, N calls per probe: with per-step noise e_j,
``E||T~_j g||^2 = ||T_j g||^2 + E||e_j||^2``, so a doubled product would carry
a bias the plain one does not.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .chebyshev import NORM_0, NORM_K, _three_term
from .jackson import _check_degree
from .oracles import MatvecOracle
from .spectrum import DENSE_SIZE_LIMIT, dense_eigenvalues

logger = logging.getLogger(__name__)

PROVENANCES = ("exact", "hutchinson", "hutchinson-approx")
#: entries per work array in exact_moments' blocked basis sweep
MAX_BLOCK_ELEMENTS = 2**24


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


def rademacher(n: int, seed) -> np.ndarray:
    """A +-1 probe vector; counter-based seeding keeps repetitions independent
    of execution order."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0


def _doubled_products(sweep, degree: int, inner) -> np.ndarray:
    """<v_0, v_k> for k = 1..N from only v_0..v_{N/2} of an exact sweep.

    ``v_k = T_k(A) v_0`` with A symmetric, so ``<v_0, v_2j> = 2 <v_j, v_j> -
    <v_0, v_0>`` and ``<v_0, v_2j+1> = 2 <v_j+1, v_j> - <v_0, v_1>``, with
    ``inner`` as <., .>. N is a multiple of 4, so the sweep stops at a whole
    step.
    """
    products = np.empty(degree)
    v_0 = next(sweep)
    base = inner(v_0, v_0)
    prev = next(sweep)
    products[0] = inner(v_0, prev)
    del v_0  # only the sweep holds v_0 now, so it is freed after the next step
    products[1] = 2.0 * inner(prev, prev) - base
    for k, cur in zip(range(3, degree, 2), sweep):
        products[k - 1] = 2.0 * inner(cur, prev) - products[0]
        products[k] = 2.0 * inner(cur, cur) - base
        prev = cur
    return products


def _frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b>_F by numpy's pairwise sum; one BLAS dot over a whole basis block
    of hypercube-10 puts ~4e-13 of rounding into the moments, this ~1e-15."""
    return np.sum(a * b)


def _sweep_products(oracle: MatvecOracle, g: np.ndarray, degree: int) -> np.ndarray:
    """g^T v_k for k = 1..N from one recurrence sweep: N/2 oracle calls on an
    exact oracle, N on a noisy or sampled one."""
    sweep = _three_term(lambda v: 2.0 * oracle.apply(v), g, oracle.apply(g))
    if oracle.error_bound == 0.0:
        return _doubled_products(sweep, degree, np.dot)
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
    """Hutchinson estimate of all N moments; unbiased, N*ell/2 oracle calls."""
    if oracle.error_bound != 0.0:
        raise ValueError("hutchinson_moments needs an exact oracle; "
                         "use approx_hutchinson_moments for noisy ones")
    return _gather_moments(oracle, degree, ell, seed, "hutchinson")


def approx_hutchinson_moments(oracle: MatvecOracle, degree: int, ell: int, seed) -> MomentVector:
    """Moment estimation through an approximate oracle.

    Identical to :func:`hutchinson_moments` when the oracle error is zero;
    otherwise each estimator runs the whole sweep, N*ell oracle calls, and
    carries a bias of at most ``2 eps_mv (k+1)^2 ||g||^2`` through the
    recurrence. Oracle error above 1/(2 N^2) is allowed but forfeits that
    bound, hence the warning.
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


def exact_moments(oracle: MatvecOracle, degree: int) -> MomentVector:
    """Exact moments: one eigensolve for a dense matrix, else a basis sweep.

    When the oracle's matrix is a dense ndarray of size n <= ``DENSE_SIZE_LIMIT``
    it already takes n^2 memory, so one O(n^3)
    :func:`specden.spectrum.dense_eigenvalues` gives every eigenvalue and
    :func:`moments_from_spectrum` the moments, with no oracle calls; an
    eigenvalue outside [-1, 1] raises ValueError there. A sparse or larger
    dense matrix, or an oracle with no materialized matrix, sweeps the whole
    standard basis instead: n*N/2 oracle calls. That basis is processed in
    column blocks (bounded by ``MAX_BLOCK_ELEMENTS`` per work array) so
    memory stays flat; each block E runs the matrix recurrence to V_{N/2}
    and contributes its part of every trace, ``2 ||V_j||_F^2 - b`` and
    ``2 <V_j+1, V_j>_F - <E, V_1>_F`` for its b columns. Expensive for large
    n, by design: this is the ground-truth path.
    """
    if oracle.error_bound != 0.0:
        raise ValueError("exact_moments needs an exact oracle")
    _check_degree(degree)
    n = oracle.dimension
    if (oracle.matrix is not None and isinstance(oracle.matrix.operand, np.ndarray)
            and n <= DENSE_SIZE_LIMIT):
        return moments_from_spectrum(dense_eigenvalues(oracle.matrix).values, degree)
    block = max(1, min(n, MAX_BLOCK_ELEMENTS // n))
    values = np.zeros(degree)
    for start in range(0, n, block):
        basis = np.eye(n, min(block, n - start), -start)
        sweep = _three_term(lambda v: 2.0 * oracle.apply_block(v), basis,
                            oracle.apply_block(basis))
        del basis  # only the sweep holds the block now, so it is freed after two steps
        values += _doubled_products(sweep, degree, _frobenius)
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

"""Discrete spectra: discretization of densities, Wasserstein-1 scores, and a
dense eigensolver for ground truth.

Sorting is ascending everywhere; the Wasserstein distance between two
length-n spectra is the mean absolute difference of the sorted pairing, which
is exact for uniform discrete distributions.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oracles import SymmetricMatrix

logger = logging.getLogger(__name__)

DENSE_SIZE_LIMIT = 4096
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteSpectrum:
    """n eigenvalues sorted ascending, usually supported on [-1, 1].

    ``support`` widens only for spectra living on a shifted interval, e.g.
    normalized-Laplacian eigenvalues on [0, 2].
    """

    values: np.ndarray
    support: tuple = (-1.0, 1.0)

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("need a non-empty 1-d list of eigenvalues")
        lo, hi = self.support
        if vals[0] < lo - BOUND_TOL or vals[-1] > hi + BOUND_TOL:
            raise ValueError(
                f"eigenvalues outside [{lo}, {hi}]: range [{vals[0]}, {vals[-1]}]")
        object.__setattr__(self, "values", np.clip(vals, lo, hi))

    @property
    def n(self) -> int:
        return self.values.size

    def save_text(self, path) -> None:
        with open(path, "w") as fh:
            for v in self.values:
                fh.write(f"{float(v)!r}\n")

    @classmethod
    def load_text(cls, path) -> "DiscreteSpectrum":
        return cls(np.loadtxt(path, dtype=float, ndmin=1))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": self.values.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteSpectrum":
        obj = json.loads(text)
        vals = np.asarray(obj["values"], dtype=float)
        if vals.size != obj["n"]:
            raise ValueError("value count does not match declared n")
        return cls(vals)


def w1_discrete(left: DiscreteSpectrum, right: DiscreteSpectrum) -> float:
    """Wasserstein-1 between two uniform spectra of equal size."""
    if left.n != right.n:
        raise ValueError(f"spectra have different sizes: {left.n} vs {right.n}")
    return float(np.abs(left.values - right.values).mean())


def _cell_grid(eps: float) -> np.ndarray:
    """Cell edges -1, -1+eps, ..., ending exactly at 1.

    When 2/eps is not an integer the last cell is shortened so its right edge
    is 1; the mass argument is unaffected since cells only ever shrink.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    count = int(np.ceil(2.0 / eps - 1e-12))
    edges = -1.0 + eps * np.arange(count)
    return np.append(edges, 1.0)


def discretize_greedy(q, n: int, eps: float) -> DiscreteSpectrum:
    """Snap the density's mass onto an eps-grid, then emit multiples of 1/n.

    Cell masses come from the closed-form antiderivative, so they telescope
    exactly; the floor-and-carry chain runs in rational arithmetic on masses
    scaled by n, which keeps the carried remainder exact across all 2/eps
    cells. Masses are normalized to total exactly one first, so the chain
    always emits exactly n values; the defensive final-cell absorption only
    fires if that accounting is somehow broken.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = _cell_grid(eps)
    cdf = np.asarray(q.cdf(edges), dtype=float)
    masses = np.maximum(np.diff(cdf), 0.0)
    total = sum(Fraction(float(m)) for m in masses)
    if total <= 0:
        raise ValueError("density has no positive mass on [-1, 1]")
    if abs(float(total) - 1.0) > 1e-6:
        logger.warning("density mass %.6g differs from 1; normalizing", float(total))
    out: list[float] = []
    remainder = Fraction(0)
    for t, m in zip(edges[1:], masses):
        v = remainder + Fraction(float(m)) / total
        whole = int(v * n)  # floor of n*v; v >= 0
        remainder = v - Fraction(whole, n)
        out.extend([float(t)] * whole)
    if len(out) != n:  # pragma: no cover - unreachable with normalized masses
        missing = n - len(out)
        logger.warning("carry chain emitted %d of %d values; final cell absorbs %d",
                       len(out), n, missing)
        out.extend([float(edges[-1])] * missing)
    return DiscreteSpectrum(np.asarray(out))


def discretize_optimal(q, n: int, mass_tol: float = 1e-10,
                       max_bisection_steps: int = 200) -> DiscreteSpectrum:
    """Quantile-slab conditional means: the W1-optimal n-point discretization.

    Each slab [t, t'] holds mass 1/n; all interior slab boundaries are found
    by one batched bisection against the closed-form CDF, and each emitted
    point is the slab's conditional mean from the closed-form first moment.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = float(q.integrate(-1.0, 1.0))
    if total <= 0:
        raise ValueError("density has no positive mass on [-1, 1]")
    if n == 1:
        bounds = np.array([-1.0, 1.0])
    else:
        targets = total * np.arange(1, n) / n
        lo = np.full(n - 1, -1.0)
        hi = np.full(n - 1, 1.0)
        mid = 0.5 * (lo + hi)
        for _ in range(max_bisection_steps):
            err = np.asarray(q.cdf(mid)) - targets
            if np.all(np.abs(err) <= mass_tol):
                break
            below = err < 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            mid = 0.5 * (lo + hi)
        else:
            worst = int(np.argmax(np.abs(np.asarray(q.cdf(mid)) - targets)))
            raise RuntimeError(
                f"slab boundary search did not converge after {max_bisection_steps} "
                f"steps: boundary {worst + 1} of {n - 1}, bracket "
                f"[{lo[worst]}, {hi[worst]}], target mass {targets[worst]:.12g}")
        bounds = np.concatenate([[-1.0], np.maximum.accumulate(mid), [1.0]])
    left, right = bounds[:-1], bounds[1:]
    means = q.first_moment(left, right) / (total / n)
    points = np.where(right - left <= 1e-15, 0.5 * (left + right), means)
    return DiscreteSpectrum(np.clip(points, -1.0, 1.0))


def w1_density_vs_spectrum(q, spectrum: DiscreteSpectrum, resolution: int = 10_000) -> float:
    """W1 between a density and a discrete spectrum via exact CDF integration.

    ``integral |F_q - F_spec|`` split at the eigenvalues. On each panel the
    step CDF is constant and F_q is nondecreasing, so the difference changes
    sign at most once; the crossing is located by bisection to a width of
    (panel length) / resolution and the area on each side follows from the
    closed-form integral of the CDF:
    ``integral F_q = [x F_q(x)] - integral x q(x) dx``.
    """
    if resolution < 1_000:
        raise ValueError("resolution must be >= 1000")
    lam = spectrum.values
    n = spectrum.n
    breaks = np.concatenate([[-1.0], lam, [1.0]])
    levels = np.arange(n + 1) / n  # F_spec on each panel

    def cdf_integral(lo, hi, f_lo, f_hi):
        # integral of F_q over each panel [lo, hi]
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

    # batched bisection for the sign change inside each crossing panel
    idx = np.flatnonzero(crossing)
    if idx.size:
        lo, hi, level = breaks[:-1][idx], breaks[1:][idx], levels[idx]
        a, b = lo.copy(), hi.copy()
        tol = width[idx] / resolution
        for _ in range(200):
            if np.all(b - a <= tol):
                break
            mid = 0.5 * (a + b)
            below = np.asarray(q.cdf(mid)) - level < 0.0
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        cuts = 0.5 * (a + b)
        f_cuts = np.asarray(q.cdf(cuts), dtype=float)
        total += np.sum(level * (cuts - lo) - cdf_integral(lo, cuts, f_vals[:-1][idx], f_cuts)
                        + cdf_integral(cuts, hi, f_cuts, f_vals[1:][idx])
                        - level * (hi - cuts))
    return float(total)


# ---------------------------------------------------------------------------
# dense ground-truth eigensolver (LAPACK)


def dense_eigenvalues(matrix) -> DiscreteSpectrum:
    """All eigenvalues of the symmetric part of ``matrix``, sorted ascending.

    Accepts a ``SymmetricMatrix`` or a square array and calls LAPACK through
    ``numpy.linalg.eigvalsh``. Guarded to n <= 4096; this is a ground-truth
    tool, not a large-scale solver.
    """
    if isinstance(matrix, SymmetricMatrix):
        arr = matrix.to_dense()
    else:
        arr = np.asarray(matrix, dtype=float)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("need a square matrix")
    n = arr.shape[0]
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds the dense solver guard {DENSE_SIZE_LIMIT}")
    work = 0.5 * (arr + arr.T)
    return DiscreteSpectrum(np.linalg.eigvalsh(work))


def resample_spectrum(spectrum: DiscreteSpectrum, m: int) -> DiscreteSpectrum:
    """m mid-quantiles of the empirical distribution of a spectrum."""
    qs = (np.arange(m) + 0.5) / m
    idx = np.minimum((qs * spectrum.n).astype(int), spectrum.n - 1)
    return DiscreteSpectrum(spectrum.values[idx])

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
from itertools import accumulate

import numpy as np

from .oracles import SymmetricMatrix

logger = logging.getLogger(__name__)

DENSE_SIZE_LIMIT = 4096
BOUND_TOL = 1e-9
#: the CDF root search (slab boundaries, W1 crossings) stops once every root's
#: CDF is within MASS_TOL of its target, and fails after SEARCH_STEPS steps
MASS_TOL = 1e-10
SEARCH_STEPS = 200


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
            fh.write("\n".join(map(repr, self.values.tolist())) + "\n")

    @classmethod
    def load_text(cls, path) -> "DiscreteSpectrum":
        return cls(np.loadtxt(path, dtype=float, ndmin=1))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": self.values.tolist(),
                           "support": list(self.support)})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteSpectrum":
        """Inverse of ``to_json``; a missing ``support`` means [-1, 1]."""
        obj = json.loads(text)
        vals = np.asarray(obj["values"], dtype=float)
        if vals.size != obj["n"]:
            raise ValueError("value count does not match declared n")
        lo, hi = obj.get("support", (-1.0, 1.0))
        return cls(vals, support=(float(lo), float(hi)))


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

    Cell j's right edge is emitted ``floor(n S_j / S) - floor(n S_{j-1} / S)``
    times, where ``S_j`` is the cumulative mass of cells 1..j and ``S`` the
    total: the floor-and-carry chain over the normalized masses, whose carried
    remainder ``S_j/S - floor(n S_j / S)/n`` always lies in [0, 1/n). Cell
    masses come from the closed-form antiderivative and are clipped at zero;
    each is a dyadic rational, so scaled to their common power-of-two
    denominator they are integers and the cumulative floors are exact. The
    last floor is ``floor(n S / S) = n``, so exactly n values are emitted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = _cell_grid(eps)
    cdf = np.asarray(q.cdf(edges), dtype=float)
    ratios = [m.as_integer_ratio() for m in np.maximum(np.diff(cdf), 0.0).tolist()]
    denominator = max(d for _, d in ratios)  # powers of two: each d divides it
    cumulative = list(accumulate(num * (denominator // d) for num, d in ratios))
    total = cumulative[-1]
    if total <= 0:
        raise ValueError("density has no positive mass on [-1, 1]")
    if abs(total / denominator - 1.0) > 1e-6:
        logger.warning("density mass %.6g differs from 1; normalizing",
                       total / denominator)
    floors = [n * s // total for s in cumulative]
    return DiscreteSpectrum(np.repeat(edges[1:], np.diff(floors, prepend=0)))


def _cdf_roots(q, a, b, fa, fb, targets, what: str) -> np.ndarray:
    """One root of ``F_q(x) = t`` per bracket [a, b] with ``fa = F_q(a) - t < 0 <= fb``.

    Batched Illinois steps (Dowell & Jarratt, BIT 11 (1971): regula falsi that
    halves the f-value of an endpoint kept twice in a row, or the midpoint when
    a point would leave its bracket) run until each root is within MASS_TOL of
    its target or its bracket is one ulp wide, as near -1 and 1, where the
    arcsine weight can move F by more than MASS_TOL per ulp. After SEARCH_STEPS
    steps a RuntimeError names the slowest root (``what`` k of m), its bracket
    and its target.
    """
    close = np.abs(fb) <= MASS_TOL
    roots, err = np.where(close, b, a), np.where(close, fb, fa)
    live = np.flatnonzero((np.abs(err) > MASS_TOL) & (np.nextafter(a, b) < b))
    a, b, fa, fb, err = (v[live] for v in (a, b, fa, fb, err))
    kept = np.zeros(live.size, dtype=int)  # +1: b was kept last step, -1: a was
    steps = 0
    while live.size:
        if steps == SEARCH_STEPS:
            worst = int(np.argmax(np.abs(err)))
            raise RuntimeError(
                f"CDF root search did not converge after {SEARCH_STEPS} steps: "
                f"{what} {live[worst] + 1} of {targets.size}, bracket "
                f"[{a[worst]}, {b[worst]}], target mass {targets[live[worst]]:.12g}")
        steps += 1
        c = b - fb * (b - a) / (fb - fa)
        c = np.where((a < c) & (c < b), c, 0.5 * (a + b))
        err = np.asarray(q.cdf(c), dtype=float) - targets[live]
        roots[live] = c
        up = err > 0.0  # c replaces b and a is kept; otherwise the reverse
        fa = np.where(up, np.where(kept == -1, 0.5 * fa, fa), err)
        fb = np.where(up, err, np.where(kept == 1, 0.5 * fb, fb))
        a, b = np.where(up, a, c), np.where(up, c, b)
        kept = np.where(up, -1, 1)
        keep = (np.abs(err) > MASS_TOL) & (np.nextafter(a, b) < b)
        live, a, b, fa, fb, kept, err = (
            v[keep] for v in (live, a, b, fa, fb, kept, err))
    return roots


def _slab_bounds(q, total: float, n: int) -> np.ndarray:
    """Interior slab boundaries b_1..b_{n-1} with ``F(b_k) = k total/n`` (see ``_cdf_roots``).

    One CDF table at the n+1 equispaced nodes of [-1, 1], made nondecreasing
    by its running maximum, brackets each target t between adjacent nodes
    with ``F(x_{j-1}) < t <= F(x_j)``: a true sign change even where a noisy
    density's CDF is not monotone.
    """
    targets = total * np.arange(1, n) / n
    nodes = np.linspace(-1.0, 1.0, n + 1)
    cdf = np.asarray(q.cdf(nodes), dtype=float)
    j = np.clip(np.searchsorted(np.maximum.accumulate(cdf), targets), 1, n)
    return _cdf_roots(q, nodes[j - 1], nodes[j], cdf[j - 1] - targets, cdf[j] - targets,
                      targets, "boundary")


def discretize_optimal(q, n: int) -> DiscreteSpectrum:
    """Quantile-slab conditional means: n points, one per slab of mass 1/n.

    The slab boundaries come from ``_slab_bounds``; each point is its slab's
    conditional mean from the closed-form first moment. A mean minimizes the
    squared distance within its slab and the slab medians would minimize W1,
    so on a skewed density this is not the W1-optimal n-point discretization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = float(q.integrate(-1.0, 1.0))
    if total <= 0:
        raise ValueError("density has no positive mass on [-1, 1]")
    bounds = np.concatenate([[-1.0], np.maximum.accumulate(_slab_bounds(q, total, n)), [1.0]])
    left, right = bounds[:-1], bounds[1:]
    means = q.first_moment(left, right) / (total / n)
    points = np.where(right - left <= 1e-15, 0.5 * (left + right), means)
    return DiscreteSpectrum(np.clip(points, -1.0, 1.0))


def w1_density_vs_spectrum(q, spectrum: DiscreteSpectrum) -> float:
    """W1 between a density and a discrete spectrum via exact CDF integration.

    ``integral |F_q - F_spec|`` split at the distinct eigenvalues: on each
    panel the step CDF is constant, the count of eigenvalues at or below the
    panel's left end over n. (Splitting at every eigenvalue only adds empty
    panels at repeated values, with the same live panels and score.) Where
    F_q rises across a panel's level, ``_cdf_roots`` finds the crossing, and
    the area on each side follows from the closed-form integral of the CDF:
    ``integral F_q = [x F_q(x)] - integral x q(x) dx``. The score is exact
    for ``q >= 0``, whose CDF is nondecreasing and so changes sign at most
    once per panel. When the CDF is not monotone the score takes one
    crossing per panel, and only on panels whose ends differ in sign.
    """
    lam = spectrum.values
    n = spectrum.n
    last = np.append(np.diff(lam) > 0.0, True)  # last copy of each distinct value
    breaks = np.concatenate([[-1.0], lam[last], [1.0]])
    levels = np.concatenate([[0], np.flatnonzero(last) + 1]) / n  # F_spec on each panel

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

    idx = np.flatnonzero(crossing)
    if idx.size:
        lo, hi, level = breaks[:-1][idx], breaks[1:][idx], levels[idx]
        cuts = _cdf_roots(q, lo, hi, h_lo[idx], h_hi[idx], level, "crossing")
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

"""Assembling moment vectors into guaranteed probability densities on [-1, 1].

A density estimate is ``q(x) = w(x) * sum_k a_k Tbar_k(x)``. The idealized
construction damps exact moments and is already a density. The full
construction accepts noisy moments, shifts the damped series up by a constant
just large enough to absorb the worst moment error at tolerance 1/N^2, and
rescales back to unit mass: both steps are plain coefficient algebra, so the
output stays a closed-form series. The shift folds into the constant
coefficient, which lands back at exactly 1/sqrt(pi) after rescaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chebyshev import (
    NORM_0,
    ChebyshevSeries,
    series_eval,
    series_weighted_cdf,
    series_weighted_first_moment,
    series_weighted_integral,
)
from .jackson import JacksonCoefficients, damp_moments
from .moments import MomentVector

SERIES_FORM = "w-times-normalized-chebyshev"


@dataclass(frozen=True)
class DensityEstimate:
    """A probability density ``q = w * series`` with closed-form integration."""

    series: ChebyshevSeries
    metadata: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return self.series.degree

    def evaluate(self, x):
        """q(x); diverges like w near +-1 whenever the polynomial part is nonzero there."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        weight = 1.0 / np.sqrt(np.maximum(1.0 - xs**2, 0.0))
        vals = series_eval(self.series, xs) * weight
        return float(vals[0]) if np.isscalar(x) else vals

    def polynomial_part(self, x):
        """q(x) / w(x), finite everywhere on [-1, 1]."""
        return series_eval(self.series, x)

    def integrate(self, a, b):
        """integral of q over [a, b]; scalars or equal-shape arrays of endpoints."""
        return series_weighted_integral(self.series, a, b)

    def cdf(self, x):
        return series_weighted_cdf(self.series, x)

    def first_moment(self, a, b):
        """integral of x q(x) over [a, b]; scalars or equal-shape arrays of endpoints."""
        return series_weighted_first_moment(self.series, a, b)

    def to_json(self) -> str:
        return json.dumps(
            {
                "N": self.degree,
                "coefficients": self.series.coefficients.tolist(),
                "form": SERIES_FORM,
                "metadata": self.metadata,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DensityEstimate":
        obj = json.loads(text)
        if obj.get("form") != SERIES_FORM:
            raise ValueError(f"unsupported density form {obj.get('form')!r}")
        series = ChebyshevSeries(np.asarray(obj["coefficients"], dtype=float))
        if series.degree != obj["N"]:
            raise ValueError("coefficient count does not match the declared degree")
        return cls(series=series, metadata=obj.get("metadata", {}))


def idealized_kpm(moments: MomentVector, coeffs: JacksonCoefficients) -> DensityEstimate:
    """Damped truncation of exact moments; a probability density outright.

    With N >= 18/eps the result is within eps of the true spectral density in
    Wasserstein-1 distance.
    """
    if moments.provenance != "exact":
        raise ValueError("idealized_kpm requires exact moments")
    series = damp_moments(moments, coeffs)
    return DensityEstimate(
        series=series,
        metadata={"construction": "idealized", "N": coeffs.degree,
                  "moment_provenance": moments.provenance},
    )


def full_kpm(moments: MomentVector, coeffs: JacksonCoefficients) -> DensityEstimate:
    """Shift-and-rescale construction tolerant of per-moment error up to 1/N^2.

    Only unit mass is unconditional: a_0 is pinned to 1/sqrt(pi). The output is
    non-negative only when the moment error contract |tau~_k - tau_k| <= 1/N^2
    holds; noisier moments can give a polynomial part that dips below zero.
    When the contract holds and N >= 18/eps, it is within 2*eps of the truth.
    """
    series = damp_moments(moments, coeffs)
    n_deg = coeffs.degree
    shifted = series.coefficients.copy()
    shifted[0] += math.sqrt(2.0) / n_deg
    shifted /= 1.0 + math.sqrt(2.0 * math.pi) / n_deg
    return DensityEstimate(
        series=ChebyshevSeries(shifted),
        metadata={"construction": "shifted-rescaled", "N": n_deg,
                  "moment_provenance": moments.provenance,
                  "moment_contract": "|tau~_k - tau_k| <= 1/N^2 (assumed, not checkable)"},
    )


def density_integrate(q: DensityEstimate, a: float, b: float) -> float:
    """integral_a^b q, exactly, through the closed-form antiderivatives."""
    return q.integrate(a, b)


def check_density(q: DensityEstimate, grid_points: int = 10_000,
                  negativity_tol: float = -1e-10, a0_tol: float = 1e-12) -> None:
    """Assert the two density invariants: a_0 = 1/sqrt(pi) and grid non-negativity.

    Both hold analytically for the constructions above, so a violation points
    at an implementation bug rather than method failure.
    """
    a0 = q.series.coefficients[0]
    if abs(a0 - NORM_0) > a0_tol:
        raise AssertionError(f"a_0 = {a0!r} differs from 1/sqrt(pi) by {abs(a0 - NORM_0):.3g}")
    grid = np.linspace(-1.0, 1.0, grid_points + 2)[1:-1]
    vals = q.evaluate(grid)
    worst = float(vals.min())
    if worst < negativity_tol:
        raise AssertionError(f"density dips to {worst:.3g} on the interior grid")


def export_plot_data(q: DensityEstimate, grid_points: int = 512,
                     margin: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """(x, q(x)) on a Chebyshev-spaced grid pulled ``margin`` away from +-1.

    Chebyshev spacing concentrates samples near the endpoints where the weight
    varies fastest; the margin keeps the printed values finite.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    theta = np.pi * (np.arange(grid_points) + 0.5) / grid_points
    xs = np.sort(np.cos(theta) * (1.0 - margin))
    return xs, q.evaluate(xs)


def write_plot_csv(path, q: DensityEstimate, grid_points: int = 512,
                   margin: float = 1e-4) -> None:
    xs, ys = export_plot_data(q, grid_points, margin)
    with open(path, "w") as fh:
        fh.write("x,q\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def perturbed_moments(moments: MomentVector, magnitude: float,
                      signs: Optional[np.ndarray] = None, seed=None) -> MomentVector:
    """Moment vector with each tau_k (k >= 1) moved by +-magnitude.

    ``signs`` fixes the perturbation pattern (adversarial use); otherwise signs
    are drawn from ``seed``. tau_0 stays pinned.
    """
    if signs is None:
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=moments.degree) * 2 - 1
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (moments.degree,):
        raise ValueError("signs must have one entry per estimated moment")
    return MomentVector(
        degree=moments.degree,
        values=moments.values + magnitude * signs,
        provenance="hutchinson-approx",
        ell=moments.ell,
        seed=moments.seed,
    )

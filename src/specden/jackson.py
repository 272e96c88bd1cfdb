"""Jackson damping coefficients and the damped truncation of moment vectors.

The coefficients are the double self-convolution ``(g*g)*(g*g)`` of the
indicator of {-z..z} with z = N/4, restricted to non-negative indices. They
are exact integers; the damping ratios ``values[k] / values[0]`` multiply the
Chebyshev coefficients of a series and yield a truncation that preserves
non-negativity and converges uniformly at rate 18/N for 1-Lipschitz targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebyshevSeries


@dataclass(frozen=True)
class JacksonCoefficients:
    """Exact integer damping coefficients for one degree N (a multiple of 4)."""

    degree: int
    values: np.ndarray  # int64, length N + 1, strictly decreasing, positive

    @property
    def ratios(self) -> np.ndarray:
        """Damping factors values[k] / values[0] as floats; ratios[0] == 1."""
        return self.values.astype(float) / float(self.values[0])


def _check_degree(degree) -> None:
    """Raise ValueError unless ``degree`` is a positive multiple of 4.

    The one degree check of the package: the kernel's width z = N/4 needs it,
    and every moment estimator runs it before any other work or warning.
    """
    if degree < 4 or degree % 4 != 0:
        raise ValueError(f"degree N must be a positive multiple of 4, got {degree}")


def full_convolution(degree: int) -> np.ndarray:
    """The full symmetric convolution (g*g)*(g*g) on indices -N..N."""
    _check_degree(degree)
    z = degree // 4
    g = np.ones(2 * z + 1, dtype=np.int64)
    return np.convolve(np.convolve(g, g), np.convolve(g, g))


def jackson_coefficients(degree: int) -> JacksonCoefficients:
    """Compute the damping coefficients for one degree.

    Exact 64-bit integer arithmetic: the leading value is
    sum_j (N/2 + 1 - |j|)^2 over |j| <= N/2, about N^3 / 12 (5,735,016,449 at
    N = 4096), so int64 holds it for every N up to about 4.8e6.
    """
    conv = full_convolution(degree)
    return JacksonCoefficients(degree=degree, values=conv[conv.size // 2 :].copy())


def degree_for_accuracy(eps: float) -> int:
    """Smallest multiple of 4 with N >= 18 / eps."""
    if not 0 < eps:
        raise ValueError("eps must be positive")
    return 4 * math.ceil(18.0 / (4.0 * eps))


def damp_moments(moments, coeffs: JacksonCoefficients) -> ChebyshevSeries:
    """Apply the damping ratios to a moment vector, producing a series.

    ``a_k = (values[k] / values[0]) * tau_k`` with a_0 = tau_0 untouched since
    the leading ratio is exactly one.
    """
    if moments.degree != coeffs.degree:
        raise ValueError(
            f"degree mismatch: moments have N={moments.degree}, "
            f"coefficients have N={coeffs.degree}"
        )
    return ChebyshevSeries(coeffs.ratios * moments.full_coefficients())

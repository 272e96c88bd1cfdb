"""Chebyshev polynomials, the arcsine weight, and closed-form weighted integrals.

Everything here works on the reference interval [-1, 1]. The weight is
``w(x) = 1/sqrt(1 - x^2)``, under which the first-kind polynomials are
orthogonal with ``<T_0, w T_0> = pi`` and ``<T_k, w T_k> = pi/2`` for k > 0.
The normalized basis used throughout the package is ``Tbar_k = T_k / sqrt(<T_k, w T_k>)``.

Every Chebyshev sweep in the package, scalar, pointwise or through a matrix,
runs the one three-term forward recurrence in :func:`_three_term`, never
Clenshaw's backward form, so polynomial evaluation and moment estimation share
their floating-point behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

SQRT_PI = float(np.sqrt(np.pi))
#: value of Tbar_0 (constant polynomial 1 scaled to unit weighted norm)
NORM_0 = 1.0 / SQRT_PI
#: scaling T_k -> Tbar_k for k >= 1
NORM_K = float(np.sqrt(2.0 / np.pi))

DOMAIN_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside [-1, 1] beyond the clamping tolerance, or a bad interval."""


def _clamp(x):
    """Clamp values within DOMAIN_TOL of [-1, 1] back onto the interval.

    Larger violations raise :class:`DomainError`; tiny ones are treated as
    floating-point drift from upstream normalization.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1.0 - DOMAIN_TOL) or np.any(arr > 1.0 + DOMAIN_TOL):
        raise DomainError(f"argument outside [-1, 1]: {x!r}")
    clipped = np.clip(arr, -1.0, 1.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(clipped)
    return clipped


def _three_term(step, prev, cur):
    """Yield ``prev, cur`` and then ``step(cur) - prev`` without end.

    The forward recurrence ``P_k = 2x P_{k-1} - P_{k-2}`` behind every sweep:
    ``step`` multiplies by 2x (a scalar, pointwise on an array, a matvec or a
    block product), and ``prev, cur`` are the sweep's first two terms, such as
    ``(v, x v)`` for T_k(x) v or ``(0, v)`` for U_{k-1}(x) v. Each value pulled
    past the first two costs one ``step``. The generator holds the only
    references it needs, so callers that keep no other name for ``prev`` let
    it be freed after two steps.
    """
    yield prev
    yield cur
    while True:
        prev, cur = cur, step(cur) - prev
        yield cur


def cheb_weighted_integral(k: int, a: float, b: float) -> float:
    """Closed form of ``integral_a^b T_k(x) / sqrt(1 - x^2) dx``.

    For k = 0 this is ``arcsin(b) - arcsin(a)``. For k >= 1 the antiderivative
    is ``-sin(k * arccos(x)) / k``, which is finite at the endpoints, so the
    weight's singularity at +-1 never needs numerical treatment.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = _clamp(a)
    b = _clamp(b)
    if a >= b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    if k == 0:
        return float(np.arcsin(b) - np.arcsin(a))
    return float((np.sin(k * np.arccos(a)) - np.sin(k * np.arccos(b))) / k)


@dataclass(frozen=True)
class ChebyshevSeries:
    """Coefficients a_0..a_N over the normalized basis Tbar_k.

    Represents both plain polynomials ``sum_k a_k Tbar_k(x)`` and, when
    multiplied by the weight w, densities on [-1, 1].
    """

    coefficients: np.ndarray = field()

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


def _forward_sum(weights: np.ndarray, xs: np.ndarray, second_kind: bool) -> np.ndarray:
    """``sum_j weights[j] P_j(xs)`` accumulated along one forward recurrence.

    ``P_j`` is T_j (first kind, ``P_1 = x``) or U_j (second kind, ``P_1 = 2x``);
    both follow ``P_j = 2x P_{j-1} - P_{j-2}`` from ``P_0 = 1``.
    """
    two_x = 2.0 * xs
    polys = _three_term(partial(np.multiply, two_x), np.ones_like(xs),
                        two_x if second_kind else xs)
    acc = np.full_like(xs, weights[0])
    for w, p in zip(weights[1:], islice(polys, 1, None)):
        acc += w * p
    return acc


def _series_weights(series: ChebyshevSeries) -> np.ndarray:
    """Coefficients over the raw T_k: ``a_k`` times the normalization of Tbar_k."""
    weights = series.coefficients * NORM_K
    weights[0] = series.coefficients[0] * NORM_0
    return weights


def series_eval(series: ChebyshevSeries, x):
    """Evaluate ``sum_k a_k Tbar_k(x)`` in one shared forward recurrence pass.

    Scalars and arrays are both supported; the per-term normalization is folded
    into the accumulation so no polynomial is evaluated twice.
    """
    xv = _clamp(x)
    scalar = not isinstance(xv, np.ndarray)
    xs = np.atleast_1d(np.asarray(xv, dtype=float))
    acc = _forward_sum(_series_weights(series), xs, second_kind=False)
    return float(acc[0]) if scalar else acc


def _weighted_antiderivative(weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``A(x) = sum_k weights[k] F_k(x)``, the antiderivative of ``w * sum_k weights[k] T_k``.

    ``F_0 = arcsin x`` and ``F_k = -sin(k arccos x) / k``. Since
    ``sin(k arccos x) = sqrt(1 - x^2) U_{k-1}(x)``, the k >= 1 part is one
    second-kind recurrence over the points, with no table of sines.
    """
    acc = weights[0] * np.arcsin(xs)
    if weights.size > 1:
        ks = np.arange(1, weights.size)
        acc -= np.sqrt((1.0 - xs) * (1.0 + xs)) * _forward_sum(
            weights[1:] / ks, xs, second_kind=True)
    return acc


def _weighted_difference(weights: np.ndarray, a, b):
    """``A(b) - A(a)`` for scalars or equal-shape arrays; both ends in one pass."""
    ends = np.stack([np.asarray(_clamp(a), dtype=float), np.asarray(_clamp(b), dtype=float)])
    if np.any(ends[0] > ends[1]):
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    vals = _weighted_antiderivative(weights, ends)
    diff = vals[1] - vals[0]
    return float(diff) if diff.ndim == 0 else diff


def series_weighted_integral(series: ChebyshevSeries, a, b):
    """``integral_a^b w(x) sum_k a_k Tbar_k(x) dx`` by the closed form.

    ``a`` and ``b`` are scalars or arrays of one shape; ``a == b`` gives 0.
    """
    return _weighted_difference(_series_weights(series), a, b)


def series_weighted_cdf(series: ChebyshevSeries, x) -> np.ndarray:
    """Vectorized ``F(x) = integral_{-1}^x w * series`` at the points ``x``.

    The antiderivative's value at -1 is ``weights[0] * arcsin(-1)`` in closed
    form: the ``sqrt((1 - x)(1 + x))`` factor zeroes every k >= 1 term there.
    """
    weights = _series_weights(series)
    xs = np.atleast_1d(np.asarray(_clamp(x), dtype=float))
    return _weighted_antiderivative(weights, xs) - weights[0] * np.arcsin(-1.0)


def series_weighted_first_moment(series: ChebyshevSeries, a, b):
    """``integral_a^b x w(x) sum_k a_k Tbar_k(x) dx`` in closed form.

    Uses x T_k = (T_{k+1} + T_{k-1}) / 2 for k >= 1 and x T_0 = T_1, so the
    result is the weighted integral of a plain Chebyshev series one degree
    higher. ``a`` and ``b`` are scalars or arrays of one shape; ``a == b``
    gives 0.
    """
    weights = _series_weights(series)
    shifted = np.zeros(weights.size + 1)
    shifted[1] = weights[0]
    shifted[2:] += 0.5 * weights[1:]
    shifted[:-2] += 0.5 * weights[1:]
    return _weighted_difference(shifted, a, b)

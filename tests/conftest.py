"""Shared fixtures and independent numerical oracles for the test suite."""

import numpy as np
import pytest
import scipy.integrate

from specden import SymmetricMatrix, cheb_eval_first


def random_spectrum_matrix(n, seed, spectrum=None):
    """Symmetric matrix with a prescribed spectrum via random orthogonal conjugation.

    Returns (SymmetricMatrix, sorted eigenvalues). Default spectrum is uniform
    on [-1, 1], so the norm bound 1 holds by construction.
    """
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-1.0, 1.0, n)) if spectrum is None else np.sort(np.asarray(spectrum, dtype=float))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (basis * lam) @ basis.T
    return SymmetricMatrix.from_dense(dense), lam


def quad_weighted_integral(k, a, b):
    """Adaptive-quadrature oracle for integral_a^b T_k(x)/sqrt(1-x^2) dx.

    Grades the split geometrically, at 1 - 1e-3, 1 - 1e-6, ..., toward an
    endpoint within 1e-3 of +-1, where uniform pieces cannot resolve the
    weight's singular mass; subdivides each graded segment so every piece
    spans only a few oscillations of T_k; then integrates the raw singular
    integrand with scipy's adaptive rule. Stays independent of the closed form
    it is used to check.
    """
    breaks = [a, b]
    for edge, sign in ((b, 1.0), (a, -1.0)):
        if 1.0 - sign * edge < 1e-3:
            breaks += [sign * (1.0 - g) for g in (1e-3, 1e-6, 1e-9, 1e-12)
                       if a < sign * (1.0 - g) < b]
    breaks.sort()
    pieces = max(4, k // 4 + 4)
    total = 0.0
    for start, stop in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(start, stop, pieces + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = scipy.integrate.quad(
                lambda x: cheb_eval_first(k, x) / np.sqrt(1.0 - x * x),
                lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            total += val
    return total


class UniformDensity:
    """Uniform density on [-1, 1]: the hand-traceable discretization input."""

    def integrate(self, a, b):
        return 0.5 * (b - a)

    def cdf(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        return 0.5 * (xs + 1.0)

    def first_moment(self, a, b):
        return 0.25 * (b * b - a * a)


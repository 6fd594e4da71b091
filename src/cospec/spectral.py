"""Singular spectra of normalized co-occurrence matrices.

Numeric SVD plus the closed-form spectra the toy constructions admit, the
tail singular energy of the downstream classification bound, and a
connectivity estimate of learned features.
"""

from __future__ import annotations

import math

import numpy as np

from .cooccurrence import admissible_counts
from .errors import DomainError, ResourceError
from .toy_model import ToyParams

# Dense SVD refuses a matrix whose thin SVD, rows * cols * min(rows, cols),
# costs more than that of a square matrix of this side.
SVD_BUDGET = 4000

# Singular values below this are numerical noise and clamp to zero.
CLAMP = 1e-12


def _spectrum(values) -> np.ndarray:
    """`values` as floats, noise clamped to zero, in descending order."""
    v = np.asarray(values, dtype=float)
    return np.sort(np.where(v < CLAMP, 0.0, v))[::-1]


def check_svd_budget(a: np.ndarray) -> None:
    """Refuse a matrix past `SVD_BUDGET` with a `ResourceError`."""
    rows, cols = a.shape
    if rows * cols * min(rows, cols) > SVD_BUDGET**3:
        raise ResourceError(
            f"matrix {a.shape} exceeds the dense SVD budget of {SVD_BUDGET}^3"
        )


def singular_spectrum(a: np.ndarray) -> np.ndarray:
    """Full numeric spectrum, descending, length min(rows, cols)."""
    a = np.asarray(a, float)
    check_svd_budget(a)
    return _spectrum(np.linalg.svd(a, compute_uv=False))


def exact_ar_spectrum(params: ToyParams) -> np.ndarray:
    """Nonzero spectrum of the next-token matrix as actually constructed.

    The matrix is block diagonal with one rank-1 all-equal block per
    (class, prefix length) pair, each of unit norm, so the spectrum is
    exactly r * (s - 1) ones.
    """
    return _spectrum(np.ones(params.r * (params.s - 1)))


def predicted_masked_spectrum(
    params: ToyParams, rho_lo: float, rho_hi: float
) -> np.ndarray:
    """Nonzero masked spectrum over the admissible ratios in [lo, hi].

    r ones, then r*(s-1) copies of sqrt(mean of u / ((s - u) * (s - 1))),
    the mean over the grid's unmasked counts u. The mask law is invariant
    under position permutations, so each ratio's Gram matrix is aI + bJ per
    class and a uniform mixture of ratios averages them. This form is
    exact: numeric SVD of the built matrix matches it, u = s - 1 (one hidden
    position, middle value 1) included.
    """
    r, s = params.r, params.s
    counts = admissible_counts(s, rho_lo, rho_hi)
    middle = math.sqrt(
        sum(u / ((s - u) * (s - 1)) for u in counts) / len(counts)
    )
    return _spectrum(np.concatenate([np.ones(r), np.full(r * (s - 1), middle)]))


def tail_energy(spectrum: np.ndarray, t: int) -> float:
    """Fourth-power mass beyond the first t singular values."""
    if t < 0:
        raise DomainError(f"feature dimension must be >= 0, got {t}")
    return float(np.sum(spectrum[t:] ** 4))


def connectivity_estimate(features) -> float:
    """Mean inner product over all pairs of distinct feature vectors.

    A crude connectivity surrogate: high values mean many feature pairs
    point the same way. The n(n-1)/2 pair products sum to half of
    |sum f|^2 - sum |f|^2, so no n x n Gram matrix is formed.
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 2 or f.shape[0] < 2:
        raise DomainError("need at least two feature vectors")
    n = f.shape[0]
    total = f.sum(axis=0)
    return float((total @ total - np.sum(f * f)) / (n * (n - 1)))

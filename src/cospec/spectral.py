"""Singular spectra of normalized co-occurrence matrices.

Numeric SVD plus the closed-form spectra the toy constructions admit, and
the two unscaled components of the downstream classification bound: tail
singular energy and labeling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cooccurrence import (
    JointDistribution,
    NormalizedMatrix,
    admissible_counts,
)
from .errors import DomainError, ResourceError
from .toy_model import ToyParams

# Dense SVD refuses matrices larger than this on either side.
SVD_BUDGET = 4000

# Singular values below this are numerical noise and clamp to zero.
CLAMP = 1e-12


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values; closed forms hold only the nonzero ones."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )

    def __len__(self) -> int:
        return len(self.values)

    def padded(self, n: int) -> np.ndarray:
        """Values extended (or truncated) to length n with zeros."""
        v = self.values
        if len(v) >= n:
            return v[:n].copy()
        return np.concatenate([v, np.zeros(n - len(v))])


def _spectrum(values) -> SingularSpectrum:
    v = np.asarray(values, dtype=float)
    v = np.where(v < CLAMP, 0.0, v)
    return SingularSpectrum(values=np.sort(v)[::-1])


def singular_spectrum(m: NormalizedMatrix | np.ndarray) -> SingularSpectrum:
    """Full numeric spectrum, descending, length min(rows, cols)."""
    a = m.matrix if isinstance(m, NormalizedMatrix) else np.asarray(m, float)
    if max(a.shape) > SVD_BUDGET:
        raise ResourceError(
            f"matrix {a.shape} exceeds the dense SVD budget of {SVD_BUDGET}"
        )
    return _spectrum(np.linalg.svd(a, compute_uv=False))


def exact_ar_spectrum(params: ToyParams) -> SingularSpectrum:
    """Nonzero spectrum of the next-token matrix as actually constructed.

    The matrix is block diagonal with one rank-1 all-equal block per
    (class, prefix length) pair, each of unit norm, so the spectrum is
    exactly r * (s - 1) ones.
    """
    return _spectrum(np.ones(params.r * (params.s - 1)))


def predicted_ar_spectrum(params: ToyParams) -> SingularSpectrum:
    """Stated closed form for the next-token spectrum: r * s ones.

    This overcounts the construction by r unit values (there are s - 1
    prefix lengths, not s); :func:`exact_ar_spectrum` is what numeric SVD
    reproduces. The prediction is kept because the comparative claims
    downstream are phrased against it, and it only widens the next-token
    side of every inequality they assert.
    """
    return _spectrum(np.ones(params.r * params.s))


def predicted_masked_spectrum(
    params: ToyParams, rho_lo: float, rho_hi: float
) -> SingularSpectrum:
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


def block_matrix_spectrum(
    p_a: float, p_b: float, s_a: int, s_b: int
) -> SingularSpectrum:
    """Spectrum of the (s_a*s_b) square matrix of constant blocks.

    Diagonal blocks are all-p_a, off-diagonal all-p_b, each block s_a
    square: sigma_1 = |s_a*p_a + (s_b-1)*s_a*p_b|, then s_b - 1 copies of
    s_a*|p_a - p_b|, then zeros. The matrix is symmetric, so singular
    values are eigenvalue magnitudes; the leading one can be the smaller.
    """
    if s_a < 1 or s_b < 1:
        raise DomainError(f"block sizes must be >= 1, got {s_a}, {s_b}")
    values = np.zeros(s_a * s_b)
    values[0] = abs(s_a * p_a + (s_b - 1) * s_a * p_b)
    values[1:s_b] = s_a * abs(p_a - p_b)
    return _spectrum(values)


def tail_energy(spectrum: SingularSpectrum, t: int) -> float:
    """Fourth-power mass beyond the first t singular values."""
    if t < 0:
        raise DomainError(f"feature dimension must be >= 0, got {t}")
    return float(np.sum(spectrum.values[t:] ** 4))


def labeling_error(joint: JointDistribution, labeler) -> float:
    """Mass of entries whose conditional and target disagree on class.

    `labeler` maps a token id to its class; it is called once per distinct
    token. Every token of a conditional text must agree on the class,
    otherwise the row has no well-defined label and the joint is malformed
    for this measure.
    """
    tokens = joint.tokens
    # A pad takes its row's first token, which adds no label to the row.
    ids, back = np.unique(np.where(tokens >= 0, tokens, tokens[:, :1]),
                          return_inverse=True)
    labels = np.array([labeler(t) for t in ids.tolist()])
    labels = labels[back.reshape(tokens.shape)]
    mixed = np.any(labels != labels[:, :1], axis=1)
    if mixed.any():
        i = int(np.argmax(mixed))
        key = "-".join(str(t) for t in tokens[i].tolist() if t >= 0)
        raise DomainError(f"conditional text {key} mixes classes "
                          f"{sorted(set(labels[i].tolist()))}")
    col_labels = np.array([labeler(c) for c in joint.cols])
    i, j = np.nonzero(joint.dense())
    values = joint.dense()[i, j]
    mismatch = labels[i, 0] != col_labels[j]
    return float(values[mismatch].sum()) / float(values.sum())


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

"""Spectral pretraining loss as low-rank matrix factorization.

The quadratic pretraining loss over a joint distribution equals the
Frobenius factorization objective on the normalized matrix minus a constant
that depends only on the joint. This module computes both sides of that
identity, the closed-form optimum via truncated SVD, a gradient-descent
factorizer to cross-check it, and the ridge probe used to read classes out
of learned features.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .cooccurrence import JointDistribution
from .errors import DomainError, NumericError
from .output import write_csv, write_json
from .spectral import check_svd_budget
from .toy_model import ToyParams, token_label


def spectral_loss(f, w, joint: JointDistribution) -> float:
    """Exact quadratic pretraining loss under a joint distribution.

    `f` is the encoder, an (n_rows, t) array aligned with `joint.tokens`; `w`
    is the embedding, a (t, n_cols) array aligned with `joint.cols`.
    loss = -2 E_{(X, X+)} score(X, X+) + E_{X, X-} score(X, X-)^2 with X-
    drawn from the target marginal independently of X, score(X, c) the c-th
    entry of the embedded features. The alignment term carries weight 2;
    that is what makes the loss equal the factorization objective minus a
    joint-only constant (see :func:`identity_residual`).
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    rows, cols = len(joint.tokens), len(joint.cols)
    if (f.ndim != 2 or w.ndim != 2 or f.shape[0] != rows
            or w.shape != (f.shape[1], cols)):
        raise DomainError(
            f"encoder shape {f.shape} and embedding shape {w.shape} do not "
            f"fit (rows, t) and (t, cols) for {rows} rows and {cols} cols"
        )
    scores = f @ w
    align = float(np.sum(joint.dense() * scores))
    contrast = float(joint.row_marginal() @ (scores**2) @ joint.col_marginal())
    return -2.0 * align + contrast


def decomposition_objective(f, g, a) -> float:
    """Squared Frobenius distance between `a` and the factor product f g^T."""
    approx = f @ g.T
    if approx.shape != a.shape:
        raise DomainError(
            f"factor product shape {approx.shape} does not match "
            f"matrix shape {a.shape}"
        )
    return float(np.sum((a - approx) ** 2))


def identity_residual(f, w, joint: JointDistribution) -> float:
    """Gap between the loss and the factorization objective minus its constant.

    Takes the same arrays as :func:`spectral_loss`. Assembles row factors
    sqrt(P_C(X)) * f(X) and column factors sqrt(P_G(X+)) * W[:, X+], and
    returns |loss - (objective - const)| with const = sum(A^2 / (P_C P_G)),
    the joint's `energy`. Zero (to rounding) for every encoder and
    embedding, which is the equivalence the rest of the package leans on.
    """
    loss = spectral_loss(f, w, joint)  # checks both shapes
    row_factor = np.sqrt(joint.row_marginal())[:, None] * f
    col_factor_t = np.sqrt(joint.col_marginal())[None, :] * w
    objective = decomposition_objective(row_factor, col_factor_t.T,
                                        joint.normalized)
    return abs(loss - (objective - joint.energy))


def _check_rank(a, t: int) -> None:
    """Refuse a rank outside 1..min(a.shape), and a matrix past the SVD
    budget."""
    n = min(a.shape)
    if not 1 <= t <= n:
        raise DomainError(f"rank {t} outside 1..{n} for shape {a.shape}")
    check_svd_budget(a)


def optimal_features(a, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-t factors (f, g) of `a` via truncated SVD, symmetric split.

    Both factors absorb sqrt(sigma), making them comparable in norm. The
    achieved objective is the sum of squared singular values beyond t.
    """
    _check_rank(a, t)
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    u, vt = u[:, :t], vt[:t]
    # Fix the per-component sign so factorizations are reproducible run to
    # run: largest-magnitude entry of each left vector is made nonnegative.
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(t)]
    sign = np.where(peak < 0, -1.0, 1.0)
    scale = np.sqrt(sigma[:t])
    return u * sign * scale[None, :], vt.T * sign * scale[None, :]


@dataclass(frozen=True)
class GDResult:
    """Outcome of a gradient-descent factorization run; `pair` is (f, g)."""

    pair: tuple[np.ndarray, np.ndarray]
    objective: float
    target: float
    iterations: int
    converged: bool
    trajectory: tuple[tuple[int, float], ...]


def gd_factorize(
    a,
    t: int,
    lr: float = 0.05,
    steps: int = 5000,
    rng: np.random.Generator | None = None,
    init_scale: float = 0.1,
) -> GDResult:
    """Factorize M = `a` by gradient descent from a small random start.

    Stops as soon as the objective is within 0.1% of the SVD optimum (or
    within an absolute 1e-6 when the optimum is essentially zero). Runs
    that exhaust `steps` come back with converged=False and their sampled
    trajectory rather than raising; NaN or infinite objectives raise, since
    they mean the step size is too large for this matrix.

    The step f += 2 lr (M w - f w^T w), w += 2 lr (M^T f - w f^T f) keeps f
    in the span of the start f0 and the columns of M, so the loop runs in
    the coordinates S of f = [f0 | M] S. Once per call it forms
    K = [f0 | M]^T [f0 | M] from f0^T f0, M^T f0 and M^T M (rows (t + cols)^2
    work). Then K S holds M^T f in its last cols rows, f^T f = S^T K S, the
    objective is |M|^2 - 2<M^T f, w> + <f^T f, w^T w>, and the step is
    S -= 2 lr S w^T w, S1 += 2 lr w (S1 the last cols rows) beside w's. A
    step costs (t + cols)^2 t whatever the row count, and f is formed once
    at the end. The objective's three terms cancel down to the tail energy,
    so it carries an absolute rounding error of about eps * |M|^2.
    """
    if lr <= 0:
        raise DomainError(f"learning rate must be positive, got {lr}")
    if steps < 1:
        raise DomainError(f"step count must be >= 1, got {steps}")
    rng = np.random.default_rng(0) if rng is None else rng
    _check_rank(a, t)
    sigma = np.linalg.svd(a, compute_uv=False)
    target = float(np.sum(sigma[t:] ** 2))
    threshold = target * 1.001 if target > 1e-9 else 1e-6
    f0 = init_scale * rng.standard_normal((a.shape[0], t))
    w = init_scale * rng.standard_normal((a.shape[1], t))
    norm2 = float(np.sum(a**2))
    mtf0 = a.T @ f0
    k = np.block([[f0.T @ f0, mtf0.T], [mtf0, a.T @ a]])
    s = np.vstack([np.eye(t), np.zeros((w.shape[0], t))])
    ks, sw = np.empty_like(s), np.empty_like(s)
    mtf = ks[t:]  # M^T f, the last cols rows of K S
    prod = np.empty_like(w)
    ftf, wtw = np.empty((t, t)), np.empty((t, t))
    step = 2.0 * lr
    trajectory: list[tuple[int, float]] = []
    objective = float("inf")
    converged = False
    iterations = 0
    # a diverging step overflows; the finiteness test below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            np.matmul(k, s, out=ks)
            np.matmul(s.T, ks, out=ftf)
            np.matmul(w.T, w, out=wtw)
            objective = (norm2
                         - 2.0 * float(np.multiply(mtf, w, out=prod).sum())
                         + float((ftf * wtw).sum()))
            if not math.isfinite(objective):
                raise NumericError(f"factorization diverged at step {i} "
                                   f"with lr={lr}; lower it")
            if i == 1 or i % 50 == 0:
                trajectory.append((i, objective))
            iterations = i
            if objective <= threshold + 1e-12:
                converged = True
                break
            s -= np.multiply(np.matmul(s, wtw, out=sw), step, out=sw)
            s[t:] += np.multiply(w, step, out=prod)
            np.subtract(mtf, np.matmul(w, ftf, out=prod), out=mtf)
            w += np.multiply(mtf, step, out=mtf)
    if trajectory[-1][0] != iterations:
        trajectory.append((iterations, objective))
    f = f0 @ s[:t] + a @ s[t:]
    return GDResult(
        pair=(f, w),
        objective=objective,
        target=target,
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
    )


@dataclass(frozen=True)
class ProbeResult:
    """Fitted one-vs-all ridge classifier and its weighted error."""

    classes: tuple[int, ...]
    coef: np.ndarray
    error: float


def linear_probe(x, labels, reg: float, weights=None) -> ProbeResult:
    """Weighted ridge regression to one-hot classes, prediction by argmax.

    `x` holds one feature vector per row, `labels` its class and `weights`
    its weight (1 for every row when omitted); the reported error is the
    weighted fraction misclassified.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(labels)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, float)
    if x.ndim != 2 or not len(x):
        raise DomainError("no feature vectors supplied")
    if y.shape != (len(x),) or w.shape != (len(x),):
        raise DomainError(
            f"{len(x)} feature vectors but labels of shape {y.shape} and "
            f"weights of shape {w.shape}"
        )
    found, index = np.unique(y, return_inverse=True)
    classes = tuple(int(c) for c in found)
    onehot = np.zeros((len(y), len(classes)))
    onehot[np.arange(len(y)), index] = 1.0
    xtd = x.T * w[None, :]
    gram = xtd @ x + reg * np.eye(x.shape[1])
    try:
        coef = np.linalg.solve(gram, xtd @ onehot)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"normal equations are singular at reg={reg}; use reg > 0"
        ) from exc
    pred = np.array(classes)[np.argmax(x @ coef, axis=1)]
    error = float(np.sum(w * (pred != y)) / np.sum(w))
    return ProbeResult(classes=classes, coef=coef, error=error)


def save_factor_pair(f, g, directory, name: str = "factors") -> None:
    """Persist factors (f, g) as a JSON header plus two CSV matrices."""
    header = {
        "rank": f.shape[1],
        "rows": f.shape[0],
        "cols": g.shape[0],
        "row_file": f"{name}_rows.csv",
        "col_file": f"{name}_cols.csv",
    }
    write_json(os.path.join(directory, f"{name}.json"), header)
    for fname, mat in ((header["row_file"], f), (header["col_file"], g)):
        write_csv(os.path.join(directory, fname), None, list(mat.T))


def probe_features_for_joint(joint: JointDistribution, t: int,
                             params: ToyParams):
    """Rank-t optimal features of a joint, with class labels and row weights.

    Factorizes the normalized matrix, inverts the row scaling,
    f(X) = row_factor[X] / sqrt(P_C(X)) with P_C the row marginal over its
    mass, and labels each conditional text by the class of its first token.
    Returns (x, labels, weights), arrays aligned with `joint.tokens` and
    ready for :func:`linear_probe`; the weights are P_C.
    """
    pc = joint.row_marginal()
    weights = pc / pc.sum()
    x = optimal_features(joint.normalized, t)[0] / np.sqrt(weights)[:, None]
    return x, token_label(params, joint.tokens[:, 0]), weights

"""Pooled linear attention: generation loss, training, and the length bound.

The encoder maps a token set to a single feature vector by summing the
attention polynomial over all ordered embedding triples; because that sum
factors through the embedding total, everything here is a few dense
matmuls. Models train by full-batch gradient descent on the exact joint of
their objective. The generation-side quantities (per-position losses, the
misalignment weights, the worst-case terms eta and delta, and the masked
upper bound they combine into) all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cooccurrence import JointDistribution, build_masked_joint, unmasked_count
from .errors import DomainError, NumericError
from .objectives import ObjectiveSpec, exact_joint
from .toy_model import LabeledSequence, ToyParams


@dataclass
class LinearAttentionModel:
    """Single linear-attention map plus token and output embeddings."""

    emb: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    w_out: np.ndarray

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    def output_norm(self) -> float:
        """Spectral norm of the output embedding matrix."""
        return float(np.linalg.norm(self.w_out, 2))


@dataclass(frozen=True)
class TrainSettings:
    """Full-batch GD hyperparameters.

    The defaults start all square weights at identity plus small noise with
    the feature dimension equal to the vocabulary. That keeps the cubic
    attention map in the regime where prediction mass spreads over the
    positions the conditional leaves open, which is the behavior the
    per-position analysis studies; a cold random start converges to the
    same loss but with an arbitrary per-position profile.
    """

    dim: int | None = None
    lr: float = 0.08
    steps: int = 1200
    init_noise: float = 0.02
    clip: float = 5.0
    check_gradients: bool = True


def target_catalog(params: ToyParams) -> tuple[int, ...]:
    """Token ids that can ever be generation targets (positions >= 2)."""
    return tuple(range(params.r * params.T, params.vocab_size))


def pooled_attention(model: LinearAttentionModel, tokens) -> np.ndarray:
    """Feature of a token multiset: attention summed over all ordered triples.

    Equals sum over (a, b, c) of (a Wq . b Wk) * (c Wv) with a, b, c ranging
    over the tokens' embeddings, which collapses to the same polynomial in
    the embedding sum.
    """
    tokens = list(tokens)
    if not tokens:
        raise DomainError("pooled attention needs at least one token")
    total = model.emb[tokens].sum(axis=0)
    q = total @ model.wq
    k = total @ model.wk
    v = total @ model.wv
    return float(q @ k) * v


@dataclass(frozen=True)
class GenerationReport:
    """Average generation loss with its per-position breakdown."""

    total: float
    per_position: dict[int, float]
    nll: float
    perplexity: float


def gen_loss(
    model: LinearAttentionModel,
    dataset: list[LabeledSequence],
    params: ToyParams,
) -> GenerationReport:
    """Quadratic generation loss, averaged over positions 2..s and sequences.

    Per position k the prediction is the normalized score vector over the
    target catalog given the length-(k-1) prefix; the loss is the negative
    score of the true token plus the mean squared score (negatives drawn
    uniformly from the catalog). Softmax NLL and perplexity are reported
    alongside for orientation only; the bound is about the quadratic form.
    """
    if not dataset:
        raise DomainError("empty dataset")
    cols = list(target_catalog(params))
    col_index = {c: i for i, c in enumerate(cols)}
    w_cols = model.w_out[:, cols]
    s = params.s
    per_position: dict[int, float] = {}
    nll_total = 0.0
    for k in range(2, s + 1):
        feats = np.stack(
            [pooled_attention(model, x.tokens[: k - 1]) for x in dataset]
        )
        z = feats @ w_cols
        norms = np.linalg.norm(z, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        zn = z / safe[:, None]
        targets = np.array([col_index[x.tokens[k - 1]] for x in dataset])
        pos = zn[np.arange(len(dataset)), targets]
        losses = -pos + np.mean(zn**2, axis=1)
        per_position[k] = float(losses.mean())
        logz = z - z.max(axis=1, keepdims=True)
        logsm = logz - np.log(np.sum(np.exp(logz), axis=1, keepdims=True))
        nll_total += float(-logsm[np.arange(len(dataset)), targets].mean())
    total = float(np.mean(list(per_position.values())))
    nll = nll_total / (s - 1)
    return GenerationReport(
        total=total,
        per_position=per_position,
        nll=nll,
        perplexity=float(np.exp(nll)),
    )


def misalignment_weight(s: int, rho_m: float, k: int) -> float:
    """Cubic length-misalignment weight at generation position k."""
    u = s * (1.0 - rho_m)
    return u**3 - (k - 1) ** 3


@dataclass(frozen=True)
class GenerationBoundTerms:
    """Everything the masked generation bound needs, measured on one model."""

    weights: dict[int, float]
    eta: float
    delta: float
    output_norm: float
    s: int
    rho_m: float


def max_output_discrepancy(model: LinearAttentionModel, tokens=None) -> float:
    """Largest distance between single-triple attention outputs, exactly.

    Each triple output is a scalar lambda = (a Wq . b Wk) times a value
    embedding c Wv. For any fixed pair of value embeddings the squared
    distance is a convex quadratic in (lambda_1, lambda_2), so over the
    product of the realized lambda range with itself the maximum sits at a
    corner. Scanning the four corners for every ordered value pair is
    therefore exact, and avoids the sixth-power enumeration.
    """
    ids = sorted(set(tokens)) if tokens is not None else range(model.vocab_size)
    x = model.emb[list(ids)]
    lam = (x @ model.wq) @ (x @ model.wk).T
    lo, hi = float(lam.min()), float(lam.max())
    v = x @ model.wv
    gram = v @ v.T
    d = np.diag(gram)
    best = 0.0
    for l1 in (lo, hi):
        for l2 in (lo, hi):
            vals = l1**2 * d[:, None] + l2**2 * d[None, :] - 2 * l1 * l2 * gram
            best = max(best, float(vals.max()))
    return math.sqrt(max(best, 0.0))


def delta_term(model: LinearAttentionModel, joint: JointDistribution) -> float:
    """Worst pretraining error over a joint's support.

    For each conditional text the prediction is the normalized score vector
    over the joint's column catalog; the per-pair error is the negative
    positive score plus the worst squared score, and the max over the
    support is returned.
    """
    cols = list(joint.cols)
    w_cols = model.w_out[:, cols]
    a = joint.dense()
    feats = np.stack(
        [pooled_attention(model, text[text >= 0]) for text in joint.tokens]
    )
    z = feats @ w_cols
    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    zn = z / safe[:, None]
    worst_sq = np.max(zn**2, axis=1)
    vals = np.where(a > 0, -zn + worst_sq[:, None], -np.inf)
    return float(vals.max())


def generation_bound_terms(
    model: LinearAttentionModel,
    params: ToyParams,
    rho_m: float,
    dataset: list[LabeledSequence] | None = None,
    joint: JointDistribution | None = None,
) -> GenerationBoundTerms:
    """Measure the bound's ingredients for one model at one mask ratio."""
    u = unmasked_count(params, rho_m)
    if u < 2:
        raise DomainError(
            f"bound needs an unmasked count >= 2, got {u} at s={params.s}, "
            f"rho_m={rho_m}"
        )
    weights = {
        k: misalignment_weight(params.s, rho_m, k) for k in range(2, u + 1)
    }
    tokens = None
    if dataset is not None:
        tokens = sorted({t for x in dataset for t in x.tokens})
    joint = build_masked_joint(params, rho_m) if joint is None else joint
    return GenerationBoundTerms(
        weights=weights,
        eta=max_output_discrepancy(model, tokens),
        delta=delta_term(model, joint),
        output_norm=model.output_norm(),
        s=params.s,
        rho_m=rho_m,
    )


def masked_generation_bound(terms: GenerationBoundTerms) -> float:
    """Upper bound on masked-model generation loss from measured terms."""
    u = terms.s * (1.0 - terms.rho_m)
    acc = 0.0
    for k, w in terms.weights.items():
        acc += w**2 / (k - 1) ** 6 + w * terms.output_norm**2 * terms.eta
    return acc / (2.0 * u) + terms.delta + 1.0


def generation_gap(terms: GenerationBoundTerms, delta_ar: float) -> float:
    """Bound gap between a masked model and a next-token baseline."""
    return masked_generation_bound(terms) - delta_ar


@dataclass(frozen=True)
class TrainResult:
    model: LinearAttentionModel
    losses: tuple[float, ...]


def _design(joint: JointDistribution, vocab: int):
    real = joint.tokens >= 0
    incidence = np.zeros((len(real), vocab))
    np.add.at(incidence, (np.nonzero(real)[0], joint.tokens[real]), 1.0)
    return (incidence, joint.dense(), joint.row_marginal(),
            joint.col_marginal(), np.array(joint.cols))


class _Workspace:
    """One training step's loss and gradients, written into fixed buffers.

    Every array with one row per joint row, the column block of `w_out`, the
    five gradients and one scratch array per weight are allocated here once,
    from the design arrays and the weight shapes. Each call overwrites
    `grads` in place. The operations and their order are those of the plain
    expression form, so losses and gradients are bit-identical to it.

    A step still allocates target-catalog vectors and numpy's iteration
    buffer for each broadcast product, which holds at most 8192 elements.
    `einsum("i,ij->ij", ...)` would avoid it for the row scalings, but it adds
    each product into a zeroed output and so turns a -0.0 product into +0.0.
    """

    def __init__(self, arrays, weights):
        self.incidence, self.a, self.pc, self.pg, self.cols = arrays
        n, c = self.a.shape
        d = weights[0].shape[1]
        self.s_mat, self.q, self.k, self.v, self.f = (
            np.empty((n, d)) for _ in range(5)
        )
        self.g_f, self.g_q, self.g_k, self.g_v, self.g_s = (
            np.empty((n, d)) for _ in range(5)
        )
        self.lam = np.empty(n)
        self.g_lam = np.empty(n)
        self.z = np.empty((n, c))
        self.g_z = np.empty((n, c))
        # `w_out[:, cols]` with an index array is a Fortran-ordered copy; a
        # C-ordered buffer would send `g_z @ w_cols.T` down another BLAS path
        # and move the gradients in the last bits.
        self.w_cols = np.empty((d, c), order="F")
        self.g_cols = np.empty((d, c))
        self.grads = tuple(np.zeros_like(w) for w in weights)
        self.scratch = tuple(np.empty_like(w) for w in weights)

    def __call__(self, weights) -> float:
        """Loss at `weights`; the gradients land in `self.grads`."""
        emb, wq, wk, wv, w_out = weights
        a, pc, pg = self.a, self.pc, self.pg
        s_mat, q, k, v, f = self.s_mat, self.q, self.k, self.v, self.f
        z, g_z, lam, g_lam = self.z, self.g_z, self.lam, self.g_lam
        g_f, g_q, g_k, g_v, g_s = self.g_f, self.g_q, self.g_k, self.g_v, self.g_s
        np.matmul(self.incidence, emb, out=s_mat)
        np.matmul(s_mat, wq, out=q)
        np.matmul(s_mat, wk, out=k)
        np.matmul(s_mat, wv, out=v)
        np.einsum("ij,ij->i", q, k, out=lam)
        np.multiply(lam[:, None], v, out=f)
        np.take(w_out, self.cols, axis=1, out=self.w_cols, mode="clip")
        np.matmul(f, self.w_cols, out=z)
        # g_z doubles as scratch for the two loss terms before it is set
        np.multiply(a, z, out=g_z)
        fit = np.sum(g_z)
        np.square(z, out=g_z)
        loss = float(-fit + pc @ g_z @ pg)

        np.multiply(pc[:, None], z, out=g_z)
        np.multiply(g_z, pg[None, :], out=g_z)
        np.multiply(2.0, g_z, out=g_z)
        np.subtract(g_z, a, out=g_z)
        g_emb, g_wq, g_wk, g_wv, g_wout = self.grads
        np.matmul(f.T, g_z, out=self.g_cols)
        g_wout[:, self.cols] = self.g_cols
        np.matmul(g_z, self.w_cols.T, out=g_f)
        np.einsum("ij,ij->i", g_f, v, out=g_lam)
        np.multiply(lam[:, None], g_f, out=g_v)
        np.multiply(g_lam[:, None], k, out=g_q)
        np.multiply(g_lam[:, None], q, out=g_k)
        # g_f is spent; it holds the second and third terms of g_s
        np.matmul(g_q, wq.T, out=g_s)
        np.add(g_s, np.matmul(g_k, wk.T, out=g_f), out=g_s)
        np.add(g_s, np.matmul(g_v, wv.T, out=g_f), out=g_s)
        np.matmul(self.incidence.T, g_s, out=g_emb)
        np.matmul(s_mat.T, g_q, out=g_wq)
        np.matmul(s_mat.T, g_k, out=g_wk)
        np.matmul(s_mat.T, g_v, out=g_wv)
        return loss

    def grad_norm(self) -> float:
        """Global l2 norm of the current gradients."""
        return math.sqrt(sum(
            float(np.sum(np.square(g, out=t)))
            for g, t in zip(self.grads, self.scratch)
        ))

    def descend(self, weights, scale: float) -> None:
        """In place, `w -= scale * g` for every weight and its gradient."""
        for w, g, t in zip(weights, self.grads, self.scratch):
            np.subtract(w, np.multiply(scale, g, out=t), out=w)


def _spot_check_gradients(weights, step, rng, rel_tol=1e-4, probes=3):
    """Central-difference check on a few coordinates of every weight.

    The analytic gradients are copied first: each probe evaluation
    overwrites the workspace's gradient buffers.
    """
    h = 1e-6
    step(weights)
    grads = [g.copy() for g in step.grads]
    for idx, w in enumerate(weights):
        flat = w.ravel()
        for _ in range(probes):
            j = int(rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            up = step(weights)
            flat[j] = orig - h
            down = step(weights)
            flat[j] = orig
            fd = (up - down) / (2 * h)
            an = grads[idx].ravel()[j]
            scale = max(abs(fd), abs(an), 1.0)
            if abs(fd - an) / scale > rel_tol:
                raise NumericError(
                    f"gradient check failed on weight {idx} coord {j}: "
                    f"analytic {an:.6g} vs finite-difference {fd:.6g}"
                )


def train_model(
    spec: ObjectiveSpec,
    params: ToyParams,
    settings: TrainSettings | None = None,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Train one model on the exact joint of its objective.

    Plain gradient descent with global gradient-norm clipping; the loss is
    the unnormalized quadratic pretraining loss summed over the support.
    Analytic gradients are spot-checked against central differences at
    initialization on every run unless disabled.
    """
    settings = TrainSettings() if settings is None else settings
    rng = np.random.default_rng(0) if rng is None else rng
    joint = exact_joint(spec, params)
    vocab = params.vocab_size
    d = settings.dim or vocab
    noise = settings.init_noise
    weights = (
        np.eye(vocab, d) + noise * rng.standard_normal((vocab, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        noise * rng.standard_normal((d, vocab)),
    )
    step = _Workspace(_design(joint, vocab), weights)
    if settings.check_gradients:
        _spot_check_gradients(weights, step, rng)
    losses = []
    for i in range(settings.steps):
        loss = step(weights)
        if not np.isfinite(loss):
            raise NumericError(
                f"training diverged at step {i} with lr={settings.lr}"
            )
        losses.append(loss)
        norm = step.grad_norm()
        scale = settings.lr * min(1.0, settings.clip / norm) if norm > 0 else 0.0
        step.descend(weights, scale)
    emb, wq, wk, wv, w_out = weights
    model = LinearAttentionModel(emb=emb, wq=wq, wk=wk, wv=wv, w_out=w_out)
    return TrainResult(model=model, losses=tuple(losses))

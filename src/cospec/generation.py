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


def prediction_scores(
    model: LinearAttentionModel,
    tokens,
    cols,
    normalized: bool = False,
) -> np.ndarray:
    """Scores over a column catalog; optionally scaled to unit l2 norm."""
    z = pooled_attention(model, tokens) @ model.w_out[:, list(cols)]
    if normalized:
        norm = float(np.linalg.norm(z))
        if norm > 0:
            z = z / norm
    return z


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
        [pooled_attention(model, text.tokens) for text in joint.rows]
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
    lengths = [len(text.tokens) for text in joint.rows]
    row = np.repeat(np.arange(len(lengths)), lengths)
    tokens = [t for text in joint.rows for t in text.tokens]
    incidence = np.zeros((len(lengths), vocab))
    np.add.at(incidence, (row, tokens), 1.0)
    return (incidence, joint.dense(), joint.row_marginal(),
            joint.col_marginal(), np.array(joint.cols))


def _loss_and_grads(weights, incidence, a, pc, pg, cols):
    emb, wq, wk, wv, w_out = weights
    s_mat = incidence @ emb
    q = s_mat @ wq
    k = s_mat @ wk
    v = s_mat @ wv
    lam = np.einsum("ij,ij->i", q, k)
    f = lam[:, None] * v
    w_cols = w_out[:, cols]
    z = f @ w_cols
    loss = float(-np.sum(a * z) + pc @ (z**2) @ pg)

    g_z = -a + 2.0 * (pc[:, None] * z * pg[None, :])
    g_wout = np.zeros_like(w_out)
    g_wout[:, cols] = f.T @ g_z
    g_f = g_z @ w_cols.T
    g_lam = np.einsum("ij,ij->i", g_f, v)
    g_v = lam[:, None] * g_f
    g_q = g_lam[:, None] * k
    g_k = g_lam[:, None] * q
    g_s = g_q @ wq.T + g_k @ wk.T + g_v @ wv.T
    grads = (
        incidence.T @ g_s,
        s_mat.T @ g_q,
        s_mat.T @ g_k,
        s_mat.T @ g_v,
        g_wout,
    )
    return loss, grads


def _spot_check_gradients(weights, arrays, rng, rel_tol=1e-4, probes=3):
    """Central-difference check on a few coordinates of every weight."""
    h = 1e-6
    _, grads = _loss_and_grads(weights, *arrays)
    for idx, w in enumerate(weights):
        flat = w.ravel()
        for _ in range(probes):
            j = int(rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            up, _ = _loss_and_grads(weights, *arrays)
            flat[j] = orig - h
            down, _ = _loss_and_grads(weights, *arrays)
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
    arrays = _design(joint, vocab)
    if settings.check_gradients:
        _spot_check_gradients(weights, arrays, rng)
    losses = []
    for step in range(settings.steps):
        loss, grads = _loss_and_grads(weights, *arrays)
        if not np.isfinite(loss):
            raise NumericError(
                f"training diverged at step {step} with lr={settings.lr}"
            )
        losses.append(loss)
        norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
        scale = settings.lr * min(1.0, settings.clip / norm) if norm > 0 else 0.0
        weights = tuple(w - scale * g for w, g in zip(weights, grads))
    emb, wq, wk, wv, w_out = weights
    model = LinearAttentionModel(emb=emb, wq=wq, wk=wk, wv=wv, w_out=w_out)
    return TrainResult(model=model, losses=tuple(losses))

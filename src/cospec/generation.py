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

    Every row-sized quantity of the step is linear in `incidence`, the
    (rows x vocab) token-count matrix, so the weights are first folded into
    one vocabulary-sized table `T = [emb Wq | emb Wk | emb Wv W_cols]`:

    - forward: `[q | k | u] = incidence @ T`, `lam = rowdot(q, k)`,
      `z = lam * u`;
    - output gradient: `g_z = W2 * z - a` with `W2 = 2 pc pg^T`, the loss
      is `<z, g_z - a> / 2` and `g_lam = rowdot(g_z, u)`;
    - backward: `(incidence * g_lam)^T [q | k]` and
      `(incidence * lam)^T g_z` are the gradients of the table's blocks,
      and the five weight gradients follow from vocabulary-sized products.

    That is three GEMMs over the joint's rows per step. Every row-sized
    array, the table, the five gradients and one scratch array per weight
    are allocated here once; each call overwrites `grads` in place, and the
    row scalings go through `einsum`, which needs no broadcast buffer. The
    plain chain rule through `incidence @ emb` sums in another order, so
    the two agree to rounding, not bit for bit.
    """

    def __init__(self, arrays, weights):
        self.incidence, self.a, pc, pg, self.cols = arrays
        n, c = self.a.shape
        vocab, d = weights[0].shape
        self.w2 = np.multiply.outer(2.0 * pc, pg)
        self.qku = np.empty((n, 2 * d + c))
        self.z = np.empty((n, c))
        self.g_z = np.empty((n, c))
        self.lam = np.empty(n)
        self.g_lam = np.empty(n)
        self.scaled = np.empty((n, vocab))
        self.table = np.empty((vocab, 2 * d + c))
        self.g_table = np.empty((vocab, 2 * d + c))
        self.p = np.empty((vocab, d))  # emb @ wv
        self.g_p = np.empty((vocab, d))
        self.w_cols = np.empty((d, c))
        self.g_cols = np.empty((d, c))
        self.grads = tuple(np.zeros_like(w) for w in weights)
        self.scratch = tuple(np.empty_like(w) for w in weights)

    def __call__(self, weights) -> float:
        """Loss at `weights`; the gradients land in `self.grads`."""
        emb, wq, wk, wv, w_out = weights
        d = wq.shape[0]
        table, g_table, p, g_p = self.table, self.g_table, self.p, self.g_p
        z, g_z, lam, g_lam = self.z, self.g_z, self.lam, self.g_lam
        np.take(w_out, self.cols, axis=1, out=self.w_cols, mode="clip")
        np.matmul(emb, wq, out=table[:, :d])
        np.matmul(emb, wk, out=table[:, d:2 * d])
        np.matmul(emb, wv, out=p)
        np.matmul(p, self.w_cols, out=table[:, 2 * d:])

        np.matmul(self.incidence, table, out=self.qku)
        q, k, u = self.qku[:, :d], self.qku[:, d:2 * d], self.qku[:, 2 * d:]
        np.einsum("ij,ij->i", q, k, out=lam)
        np.einsum("i,ij->ij", lam, u, out=z)
        np.multiply(self.w2, z, out=g_z)
        np.subtract(g_z, self.a, out=g_z)
        loss = 0.5 * (float(np.vdot(z, g_z)) - float(np.vdot(z, self.a)))
        np.einsum("ij,ij->i", g_z, u, out=g_lam)

        # (incidence * g_lam)^T [q | k] = [g of emb Wk | g of emb Wq]
        np.einsum("i,ij->ij", g_lam, self.incidence, out=self.scaled)
        np.matmul(self.scaled.T, self.qku[:, :2 * d], out=g_table[:, :2 * d])
        np.einsum("i,ij->ij", lam, self.incidence, out=self.scaled)
        np.matmul(self.scaled.T, g_z, out=g_table[:, 2 * d:])
        g_tk, g_tq, g_tu = (
            g_table[:, :d], g_table[:, d:2 * d], g_table[:, 2 * d:]
        )

        g_emb, g_wq, g_wk, g_wv, g_wout = self.grads
        np.matmul(p.T, g_tu, out=self.g_cols)
        g_wout[:, self.cols] = self.g_cols
        np.matmul(g_tu, self.w_cols.T, out=g_p)
        np.matmul(emb.T, g_tq, out=g_wq)
        np.matmul(emb.T, g_tk, out=g_wk)
        np.matmul(emb.T, g_p, out=g_wv)
        # p is spent; it holds the second and third terms of g_emb
        np.matmul(g_tq, wq.T, out=g_emb)
        np.add(g_emb, np.matmul(g_tk, wk.T, out=p), out=g_emb)
        np.add(g_emb, np.matmul(g_p, wv.T, out=p), out=g_emb)
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
    joint: JointDistribution | None = None,
) -> TrainResult:
    """Train one model on the exact joint of its objective.

    Plain gradient descent with global gradient-norm clipping; the loss is
    the unnormalized quadratic pretraining loss summed over the support.
    Analytic gradients are spot-checked against central differences at
    initialization on every run unless disabled. A caller that already
    holds the objective's joint passes it as `joint`; otherwise it is
    built here.
    """
    settings = TrainSettings() if settings is None else settings
    rng = np.random.default_rng(0) if rng is None else rng
    vocab = params.vocab_size
    if joint is None:
        joint = exact_joint(spec, params)
    elif max(joint.cols) >= vocab or int(joint.tokens.max()) >= vocab:
        raise DomainError(
            f"joint has token ids beyond the vocabulary of {vocab} at "
            f"(r, s, T)=({params.r}, {params.s}, {params.T})"
        )
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
        norm = step.grad_norm()
        if not (math.isfinite(loss) and math.isfinite(norm)):
            raise NumericError(
                f"training diverged at step {i} (loss {loss}, gradient "
                f"norm {norm}) with lr={settings.lr}"
            )
        losses.append(loss)
        scale = settings.lr * min(1.0, settings.clip / norm) if norm > 0 else 0.0
        step.descend(weights, scale)
    emb, wq, wk, wv, w_out = weights
    model = LinearAttentionModel(emb=emb, wq=wq, wk=wk, wv=wv, w_out=w_out)
    return TrainResult(model=model, losses=tuple(losses))

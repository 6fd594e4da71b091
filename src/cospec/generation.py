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

from .cooccurrence import UNMASKED, JointDistribution, unmasked_count
from .errors import DomainError, NumericError
from .toy_model import LabeledSequence, ToyParams


@dataclass
class LinearAttentionModel:
    """Single linear-attention map plus token and output embeddings."""

    emb: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    w_out: np.ndarray

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


def target_catalog(params: ToyParams) -> tuple[int, ...]:
    """Token ids that can ever be generation targets (positions >= 2)."""
    return tuple(range(params.r * params.T, params.vocab_size))


def pooled_attention(model: LinearAttentionModel, tokens) -> np.ndarray:
    """Features of texts: attention summed over all ordered token triples.

    `tokens` is an (n, L) int matrix, one text per row padded with -1 after
    its last token (`JointDistribution.tokens`); the result is (n, d). Per
    text, the sum of (a Wq . b Wk) * (c Wv) over its embedding triples
    collapses to the same polynomial in the embedding sum, which adds one
    column of embeddings at a time into one (n, d) buffer. The products go
    through (n, 1, d) stacks, so that matmul makes one vector-matrix
    product per row, bit-equal to scoring each text alone; a plain (n, d)
    GEMM sums in another order and moves the features in their last bits.
    """
    tokens = np.asarray(tokens)
    real = tokens >= 0
    if (tokens.ndim != 2 or tokens.size == 0 or not real[:, 0].all()
            or (real[:, 1:] > real[:, :-1]).any()):
        raise DomainError(
            "pooled attention needs an (n, L) token matrix whose rows hold "
            "at least one token and pad only after the last one"
        )
    total = model.emb[tokens[:, 0]]
    for j in range(1, tokens.shape[1]):
        np.add(total, model.emb[tokens[:, j]], out=total,
               where=real[:, j, None])
    total = total[:, None]
    q, k, v = total @ model.wq, total @ model.wk, total @ model.wv
    return (q @ k.transpose(0, 2, 1) * v)[:, 0]


def score_losses(z: np.ndarray, penalty=np.mean) -> np.ndarray:
    """Loss of every (row, column) pair under the unit-norm scoring rule.

    Each row of scores is scaled to unit norm (a zero row stays zero); the
    loss of a column is minus its scaled score plus `penalty` of the row's
    squared scaled scores: `np.mean` for negatives drawn uniformly from the
    catalog, `np.max` for the worst one.
    """
    norms = np.linalg.norm(z, axis=1)
    zn = z / np.where(norms > 0, norms, 1.0)[:, None]
    return penalty(zn**2, axis=1)[:, None] - zn


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
    cols = np.array(target_catalog(params))
    w_cols = model.w_out[:, cols]
    corpus = np.array([x.tokens for x in dataset])
    rows = np.arange(len(corpus))
    s = params.s
    per_position: dict[int, float] = {}
    nll_total = 0.0
    for k in range(2, s + 1):
        z = pooled_attention(model, corpus[:, : k - 1]) @ w_cols
        targets = np.searchsorted(cols, corpus[:, k - 1])
        per_position[k] = float(score_losses(z)[rows, targets].mean())
        logz = z - z.max(axis=1, keepdims=True)
        logsm = logz - np.log(np.sum(np.exp(logz), axis=1, keepdims=True))
        nll_total += float(-logsm[rows, targets].mean())
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
    u = unmasked_count(s, rho_m)
    return float(u**3 - (k - 1) ** 3)


@dataclass(frozen=True)
class GenerationBoundTerms:
    """Everything the masked generation bound needs, measured on one model."""

    weights: dict[int, float]
    eta: float
    delta: float
    output_norm: float
    s: int
    rho_m: float


def max_output_discrepancy(model: LinearAttentionModel) -> float:
    """Largest distance between single-triple attention outputs, exactly.

    Each triple output is a scalar lambda = (a Wq . b Wk) times a value
    embedding c Wv. For any fixed pair of value embeddings the squared
    distance is a convex quadratic in (lambda_1, lambda_2), so over the
    product of the realized lambda range with itself the maximum sits at a
    corner. Scanning the four corners for every ordered value pair is
    therefore exact, and avoids the sixth-power enumeration.
    """
    x = model.emb
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
    z = pooled_attention(model, joint.tokens) @ model.w_out[:, list(joint.cols)]
    vals = np.where(joint.dense() > 0, score_losses(z, np.max), -np.inf)
    return float(vals.max())


def generation_bound_terms(
    model: LinearAttentionModel,
    params: ToyParams,
    rho_m: float,
    joint: JointDistribution,
) -> GenerationBoundTerms:
    """Measure the bound's ingredients for one model at one mask ratio.

    `joint` is the mask joint the model trained on. Its rows with u visible
    tokens are those of the one-ratio joint at `rho_m`, with the same
    column catalog and support, so `delta` is taken over them alone.
    """
    u = unmasked_count(params.s, rho_m)
    if u < 2:
        raise DomainError(
            f"bound needs an unmasked count >= 2, got {u} at s={params.s}, "
            f"rho_m={rho_m}"
        )
    rows = (joint.tokens >= 0).sum(axis=1) == u
    if joint.kind != UNMASKED or not rows.any():
        raise DomainError(
            f"bound at rho_m={rho_m} needs a mask joint with rows of {u} "
            f"visible tokens, as a model trained at that ratio has"
        )
    weights = {
        k: misalignment_weight(params.s, rho_m, k) for k in range(2, u + 1)
    }
    own = JointDistribution(kind=joint.kind, tokens=joint.tokens[rows],
                            cols=joint.cols, mass=joint.mass[rows])
    return GenerationBoundTerms(
        weights=weights,
        eta=max_output_discrepancy(model),
        delta=delta_term(model, own),
        output_norm=model.output_norm(),
        s=params.s,
        rho_m=rho_m,
    )


def masked_generation_bound(terms: GenerationBoundTerms) -> float:
    """Upper bound on masked-model generation loss from measured terms."""
    u = unmasked_count(terms.s, terms.rho_m)
    acc = 0.0
    for k, w in terms.weights.items():
        acc += w**2 / (k - 1) ** 6 + w * terms.output_norm**2 * terms.eta
    return acc / (2.0 * u) + terms.delta + 1.0


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

    Every text of the toy corpus comes from one class, and each class owns
    `m = V / r` tokens, so each joint row's tokens and targets lie in one
    class block. The step groups the rows by class and orders the
    vocabulary class-major. Per class it keeps the (rows, 3, m) stack
    `[x | x | a]`: `x` holds the rows' token counts over the class's m
    tokens, `a` their joint mass on the class's own target columns. A
    class with fewer rows or columns than another is padded with zeros,
    which add exact zeros.

    - Tables, per class: `[A | M | U]`. `A = Tq Tk^T` and
      `M = (Tu * pg) Tu^T` are its (m, m) blocks, and `U` is its own
      columns of `Tu`, where `Tq = emb Wq`, `Tk = emb Wk` and
      `Tu = emb Wv W_cols`.
    - Forward: one batched GEMM `x [A | M | U]` and one row dot with
      `[x | x | a]` give `lam = x A x^T`, `Q = x M x^T` and `R = x U a^T`.
      The loss `sum(pc lam^2 Q - lam R)` equals `<z, pc pg^T z> - <z, a>`
      for `z = lam (x Tu)`.
    - Backward: one batched GEMM `x^T [w_A x | w_M x | lam a]`, where
      `w_A = 2 pc lam Q - R` and `w_M = 2 pc lam^2`, gives `g_A`, `2 g_M`
      and `g_U`. Then `g_Tq = g_A Tk` and `g_Tk = g_A Tq`;
      `g_Tu = 2 g_M (Tu * pg)`, less `g_U` on the class's own columns; and
      the five weight gradients follow from vocabulary-sized products.

    So the row work is two GEMMs with an inner size of m, and no
    (rows x cols) array is formed. Every buffer is allocated here once;
    each call overwrites `grads` in place, and the row scalings go through
    `einsum`, which needs no broadcast buffer. The plain chain rule through
    `incidence @ emb` sums in another order, so the two agree to rounding,
    not bit for bit. A row whose tokens or targets leave one class block
    is a `DomainError` naming the row.
    """

    def __init__(self, arrays, weights, params: ToyParams):
        incidence, a, pc, self.pg, self.cols = arrays
        vocab, d = weights[0].shape
        r, c = params.r, len(self.cols)
        m = vocab // r
        token_class = np.arange(vocab) // params.T % r
        row_class = token_class[np.argmax(incidence != 0, axis=1)]
        col_class = token_class[self.cols]
        astray = (
            ((incidence != 0) & (token_class != row_class[:, None])).any(1)
            | ((a != 0) & (col_class != row_class[:, None])).any(1)
        )
        if astray.any():
            i = int(np.argmax(astray))
            tokens = np.flatnonzero(incidence[i]).tolist()
            raise DomainError(
                f"joint row {i} (tokens {tokens}, targets "
                f"{self.cols[a[i] != 0].tolist()}) does not lie in one class "
                f"block at r={r}, T={params.T}"
            )
        self.perm = np.argsort(token_class, kind="stable")
        self.unperm = np.argsort(self.perm)
        rows = [np.flatnonzero(row_class == y) for y in range(r)]
        n = max(map(len, rows))
        self.xxa = np.zeros((r, n, 3, m))
        self.pc2 = np.zeros((r, n))
        block = np.zeros((r, m), dtype=np.intp)
        for y, rows_y in enumerate(rows):
            x_y = incidence[np.ix_(rows_y, self.perm[y * m:(y + 1) * m])]
            cols_y = np.flatnonzero(col_class == y)
            self.xxa[y, :len(rows_y), :2] = x_y[:, None]
            self.xxa[y, :len(rows_y), 2, :len(cols_y)] = a[
                np.ix_(rows_y, cols_y)]
            self.pc2[y, :len(rows_y)] = 2.0 * pc[rows_y]
            block[y, :len(cols_y)] = cols_y
        # flat indices into Tu of each class's own (token, column) block;
        # a padded column reads column 0 against zero mass
        self.block = np.arange(vocab).reshape(r, m, 1) * c + block[:, None]
        self.table = np.empty((r, m, 3, m))
        self.xt = np.empty((r, n, 3, m))
        self.g_table = np.empty((r, m, 3, m))
        # per row [w_A, w_M, lam, Q, R]: the row dots fill the last three,
        # and the first three scale the row's [x | x | a]
        self.rowvals = np.empty((r, n, 5))
        self.pl = np.empty((r, n))  # 2 pc lam
        self.emb = np.empty((vocab, d))
        self.w3 = np.empty((d, 3 * d))  # [Wq | Wk | Wv]
        self.t3 = np.empty((r, m, 3 * d))  # [Tq | Tk | emb Wv], class-major
        self.g_t3 = np.empty((r, m, 3 * d))
        self.g_w3 = np.empty((d, 3 * d))
        self.tu, self.tu_pg, self.g_tu = (
            np.empty((vocab, c)) for _ in range(3)
        )
        self.w_cols = np.empty((d, c))
        self.g_cols = np.empty((d, c))
        self.grads = (
            np.zeros_like(weights[0]), *np.split(self.g_w3, 3, axis=1),
            np.zeros_like(weights[4]),
        )
        self.scratch = tuple(np.empty_like(w) for w in weights)

    def __call__(self, weights) -> float:
        """Loss at `weights`; the gradients land in `self.grads`."""
        emb, wq, wk, wv, w_out = weights
        r, n, _, m = self.xxa.shape
        d = wq.shape[0]
        x = self.xxa[:, :, 0]
        table, xt, g_table = self.table, self.xt, self.g_table
        tu, tu_pg, g_tu = self.tu, self.tu_pg, self.g_tu
        tq, tk = self.t3[..., :d], self.t3[..., d:2 * d]
        p = self.t3.reshape(-1, 3 * d)[:, 2 * d:]
        tu3, tu_pg3 = tu.reshape(r, m, -1), tu_pg.reshape(r, m, -1)

        # the tables, over the vocabulary in class-major order
        np.take(emb, self.perm, axis=0, out=self.emb)
        np.concatenate((wq, wk, wv), axis=1, out=self.w3)
        np.take(w_out, self.cols, axis=1, out=self.w_cols, mode="clip")
        np.matmul(self.emb, self.w3, out=self.t3.reshape(-1, 3 * d))
        np.matmul(p, self.w_cols, out=tu)
        np.multiply(tu, self.pg, out=tu_pg)
        np.matmul(tq, tk.transpose(0, 2, 1), out=table[:, :, 0])
        np.matmul(tu_pg3, tu3.transpose(0, 2, 1), out=table[:, :, 1])
        np.take(tu, self.block, out=table[:, :, 2], mode="clip")

        np.matmul(x, table.reshape(r, m, 3 * m), out=xt.reshape(r, n, 3 * m))
        np.einsum("ijsk,ijsk->ijs", xt, self.xxa, out=self.rowvals[..., 2:])
        w_a, w_m, lam, q, rr = self.rowvals.transpose(2, 0, 1)
        np.multiply(self.pc2, lam, out=self.pl)
        np.multiply(self.pl, lam, out=w_m)
        np.multiply(self.pl, q, out=w_a)
        np.subtract(w_a, rr, out=w_a)
        loss = 0.5 * float(np.vdot(w_m, q)) - float(np.vdot(lam, rr))

        # x^T [w_A x | w_M x | lam a] = [g_A | 2 g_M | g_U]
        np.einsum("ijs,ijsk->ijsk", self.rowvals[..., :3], self.xxa, out=xt)
        np.matmul(x.transpose(0, 2, 1), xt.reshape(r, n, 3 * m),
                  out=g_table.reshape(r, m, 3 * m))
        np.matmul(g_table[:, :, 0], tk, out=self.g_t3[..., :d])
        np.matmul(g_table[:, :, 0], tq, out=self.g_t3[..., d:2 * d])
        np.matmul(g_table[:, :, 1], tu_pg3, out=g_tu.reshape(tu3.shape))
        np.subtract.at(g_tu.reshape(-1), self.block, g_table[:, :, 2])

        g_emb, g_wout = self.grads[0], self.grads[4]
        g_t3 = self.g_t3.reshape(-1, 3 * d)
        np.matmul(p.T, g_tu, out=self.g_cols)
        g_wout[:, self.cols] = self.g_cols
        np.matmul(g_tu, self.w_cols.T, out=g_t3[:, 2 * d:])
        np.matmul(self.emb.T, g_t3, out=self.g_w3)
        # the class-major g_emb goes through the spent emb buffer
        np.matmul(g_t3, self.w3.T, out=self.emb)
        np.take(self.emb, self.unperm, axis=0, out=g_emb)
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
    joint: JointDistribution,
    params: ToyParams,
    settings: TrainSettings | None = None,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Train one model on `joint`, the exact joint of its objective.

    Plain gradient descent with global gradient-norm clipping; the loss is
    the unnormalized quadratic pretraining loss summed over the support.
    Analytic gradients are spot-checked against central differences at
    initialization on every run. A joint with a token id beyond the
    vocabulary, or with a row whose tokens or targets span two classes, is
    a `DomainError`.
    """
    settings = TrainSettings() if settings is None else settings
    rng = np.random.default_rng(0) if rng is None else rng
    vocab = params.vocab_size
    if max(joint.cols) >= vocab or int(joint.tokens.max()) >= vocab:
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
    step = _Workspace(_design(joint, vocab), weights, params)
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

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

from .cooccurrence import UNMASKED, JointDistribution, check_texts
from .errors import DomainError, NumericError
from .toy_model import ToyParams, token_label


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
    check_texts(tokens)
    real = tokens >= 0
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


def _scores(model: LinearAttentionModel, joint: JointDistribution):
    """Scores of a joint's conditional texts over its column catalog."""
    return pooled_attention(model, joint.tokens) @ model.w_out[:, joint.cols]


def gen_loss(model: LinearAttentionModel, ar_joint: JointDistribution) -> dict:
    """Quadratic generation loss, averaged over positions 2..s and the corpus.

    `ar_joint` is the next-token joint (`build_ar_joint`). Its rows are the
    distinct prefixes, its columns the target catalog, and its cell
    (prefix, next token) has, at each prefix length, mass proportional to
    the share of corpus sequences that start with that prefix and token. So
    the corpus average at position k is the mass-weighted average over the
    support cells of the length-(k-1) prefixes, and no corpus sequence is
    enumerated. Per cell the prediction is the normalized score vector over
    the catalog; the loss is the negative score of the target plus the mean
    squared score (negatives drawn uniformly from the catalog). Only the
    support cells are read, so no zero mass multiplies a cell's loss, which
    a diverged model can make infinite. Softmax NLL and perplexity are
    reported alongside for orientation only; the bound is about the
    quadratic form. Returns the report entry: `gen_loss` (the average),
    `per_position`, `nll` and `perplexity`.
    """
    z = _scores(model, ar_joint)
    rows, cols = np.nonzero(ar_joint.mass)
    mass = ar_joint.mass[rows, cols]
    lengths = (ar_joint.tokens >= 0).sum(axis=1)[rows]
    logz = z - z.max(axis=1, keepdims=True)
    logsm = logz - np.log(np.sum(np.exp(logz), axis=1, keepdims=True))
    losses = np.stack([score_losses(z)[rows, cols], -logsm[rows, cols]])
    per_position, nlls = {}, []
    for n in np.unique(lengths).tolist():
        at = lengths == n
        loss, nll = np.sum(mass[at] * losses[:, at], axis=1) / np.sum(mass[at])
        per_position[n + 1] = float(loss)
        nlls.append(float(nll))
    nll = sum(nlls) / len(nlls)
    with np.errstate(over="ignore"):  # `write_json` refuses an infinity
        perplexity = float(np.exp(nll))
    return {"gen_loss": float(np.mean(list(per_position.values()))),
            "per_position": per_position, "nll": nll,
            "perplexity": perplexity}


def misalignment_weight(u: int, k: int) -> float:
    """Cubic length-misalignment weight at generation position k, for a
    model that saw u unmasked tokens."""
    return float(u**3 - (k - 1) ** 3)


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
    losses = score_losses(_scores(model, joint), np.max)
    vals = np.where(joint.dense() > 0, losses, -np.inf)
    return float(vals.max())


def generation_bound_terms(
    model: LinearAttentionModel, joint: JointDistribution, u: int
) -> dict:
    """The bound's row for one model at u unmasked tokens.

    Returns `weights` (the misalignment weight of each position 2..u),
    `eta`, `delta`, `output_norm` and the `bound` they give. `joint` is the
    mask joint the model trained on. Its rows with u visible tokens are
    those of the one-ratio joint at the ratio that leaves u, with the same
    column catalog and support, so `delta` is taken over them alone.
    """
    if u < 2:
        raise DomainError(f"bound needs an unmasked count >= 2, got {u}")
    rows = (joint.tokens >= 0).sum(axis=1) == u
    if joint.kind != UNMASKED or not rows.any():
        raise DomainError(
            f"bound at u={u} needs a mask joint with rows of {u} visible "
            f"tokens, as a model trained at that ratio has"
        )
    own = JointDistribution(kind=joint.kind, tokens=joint.tokens[rows],
                            cols=joint.cols, mass=joint.mass[rows])
    terms = {"eta": max_output_discrepancy(model),
             "delta": delta_term(model, own),
             "output_norm": model.output_norm()}
    return {"weights": {k: misalignment_weight(u, k) for k in range(2, u + 1)},
            **terms, "bound": masked_generation_bound(u, **terms)}


def masked_generation_bound(u: int, *, eta: float, delta: float,
                            output_norm: float) -> float:
    """Upper bound on masked-model generation loss at u unmasked tokens,
    from the measured terms."""
    acc = 0.0
    for k in range(2, u + 1):
        w = misalignment_weight(u, k)
        acc += w**2 / (k - 1) ** 6 + w * output_norm**2 * eta
    return acc / (2.0 * u) + delta + 1.0


@dataclass(frozen=True)
class TrainResult:
    model: LinearAttentionModel
    losses: tuple[float, ...]


# Multiply-adds of one row GEMM of the training step: at most this many,
# so that OpenBLAS takes its small-matrix path, which does not pack.
_GEMM_MACS = 10**6


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
    - Forward: a batched GEMM `x [A | M | U]` and one row dot with
      `[x | x | a]` give `lam = x A x^T`, `Q = x M x^T` and `R = x U a^T`.
      The loss `sum(pc lam^2 Q - lam R)` equals `<z, pc pg^T z> - <z, a>`
      for `z = lam (x Tu)`.
    - Backward: a batched GEMM `x^T [w_A x | w_M x | lam a]`, where
      `w_A = 2 pc lam Q - R` and `w_M = 2 pc lam^2`, gives `g_A`, `2 g_M`
      and `g_U`. Then `g_Tq = g_A Tk` and `g_Tk = g_A Tq`;
      `g_Tu = 2 g_M (Tu * pg)`, less `g_U` on the class's own columns; and
      the five weight gradients follow from vocabulary-sized products.

    So the row work is two GEMMs with an inner size of m, and no
    (rows x cols) array is formed. Both run over a contiguous copy of `x`,
    in balanced blocks of rows that each take at most `_GEMM_MACS`
    multiply-adds: past about 10^6 of them OpenBLAS packs its operands,
    and a skinny product pays more for the packing than for the
    arithmetic. The forward GEMM writes each block's rows of its output,
    and the backward one adds the blocks' (m, 3m) products in block order.
    So a class with more rows than one block moves the step's results in
    their last bits; with one block the calls are the whole-array ones.
    Every buffer is allocated here once; each call overwrites `grads` in
    place, and the row scalings go through `einsum`, which needs no
    broadcast buffer. The plain chain rule through `incidence @ emb` sums
    in another order, so the two agree to rounding, not bit for bit. A row
    whose tokens or targets leave one class block is a `DomainError`
    naming the row.
    """

    def __init__(self, joint: JointDistribution, weights, params: ToyParams):
        tokens, a, pc = joint.tokens, joint.dense(), joint.row_marginal()
        self.pg, self.cols = joint.col_marginal(), np.array(joint.cols)
        vocab, d = weights[0].shape
        r, c = params.r, len(self.cols)
        m = vocab // r
        token_class = token_label(params, np.arange(vocab)) - 1
        real = tokens >= 0
        row_class = token_class[tokens[:, 0]]
        col_class = token_class[self.cols]
        astray = ((real & (token_class[tokens] != row_class[:, None])).any(1)
                  | ((a != 0) & (col_class != row_class[:, None])).any(1))
        if astray.any():
            i = int(np.argmax(astray))
            ids = np.unique(tokens[i][real[i]]).tolist()
            raise DomainError(f"joint row {i} (tokens {ids}, targets "
                              f"{self.cols[a[i] != 0].tolist()}) does not lie "
                              f"in one class block at r={r}, T={params.T}")
        self.perm = np.argsort(token_class, kind="stable")
        self.unperm = np.argsort(self.perm)
        rows = [np.flatnonzero(row_class == y) for y in range(r)]
        n = max(map(len, rows))
        self.xxa = np.zeros((r, n, 3, m))
        self.pc2 = np.zeros((r, n))
        block = np.zeros((r, m), dtype=np.intp)
        rank = np.empty(len(tokens), dtype=np.intp)  # row's place in class
        for y, rows_y in enumerate(rows):
            rank[rows_y] = np.arange(len(rows_y))
            cols_y = np.flatnonzero(col_class == y)
            self.xxa[y, :len(rows_y), 2, :len(cols_y)] = a[
                np.ix_(rows_y, cols_y)]
            self.pc2[y, :len(rows_y)] = 2.0 * pc[rows_y]
            block[y, :len(cols_y)] = cols_y
        # each token's count at its place in its class's block, twice
        i, j = np.nonzero(real)
        np.add.at(self.xxa, (row_class[i], rank[i], 0,
                             self.unperm[tokens[i, j]] % m), 1.0)
        self.xxa[:, :, 1] = self.xxa[:, :, 0]
        self.x = self.xxa[:, :, 0].copy()
        # balanced row blocks of at most `_GEMM_MACS // (3 m^2)` rows each
        k = -(-n // max(1, _GEMM_MACS // (3 * m * m)))
        self.spans = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
        self.g_part = np.empty((r, m, 3 * m))
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
        self.grads = (np.zeros_like(weights[0]),
                      *np.split(self.g_w3, 3, axis=1),
                      np.zeros_like(weights[4]))
        self.scratch = tuple(np.empty_like(w) for w in weights)

    def __call__(self, weights) -> float:
        """Loss at `weights`; the gradients land in `self.grads`."""
        emb, wq, wk, wv, w_out = weights
        r, n, _, m = self.xxa.shape
        d = wq.shape[0]
        x, spans = self.x, self.spans
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

        xt3, table3 = xt.reshape(r, n, 3 * m), table.reshape(r, m, 3 * m)
        for rows in spans:
            np.matmul(x[:, rows], table3, out=xt3[:, rows])
        np.einsum("ijsk,ijsk->ijs", xt, self.xxa, out=self.rowvals[..., 2:])
        w_a, w_m, lam, q, rr = self.rowvals.transpose(2, 0, 1)
        np.multiply(self.pc2, lam, out=self.pl)
        np.multiply(self.pl, lam, out=w_m)
        np.multiply(self.pl, q, out=w_a)
        np.subtract(w_a, rr, out=w_a)
        loss = 0.5 * float(np.vdot(w_m, q)) - float(np.vdot(lam, rr))

        # x^T [w_A x | w_M x | lam a] = [g_A | 2 g_M | g_U]
        np.einsum("ijs,ijsk->ijsk", self.rowvals[..., :3], self.xxa, out=xt)
        x_t, g_table3 = x.transpose(0, 2, 1), g_table.reshape(r, m, 3 * m)
        np.matmul(x_t[..., spans[0]], xt3[:, spans[0]], out=g_table3)
        for rows in spans[1:]:
            np.matmul(x_t[..., rows], xt3[:, rows], out=self.g_part)
            np.add(g_table3, self.g_part, out=g_table3)
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


def _spot_check_gradients(weights, step, rng):
    """Central-difference check on three coordinates of every weight, to a
    relative 1e-4.

    The analytic gradients are copied first: each probe evaluation
    overwrites the workspace's gradient buffers.
    """
    h = 1e-6
    step(weights)
    grads = [g.copy() for g in step.grads]
    for idx, w in enumerate(weights):
        flat = w.ravel()
        for _ in range(3):
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
            if abs(fd - an) / scale > 1e-4:
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
    step = _Workspace(joint, weights, params)
    _spot_check_gradients(weights, step, rng)
    losses = []
    # a diverging step overflows; the finiteness test below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(settings.steps):
            loss = step(weights)
            norm = step.grad_norm()
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise NumericError(
                    f"training diverged at step {i} (loss {loss}, gradient "
                    f"norm {norm}) with lr={settings.lr}"
                )
            losses.append(loss)
            scale = (settings.lr * min(1.0, settings.clip / norm)
                     if norm > 0 else 0.0)
            step.descend(weights, scale)
    emb, wq, wk, wv, w_out = weights
    model = LinearAttentionModel(emb=emb, wq=wq, wk=wk, wv=wv, w_out=w_out)
    return TrainResult(model=model, losses=tuple(losses))

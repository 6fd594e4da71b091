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
    The query and key stacks are freed before the value stack is made, and
    that one is scaled in place, so at most three stacks are alive at once.
    """
    tokens = np.asarray(tokens)
    check_texts(tokens)
    real = tokens >= 0
    total = model.emb[tokens[:, 0]]
    for j in range(1, tokens.shape[1]):
        np.add(total, model.emb[tokens[:, j]], out=total,
               where=real[:, j, None])
    total = total[:, None]
    lam = (total @ model.wq) @ (total @ model.wk).transpose(0, 2, 1)
    v = total @ model.wv
    return np.multiply(v, lam, out=v)[:, 0]


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


def scores(model: LinearAttentionModel, joint: JointDistribution):
    """Scores of a joint's conditional texts over its column catalog: the
    one feature pass that `gen_loss` and `delta_term` read."""
    return pooled_attention(model, joint.tokens) @ model.w_out[:, joint.cols]


def gen_loss(model: LinearAttentionModel, ar_joint: JointDistribution, *,
             z=None) -> dict:
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
    `per_position`, `nll` and `perplexity`. `z` is `scores(model,
    ar_joint)` when the caller has it already.
    """
    z = scores(model, ar_joint) if z is None else z
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


def _worst_error(z, support) -> float:
    """Largest `score_losses(z, np.max)` entry over the cells of `support`."""
    return float(np.where(support, score_losses(z, np.max), -np.inf).max())


def delta_term(model: LinearAttentionModel, joint: JointDistribution, *,
               z=None) -> float:
    """Worst pretraining error over a joint's support.

    For each conditional text the prediction is the normalized score vector
    over the joint's column catalog; the per-pair error is the negative
    positive score plus the worst squared score, and the max over the
    support is returned. `z` is `scores(model, joint)` when the caller has
    it already.
    """
    z = scores(model, joint) if z is None else z
    return _worst_error(z, joint.dense() > 0)


def generation_bound_terms(
    model: LinearAttentionModel, joint: JointDistribution, u: int
) -> dict:
    """The bound's row for one model at u unmasked tokens.

    Returns `weights` (the misalignment weight of each position 2..u),
    `eta`, `delta`, `output_norm` and the `bound` they give. `joint` is the
    mask joint the model trained on. Its rows with u visible tokens are the
    one-ratio joint's at the ratio that leaves u, with the same catalog and
    support, so `delta` is taken over them alone, in place: no joint is built.
    """
    if u < 2:
        raise DomainError(f"bound needs an unmasked count >= 2, got {u}")
    rows = np.flatnonzero((joint.tokens >= 0).sum(axis=1) == u)
    if joint.kind != UNMASKED or not len(rows):
        raise DomainError(
            f"bound at u={u} needs a mask joint with rows of {u} visible "
            f"tokens, as a model trained at that ratio has"
        )
    z = pooled_attention(model, joint.tokens[rows]) @ model.w_out[:, joint.cols]
    terms = {"eta": max_output_discrepancy(model),
             "delta": _worst_error(z, joint.mass[rows] > 0),
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


def _depth(rows: int, big_t: int, u: int) -> int:
    """Grid depth of `rows` joint rows with u visible tokens: the deepest
    h <= u whose slot matrix, T^h fills tall, is no taller than the
    rows / T^h patterns it serves."""
    h = 0
    while h < u and big_t ** (2 * h + 2) <= rows:
        h += 1
    return h


def _slot_grids(tokens, mass, params: ToyParams) -> list:
    """The training step's groups of joint rows, as (rows, cells, x).

    Row `rows[i, f]` counts token `cells[i, k]` `x[f, k]` times, and the
    rows of one pattern `rows[i]` share one mass row. Per visible count u
    the depth h is `_depth`'s. A pattern is then a class, u positions and
    the slots at the first u - h of them, whose tokens are cells that
    every fill counts; each of the last h positions adds its T slot
    tokens, and `x` is the (T^h, u - h + hT) slot matrix of their fills.
    A pattern whose rows are not its T^h fills once each, in ascending
    positions and with one mass row, goes to depth 0 with its rows: one
    row per pattern, its tokens (repeats included) as its cells, and `x`
    a row of ones. So every joint row is counted once, whoever built it.
    """
    r, s, big_t = params.r, params.s, params.T
    lengths = (tokens >= 0).sum(axis=1)
    groups = []
    for u in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == u)
        h = _depth(len(rows), big_t, u)
        if h:
            tok = tokens[rows, :u]
            pos, label, slot = np.unravel_index(tok, (s, r, big_t))
            fill = np.ravel_multi_index(tuple(slot[:, u - h:].T),
                                        (big_t,) * h)
            key = np.column_stack((label[:, 0], tok[:, :u - h],
                                   pos[:, u - h:]))
            # patterns in key order, each pattern's rows in fill order
            order = np.lexsort((fill, *key.T[::-1]))
            rows, tok, pos = rows[order], tok[order], pos[order]
            key, fill = key[order], fill[order]
            new = np.r_[True, (key[1:] != key[:-1]).any(axis=1)]
            first = np.flatnonzero(new)
            unit = np.cumsum(new) - 1
            fits = ((fill == np.arange(len(rows)) - first[unit])
                    & (np.diff(pos, axis=1) > 0).all(axis=1)
                    & (mass[rows] == mass[rows[first]][unit]).all(axis=1))
            whole = ((np.bincount(unit) == big_t**h)
                     & np.logical_and.reduceat(fits, first))
            lead = first[whole]
            # the T slot tokens of each gridded position, in slot order
            grid = np.ravel_multi_index(
                (pos[lead, u - h:, None], key[lead, :1, None],
                 np.arange(big_t)), (s, r, big_t))
            cells = np.hstack((tok[lead, :u - h],
                               grid.reshape(len(lead), h * big_t)))
            digits = np.indices((big_t,) * h).reshape(h, -1).T
            x = np.hstack((np.ones((big_t**h, u - h)),
                           (digits[..., None] == np.arange(big_t))
                           .reshape(big_t**h, -1)))
            groups.append((rows[whole[unit]].reshape(-1, big_t**h), cells, x))
            rows = rows[~whole[unit]]
        if len(rows):
            groups.append((rows[:, None], tokens[rows, :u], np.ones((1, u))))
    return [g for g in groups if len(g[0])]


class _Workspace:
    """One training step's loss and gradients, written into fixed buffers.

    Every text of the toy corpus comes from one class, and each class owns
    `m = V / r` tokens, so each joint row's tokens and targets lie in one
    class block. The vocabulary is ordered class-major, and the weights
    live in one flat vector in that training layout: the class-major
    `emb`, `[Wq | Wk | Wv]` and the catalog columns of `w_out` (`views`).
    The gradients `g` have the same layout, so the gradient norm is one
    dot and a descent one multiply and one subtract; `unload` gives the
    model layout back.

    - Tables, per class: `A = Tq Tk^T` and `M = (Tu * pg) Tu^T`, its
      (m, m) blocks over `Tq = emb Wq`, `Tk = emb Wk` and
      `Tu = emb Wv W_cols`, kept as `A + A^T` and `M + M^T`; and
      `W = -2 Tu a^T`, one column per pattern with mass row `a`.
    - Forward, on the slot grid of `_slot_grids`. For a pattern's f cells,
      `lam = x A x^T` over all its fills is `G_A K^T`: `G_A` holds the
      pattern's upper triangle of `A + A^T`, and `K` the matching columns
      of `X (x) X`, the row-wise Kronecker square of the group's slot
      matrix X, with the diagonal ones halved. `Q` is the same with M.
      K's column (k, k) is half X's column k, so `-R = -x Tu a^T` comes
      out of the same GEMM, with W's entries of the cells on the diagonal
      of a third slab. All three slabs of all groups are one gather. The
      loss `sum(pc lam^2 Q - lam R)` equals `<z, pc pg^T z> - <z, a>` for
      `z = lam (x Tu)`.
    - Backward: `[w_A, w_M, lam] K`, where `w_A = 2 pc lam Q - R` and
      `w_M = 2 pc lam^2`, and one `bincount` into the gathered places
      give `H`; `g_A = H_A + H_A^T`, `2 g_M = H_M + H_M^T`, and `H_W`
      carries each pattern's `lam`-weighted cell counts. Then
      `g_Tq = g_A Tk`, `g_Tk = g_A Tq` and
      `g_Tu = 2 g_M (Tu * pg) - 2 H_W a`, and the weight gradients follow
      from vocabulary-sized products.

    So the row work is one gather, two GEMMs per group, one elementwise
    pass and one `bincount`, and no (rows x m) array is formed. Every
    buffer is allocated here once; each call overwrites `g` in place. The
    plain chain rule through `incidence @ emb` sums in another order, so
    the two agree to rounding, not bit for bit. A row whose tokens or
    targets leave one class block is a `DomainError` naming the row.
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
        self.groups = _slot_grids(tokens, a, params)

        # each pattern's place among its class's patterns, and -2 a there
        lead = np.concatenate([rows[:, 0] for rows, _, _ in self.groups])
        lead_class = row_class[lead]
        place = np.empty(len(lead), dtype=np.intp)
        n_pat = int(np.bincount(lead_class, minlength=r).max())
        self.a2 = np.zeros((r, n_pat, c))
        for y in range(r):
            at = np.flatnonzero(lead_class == y)
            place[at] = np.arange(len(at))
            self.a2[y, :len(at)] = -2.0 * a[lead[at]]

        # the gather's source [A + A^T | M + M^T | W | 0], and its indices
        # over every group's three slabs of upper triangles
        at_w = 2 * r * m * m
        zero = at_w + r * m * n_pat
        self.src = np.zeros(zero + 1)
        self.sym = self.src[:at_w].reshape(2, r, m, m)
        self.w_table = self.src[at_w:zero].reshape(r, m, n_pat)
        index, ks, start = [], [], 0
        for rows, cells, x in self.groups:
            k, l = np.triu_indices(cells.shape[1])
            on = k == l
            cm = self.unperm[cells]  # class * m + place in class
            pair = cm[:, k] * m + cm[:, l] % m
            diag = np.full(pair.shape, zero)
            diag[:, on] = (at_w + cm * n_pat
                           + place[start:start + len(rows), None])
            index.append(np.stack((pair, pair + r * m * m, diag)).ravel())
            ks.append(x[:, k] * x[:, l] * np.where(on, 0.5, 1.0))
            start += len(rows)
        self.index = np.concatenate(index)
        self.slab = np.empty(len(self.index))
        self.g_slab = np.empty(len(self.index))
        rows = np.concatenate([rows.ravel() for rows, _, _ in self.groups])
        self.pc2 = 2.0 * pc[rows]
        self.pl = np.empty(len(rows))
        # per row [w_A, w_M, lam, Q, -R]: the forward GEMMs fill the last
        # three, and the first three go into the backward ones
        self.vals = np.empty((5, len(rows)))
        self.passes = []  # per group: K, its slabs and its rows, as views
        s0 = r0 = 0
        for (rows, _, _), k in zip(self.groups, ks):
            n, fills = rows.shape
            s1, r1 = s0 + 3 * n * k.shape[1], r0 + rows.size
            self.passes.append((
                k, self.slab[s0:s1].reshape(3, n, -1),
                self.vals[2:, r0:r1].reshape(3, n, fills),
                self.vals[:3, r0:r1].reshape(3, n, fills),
                self.g_slab[s0:s1].reshape(3, n, -1),
            ))
            s0, r0 = s1, r1

        self.t3 = np.empty((vocab, 3 * d))  # [Tq | Tk | emb Wv], class-major
        self.g_t3 = np.empty((vocab, 3 * d))
        self.tu, self.tu_pg, self.g_tu, self.g_u = (
            np.empty((vocab, c)) for _ in range(4))
        self.am = np.empty((2, r, m, m))
        self.shapes = ((vocab, d), (d, 3 * d), (d, c))
        ends = np.cumsum([math.prod(s) for s in self.shapes]).tolist()
        self.spans = list(zip([0, *ends], ends))
        self.w, self.g, self.scratch = (np.empty(ends[-1]) for _ in range(3))
        emb, w3, w_cols = self._parts(self.w)
        np.take(weights[0], self.perm, axis=0, out=emb)
        np.concatenate(weights[1:4], axis=1, out=w3)
        np.take(weights[4], self.cols, axis=1, out=w_cols)
        self.grads = self.views(self.g)

    def _parts(self, flat):
        """(emb, [Wq | Wk | Wv], w_cols) of a training-layout vector."""
        return tuple(flat[i:j].reshape(shape)
                     for (i, j), shape in zip(self.spans, self.shapes))

    def views(self, flat):
        """The five weights of a training-layout vector, as views: the
        class-major emb, Wq, Wk, Wv and the catalog columns of w_out."""
        emb, w3, w_cols = self._parts(flat)
        return (emb, *np.split(w3, 3, axis=1), w_cols)

    def unload(self, flat, w_out):
        """The model-layout weights of a training-layout vector, as new
        arrays; w_out's columns off the catalog are those of `w_out`."""
        emb, w3, w_cols = self._parts(flat)
        w_out = w_out.copy()
        w_out[:, self.cols] = w_cols
        return (emb[self.unperm], *(w.copy() for w in np.split(w3, 3, axis=1)),
                w_out)

    def __call__(self, w) -> float:
        """Loss at the training-layout weights `w`; the gradients land in
        `g`, which `grads` views."""
        emb, w3, w_cols = self._parts(w)
        g_emb, g_w3, g_cols = self._parts(self.g)
        r, m, _ = self.w_table.shape
        d = w3.shape[0]
        t3, g_t3 = self.t3.reshape(r, m, -1), self.g_t3.reshape(r, m, -1)
        tq, tk, p = t3[..., :d], t3[..., d:2 * d], self.t3[:, 2 * d:]
        tu, tu_pg = self.tu.reshape(r, m, -1), self.tu_pg.reshape(r, m, -1)
        am, swap = self.am, (0, 1, 3, 2)

        # the tables, over the vocabulary in class-major order
        np.matmul(emb, w3, out=self.t3)
        np.matmul(p, w_cols, out=self.tu)
        np.multiply(self.tu, self.pg, out=self.tu_pg)
        np.matmul(tq, tk.transpose(0, 2, 1), out=am[0])
        np.matmul(tu_pg, tu.transpose(0, 2, 1), out=am[1])
        np.add(am, am.transpose(swap), out=self.sym)
        np.matmul(tu, self.a2.transpose(0, 2, 1), out=self.w_table)

        np.take(self.src, self.index, out=self.slab, mode="clip")
        for k, slab, lqr, _, _ in self.passes:
            np.matmul(slab, k.T, out=lqr)
        w_a, w_m, lam, q, minus_r = self.vals
        np.multiply(self.pc2, lam, out=self.pl)
        np.multiply(self.pl, lam, out=w_m)
        np.multiply(self.pl, q, out=w_a)
        np.add(w_a, minus_r, out=w_a)
        loss = 0.5 * float(np.vdot(w_m, q)) + float(np.vdot(lam, minus_r))

        # [w_A, w_M, lam] K, summed into the gathered places
        for k, _, _, wml, g_slab in self.passes:
            np.matmul(wml, k, out=g_slab)
        h = np.bincount(self.index, self.g_slab, minlength=self.src.size)
        h_am = h[:self.sym.size].reshape(am.shape)
        h_w = h[self.sym.size:-1].reshape(self.w_table.shape)
        np.add(h_am, h_am.transpose(swap), out=am)  # [g_A, 2 g_M]
        np.matmul(am[0], tk, out=g_t3[..., :d])
        np.matmul(am[0], tq, out=g_t3[..., d:2 * d])
        np.matmul(am[1], tu_pg, out=self.g_tu.reshape(tu.shape))
        np.matmul(h_w, self.a2, out=self.g_u.reshape(tu.shape))
        np.add(self.g_tu, self.g_u, out=self.g_tu)

        np.matmul(p.T, self.g_tu, out=g_cols)
        np.matmul(self.g_tu, w_cols.T, out=self.g_t3[:, 2 * d:])
        np.matmul(emb.T, self.g_t3, out=g_w3)
        np.matmul(self.g_t3, w3.T, out=g_emb)
        return loss

    def grad_norm(self) -> float:
        """Global l2 norm of the current gradients."""
        return math.sqrt(float(np.dot(self.g, self.g)))

    def descend(self, w, scale: float) -> None:
        """In place, `w -= scale * g` over the whole training layout."""
        np.subtract(w, np.multiply(scale, self.g, out=self.scratch), out=w)


def _spot_check_gradients(w, step, rng):
    """Central-difference check on three coordinates of every weight, to a
    relative 1e-4.

    `w` is the training-layout vector. The analytic gradients are copied
    first: each probe evaluation overwrites the workspace's gradients.
    """
    h = 1e-6
    step(w)
    grads = [g.copy() for g in step.grads]
    for idx, weight in enumerate(step.views(w)):
        for _ in range(3):
            j = int(rng.integers(weight.size))
            at = np.unravel_index(j, weight.shape)
            orig = weight[at]
            weight[at] = orig + h
            up = step(w)
            weight[at] = orig - h
            down = step(w)
            weight[at] = orig
            fd = (up - down) / (2 * h)
            an = grads[idx][at]
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
    initialization on every run. The weights stay in the step's training
    layout until the model is returned. A joint with a token id beyond the
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
    w = step.w
    _spot_check_gradients(w, step, rng)
    losses = []
    # a diverging step overflows; the finiteness test below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(settings.steps):
            loss = step(w)
            norm = step.grad_norm()
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise NumericError(
                    f"training diverged at step {i} (loss {loss}, gradient "
                    f"norm {norm}) with lr={settings.lr}"
                )
            losses.append(loss)
            scale = (settings.lr * min(1.0, settings.clip / norm)
                     if norm > 0 else 0.0)
            step.descend(w, scale)
    model = LinearAttentionModel(*step.unload(w, weights[4]))
    return TrainResult(model=model, losses=tuple(losses))

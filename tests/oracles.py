"""Independent reference implementations used to freeze expected values.

Everything here is written the dumb way on purpose: plain dicts, explicit
loops over full supports, brute-force enumeration. Tests compare the
package's vectorized implementations against these.
"""

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np


def token(position, label, slot, r, T):
    return ((position - 1) * r + (label - 1)) * T + (slot - 1)


def ar_joint_dict(r, s, T):
    """Next-token joint as {(prefix tuple, target id): mass}."""
    out = {}
    for y in range(1, r + 1):
        for i in range(1, s):
            for fill in itertools.product(range(1, T + 1), repeat=i):
                prefix = tuple(
                    token(p, y, j, r, T) for p, j in enumerate(fill, start=1)
                )
                for j in range(1, T + 1):
                    out[(prefix, token(i + 1, y, j, r, T))] = 1.0 / (
                        (s - 1) * r * T ** (i + 1)
                    )
    return out


def masked_joint_dict(r, s, T, rho):
    """Masked joint keyed by (sorted visible-token tuple, target id)."""
    u = s - round(rho * s)
    assert abs(rho * s - round(rho * s)) < 1e-9 and 1 <= u <= s - 1
    mass = 1.0 / (r * math.comb(s, u) * (s - u) * T ** (u + 1))
    out = {}
    for y in range(1, r + 1):
        for visible in itertools.combinations(range(1, s + 1), u):
            for fill in itertools.product(range(1, T + 1), repeat=u):
                cond = tuple(
                    sorted(token(p, y, j, r, T) for p, j in zip(visible, fill))
                )
                for p in range(1, s + 1):
                    if p in visible:
                        continue
                    for j in range(1, T + 1):
                        out[(cond, token(p, y, j, r, T))] = mass
    return out


def dar_joint_dict(r, s, T, t):
    out = {}
    for y in range(1, r + 1):
        for i in range(1, s):
            w = min(i + t, s) - i
            for fill in itertools.product(range(1, T + 1), repeat=i):
                prefix = tuple(
                    token(p, y, j, r, T) for p, j in enumerate(fill, start=1)
                )
                for p in range(i + 1, min(i + t, s) + 1):
                    for j in range(1, T + 1):
                        key = (prefix, token(p, y, j, r, T))
                        out[key] = out.get(key, 0.0) + 1.0 / (
                            (s - 1) * r * w * T ** (i + 1)
                        )
    return out


def normalized_dense(joint_dict):
    """(rows, cols, normalized matrix, row sums, col sums) of a dict joint."""
    rows = sorted({c for c, _ in joint_dict})
    cols = sorted({t for _, t in joint_dict})
    a = np.zeros((len(rows), len(cols)))
    ri = {c: i for i, c in enumerate(rows)}
    ci = {t: j for j, t in enumerate(cols)}
    for (c, t), v in joint_dict.items():
        a[ri[c], ci[t]] = v
    pc = a.sum(axis=1)
    pg = a.sum(axis=0)
    return rows, cols, a / np.sqrt(np.outer(pc, pg)), pc, pg


def pairwise_mean(features):
    """Mean inner product over every pair i < j, one pair at a time."""
    f = np.asarray(features, dtype=float)
    products = [
        float(f[i] @ f[j])
        for i in range(len(f))
        for j in range(i + 1, len(f))
    ]
    return math.fsum(products) / len(products)


def _write_triplets(path, triplets):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_key", "col_token", "value"])
        for key, tok, v in triplets:
            writer.writerow([key, tok, repr(float(v))])


def scan_joint_csv(joint, path):
    """Joint CSV by scanning every (row, column) pair of the catalogs."""
    cells = entries(joint)
    _write_triplets(path, (
        (text_key(text), tok, cells[(text, tok)])
        for text in rows(joint)
        for tok in joint.cols
        if (text, tok) in cells
    ))


def scan_matrix_csv(joint, path):
    """Normalized-matrix CSV by scanning every cell, zeros skipped."""
    keys = ["-".join(str(t) for t in text if t >= 0)
            for text in joint.tokens.tolist()]
    a = joint.normalized
    _write_triplets(path, (
        (key, tok, a[i, j])
        for i, key in enumerate(keys)
        for j, tok in enumerate(joint.cols)
        if a[i, j] != 0.0
    ))


def block_matrix(p_a, p_b, s_a, s_b):
    """Explicit square matrix of constant blocks, diagonal p_a, off p_b."""
    n = s_a * s_b
    m = np.full((n, n), float(p_b))
    for b in range(s_b):
        m[b * s_a:(b + 1) * s_a, b * s_a:(b + 1) * s_a] = p_a
    return m


def brute_pooled(emb, wq, wk, wv, tokens):
    """Attention pooled over all ordered triples, one triple at a time."""
    d = emb.shape[1]
    out = np.zeros(d)
    for a in tokens:
        for b in tokens:
            for c in tokens:
                q = emb[a] @ wq
                k = emb[b] @ wk
                v = emb[c] @ wv
                out += float(q @ k) * v
    return out


def pooled_rows(emb, wq, wk, wv, tokens):
    """Pooled attention of each row of a -1 padded token matrix, one text
    at a time through its embedding sum."""
    out = []
    for row in tokens:
        total = emb[row[row >= 0]].sum(axis=0)
        q = total @ wq
        k = total @ wk
        v = total @ wv
        out.append(float(q @ k) * v)
    return np.stack(out)


def gen_loss_loop(model, params):
    """Per-position quadratic generation loss and softmax NLL, one corpus
    sequence and one prefix at a time: two dicts {k: mean over the
    r * T**s sequences}."""
    r, s, T = params.r, params.s, params.T
    cols = list(range(r * T, params.vocab_size))  # positions 2..s
    quadratic, nll = {}, {}
    for k in range(2, s + 1):
        losses, nlls = [], []
        for y in range(1, r + 1):
            for fill in itertools.product(range(1, T + 1), repeat=s):
                ids = [token(p, y, j, r, T) for p, j in enumerate(fill, 1)]
                f = brute_pooled(model.emb, model.wq, model.wk, model.wv,
                                 ids[:k - 1])
                z = f @ model.w_out[:, cols]
                target = cols.index(ids[k - 1])
                top = max(z)
                nlls.append(top + math.log(math.fsum(math.exp(v - top)
                                                     for v in z))
                            - z[target])
                z = z / np.linalg.norm(z)
                losses.append(-z[target] + np.mean(z**2))
        quadratic[k] = math.fsum(losses) / len(losses)
        nll[k] = math.fsum(nlls) / len(nlls)
    return quadratic, nll


def enumerate_sequences(params, budget=None):
    """Every corpus sequence exactly once: an (r * T**s, s) id matrix.

    Rows are class-major, then lexicographic in the per-position slots, and
    each has probability ``1 / (r * T**s)``. A row's class is
    ``token_label(params, row[0])``. A corpus of more than `budget`
    sequences (by default the enumeration budget) is a `ResourceError`.
    """
    from cospec.errors import ResourceError
    from cospec.toy_model import ENUMERATION_BUDGET, token_id

    budget = ENUMERATION_BUDGET if budget is None else budget
    size = params.r * params.T**params.s
    if size > budget:
        raise ResourceError(
            f"corpus has {size} sequences, over the enumeration "
            f"budget of {budget}; use sample_sequence instead"
        )
    # every slot fill, lexicographic: the C order of the (T,) * s grid
    fills = np.indices((params.T,) * params.s).reshape(params.s, -1).T + 1
    labels = np.arange(1, params.r + 1)[:, None, None]
    ids = token_id(params, np.arange(1, params.s + 1), labels, fills)
    return ids.reshape(-1, params.s)


def brute_eta(emb, wq, wk, wv, ids):
    """Max distance between single-triple outputs by full enumeration."""
    best = 0.0
    for a, b, c in itertools.product(ids, repeat=3):
        g1 = float((emb[a] @ wq) @ (emb[b] @ wk)) * (emb[c] @ wv)
        for x, y, z in itertools.product(ids, repeat=3):
            g2 = float((emb[x] @ wq) @ (emb[y] @ wk)) * (emb[z] @ wv)
            best = max(best, float(np.linalg.norm(g1 - g2)))
    return best


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def design(joint, vocab):
    """The library's former training design: the joint's texts as a dense
    (rows, vocab) token-count incidence, with its mass, marginals and
    column catalog, the arrays `loss_and_grads` takes."""
    real = joint.tokens >= 0
    incidence = np.zeros((len(real), vocab))
    np.add.at(incidence, (np.nonzero(real)[0], joint.tokens[real]), 1.0)
    return (incidence, joint.dense(), joint.row_marginal(),
            joint.col_marginal(), np.array(joint.cols))


def grid_counts(groups, vocab):
    """Every joint row's token counts, rebuilt one row at a time from the
    slot grids of `cospec.generation._slot_grids`: {row: (counts, pattern)}.

    Row `rows[i, f]` of a group counts `cells[i, k]` `x[f, k]` times; a row
    met twice is an `AssertionError`.
    """
    counts = {}
    for g, (rows, cells, x) in enumerate(groups):
        for i in range(rows.shape[0]):
            for f in range(rows.shape[1]):
                row = int(rows[i, f])
                assert row not in counts, f"row {row} is in two patterns"
                c = np.zeros(vocab)
                for k in range(cells.shape[1]):
                    c[cells[i, k]] += x[f, k]
                counts[row] = (c, (g, i))
    return counts


# The training step as plain expressions, one fresh array per operation,
# in the order of the chain rule through s = incidence @ emb. The slot-grid
# step of `cospec.generation._Workspace` orders its sums differently, so the
# two agree to rounding, not bit for bit.
def loss_and_grads(weights, incidence, a, pc, pg, cols):
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


def init_weights(rng, vocab, d, noise):
    """The five starting weights `train_model` draws, in its order."""
    return (
        np.eye(vocab, d) + noise * rng.standard_normal((vocab, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        np.eye(d) + noise * rng.standard_normal((d, d)),
        noise * rng.standard_normal((d, vocab)),
    )


def train_losses_and_weights(arrays, weights, lr, clip, steps):
    """Full-batch clipped GD with the plain step; (losses, final weights)."""
    losses = []
    for _ in range(steps):
        loss, grads = loss_and_grads(weights, *arrays)
        losses.append(loss)
        norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
        scale = lr * min(1.0, clip / norm) if norm > 0 else 0.0
        weights = tuple(w - scale * g for w, g in zip(weights, grads))
    return losses, weights


def sign_fixed_features(matrix, t):
    """Rank-t SVD factors with sqrt(sigma) on each side, after making the
    largest-magnitude entry of every left singular vector nonnegative, one
    vector at a time."""
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    for i in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    scale = np.sqrt(sigma[:t])
    return u[:, :t] * scale[None, :], vt[:t, :].T * scale[None, :]


def _gd_start(matrix, t, rng, init_scale):
    sigma = np.linalg.svd(matrix, compute_uv=False)
    target = float(np.sum(sigma[t:] ** 2))
    threshold = target * 1.001 if target > 1e-9 else 1e-6
    f = init_scale * rng.standard_normal((matrix.shape[0], t))
    w = init_scale * rng.standard_normal((matrix.shape[1], t))
    return threshold, f, w


# `gd_factorize`'s loop as plain expressions, one fresh array per operation.
# The package runs the same operations into buffers it allocates once, and
# must agree with this bit for bit.
def gd_factorize_plain(matrix, t, lr, steps, rng, init_scale=0.1):
    """(f, w, objective, iterations, converged, trajectory), or
    FloatingPointError naming the step whose objective is not finite.

    The coordinate loop: f = [f0 | M] S, so with K = [f0 | M]^T [f0 | M]
    the product K S holds M^T f in its last rows and f^T f = S^T K S."""
    threshold, f0, w = _gd_start(matrix, t, rng, init_scale)
    norm2 = float(np.sum(matrix**2))
    mtf0 = matrix.T @ f0
    k = np.block([[f0.T @ f0, mtf0.T], [mtf0, matrix.T @ matrix]])
    s = np.vstack([np.eye(t), np.zeros((matrix.shape[1], t))])
    trajectory = []
    objective = float("inf")
    converged = False
    iterations = 0
    for i in range(1, steps + 1):
        ks = k @ s
        mtf = ks[t:]
        ftf = s.T @ ks
        wtw = w.T @ w
        objective = norm2 - 2.0 * float(np.sum(mtf * w)) + float(np.sum(ftf * wtw))
        if not np.isfinite(objective):
            raise FloatingPointError(f"step {i}")
        if i == 1 or i % 50 == 0:
            trajectory.append((i, objective))
        iterations = i
        if objective <= threshold + 1e-12:
            converged = True
            break
        s = s - 2.0 * lr * (s @ wtw)
        s = np.vstack([s[:t], s[t:] + 2.0 * lr * w])
        w = w + 2.0 * lr * (mtf - w @ ftf)
    if trajectory[-1][0] != iterations:
        trajectory.append((iterations, objective))
    f = f0 @ s[:t] + matrix @ s[t:]
    return f, w, objective, iterations, converged, tuple(trajectory)


def gd_factorize_gram(matrix, t, lr, steps, rng, init_scale=0.1):
    """:func:`gd_factorize_plain` iterated on f itself in Gram form:
    |M - f w^T|^2 = |M|^2 - 2<f, M w> + <f^T f, w^T w> and the gradients
    -2 (M w - f w^T w), -2 (M^T f - w f^T f)."""
    threshold, f, w = _gd_start(matrix, t, rng, init_scale)
    norm2 = float(np.sum(matrix**2))
    trajectory = []
    objective = float("inf")
    converged = False
    iterations = 0
    for i in range(1, steps + 1):
        mw = matrix @ w
        ftf = f.T @ f
        wtw = w.T @ w
        objective = norm2 - 2.0 * float(np.sum(f * mw)) + float(np.sum(ftf * wtw))
        if not np.isfinite(objective):
            raise FloatingPointError(f"step {i}")
        if i == 1 or i % 50 == 0:
            trajectory.append((i, objective))
        iterations = i
        if objective <= threshold + 1e-12:
            converged = True
            break
        mtf = matrix.T @ f
        f = f + 2.0 * lr * (mw - f @ wtw)
        w = w + 2.0 * lr * (mtf - w @ ftf)
    if trajectory[-1][0] != iterations:
        trajectory.append((iterations, objective))
    return f, w, objective, iterations, converged, tuple(trajectory)


def gd_factorize_residual(matrix, t, lr, steps, rng, init_scale=0.1):
    """:func:`gd_factorize_gram` computed through the residual M - f w^T:
    the same iteration, with the objective summed from the residual."""
    threshold, f, w = _gd_start(matrix, t, rng, init_scale)
    trajectory = []
    objective = float("inf")
    converged = False
    iterations = 0
    for i in range(1, steps + 1):
        residual = matrix - f @ w.T
        objective = float(np.sum(residual**2))
        if not np.isfinite(objective):
            raise FloatingPointError(f"step {i}")
        if i == 1 or i % 50 == 0:
            trajectory.append((i, objective))
        iterations = i
        if objective <= threshold + 1e-12:
            converged = True
            break
        grad_f = -2.0 * residual @ w
        grad_w = -2.0 * residual.T @ f
        f = f - lr * grad_f
        w = w - lr * grad_w
    if trajectory[-1][0] != iterations:
        trajectory.append((iterations, objective))
    return f, w, objective, iterations, converged, tuple(trajectory)


def probe_predict(probe, x):
    """The class a fitted linear probe gives each row of `x`, by argmax."""
    scores = np.asarray(x, float) @ probe.coef
    return [probe.classes[i] for i in np.argmax(scores, axis=1)]


def spearman(xs, ys):
    """Rank correlation without ties handling; inputs must be tie-free."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def tv_distance(p, q):
    """Total variation between two dict-valued distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def ar_reference_loss(model, x, params):
    """Next-token loss of the (s,) ids `x`, computed directly, without the
    mask machinery.

    Mirrors what the grouped pipeline must reduce to at width 1: for each
    position the query is that position's position-embedding row, keys and
    values come from the strictly earlier content rows.
    """
    d = model.emb.shape[1]
    h0 = model.emb[x] + model.pos
    keys = h0 @ model.wk
    values = h0 @ model.wv
    cols = list(range(params.r * params.T, params.vocab_size))
    col_index = {c: i for i, c in enumerate(cols)}
    w_cols = model.w_out[:, cols]
    losses = []
    for p in range(2, params.s + 1):
        q = model.pos[p - 1] @ model.wq
        logits = keys[: p - 1] @ q / np.sqrt(d)
        logits -= logits.max()
        attn = np.exp(logits)
        attn /= attn.sum()
        z = (attn @ values[: p - 1]) @ w_cols
        norm = np.linalg.norm(z)
        if norm > 0:
            z = z / norm
        losses.append(
            -float(z[col_index[int(x[p - 1])]]) + float(np.mean(z**2))
        )
    return float(np.mean(losses))


def _per_text_attention(queries, keys, values, mask):
    d = queries.shape[1]
    logits = queries @ keys.T / np.sqrt(d) + mask
    alive = np.isfinite(logits).any(axis=1)
    out = np.zeros_like(queries)
    if alive.any():
        l = logits[alive]
        l = l - l.max(axis=1, keepdims=True)
        p = np.exp(l)
        p /= p.sum(axis=1, keepdims=True)
        out[alive] = p @ values
    return out


def per_text_forward(model, tokens, groups):
    """One text's two-stream layer on its own: (content, query) outputs.

    `groups` is the group of each position. Rows whose keys are all
    forbidden output zero; only the allowed rows go through the softmax.
    """
    g = np.array(groups)
    content = np.where(g[:, None] >= g[None, :], 0.0, -np.inf)
    query = np.where(g[:, None] > g[None, :], 0.0, -np.inf)
    h = model.emb[list(tokens)] + model.pos
    keys = h @ model.wk
    values = h @ model.wv
    return (_per_text_attention(h @ model.wq, keys, values, content),
            _per_text_attention(model.pos @ model.wq, keys, values, query))


def query_drift_loop(model, groups, params, rng, trials):
    """The worst query-row drift, one text and one forward at a time.

    Draws exactly as the package does: per trial a class, a text, then one
    redrawn text per predicted group, which keeps the text before the
    group's first position.
    """
    from cospec.toy_model import sample_sequence

    worst = 0.0
    for _ in range(max(1, trials)):
        label = int(rng.integers(1, params.r + 1))
        x = sample_sequence(params, label, rng).tolist()
        _, g_ref = per_text_forward(model, x, groups)
        for g in range(2, max(groups) + 1):
            rows = [p for p, gp in enumerate(groups) if gp == g]
            other = sample_sequence(params, label, rng).tolist()
            tokens = x[:rows[0]] + other[rows[0]:]
            _, g_new = per_text_forward(model, tokens, groups)
            worst = max(worst,
                        float(np.max(np.abs(g_new[rows] - g_ref[rows]))))
    return worst


def lookahead_position_law(s: int, t: int) -> dict[tuple[int, int], float]:
    """Exact (prefix length, target position) law of the lookahead sampler."""
    out = {}
    for k in range(1, s):
        window = min(k + t, s) - k
        for p in range(k + 1, k + window + 1):
            out[(k, p)] = 1.0 / ((s - 1) * window)
    return out


# The library's former single-pair sampler, dict joint builder and the
# helpers nothing in `src/` uses: the reference law of `sample_pairs`, the
# builder of hand-made joints, and checks kept with their tests.


def sample_pair(spec, x, rng):
    """Draw one (conditional text, target token) pair from the ids `x`.

    The law matches the exact joint builders: a prefix length uniform over
    1..s-1 and the target uniform over its window, or a count uniform over
    the grid, a uniform size-u visible set and the target uniform over the
    rest. Two spellings of one objective parse to equal specs, so they draw
    the same stream.
    """
    from cospec.cooccurrence import admissible_counts
    from cospec.errors import DomainError

    x = np.asarray(x).tolist()
    s = len(x)
    if s < 2:
        raise DomainError(f"sequence length must be >= 2, got {s}")
    if spec.width is not None:
        k = int(rng.integers(1, s))
        target_pos = int(rng.integers(k, min(k + spec.width, s)))
        return prefix_text(x[:k]), x[target_pos]
    counts = admissible_counts(s, spec.rho_lo, spec.rho_hi)
    u = counts[int(rng.integers(len(counts)))]
    visible = np.sort(rng.choice(s, size=u, replace=False))
    hidden = np.setdiff1d(np.arange(s), visible)
    target_pos = int(rng.choice(hidden))
    return unmasked_text(x[p] for p in visible), x[target_pos]


@dataclass(frozen=True, order=True)
class ConditionalText:
    """Canonical key for the conditioning side of a pretraining pair.

    A prefix keeps its tokens in sequence order; an unmasked set keeps them
    sorted, which (because ids are position-major) is position order. Token
    ids encode their own positions, so no separate position list is stored.
    """

    kind: str
    tokens: tuple[int, ...]


def rows(joint):
    """A joint's `tokens` as a tuple of `ConditionalText`, pads dropped."""
    return tuple(
        ConditionalText(joint.kind, tuple(t for t in text if t >= 0))
        for text in joint.tokens.tolist()
    )


def entries(joint):
    """A joint's nonzero cells as a {(ConditionalText, token): mass} dict."""
    texts = rows(joint)
    return {
        (texts[i], joint.cols[j]): float(joint.mass[i, j])
        for i in range(len(texts))
        for j in range(len(joint.cols))
        if joint.mass[i, j] != 0.0
    }


def from_entries(entries):
    """A `JointDistribution` from a {(ConditionalText, token): mass} dict.

    Zero masses are dropped; keys of two kinds, or texts that are empty or
    hold a negative id, are a `DomainError`. The constructor checks the rest.
    """
    from cospec.cooccurrence import JointDistribution
    from cospec.errors import DomainError

    entries = {k: float(v) for k, v in entries.items() if v != 0.0}
    if not entries:
        raise DomainError("joint distribution has empty support")
    kinds = {text.kind for text, _ in entries}
    if len(kinds) != 1:
        raise DomainError(f"joint mixes conditional kinds {sorted(kinds)}")
    texts = sorted({text.tokens for text, _ in entries})
    if any(not t or min(t) < 0 for t in texts):
        raise DomainError("conditional texts need token ids, all >= 0")
    cols = tuple(sorted({tok for _, tok in entries}))
    ri = {text: i for i, text in enumerate(texts)}
    ci = {tok: j for j, tok in enumerate(cols)}
    mass = np.zeros((len(texts), len(cols)))
    mass[[ri[t.tokens] for t, _ in entries],
         [ci[c] for _, c in entries]] = list(entries.values())
    width = max(map(len, texts))
    tokens = np.array([t + (-1,) * (width - len(t)) for t in texts])
    return JointDistribution(kind=kinds.pop(), tokens=tokens, cols=cols,
                             mass=mass)


def padded(spectrum, n):
    """A spectrum with zeros appended up to length n."""
    return np.pad(spectrum, (0, n - len(spectrum)))


def block_matrix_spectrum(p_a, p_b, s_a, s_b):
    """Spectrum of the (s_a*s_b) square matrix of constant blocks.

    Diagonal blocks are all-p_a, off-diagonal all-p_b, each block s_a
    square: sigma_1 = |s_a*p_a + (s_b-1)*s_a*p_b|, then s_b - 1 copies of
    s_a*|p_a - p_b|, then zeros. The matrix is symmetric, so singular
    values are eigenvalue magnitudes; the leading one can be the smaller.
    """
    from cospec.errors import DomainError
    from cospec.spectral import _spectrum

    if s_a < 1 or s_b < 1:
        raise DomainError(f"block sizes must be >= 1, got {s_a}, {s_b}")
    values = np.zeros(s_a * s_b)
    values[0] = abs(s_a * p_a + (s_b - 1) * s_a * p_b)
    values[1:s_b] = s_a * abs(p_a - p_b)
    return _spectrum(values)


def labeling_error(joint, labeler):
    """Mass of entries whose conditional and target disagree on class.

    `labeler` maps a token id to its class; it is called once per distinct
    token. Every token of a conditional text must agree on the class,
    otherwise the row has no well-defined label and the joint is malformed
    for this measure.
    """
    from cospec.errors import DomainError

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


def row_keys(tokens):
    """The library's former row keys: each text's token ids joined by `-`,
    as a `U` array built with `np.char`, one id spelling at a time.

    A text is padded with -1 only after its last token, and the pad,
    indexing the last spelling, spells nothing.
    """
    names = np.array([str(t) for t in range(tokens.max(initial=0) + 1)] + [""])
    dashed = np.char.add("-", names)
    dashed[-1] = ""
    keys = names[tokens[:, 0]]
    for k in range(1, tokens.shape[1]):
        keys = np.char.add(keys, dashed[tokens[:, k]])
    return keys


def factor_gradients(f, g, a):
    """Analytic gradients of |a - f g^T|^2 in both factors."""
    residual = a - f @ g.T
    return -2.0 * residual @ g, -2.0 * residual.T @ f


def enumerate_per_pattern(params, kind, patterns):
    """The library's former `cooccurrence._enumerate`: one pattern at a time.

    Every class conditions on every slot fill of each pattern's visible
    positions and puts `value` on every slot token of each of its target
    positions. Each pattern's rows and target cells are built on their own,
    with one `np.indices` call per pattern.
    """
    from cospec.cooccurrence import JointDistribution
    from cospec.toy_model import token_id

    r, big_t = params.r, params.T
    kept, n_rows = [], 0
    for visible, targets, value in patterns:
        n_rows += r * big_t ** len(visible)
        kept.append((np.subtract(visible, 1), np.subtract(targets, 1), value))
    base = np.array([
        [token_id(params, p, y, 1) for p in range(1, params.s + 1)]
        for y in range(1, r + 1)
    ])
    width = max(len(visible) for visible, _, _ in kept)
    tokens = np.full((n_rows, width), -1, dtype=base.dtype)
    blocks, n = [], 0
    for visible, targets, v in kept:
        k = len(visible)
        fills = np.indices((big_t,) * k).reshape(k, -1).T
        tokens[n:n + r * len(fills), :k] = (
            base[:, None, visible] + fills).reshape(-1, k)
        cells = (base[:, targets, None] + np.arange(big_t)).reshape(r, -1)
        blocks.append((n, len(fills), cells, v))
        n += r * len(fills)
    order = np.lexsort(tokens.T[::-1])
    rank = np.argsort(order)
    cols = np.unique(np.concatenate([c.ravel() for _, _, c, _ in blocks]))
    mass = np.zeros((n_rows, len(cols)))
    for start, n_fills, cells, v in blocks:
        rows = rank[start:start + r * n_fills].reshape(r, n_fills, 1)
        mass[rows, np.searchsorted(cols, cells)[:, None, :]] = v
    return JointDistribution(kind=kind, tokens=tokens[order],
                             cols=tuple(cols.tolist()), mass=mass)


def joint_from_sampler_by_unique(spec, params, n, rng):
    """The library's former `build_joint_from_sampler`: the same draws,
    counted with `np.unique(axis=0)`, which sorts the texts as void rows."""
    from cospec.cooccurrence import PREFIX, UNMASKED, JointDistribution
    from cospec.objectives import sample_pairs

    r, s, big_t = params.r, params.s, params.T
    labels = rng.integers(r, size=(n, 1))
    slots = rng.integers(big_t, size=(n, s))
    texts, targets = sample_pairs(
        spec, (np.arange(s) * r + labels) * big_t + slots, rng
    )
    texts = texts[:, :int((texts >= 0).sum(axis=1).max())]
    tokens, row = np.unique(texts, axis=0, return_inverse=True)
    cols, col = np.unique(targets, return_inverse=True)
    shape = (len(tokens), len(cols))
    counts = np.bincount(row.ravel() * shape[1] + col,
                         minlength=shape[0] * shape[1])
    kind = PREFIX if spec.width is not None else UNMASKED
    return JointDistribution(kind=kind, tokens=tokens,
                             cols=tuple(cols.tolist()),
                             mass=counts.reshape(shape) / n)


# `ConditionalText`'s constructors and key.


def prefix_text(tokens):
    """A prefix `ConditionalText`: nonempty, in sequence order."""
    from cospec.cooccurrence import PREFIX
    from cospec.errors import DomainError

    tokens = tuple(int(t) for t in tokens)
    if not tokens:
        raise DomainError("prefix must be nonempty")
    return ConditionalText(PREFIX, tokens)


def unmasked_text(tokens):
    """An unmasked-set `ConditionalText`: nonempty, distinct, sorted."""
    from cospec.cooccurrence import UNMASKED
    from cospec.errors import DomainError

    tokens = tuple(sorted(int(t) for t in tokens))
    if not tokens:
        raise DomainError("unmasked set must be nonempty")
    if len(set(tokens)) != len(tokens):
        raise DomainError("unmasked set has duplicate tokens")
    return ConditionalText(UNMASKED, tokens)


def text_key(text):
    """The triplet CSV key of a `ConditionalText`: its ids joined by `-`."""
    return "-".join(str(t) for t in text.tokens)


# The grouped prediction loss and the assignment enumeration that
# `cospec.twostream` formerly held for its tests.


def enumerate_assignments(s):
    """All contiguous assignments of s positions (compositions of s), each
    as the (s,) array of 1-based group ids."""
    from cospec.errors import DomainError

    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    for pattern in range(1 << (s - 1)):
        sizes = []
        run = 1
        for bit in range(s - 1):
            if pattern >> bit & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield np.repeat(np.arange(1, len(sizes) + 1), sizes)


def semi_ar_loss(model, x, a, params):
    """Grouped prediction loss of the (s,) ids `x`: uniform over groups
    2.., uniform within.

    Every predicted token's score vector comes from its query-stream row,
    so all tokens of a group are predicted in parallel from the same
    earlier-group content.
    """
    from cospec.errors import DomainError
    from cospec.generation import score_losses
    from cospec.twostream import two_stream_forward

    _, g_out = two_stream_forward(model, x, a)
    if a[-1] < 2:
        raise DomainError("assignment has a single group; nothing to predict")
    cols = np.arange(params.r * params.T, params.vocab_size)
    group = np.asarray(a)
    pred = group > 1
    z = g_out[pred] @ model.w_out[:, cols]
    targets = np.searchsorted(cols, np.asarray(x)[pred])
    losses = score_losses(z)[np.arange(len(z)), targets]
    # the mean within each predicted group, then over the groups
    group = group[pred] - 2
    return float(np.mean(np.bincount(group, losses) / np.bincount(group)))


# The grouped prediction law, the stated next-token spectrum and the
# factor-pair reader, which `cospec` formerly held for its tests, and the
# group-size loop that `partition_groups` replaced.


def partition_groups_loop(s, g1, t):
    """Group id per position: sizes g1, then t, t, ..., the last short."""
    sizes = [g1]
    while sum(sizes) < s:
        sizes.append(min(t, s - sum(sizes)))
    return [g for g, n in enumerate(sizes, start=1) for _ in range(n)]


def prediction_weights(s, t):
    """Law of (prefix length, target position) under grouped prediction.

    Averages over the first-group size g1 = 1..t uniformly; within one
    assignment each predicted group is weighted uniformly, then its
    positions uniformly. The prefix length of a predicted position is the
    last position of the previous group. Matches the lookahead sampler's
    law exactly when t divides s - 1.
    """
    from cospec.twostream import partition_groups

    out = {}
    for g1 in range(1, t + 1):
        a = partition_groups(s, g1, t)
        n_pred = int(a[-1]) - 1
        for g in range(2, n_pred + 2):
            positions = np.flatnonzero(a == g) + 1
            k = int(positions[0]) - 1
            for p in positions:
                key = (k, int(p))
                out[key] = out.get(key, 0.0) + 1.0 / (
                    t * n_pred * len(positions)
                )
    return out


def predicted_ar_spectrum(params):
    """Stated closed form for the next-token spectrum: r * s ones.

    This overcounts the construction by r unit values (there are s - 1
    prefix lengths, not s); `exact_ar_spectrum` is what numeric SVD
    reproduces. The comparative claims are phrased against it, and it only
    widens the next-token side of every inequality they assert.
    """
    return np.ones(params.r * params.s)


def load_factor_pair(directory, name="factors"):
    """Read back the (f, g) that `save_factor_pair` wrote, checking its
    header."""
    from cospec.errors import DomainError

    with open(os.path.join(directory, f"{name}.json")) as fh:
        header = json.load(fh)
    mats = []
    for key in ("row_file", "col_file"):
        with open(os.path.join(directory, header[key]), newline="") as fh:
            mats.append(
                np.array([[float(v) for v in row] for row in csv.reader(fh)])
            )
    f, g = mats
    if f.shape != (header["rows"], header["rank"]):
        raise DomainError("row factor shape disagrees with header")
    if g.shape != (header["cols"], header["rank"]):
        raise DomainError("column factor shape disagrees with header")
    return f, g

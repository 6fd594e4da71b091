"""Independent reference implementations used to freeze expected values.

Everything here is written the dumb way on purpose: plain dicts, explicit
loops over full supports, brute-force enumeration. Tests compare the
package's vectorized implementations against these.
"""

import csv
import itertools
import math

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
    entries = dict(joint.entries)
    _write_triplets(path, (
        (text.key(), tok, entries[(text, tok)])
        for text in joint.rows
        for tok in joint.cols
        if (text, tok) in entries
    ))


def scan_matrix_csv(m, path):
    """Normalized-matrix CSV by scanning every cell, zeros skipped."""
    keys = ["-".join(str(t) for t in text if t >= 0)
            for text in m.tokens.tolist()]
    _write_triplets(path, (
        (key, tok, m.matrix[i, j])
        for i, key in enumerate(keys)
        for j, tok in enumerate(m.cols)
        if m.matrix[i, j] != 0.0
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


# The training step as plain expressions, one fresh array per operation,
# in the order of the chain rule through s = incidence @ emb. The class-block
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
    """Next-token loss computed directly, without the mask machinery.

    Mirrors what the grouped pipeline must reduce to at width 1: for each
    position the query is that position's position-embedding row, keys and
    values come from the strictly earlier content rows.
    """
    d = model.emb.shape[1]
    h0 = model.emb[list(x.tokens)] + model.pos
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
            -float(z[col_index[x.tokens[p - 1]]]) + float(np.mean(z**2))
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
        x = sample_sequence(params, label, rng)
        _, g_ref = per_text_forward(model, x.tokens, groups)
        for g in range(2, max(groups) + 1):
            rows = [p for p, gp in enumerate(groups) if gp == g]
            other = sample_sequence(params, label, rng)
            tokens = x.tokens[:rows[0]] + other.tokens[rows[0]:]
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
    """Draw one (conditional text, target token) pair from a sequence.

    The law matches the exact joint builders: a prefix length uniform over
    1..s-1 and the target uniform over its window, or a count uniform over
    the grid, a uniform size-u visible set and the target uniform over the
    rest. Two spellings of one objective parse to equal specs, so they draw
    the same stream.
    """
    from cospec.cooccurrence import ConditionalText, admissible_counts
    from cospec.errors import DomainError

    s = len(x.tokens)
    if s < 2:
        raise DomainError(f"sequence length must be >= 2, got {s}")
    if spec.width is not None:
        k = int(rng.integers(1, s))
        target_pos = int(rng.integers(k, min(k + spec.width, s)))
        return ConditionalText.prefix(x.tokens[:k]), x.tokens[target_pos]
    counts = admissible_counts(s, spec.rho_lo, spec.rho_hi)
    u = counts[int(rng.integers(len(counts)))]
    visible = np.sort(rng.choice(s, size=u, replace=False))
    hidden = np.setdiff1d(np.arange(s), visible)
    target_pos = int(rng.choice(hidden))
    text = ConditionalText.unmasked(x.tokens[p] for p in visible)
    return text, x.tokens[target_pos]


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


def factor_gradients(pair, m):
    """Analytic gradients of the factorization objective in both factors."""
    residual = m.matrix - pair.row_factor @ pair.col_factor.T
    grad_row = -2.0 * residual @ pair.col_factor
    grad_col = -2.0 * residual.T @ pair.row_factor
    return grad_row, grad_col

"""Grouped semi-autoregressive prediction with two-stream attention.

Positions are partitioned into consecutive groups; tokens of group g are
predicted in parallel from the content of groups before g. The content
stream may attend to its own group, the query stream only strictly
earlier, and both share projection weights, so a prediction can never see
its own target. Masks are additive 0 / -inf on the attention logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .output import write_csv
from .toy_model import CELL_BUDGET, ToyParams


def partition_groups(s: int, g1: int, t: int) -> np.ndarray:
    """1-based group id per position: a first group of g1, then width-t
    groups, the remainder in the last. A width above s gives the groups of
    width s."""
    if t < 1:
        raise DomainError(f"group width must be >= 1, got {t}")
    if not 1 <= g1 <= t:
        raise DomainError(f"first group size {g1} outside 1..{t}")
    if s < g1:
        raise DomainError(f"sequence length {s} shorter than first group {g1}")
    return np.concatenate([np.ones(g1, int),
                           2 + np.arange(s - g1) // min(t, s)])


def parse_assignment(text: str, s: int) -> np.ndarray:
    """Parse the config form `g1=1,t=2` into an assignment of length s."""
    fields = {}
    for part in text.split(","):
        key, sep, value = part.strip().partition("=")
        if not sep:
            raise DomainError(f"cannot parse assignment field {part!r}")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"g1", "t"}
    if unknown:
        raise DomainError(f"unknown assignment fields {sorted(unknown)}")
    try:
        g1 = int(fields["g1"])
        t = int(fields["t"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"assignment needs integer g1 and t: {text!r}") from exc
    return partition_groups(s, g1, t)


def build_masks(groups) -> tuple[np.ndarray, np.ndarray]:
    """Additive (content, query) masks: content may see up to its own
    group, query only the groups before it. Masks of more cells than
    `CELL_BUDGET` are a `ResourceError`, refused before either is formed."""
    g = np.asarray(groups)
    if len(g) ** 2 > CELL_BUDGET:
        raise ResourceError(f"a mask over {len(g)} positions needs more than "
                            f"{CELL_BUDGET} cells, the cell budget")
    content = np.where(g[:, None] >= g[None, :], 0.0, -np.inf)
    query = np.where(g[:, None] > g[None, :], 0.0, -np.inf)
    return content, query


def _masked_attention(queries, keys, values, mask):
    """Masked softmax attention over the last two axes of stacked inputs.

    Rows with every key forbidden (the first group's queries) output zero
    instead of a NaN softmax; those rows are never read as predictions.
    The other rows go through the softmax and the value product on their
    own, so a text's rows are those of its own run.
    """
    d = queries.shape[-1]
    logits = queries @ np.swapaxes(keys, -1, -2) / np.sqrt(d) + mask
    alive = np.isfinite(mask).any(axis=1)
    l = logits[..., alive, :]
    l = l - l.max(axis=-1, keepdims=True)
    p = np.exp(l)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.zeros_like(queries)
    out[..., alive, :] = p @ values
    return out


def two_stream_layer(h, g, masks, wq, wk, wv):
    """One shared-weight attention layer over both streams.

    The content stream self-attends under the content mask; the query
    stream reads keys and values from the content stream under the strict
    mask, so its output for a position never depends on that position's
    token. `h` and `g` are (positions, dim) or stacks of them; `masks` is
    the (content, query) pair of `build_masks`.
    """
    h = np.asarray(h, float)
    g = np.asarray(g, float)
    if h.shape != g.shape:
        raise DomainError(f"stream shapes differ: {h.shape} vs {g.shape}")
    content, query = masks
    if content.shape != (h.shape[-2], h.shape[-2]):
        raise DomainError(
            f"mask shape {content.shape} does not fit {h.shape[-2]} positions"
        )
    keys = h @ wk
    values = h @ wv
    h_out = _masked_attention(h @ wq, keys, values, content)
    g_out = _masked_attention(g @ wq, keys, values, query)
    return h_out, g_out


@dataclass
class TwoStreamModel:
    """Embeddings plus one shared-weight two-stream layer and output head."""

    emb: np.ndarray
    pos: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    w_out: np.ndarray


def init_two_stream(
    params: ToyParams, dim: int, rng: np.random.Generator
) -> TwoStreamModel:
    scale = 1.0 / np.sqrt(dim)
    return TwoStreamModel(
        emb=scale * rng.standard_normal((params.vocab_size, dim)),
        pos=scale * rng.standard_normal((params.s, dim)),
        wq=scale * rng.standard_normal((dim, dim)),
        wk=scale * rng.standard_normal((dim, dim)),
        wv=scale * rng.standard_normal((dim, dim)),
        w_out=scale * rng.standard_normal((dim, params.vocab_size)),
    )


def two_stream_forward(model: TwoStreamModel, tokens, groups):
    """Run the layer once: content gets token + position, query position only.

    `tokens` is one text or an (n, s) matrix of texts, which run as one
    stack; each text's rows equal those of its own run, bit for bit.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim not in (1, 2) or tokens.shape[-1] != len(groups):
        raise DomainError(
            f"tokens of shape {tokens.shape} do not fit assignment of "
            f"{len(groups)}"
        )
    h0 = model.emb[tokens] + model.pos
    g0 = np.broadcast_to(model.pos, h0.shape)
    return two_stream_layer(h0, g0, build_masks(groups),
                            model.wq, model.wk, model.wv)


def write_mask_csv(mask: np.ndarray, path) -> None:
    """Dump one mask as 0/1 rows; 1 marks an allowed (query, key) pair."""
    write_csv(path, None, list(np.isfinite(mask).astype(int).T))

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

from .errors import DomainError
from .output import write_csv
from .toy_model import ToyParams


@dataclass(frozen=True)
class GroupAssignment:
    """Group index per position, 1-based, non-decreasing in steps of one."""

    groups: tuple[int, ...]

    def __post_init__(self):
        g = self.groups
        if not g:
            raise DomainError("assignment covers no positions")
        if g[0] != 1:
            raise DomainError(f"first group must be 1, got {g[0]}")
        for a, b in zip(g, g[1:]):
            if b not in (a, a + 1):
                raise DomainError(
                    f"groups must be contiguous and non-decreasing, got {g}"
                )

    @classmethod
    def from_sizes(cls, sizes) -> "GroupAssignment":
        sizes = [int(n) for n in sizes]
        if any(n < 1 for n in sizes):
            raise DomainError(f"group sizes must be positive, got {sizes}")
        groups = []
        for g, n in enumerate(sizes, start=1):
            groups.extend([g] * n)
        return cls(groups=tuple(groups))

    @property
    def length(self) -> int:
        return len(self.groups)

    @property
    def num_groups(self) -> int:
        return self.groups[-1]

    def positions_of(self, g: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, gi in enumerate(self.groups) if gi == g)


def partition_groups(s: int, g1: int, t: int) -> GroupAssignment:
    """First group of size g1, then width-t groups, remainder in the last."""
    if t < 1:
        raise DomainError(f"group width must be >= 1, got {t}")
    if not 1 <= g1 <= t:
        raise DomainError(f"first group size {g1} outside 1..{t}")
    if s < g1:
        raise DomainError(f"sequence length {s} shorter than first group {g1}")
    sizes = [g1]
    covered = g1
    while covered < s:
        n = min(t, s - covered)
        sizes.append(n)
        covered += n
    return GroupAssignment.from_sizes(sizes)


def parse_assignment(text: str, s: int) -> GroupAssignment:
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


@dataclass(frozen=True)
class CausalMaskPair:
    """Additive masks: content may see up to its own group, query before it."""

    content: np.ndarray
    query: np.ndarray


def build_masks(a: GroupAssignment) -> CausalMaskPair:
    g = np.array(a.groups)
    content = np.where(g[:, None] >= g[None, :], 0.0, -np.inf)
    query = np.where(g[:, None] > g[None, :], 0.0, -np.inf)
    return CausalMaskPair(content=content, query=query)


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


def two_stream_layer(h, g, masks: CausalMaskPair, wq, wk, wv):
    """One shared-weight attention layer over both streams.

    The content stream self-attends under the content mask; the query
    stream reads keys and values from the content stream under the strict
    mask, so its output for a position never depends on that position's
    token. `h` and `g` are (positions, dim) or stacks of them.
    """
    h = np.asarray(h, float)
    g = np.asarray(g, float)
    if h.shape != g.shape:
        raise DomainError(f"stream shapes differ: {h.shape} vs {g.shape}")
    if masks.content.shape != (h.shape[-2], h.shape[-2]):
        raise DomainError(
            f"mask shape {masks.content.shape} does not fit {h.shape[-2]} positions"
        )
    keys = h @ wk
    values = h @ wv
    h_out = _masked_attention(h @ wq, keys, values, masks.content)
    g_out = _masked_attention(g @ wq, keys, values, masks.query)
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


def two_stream_forward(model: TwoStreamModel, tokens, a: GroupAssignment):
    """Run the layer once: content gets token + position, query position only.

    `tokens` is one text or an (n, s) matrix of texts, which run as one
    stack; each text's rows equal those of its own run, bit for bit.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim not in (1, 2) or tokens.shape[-1] != a.length:
        raise DomainError(
            f"tokens of shape {tokens.shape} do not fit assignment of {a.length}"
        )
    h0 = model.emb[tokens] + model.pos
    g0 = np.broadcast_to(model.pos, h0.shape)
    masks = build_masks(a)
    return two_stream_layer(h0, g0, masks, model.wq, model.wk, model.wv)


def prediction_weights(s: int, t: int) -> dict[tuple[int, int], float]:
    """Law of (prefix length, target position) under grouped prediction.

    Averages over the first-group size g1 = 1..t uniformly; within one
    assignment each predicted group is weighted uniformly, then its
    positions uniformly. The prefix length of a predicted position is the
    last position of the previous group. Matches the lookahead sampler's
    law exactly when t divides s - 1.
    """
    out: dict[tuple[int, int], float] = {}
    for g1 in range(1, t + 1):
        a = partition_groups(s, g1, t)
        n_pred = a.num_groups - 1
        if n_pred == 0:
            continue
        for g in range(2, a.num_groups + 1):
            positions = a.positions_of(g)
            k = positions[0] - 1
            for p in positions:
                key = (k, p)
                out[key] = out.get(key, 0.0) + 1.0 / (
                    t * n_pred * len(positions)
                )
    return out


def write_mask_csv(mask: np.ndarray, path) -> None:
    """Dump one mask as 0/1 rows; 1 marks an allowed (query, key) pair."""
    write_csv(path, None, list(np.isfinite(mask).astype(int).T))

"""Exact joint distributions over (conditional text, target token) pairs.

Each pretraining objective induces a joint distribution: next-token
prediction conditions on a prefix, masked prediction conditions on the
unmasked remainder. The builders here enumerate those joints exactly on the
toy corpus; :func:`normalize` turns a joint into the marginal-normalized
matrix whose singular spectrum drives everything downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError, ResourceError
from .output import write_csv
from .toy_model import ENUMERATION_BUDGET, ToyParams, decode_token, token_id

PREFIX = "prefix"
UNMASKED = "unmasked"


@dataclass(frozen=True, order=True)
class ConditionalText:
    """Canonical key for the conditioning side of a pretraining pair.

    A prefix keeps its tokens in sequence order; an unmasked set keeps them
    sorted, which (because ids are position-major) is position order. Token
    ids encode their own positions, so no separate position list is stored.
    """

    kind: str
    tokens: tuple[int, ...]

    @classmethod
    def prefix(cls, tokens) -> "ConditionalText":
        tokens = tuple(int(t) for t in tokens)
        if not tokens:
            raise DomainError("prefix must be nonempty")
        return cls(PREFIX, tokens)

    @classmethod
    def unmasked(cls, tokens) -> "ConditionalText":
        tokens = tuple(sorted(int(t) for t in tokens))
        if not tokens:
            raise DomainError("unmasked set must be nonempty")
        if len(set(tokens)) != len(tokens):
            raise DomainError("unmasked set has duplicate tokens")
        return cls(UNMASKED, tokens)

    def positions(self, params: ToyParams) -> tuple[int, ...]:
        return tuple(decode_token(params, t)[0] for t in self.tokens)

    def key(self) -> str:
        """Stable string form used in triplet CSV exports."""
        return "-".join(str(t) for t in self.tokens)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Sparse joint over (conditional text, target token), mass summing to 1.

    `tokens` is the sorted catalog of conditional texts of one `kind`: a
    read-only (n_rows, L) int array, one text per row, padded with -1 after
    its last token. The pad sorts below every id, so row order is Python
    tuple order. `cols` is the sorted catalog of target tokens. `row`, `col`
    and `value` are read-only COO arrays into the two catalogs, in catalog
    row-major order with no repeated (row, col) pair.
    """

    kind: str
    tokens: np.ndarray
    cols: tuple[int, ...]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for a in (self.tokens, self.row, self.col, self.value):
            a.flags.writeable = False

    @classmethod
    def from_entries(cls, entries: dict) -> "JointDistribution":
        entries = {k: float(v) for k, v in entries.items() if v != 0.0}
        if not entries:
            raise DomainError("joint distribution has empty support")
        if any(v < 0 for v in entries.values()):
            raise DomainError("joint distribution has a negative entry")
        kinds = {text.kind for text, _ in entries}
        if len(kinds) != 1:
            raise DomainError(f"joint mixes conditional kinds {sorted(kinds)}")
        texts = sorted({text.tokens for text, _ in entries})
        if any(not t or min(t) < 0 for t in texts):
            raise DomainError("conditional texts need token ids, all >= 0")
        cols = tuple(sorted({tok for _, tok in entries}))
        ri = {text: i for i, text in enumerate(texts)}
        ci = {tok: j for j, tok in enumerate(cols)}
        coo = sorted((ri[t.tokens], ci[c], v) for (t, c), v in entries.items())
        row, col, value = (np.array(a) for a in zip(*coo))
        width = max(map(len, texts))
        tokens = np.array([t + (-1,) * (width - len(t)) for t in texts])
        return cls(kind=kinds.pop(), tokens=tokens, cols=cols, row=row,
                   col=col, value=value)

    @functools.cached_property
    def rows(self) -> tuple[ConditionalText, ...]:
        """`tokens` as `ConditionalText` objects, built on first use."""
        return tuple(
            ConditionalText(self.kind, tuple(t for t in text if t >= 0))
            for text in self.tokens.tolist()
        )

    @property
    def entries(self) -> Mapping[tuple[ConditionalText, int], float]:
        """Read-only {(text, token): value} view built from the arrays."""
        keys = zip([self.rows[i] for i in self.row.tolist()],
                   [self.cols[j] for j in self.col.tolist()])
        return MappingProxyType(dict(zip(keys, self.value.tolist())))

    @property
    def total_mass(self) -> float:
        return float(self.value.sum())

    def _once(self, name: str, compute) -> np.ndarray:
        if name not in self._cache:
            a = compute()
            a.flags.writeable = False
            self._cache[name] = a
        return self._cache[name]

    def dense(self) -> np.ndarray:
        """The joint as a rows x cols array; computed once, read-only."""
        n, m = len(self.tokens), len(self.cols)
        return self._once("dense", lambda: np.bincount(
            self.row * m + self.col, self.value, n * m
        ).reshape(n, m))

    def row_marginal(self) -> np.ndarray:
        """Row sums of :meth:`dense`, aligned with `tokens`; read-only."""
        return self._once("row_marginal", lambda: self.dense().sum(axis=1))

    def col_marginal(self) -> np.ndarray:
        """Column sums of :meth:`dense`, aligned with `cols`; read-only."""
        return self._once("col_marginal", lambda: self.dense().sum(axis=0))


@dataclass(frozen=True)
class NormalizedMatrix:
    """Joint divided elementwise by the root product of its marginals.

    `tokens` holds the joint's token rows that carry mass.
    """

    tokens: np.ndarray
    cols: tuple[int, ...]
    matrix: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def normalize(joint: JointDistribution) -> NormalizedMatrix:
    """Build the normalized matrix A / sqrt(outer(row marginal, col marginal)).

    Rows or columns whose marginal is zero carry no mass and are dropped from
    the catalogs; keeping them would divide by zero and only ever contribute
    zero singular values. The result is invariant to any global rescaling of
    the joint, since both marginals rescale by the same factor.
    """
    if not joint.value.size:
        raise DomainError("cannot normalize an empty joint")
    a = joint.dense()
    pc = joint.row_marginal()
    pg = joint.col_marginal()
    keep_r = pc > 0
    keep_c = pg > 0
    a = a[np.ix_(keep_r, keep_c)]
    pc = pc[keep_r]
    pg = pg[keep_c]
    cols = tuple(t for t, k in zip(joint.cols, keep_c) if k)
    total = pc.sum()
    matrix = a / np.sqrt(np.outer(pc, pg))
    return NormalizedMatrix(
        tokens=joint.tokens[keep_r],
        cols=cols,
        matrix=matrix,
        row_weights=pc / total,
        col_weights=pg / total,
    )


def _enumerate(
    params: ToyParams, kind: str, patterns, budget: int
) -> JointDistribution:
    """Exact joint of (visible positions, target positions, value) patterns.

    Every class conditions on every slot fill of each pattern's visible
    positions and puts `value` on every slot token of each of its target
    positions. Distinct patterns give distinct rows, so no two entries add.
    The row count of the whole joint is checked against `budget` while the
    patterns are read, before anything is built.
    """
    r, big_t = params.r, params.T
    kept, n_rows = [], 0
    for visible, targets, value in patterns:
        n_rows += r * big_t ** len(visible)
        if n_rows > budget:
            raise ResourceError(
                f"{kind} joint needs more than {budget} rows, the enumeration "
                "budget; use build_joint_from_sampler instead"
            )
        kept.append((np.subtract(visible, 1), np.subtract(targets, 1), value))
    # Slot j of a (position, class) cell is the cell's slot-1 id plus j - 1.
    base = np.array([
        [token_id(params, p, y, 1) for p in range(1, params.s + 1)]
        for y in range(1, r + 1)
    ])
    width = max(len(visible) for visible, _, _ in kept)
    tokens = np.full((n_rows, width), -1, dtype=base.dtype)
    row, col, value = [], [], []
    n = 0
    for visible, targets, v in kept:
        k = len(visible)
        fills = np.indices((big_t,) * k).reshape(k, -1).T
        text = (base[:, None, visible] + fills).reshape(-1, k)
        cells = base[:, None, targets, None] + np.arange(big_t)
        cells = np.broadcast_to(cells, (r, len(fills), *cells.shape[2:]))
        row.append(np.repeat(np.arange(n, n + len(text)), cells[0, 0].size))
        col.append(cells.ravel())
        value.append(np.full(cells.size, v))
        tokens[n:n + len(text), :k] = text
        n += len(text)
    order = np.lexsort(tokens.T[::-1])  # the last key is the primary one
    cols, col = np.unique(np.concatenate(col), return_inverse=True)
    row = np.argsort(order)[np.concatenate(row)]
    entry = np.lexsort((col, row))
    return JointDistribution(
        kind=kind,
        tokens=tokens[order],
        cols=tuple(cols.tolist()),
        row=row[entry],
        col=col[entry],
        value=np.concatenate(value)[entry],
    )


def build_ar_joint(
    params: ToyParams, budget: int = ENUMERATION_BUDGET
) -> JointDistribution:
    """Exact next-token joint: :func:`build_dar_joint` at width 1.

    Prefix lengths 1..s-1 are weighted uniformly so total mass is exactly 1;
    every entry at length i is then 1 / ((s-1) * r * T**(i+1)). Position-1
    tokens never appear as targets, so they are absent from the column
    catalog.
    """
    return build_dar_joint(params, 1, budget)


# Slack on the unmasked count s * (1 - rho) when it is read as an integer.
_COUNT_SLACK = 1e-9


def unmasked_count(s: int, rho_m: float) -> int:
    """Number of visible positions for a mask ratio, validated to be integral."""
    if not 0.0 < rho_m < 1.0:
        raise DomainError(f"mask ratio must lie in (0, 1), got {rho_m}")
    u = s * (1.0 - rho_m)
    u_int = round(u)
    if abs(u - u_int) > _COUNT_SLACK:
        admissible = [m / s for m in range(1, s)]
        raise DomainError(
            f"mask ratio {rho_m} leaves a non-integer unmasked count "
            f"{u:.4g} at s={s}; admissible ratios: {admissible}"
        )
    if not 1 <= u_int <= s - 1:
        raise DomainError(
            f"unmasked count {u_int} outside 1..{s - 1} at s={s}"
        )
    return int(u_int)


def admissible_ratios(s: int, lo: float, hi: float) -> list[float]:
    """Mask ratios m/s in [lo, hi]; an empty grid is a `DomainError`.

    The ends are read on the unmasked count with the slack of
    :func:`unmasked_count`, which accepts R exactly when R..R has a grid.
    """
    if not 0.0 < lo <= hi < 1.0:
        raise DomainError(f"need 0 < lo <= hi < 1, got [{lo}, {hi}]")
    fewest, most = s * (1.0 - hi), s * (1.0 - lo)
    ratios = [
        m / s for m in range(1, s)
        if fewest - (s - m) <= _COUNT_SLACK and (s - m) - most <= _COUNT_SLACK
    ]
    if not ratios:
        raise DomainError(
            f"no admissible mask ratio in [{lo}, {hi}] at s={s}; admissible "
            f"grid is m/{s} for m in 1..{s - 1}"
        )
    return ratios


def build_masked_joint(
    params: ToyParams, rho_m: float, budget: int = ENUMERATION_BUDGET
) -> JointDistribution:
    """Exact masked-prediction joint: the one-ratio :func:`build_vlm_joint`.

    Conditions on each size-u subset of positions (u = s * (1 - rho_m)) and
    targets one masked position; all nonzero entries share the value
    1 / (r * C(s, u) * (s - u) * T**(u + 1)).
    """
    return _mask_mixture(params, [rho_m], budget)


def build_dar_joint(
    params: ToyParams, t: int, budget: int = ENUMERATION_BUDGET
) -> JointDistribution:
    """Diversity-enhanced next-token joint with lookahead width t.

    The target position is uniform over the window i+1 .. min(i+t, s) behind
    each prefix of length i, so every entry at length i is
    1 / ((s-1) * r * window * T**(i+1)); t = 1 is :func:`build_ar_joint`.
    """
    if t < 1:
        raise DomainError(f"lookahead width must be >= 1, got {t}")
    r, s, big_t = params.r, params.s, params.T

    def windows():
        for i in range(1, s):
            window = min(i + t, s) - i
            mass = 1.0 / ((s - 1) * r * window * big_t ** (i + 1))
            yield range(1, i + 1), range(i + 1, i + window + 1), mass

    return _enumerate(params, PREFIX, windows(), budget)


def build_vlm_joint(
    params: ToyParams,
    rho_lo: float,
    rho_hi: float,
    budget: int = ENUMERATION_BUDGET,
) -> JointDistribution:
    """Variable-ratio masked joint: uniform mixture over admissible ratios.

    This is the exact law of first drawing a mask ratio uniformly from the
    admissible grid in [rho_lo, rho_hi] and then masking at that ratio.
    """
    ratios = admissible_ratios(params.s, rho_lo, rho_hi)
    return _mask_mixture(params, ratios, budget)


def _mask_mixture(params: ToyParams, ratios, budget: int) -> JointDistribution:
    """Masked joints at `ratios`, mixed uniformly, as one enumeration."""
    r, s, big_t = params.r, params.s, params.T

    def masks():
        for rho in ratios:
            u = unmasked_count(s, rho)
            mass = 1.0 / (r * math.comb(s, u) * (s - u) * big_t ** (u + 1))
            for visible in itertools.combinations(range(1, s + 1), u):
                hidden = [p for p in range(1, s + 1) if p not in visible]
                yield visible, hidden, mass / len(ratios)

    return _enumerate(params, UNMASKED, masks(), budget)


def build_joint_from_sampler(
    spec,
    params: ToyParams,
    n: int,
    rng: np.random.Generator,
) -> JointDistribution:
    """Empirical joint from n Monte Carlo draws of an objective's sampler."""
    from .objectives import sample_pair
    from .toy_model import sample_sequence

    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    counts: dict[tuple[ConditionalText, int], int] = {}
    for _ in range(n):
        label = int(rng.integers(1, params.r + 1))
        x = sample_sequence(params, label, rng)
        key = sample_pair(spec, x, rng)
        counts[key] = counts.get(key, 0) + 1
    return JointDistribution.from_entries(
        {k: c / n for k, c in counts.items()}
    )


def write_joint_csv(joint: JointDistribution, path) -> None:
    """Dump a joint as `row_key,col_token,value` triplets, catalog order."""
    _write_triplets(path, joint.tokens, joint.cols, joint.row, joint.col,
                    joint.value)


def write_matrix_csv(m: NormalizedMatrix, path) -> None:
    """Dump a normalized matrix as `row_key,col_token,value`, zeros skipped."""
    i, j = np.nonzero(m.matrix)
    _write_triplets(path, m.tokens, m.cols, i, j, m.matrix[i, j])


def _write_triplets(path, tokens, cols, i, j, values) -> None:
    write_csv(path, ["row_key", "col_token", "value"],
              [_row_keys(tokens)[i], np.array(cols)[j], values])


def _row_keys(tokens) -> np.ndarray:
    """A row key is its text's token ids joined by `-`.

    Each id is spelled once, and the rows of one length are joined together:
    a text is padded with -1 only after its last token.
    """
    names = np.array([str(t) for t in range(tokens.max(initial=-1) + 1)],
                     dtype=object)
    lengths = np.count_nonzero(tokens >= 0, axis=1)
    keys = np.empty(len(tokens), dtype=object)
    for k in range(tokens.shape[1] + 1):
        rows = lengths == k
        keys[rows] = list(map("-".join, names[tokens[rows, :k]].tolist()))
    return keys

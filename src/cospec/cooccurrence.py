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
from .toy_model import ENUMERATION_BUDGET, ToyParams, token_id

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

    def key(self) -> str:
        """Stable string form used in triplet CSV exports."""
        return "-".join(str(t) for t in self.tokens)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint mass over (conditional text, target token), summing to 1.

    `tokens` is the sorted catalog of conditional texts of one `kind`: a
    read-only (n_rows, L) int array, one text per row, padded with -1 after
    its last token. The pad sorts below every id, so row order is Python
    tuple order. `cols` is the sorted catalog of target tokens, and `mass`
    the read-only (n_rows, n_cols) array of the joint over the two catalogs.
    Construction is the one check of a joint: its mass is finite and
    nonnegative, and every row and every column carries some, or it is a
    `DomainError`.
    """

    kind: str
    tokens: np.ndarray
    cols: tuple[int, ...]
    mass: np.ndarray
    _row_marginal: np.ndarray = field(init=False, repr=False)
    _col_marginal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mass = self.mass
        if mass.shape != (len(self.tokens), len(self.cols)):
            raise DomainError(f"mass of shape {mass.shape} does not match "
                              "the catalogs")
        if not mass.size:
            raise DomainError("joint distribution has empty support")
        pc, pg = mass.sum(axis=1), mass.sum(axis=0)
        # A NaN or an infinity anywhere, or an overflow, leaves no finite sum.
        if not np.isfinite(pc.sum()):
            raise DomainError("joint distribution has a non-finite mass")
        if mass.min() < 0:
            raise DomainError("joint distribution has a negative entry")
        if not (pc.min() > 0 and pg.min() > 0):
            raise DomainError("joint distribution has a row or a column "
                              "without mass")
        for a in (self.tokens, mass, pc, pg):
            a.flags.writeable = False
        object.__setattr__(self, "_row_marginal", pc)
        object.__setattr__(self, "_col_marginal", pg)

    @functools.cached_property
    def rows(self) -> tuple[ConditionalText, ...]:
        """`tokens` as `ConditionalText` objects, built on first use."""
        return tuple(
            ConditionalText(self.kind, tuple(t for t in text if t >= 0))
            for text in self.tokens.tolist()
        )

    @property
    def entries(self) -> Mapping[tuple[ConditionalText, int], float]:
        """Read-only {(text, token): mass} view of the nonzero cells."""
        i, j = np.nonzero(self.mass)
        keys = zip([self.rows[k] for k in i.tolist()],
                   [self.cols[k] for k in j.tolist()])
        return MappingProxyType(dict(zip(keys, self.mass[i, j].tolist())))

    def dense(self) -> np.ndarray:
        """The joint as a rows x cols array: `mass`, read-only."""
        return self.mass

    def row_marginal(self) -> np.ndarray:
        """Row sums of :meth:`dense`, aligned with `tokens`; read-only."""
        return self._row_marginal

    def col_marginal(self) -> np.ndarray:
        """Column sums of :meth:`dense`, aligned with `cols`; read-only."""
        return self._col_marginal


@dataclass(frozen=True)
class NormalizedMatrix:
    """Joint divided elementwise by the root product of its marginals.

    `tokens` and `cols` are the joint's catalogs.
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

    Every row and every column of a joint carries mass, so nothing is
    dropped and nothing divides by zero: the result has the joint's shape
    and catalogs. It is invariant to any global rescaling of the joint,
    since both marginals rescale by the same factor. The outer product,
    its root and the quotient share one joint-sized buffer.
    """
    pc, pg = joint.row_marginal(), joint.col_marginal()
    total = pc.sum()
    scale = np.outer(pc, pg)
    return NormalizedMatrix(
        tokens=joint.tokens,
        cols=joint.cols,
        matrix=np.divide(joint.mass, np.sqrt(scale, out=scale), out=scale),
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
    blocks, n = [], 0
    for visible, targets, v in kept:
        k = len(visible)
        fills = np.indices((big_t,) * k).reshape(k, -1).T
        tokens[n:n + r * len(fills), :k] = (
            base[:, None, visible] + fills).reshape(-1, k)
        # Row n + y * len(fills) + f targets every slot of class y's targets.
        cells = (base[:, targets, None] + np.arange(big_t)).reshape(r, -1)
        blocks.append((n, len(fills), cells, v))
        n += r * len(fills)
    order = np.lexsort(tokens.T[::-1])  # the last key is the primary one
    rank = np.argsort(order)  # the catalog row of each row built above
    cols = np.unique(np.concatenate([c.ravel() for _, _, c, _ in blocks]))
    mass = np.zeros((n_rows, len(cols)))
    for start, n_fills, cells, v in blocks:
        rows = rank[start:start + r * n_fills].reshape(r, n_fills, 1)
        mass[rows, np.searchsorted(cols, cells)[:, None, :]] = v
    return JointDistribution(kind=kind, tokens=tokens[order],
                             cols=tuple(cols.tolist()), mass=mass)


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


def admissible_counts(s: int, lo: float, hi: float) -> list[int]:
    """Unmasked counts of the mask ratios m/s in [lo, hi], ascending in ratio.

    The count of m/s is s - m, so the counts descend; an empty grid is a
    `DomainError`. The ends are read on the count with the slack of
    :func:`unmasked_count`, which accepts R exactly when R..R has a grid.
    """
    if not 0.0 < lo <= hi < 1.0:
        raise DomainError(f"need 0 < lo <= hi < 1, got [{lo}, {hi}]")
    fewest, most = s * (1.0 - hi), s * (1.0 - lo)
    counts = [
        u for u in range(s - 1, 0, -1)
        if fewest - u <= _COUNT_SLACK and u - most <= _COUNT_SLACK
    ]
    if not counts:
        raise DomainError(
            f"no admissible mask ratio in [{lo}, {hi}] at s={s}; admissible "
            f"grid is m/{s} for m in 1..{s - 1}"
        )
    return counts


def build_masked_joint(
    params: ToyParams, rho_m: float, budget: int = ENUMERATION_BUDGET
) -> JointDistribution:
    """Exact masked-prediction joint: the one-ratio :func:`build_vlm_joint`.

    Conditions on each size-u subset of positions (u = s * (1 - rho_m)) and
    targets one masked position; all nonzero entries share the value
    1 / (r * C(s, u) * (s - u) * T**(u + 1)).
    """
    return _mask_mixture(params, [unmasked_count(params.s, rho_m)], budget)


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
    counts = admissible_counts(params.s, rho_lo, rho_hi)
    return _mask_mixture(params, counts, budget)


def _mask_mixture(params: ToyParams, counts, budget: int) -> JointDistribution:
    """One enumeration of the masked joints at `counts`, mixed uniformly."""
    r, s, big_t = params.r, params.s, params.T

    def masks():
        for u in counts:
            mass = 1.0 / (r * math.comb(s, u) * (s - u) * big_t ** (u + 1))
            for visible in itertools.combinations(range(1, s + 1), u):
                hidden = [p for p in range(1, s + 1) if p not in visible]
                yield visible, hidden, mass / len(counts)

    return _enumerate(params, UNMASKED, masks(), budget)


def build_joint_from_sampler(
    spec,
    params: ToyParams,
    n: int,
    rng: np.random.Generator,
) -> JointDistribution:
    """Empirical joint from n Monte Carlo draws of an objective's sampler.

    Draws n classes and their slot fills, takes one pair from each sequence
    with one `sample_pairs` call and counts the distinct pairs. The -1 pad
    sorts first, so the rows come out in catalog order.
    """
    from .objectives import sample_pairs

    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    r, s, big_t = params.r, params.s, params.T
    labels = rng.integers(r, size=(n, 1))
    slots = rng.integers(big_t, size=(n, s))
    texts, targets = sample_pairs(
        spec, (np.arange(s) * r + labels) * big_t + slots, rng
    )
    # as wide as the longest text drawn
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


def write_joint_csv(joint: JointDistribution, path) -> None:
    """Dump a joint as `row_key,col_token,value` triplets, catalog order."""
    _write_triplets(path, joint.tokens, joint.cols, joint.mass)


def write_matrix_csv(m: NormalizedMatrix, path) -> None:
    """Dump a normalized matrix as `row_key,col_token,value`, zeros skipped."""
    _write_triplets(path, m.tokens, m.cols, m.matrix)


def _write_triplets(path, tokens, cols, matrix) -> None:
    """The nonzero cells of `matrix` in row-major order, which is COO order."""
    i, j = np.nonzero(matrix)
    write_csv(path, ["row_key", "col_token", "value"],
              [(_row_keys(tokens), i), (np.asarray(cols), j), matrix[i, j]])


def _row_keys(tokens) -> np.ndarray:
    """Each text's token ids joined by `-`, as a `U` array built in numpy.

    Each id is spelled once. A text is padded with -1 only after its last
    token, and the pad, indexing the last spelling, spells nothing.
    """
    names = np.array([str(t) for t in range(tokens.max(initial=0) + 1)] + [""])
    dashed = np.char.add("-", names)
    dashed[-1] = ""
    keys = names[tokens[:, 0]]
    for k in range(1, tokens.shape[1]):
        keys = np.char.add(keys, dashed[tokens[:, k]])
    return keys

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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError
from .output import write_csv
from .toy_model import CELL_BUDGET, ENUMERATION_BUDGET, ToyParams, token_id

PREFIX = "prefix"
UNMASKED = "unmasked"


def check_texts(tokens: np.ndarray) -> None:
    """Refuse, naming the first bad row, what is not a matrix of texts.

    The library's one text format is an (n, L) int matrix, n, L >= 1, with
    one text per row: at least one token id, then -1 pads only.
    """
    if tokens.ndim != 2 or tokens.size == 0:
        raise DomainError(f"texts must be an (n, L) token matrix with n, "
                          f"L >= 1, got shape {tokens.shape}")
    real = tokens >= 0
    bad = (~real[:, 0] | (real[:, 1:] > real[:, :-1]).any(axis=1)
           | (tokens < -1).any(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"row {i} (tokens {tokens[i].tolist()}) is not a "
                          "text: it needs a token first and -1 pads only "
                          "after its last token")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint mass over (conditional text, target token), summing to 1.

    `tokens` is the sorted catalog of conditional texts of one `kind`: a
    read-only (n_rows, L) int array, one text per row, padded with -1 after
    its last token. The pad sorts below every id, so row order is Python
    tuple order. `cols` is the sorted catalog of target tokens, and `mass`
    the read-only (n_rows, n_cols) array of the joint over the two catalogs.
    Construction is the one check of a joint: `tokens` are texts (see
    :func:`check_texts`), its mass is finite and nonnegative, and every row
    and every column carries some, or it is a `DomainError`. The normalized
    matrix and its squared norm are computed once, on first use.
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
        check_texts(self.tokens)
        bad = np.diff(self.cols, prepend=-1) <= 0  # ids >= 0, ascending
        if bad.any():
            j = int(np.argmax(bad))
            raise DomainError(f"cols entry {j} ({self.cols[j]}) is not an "
                              "id >= 0 above the entry before it")
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

    @property
    def rows(self) -> np.ndarray:
        """The conditional texts: `tokens` itself."""
        return self.tokens

    @property
    def entries(self) -> np.ndarray:
        """The (nnz, 2) (row, col) indices of the nonzero cells, COO order."""
        return np.argwhere(self.mass)

    def dense(self) -> np.ndarray:
        """The joint as a rows x cols array: `mass`, read-only."""
        return self.mass

    def row_marginal(self) -> np.ndarray:
        """Row sums of :meth:`dense`, aligned with `tokens`; read-only."""
        return self._row_marginal

    def col_marginal(self) -> np.ndarray:
        """Column sums of :meth:`dense`, aligned with `cols`; read-only."""
        return self._col_marginal

    @functools.cached_property
    def normalized(self) -> np.ndarray:
        """:func:`normalize` of this joint, computed on first use."""
        return normalize(self)

    @functools.cached_property
    def energy(self) -> float:
        """sum(normalized**2), the squared Frobenius norm, computed once."""
        return float(np.sum(self.normalized**2))


def normalize(joint: JointDistribution) -> np.ndarray:
    """The normalized matrix A / sqrt(outer(row marginal, col marginal)).

    Every row and every column of a joint carries mass, so nothing is
    dropped and nothing divides by zero: the read-only result has the
    joint's shape, aligned with its catalogs. `joint.normalized` calls this
    once per joint. It is invariant to any global rescaling of the joint
    that keeps every product of a row and a column marginal a normal float;
    a joint whose products leave that range is a `DomainError`. The outer
    product, its root and the quotient share one joint-sized buffer.
    """
    pc, pg = joint.row_marginal(), joint.col_marginal()
    # Python floats, which underflow and overflow without a warning
    low = float(pc.min()) * float(pg.min())
    high = float(pc.max()) * float(pg.max())
    if not (low >= np.finfo(float).tiny and math.isfinite(high)):
        raise DomainError(f"cannot normalize a joint whose products of "
                          f"marginals run from {low:.3g} to {high:.3g}, "
                          "outside the normal float range; rescale its mass")
    scale = np.outer(pc, pg)
    matrix = np.divide(joint.mass, np.sqrt(scale, out=scale), out=scale)
    matrix.flags.writeable = False  # `joint.normalized` shares it
    return matrix


def _enumerate(params: ToyParams, kind: str, patterns) -> JointDistribution:
    """Exact joint of (visible positions, target positions, value) patterns.

    Every class conditions on every slot fill of each pattern's visible
    positions and puts `value` on every slot token of each of its target
    positions. Distinct patterns give distinct rows, so no two entries add.
    This only builds: the builders size the joint with
    :func:`check_joint_size` before they form a pattern. Patterns with as
    many visible and as many target positions form one group, whose rows,
    target cells and masses each come from one broadcast.
    """
    r, big_t = params.r, params.T
    groups, n_rows = {}, 0
    for visible, targets, value in patterns:
        n_rows += r * big_t ** len(visible)
        groups.setdefault((len(visible), len(targets)), []).append(
            (visible, targets, value))
    # the id of class y's slot j at position p is ids[y, p, j], 0-based
    ids = token_id(params, np.arange(1, params.s + 1)[:, None],
                   np.arange(1, r + 1)[:, None, None], np.arange(1, big_t + 1))
    width = max(k for k, _ in groups)
    tokens = np.full((n_rows, width), -1, dtype=ids.dtype)
    blocks, n = [], 0
    for (k, _), group in groups.items():
        visible, targets, values = zip(*group)
        fills = np.indices((big_t,) * k).reshape(k, -1).T
        # Row (y, p, f) of a block fills class y's cells at pattern p's
        # visible positions with fill f ...
        texts = ids[:, np.subtract(visible, 1)[:, None], fills]
        size = texts.size // k
        tokens[n:n + size, :k] = texts.reshape(size, k)
        # ... and targets every slot of class y's cells at p's targets.
        cells = ids[:, np.subtract(targets, 1)].reshape(r, len(group), 1, -1)
        blocks.append((n, texts.shape[:3], cells, values))
        n += size
    order = np.lexsort(tokens.T[::-1])  # the last key is the primary one
    rank = np.argsort(order)  # the catalog row of each row built above
    cols = np.unique(np.concatenate([c.ravel() for _, _, c, _ in blocks]))
    mass = np.zeros((n_rows, len(cols)))
    for start, shape, cells, values in blocks:
        rows = rank[start:start + math.prod(shape)].reshape(*shape, 1)
        mass[rows, np.searchsorted(cols, cells)] = np.reshape(
            values, (1, -1, 1, 1))
    return JointDistribution(kind=kind, tokens=tokens[order],
                             cols=tuple(cols.tolist()), mass=mass)


def check_joint_size(params: ToyParams, counts=None) -> None:
    """Refuse, before any of it is formed, an exact joint past the budgets.

    This is the one size rule of an exact joint. `counts` are the unmasked
    counts of a mask joint; None is the prefix family, whose size does not
    depend on its window. A joint has r T^k rows per pattern of k visible
    positions (one pattern per prefix length, C(s, u) per unmasked count
    u), and r T columns per position it targets (positions 2..s, or all
    s). More rows than `ENUMERATION_BUDGET`, or more cells than
    `CELL_BUDGET`, is a `ResourceError`. The sum stops at the first term
    past the row budget, so a refusal costs a few big-int products; the
    largest, C(s, u) at the s = 200,000 the vocabulary budget admits,
    takes about 0.5 s on a 2-core x86 box. The builders call this first,
    and `load_config` calls it for each objective and for the `ar` joint
    that `genbound` and `sweep` score generation on.
    """
    r, s, big_t = params.r, params.s, params.T
    if counts is None:
        kind, targets, groups = PREFIX, s - 1, ((i, 1) for i in range(1, s))
    else:
        kind, targets = UNMASKED, s
        groups = ((u, math.comb(s, u)) for u in counts)
    rows = 0
    for k, patterns in groups:
        rows += r * patterns * big_t**k
        if rows > ENUMERATION_BUDGET:
            raise ResourceError(
                f"{kind} joint needs more than {ENUMERATION_BUDGET} rows, "
                "the enumeration budget; lower params r, s or T"
            )
    cols = r * targets * big_t
    if rows * cols > CELL_BUDGET:
        raise ResourceError(
            f"{kind} joint of {rows} rows and {cols} columns needs more than "
            f"{CELL_BUDGET} cells, the cell budget; lower params r, s or T"
        )


def build_ar_joint(params: ToyParams) -> JointDistribution:
    """Exact next-token joint: :func:`build_dar_joint` at width 1.

    Prefix lengths 1..s-1 are weighted uniformly so total mass is exactly 1;
    every entry at length i is then 1 / ((s-1) * r * T**(i+1)). Position-1
    tokens never appear as targets, so they are absent from the column
    catalog.
    """
    return build_dar_joint(params, 1)


# Slack on the unmasked count s * (1 - rho) when it is read as an integer.
_COUNT_SLACK = 1e-9


def unmasked_count(s: int, rho_m: float) -> int:
    """Number of visible positions for a mask ratio: the one count of the
    range rho_m..rho_m, or a `DomainError`."""
    return admissible_counts(s, rho_m, rho_m)[0]


def admissible_counts(s: int, lo: float, hi: float) -> list[int]:
    """Unmasked counts of the mask ratios m/s in [lo, hi], ascending in ratio.

    The count of m/s is s - m, so the counts descend; an empty grid is a
    `DomainError`. The ends are read on the count with `_COUNT_SLACK`, so a
    ratio written to ten digits, such as 0.3333333333 at s = 3, is on the
    grid. :func:`unmasked_count` reads one ratio R as the range R..R.
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


def build_masked_joint(params: ToyParams, rho_m: float) -> JointDistribution:
    """Exact masked-prediction joint: :func:`build_vlm_joint` at one ratio.

    Conditions on each size-u subset of positions (u = s * (1 - rho_m)) and
    targets one masked position; all nonzero entries share the value
    1 / (r * C(s, u) * (s - u) * T**(u + 1)).
    """
    return build_vlm_joint(params, rho_m, rho_m)


def build_dar_joint(params: ToyParams, t: int) -> JointDistribution:
    """Diversity-enhanced next-token joint with lookahead width t.

    The target position is uniform over the window i+1 .. min(i+t, s) behind
    each prefix of length i, so every entry at length i is
    1 / ((s-1) * r * window * T**(i+1)); t = 1 is :func:`build_ar_joint`.
    """
    if t < 1:
        raise DomainError(f"lookahead width must be >= 1, got {t}")
    check_joint_size(params)
    r, s, big_t = params.r, params.s, params.T

    def windows():
        for i in range(1, s):
            window = min(i + t, s) - i
            mass = 1.0 / ((s - 1) * r * window * big_t ** (i + 1))
            yield range(1, i + 1), range(i + 1, i + window + 1), mass

    return _enumerate(params, PREFIX, windows())


def build_vlm_joint(
    params: ToyParams, rho_lo: float, rho_hi: float
) -> JointDistribution:
    """Variable-ratio masked joint: uniform mixture over admissible ratios.

    This is the exact law of first drawing a mask ratio uniformly from the
    admissible grid in [rho_lo, rho_hi] and then masking at that ratio.
    """
    r, s, big_t = params.r, params.s, params.T
    counts = admissible_counts(s, rho_lo, rho_hi)
    check_joint_size(params, counts)

    def masks():
        for u in counts:
            mass = 1.0 / (r * math.comb(s, u) * (s - u) * big_t ** (u + 1))
            for visible in itertools.combinations(range(1, s + 1), u):
                hidden = [p for p in range(1, s + 1) if p not in visible]
                yield visible, hidden, mass / len(counts)

    return _enumerate(params, UNMASKED, masks())


def write_joint_csv(joint: JointDistribution, path) -> None:
    """Dump a joint as `row_key,col_token,value` triplets, catalog order."""
    _write_triplets(path, joint.tokens, joint.cols, joint.mass)


def write_matrix_csv(joint: JointDistribution, path) -> None:
    """Dump `joint.normalized` as `row_key,col_token,value`, zeros skipped."""
    _write_triplets(path, joint.tokens, joint.cols, joint.normalized)


def _write_triplets(path, tokens, cols, matrix) -> None:
    """The nonzero cells of `matrix` in row-major order, which is COO order.

    Each catalog text and each column token is spelled once, then gathered
    at the cells.
    """
    i, j = np.nonzero(matrix)
    write_csv(path, ["row_key", "col_token", "value"],
              [(tokens, i), (np.asarray(cols), j), matrix[i, j]])

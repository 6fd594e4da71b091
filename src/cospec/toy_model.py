"""Synthetic labeled corpus with disjoint per-position token slots.

A corpus instance is described by three integers: ``r`` classes, ``s``
positions, and ``T`` interchangeable tokens per (position, class) cell.
Every sequence of class ``y`` picks one of its ``T`` slot tokens
independently and uniformly at each position, so the corpus is the uniform
distribution over ``r * T**s`` sequences. Token ids are a bijection from
(position, class, slot) onto ``range(r * s * T)``, which keeps the token
sets of distinct (position, class) cells disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Exact builders and `load_config` refuse more rows or a larger count than
# this; a joint refused for its size points at the `params` r, s and T.
ENUMERATION_BUDGET = 200_000
# Dense arrays over two enumerated axes (a joint's rows x columns, a
# two-stream mask's positions x positions) are refused above this many
# cells, 160 MB of float64; the largest joint a test or bench config
# builds, masked:0.5 at (3, 12, 2), has 177,408 x 72 = 12.8 million.
CELL_BUDGET = 20_000_000


@dataclass(frozen=True)
class ToyParams:
    """Corpus shape: `r` classes, `s` positions, `T` tokens per cell."""

    r: int
    s: int
    T: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"class count r must be >= 1, got {self.r}")
        if self.s < 2:
            raise DomainError(f"sequence length s must be >= 2, got {self.s}")
        if self.T < 1:
            raise DomainError(f"slot size T must be >= 1, got {self.T}")

    @property
    def vocab_size(self) -> int:
        return self.r * self.s * self.T

    def to_dict(self) -> dict:
        return {"r": self.r, "s": self.s, "T": self.T}


def token_id(params: ToyParams, position, label, slot):
    """Map (position, class, slot) to token ids; ints and arrays broadcast.

    Positions, classes and slots are 1-based. The id is the 0-based C-order
    index of the triple on the (s, r, T) grid, so the map is a bijection
    onto ``range(params.vocab_size)`` and ids are position-major.
    """
    try:
        return np.ravel_multi_index((position - 1, label - 1, slot - 1),
                                    (params.s, params.r, params.T))
    except ValueError:
        raise DomainError(
            f"(position, class, slot) = ({position}, {label}, {slot}) "
            f"outside 1..{params.s}, 1..{params.r}, 1..{params.T}"
        ) from None


def decode_token(params: ToyParams, token):
    """Invert :func:`token_id`: (position, class, slot) of an id, or of
    each id of an array as three arrays of its shape."""
    try:
        cell = np.unravel_index(token, (params.s, params.r, params.T))
    except ValueError as exc:  # names the id and the vocabulary size
        raise DomainError(f"token {exc}") from None
    return tuple(index + 1 for index in cell)


def token_label(params: ToyParams, token):
    """The class of a token id, or of each id of an array."""
    return decode_token(params, token)[1]


def sample_sequence(
    params: ToyParams, label: int, rng: np.random.Generator
) -> np.ndarray:
    """The (s,) ids of one sequence of class `label`, slots i.i.d. uniform."""
    if not 1 <= label <= params.r:
        raise DomainError(f"class {label} outside 1..{params.r}")
    slots = rng.integers(1, params.T + 1, size=params.s)
    return token_id(params, np.arange(1, params.s + 1), label, slots)

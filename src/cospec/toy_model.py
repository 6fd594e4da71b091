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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# Exact builders and enumeration refuse instances above this many items;
# callers that need bigger instances are pointed at the sampling path.
ENUMERATION_BUDGET = 200_000


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

    @property
    def corpus_size(self) -> int:
        return self.r * self.T**self.s

    def to_dict(self) -> dict:
        return {"r": self.r, "s": self.s, "T": self.T}


@dataclass(frozen=True)
class LabeledSequence:
    """`s` token ids plus the class that generated them."""

    tokens: tuple[int, ...]
    label: int


def token_id(params: ToyParams, position: int, label: int, slot: int) -> int:
    """Map a (position, class, slot) triple to its token id.

    Positions, classes and slots are 1-based; ids are 0-based and dense, so
    the map is a bijection onto ``range(params.vocab_size)``.
    """
    if not 1 <= position <= params.s:
        raise DomainError(f"position {position} outside 1..{params.s}")
    if not 1 <= label <= params.r:
        raise DomainError(f"class {label} outside 1..{params.r}")
    if not 1 <= slot <= params.T:
        raise DomainError(f"slot {slot} outside 1..{params.T}")
    return ((position - 1) * params.r + (label - 1)) * params.T + (slot - 1)


def decode_token(params: ToyParams, token: int) -> tuple[int, int, int]:
    """Invert :func:`token_id`, returning (position, class, slot)."""
    if not 0 <= token < params.vocab_size:
        raise DomainError(f"token {token} outside [0, {params.vocab_size})")
    cell, slot = divmod(token, params.T)
    position, label = divmod(cell, params.r)
    return position + 1, label + 1, slot + 1


def token_position(params: ToyParams, token: int) -> int:
    return decode_token(params, token)[0]


def token_label(params: ToyParams, token: int) -> int:
    return decode_token(params, token)[1]


def enumerate_sequences(params: ToyParams, budget: int = ENUMERATION_BUDGET):
    """Yield every corpus sequence exactly once, in deterministic order.

    Order is class-major, then lexicographic in the per-position slots. The
    implied probability of each yielded sequence is ``1 / params.corpus_size``.
    """
    if params.corpus_size > budget:
        raise ResourceError(
            f"corpus has {params.corpus_size} sequences, over the enumeration "
            f"budget of {budget}; use sample_sequence instead"
        )
    for label in range(1, params.r + 1):
        for slots in itertools.product(range(1, params.T + 1), repeat=params.s):
            tokens = tuple(
                token_id(params, pos, label, slot)
                for pos, slot in enumerate(slots, start=1)
            )
            yield LabeledSequence(tokens=tokens, label=label)


def sample_sequence(
    params: ToyParams, label: int, rng: np.random.Generator
) -> LabeledSequence:
    """Draw one sequence of the given class, slots i.i.d. uniform."""
    if not 1 <= label <= params.r:
        raise DomainError(f"class {label} outside 1..{params.r}")
    slots = rng.integers(1, params.T + 1, size=params.s)
    tokens = tuple(
        token_id(params, pos, label, int(slot))
        for pos, slot in enumerate(slots, start=1)
    )
    return LabeledSequence(tokens=tokens, label=label)

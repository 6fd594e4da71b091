"""Pretraining objective specs and their (conditional, target) samplers.

Two families: a prefix with a lookahead window of `width` positions
(`dar:N`; `ar` is width 1), and masking at a ratio drawn uniformly from the
admissible grid of a range (`vlm:LO-HI`; `masked:R` is the range R..R).
Config strings use those four spellings; two spellings of one objective
parse to equal specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooccurrence import (
    ConditionalText,
    admissible_counts,
    build_dar_joint,
    build_vlm_joint,
)
from .errors import DomainError
from .toy_model import ENUMERATION_BUDGET, LabeledSequence


@dataclass(frozen=True)
class ObjectiveSpec:
    """One pretraining objective: a lookahead `width`, or a ratio range.

    A prefix objective sets `width` (>= 1); a mask objective sets `rho_lo`
    and `rho_hi` (0 < lo <= hi < 1) and leaves `width` None.
    """

    width: int | None = None
    rho_lo: float | None = None
    rho_hi: float | None = None

    def __post_init__(self):
        lo, hi = self.rho_lo, self.rho_hi
        if self.width is not None:
            if self.width < 1 or lo is not None or hi is not None:
                raise DomainError(f"need a lookahead width >= 1 and no mask "
                                  f"ratios, got {self.width}, [{lo}, {hi}]")
        elif lo is None or hi is None or not 0.0 < lo <= hi < 1.0:
            raise DomainError(
                f"mask-ratio range must satisfy 0 < lo <= hi < 1, "
                f"got [{lo}, {hi}]"
            )

    def label(self) -> str:
        """The config-string spelling of this spec."""
        if self.width == 1:
            return "ar"
        if self.width is not None:
            return f"dar:{self.width}"
        if self.rho_lo == self.rho_hi:
            return f"masked:{self.rho_lo:g}"
        return f"vlm:{self.rho_lo:g}-{self.rho_hi:g}"


def parse_objective(text: str) -> ObjectiveSpec:
    """Parse a config string: ar | masked:RHO | dar:T | vlm:LO-HI."""
    text = text.strip()
    if text == "ar":
        return ObjectiveSpec(width=1)
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise DomainError(f"cannot parse objective {text!r}")
    try:
        if kind == "masked":
            return ObjectiveSpec(rho_lo=float(arg), rho_hi=float(arg))
        if kind == "dar":
            return ObjectiveSpec(width=int(arg))
        if kind == "vlm":
            lo, sep, hi = arg.partition("-")
            if not sep:
                raise DomainError(
                    f"variable-mask range needs LO-HI, got {arg!r}"
                )
            return ObjectiveSpec(rho_lo=float(lo), rho_hi=float(hi))
    except ValueError as exc:
        raise DomainError(f"cannot parse objective {text!r}: {exc}") from exc
    raise DomainError(f"unknown objective kind {kind!r} in {text!r}")


def sample_pair(
    spec: ObjectiveSpec, x: LabeledSequence, rng: np.random.Generator
) -> tuple[ConditionalText, int]:
    """Draw one (conditional text, target token) pair from a sequence.

    The law matches the exact joint builders: a prefix length uniform over
    1..s-1 and the target uniform over its window, or a ratio uniform over
    the grid, a uniform size-u visible set and the target uniform over the
    rest. A one-value draw consumes no generator state, so `dar:1` samples
    exactly as `ar`, and `vlm:R-R` as `masked:R`.
    """
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


def exact_joint(spec: ObjectiveSpec, params, budget: int = ENUMERATION_BUDGET):
    """The exact joint distribution this objective induces on the corpus."""
    if spec.width is not None:
        return build_dar_joint(params, spec.width, budget)
    return build_vlm_joint(params, spec.rho_lo, spec.rho_hi, budget)

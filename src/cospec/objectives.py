"""Pretraining objective specs and their (conditional, target) samplers.

Four objective families: next-token prediction (`ar`), fixed-ratio masking
(`masked:0.5`), diversity-enhanced next-token with a lookahead window
(`dar:2`), and variable-ratio masking over an interval (`vlm:0.25-0.5`).
Config strings use exactly those spellings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooccurrence import ConditionalText, unmasked_count
from .errors import DomainError
from .toy_model import ENUMERATION_BUDGET, LabeledSequence, ToyParams

KINDS = ("ar", "masked", "dar", "vlm")


@dataclass(frozen=True)
class ObjectiveSpec:
    """One pretraining objective; unused fields stay None per kind."""

    kind: str
    rho: float | None = None
    width: int | None = None
    rho_lo: float | None = None
    rho_hi: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown objective kind {self.kind!r}")
        if self.kind == "masked":
            if self.rho is None or not 0.0 < self.rho < 1.0:
                raise DomainError(f"masked ratio must be in (0,1), got {self.rho}")
        if self.kind == "dar":
            if self.width is None or self.width < 1:
                raise DomainError(f"lookahead width must be >= 1, got {self.width}")
        if self.kind == "vlm":
            lo, hi = self.rho_lo, self.rho_hi
            if lo is None or hi is None or not 0.0 < lo <= hi < 1.0:
                raise DomainError(
                    f"variable-mask range must satisfy 0 < lo <= hi < 1, "
                    f"got [{lo}, {hi}]"
                )

    def label(self) -> str:
        """The config-string spelling of this spec."""
        if self.kind == "ar":
            return "ar"
        if self.kind == "masked":
            return f"masked:{self.rho:g}"
        if self.kind == "dar":
            return f"dar:{self.width}"
        return f"vlm:{self.rho_lo:g}-{self.rho_hi:g}"


def parse_objective(text: str) -> ObjectiveSpec:
    """Parse a config string: ar | masked:RHO | dar:T | vlm:LO-HI."""
    text = text.strip()
    if text == "ar":
        return ObjectiveSpec(kind="ar")
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise DomainError(f"cannot parse objective {text!r}")
    try:
        if kind == "masked":
            return ObjectiveSpec(kind="masked", rho=float(arg))
        if kind == "dar":
            return ObjectiveSpec(kind="dar", width=int(arg))
        if kind == "vlm":
            lo, sep, hi = arg.partition("-")
            if not sep:
                raise DomainError(
                    f"variable-mask range needs LO-HI, got {arg!r}"
                )
            return ObjectiveSpec(kind="vlm", rho_lo=float(lo), rho_hi=float(hi))
    except ValueError as exc:
        raise DomainError(f"cannot parse objective {text!r}: {exc}") from exc
    raise DomainError(f"unknown objective kind {kind!r} in {text!r}")


def admissible_ratios(s: int, lo: float, hi: float) -> list[float]:
    """Mask ratios m/s inside [lo, hi] that leave 1..s-1 positions visible."""
    if not 0.0 < lo <= hi < 1.0:
        raise DomainError(f"need 0 < lo <= hi < 1, got [{lo}, {hi}]")
    out = []
    for m in range(1, s):
        rho = m / s
        if lo - 1e-12 <= rho <= hi + 1e-12:
            out.append(rho)
    return out


def _masked_pair(x, rho, rng):
    s = len(x.tokens)
    # Only the sequence length enters the unmasked count.
    u = unmasked_count(ToyParams(1, s, 1), rho)
    visible = np.sort(rng.choice(s, size=u, replace=False))
    hidden = np.setdiff1d(np.arange(s), visible)
    target_pos = int(rng.choice(hidden))
    text = ConditionalText.unmasked(x.tokens[p] for p in visible)
    return text, x.tokens[target_pos]


def sample_pair(
    spec: ObjectiveSpec, x: LabeledSequence, rng: np.random.Generator
) -> tuple[ConditionalText, int]:
    """Draw one (conditional text, target token) pair from a sequence.

    The sampled law matches the exact joint builders: next-token prefixes
    are uniform over lengths 1..s-1, mask patterns uniform over size-u
    subsets with the target uniform over masked positions, and the
    variable-ratio objective first draws a ratio uniformly from the
    admissible grid.
    """
    s = len(x.tokens)
    if s < 2:
        raise DomainError(f"sequence length must be >= 2, got {s}")
    if spec.kind == "ar":
        k = int(rng.integers(1, s))
        return ConditionalText.prefix(x.tokens[:k]), x.tokens[k]
    if spec.kind == "dar":
        k = int(rng.integers(1, s))
        hi = min(k + spec.width, s)
        target_pos = int(rng.integers(k, hi))
        return ConditionalText.prefix(x.tokens[:k]), x.tokens[target_pos]
    if spec.kind == "masked":
        return _masked_pair(x, spec.rho, rng)
    ratios = admissible_ratios(s, spec.rho_lo, spec.rho_hi)
    if not ratios:
        raise DomainError(
            f"no admissible mask ratio in [{spec.rho_lo}, {spec.rho_hi}] "
            f"at s={s}; admissible grid is m/{s} for m in 1..{s - 1}"
        )
    return _masked_pair(x, ratios[int(rng.integers(len(ratios)))], rng)


def exact_joint(spec: ObjectiveSpec, params, budget: int = ENUMERATION_BUDGET):
    """The exact joint distribution this objective induces on the corpus."""
    from . import cooccurrence as co

    if spec.kind == "ar":
        return co.build_ar_joint(params, budget)
    if spec.kind == "masked":
        return co.build_masked_joint(params, spec.rho, budget)
    if spec.kind == "dar":
        return co.build_dar_joint(params, spec.width, budget)
    return co.build_vlm_joint(params, spec.rho_lo, spec.rho_hi, budget)

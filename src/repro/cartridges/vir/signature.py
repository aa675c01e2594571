"""Image signatures: synthetic stand-ins for VIR's visual abstractions.

The paper's images are proprietary; what its claim depends on is the
*structure* of the signature — per-attribute feature vectors (global
colour, local colour, texture, structure) compared by a weighted
distance, with a coarse low-dimensional representation admissible for
filtering.  This module provides exactly that structure synthetically.

A signature is a flat tuple of floats in [0, 1]:
``global_color[12] ++ local_color[16] ++ texture[8] ++ structure[8]``.

The distance is the weighted mean of per-component mean-absolute
differences, scaled to [0, 100] — matching the VIR API's 0-100 score
range.  The coarse vector is the per-component mean (4 numbers), and by
the triangle inequality of means each coarse filter is a lower bound on
the true distance (admissibility; proven in the property tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import sub
from typing import Dict, List, Sequence, Tuple

from repro.errors import ExecutionError

#: (name, vector length) of each signature component, in storage order.
SIGNATURE_COMPONENTS: Tuple[Tuple[str, int], ...] = (
    ("globalcolor", 12),
    ("localcolor", 16),
    ("texture", 8),
    ("structure", 8),
)

#: Total flat signature length.
SIGNATURE_LENGTH = sum(n for _, n in SIGNATURE_COMPONENTS)

#: Number of coarse dimensions (one mean per component).
COARSE_DIMS = len(SIGNATURE_COMPONENTS)


@dataclass(frozen=True)
class Weights:
    """Per-component weights of the VIRSimilar distance."""

    globalcolor: float = 1.0
    localcolor: float = 1.0
    texture: float = 1.0
    structure: float = 1.0

    def as_tuple(self) -> Tuple[float, ...]:
        return (self.globalcolor, self.localcolor, self.texture,
                self.structure)

    @property
    def total(self) -> float:
        return sum(self.as_tuple())


def parse_weights(param: str) -> Weights:
    """Parse ``'globalcolor=0.5,localcolor=0.0,texture=0.5,structure=0.0'``.

    Separators may be commas or whitespace; unmentioned components get
    weight 0 when any component is mentioned (the VIR convention), and
    all default to 1 for an empty string.
    """
    text = (param or "").strip()
    if not text:
        return Weights()
    values: Dict[str, float] = {}
    for piece in text.replace(",", " ").split():
        if "=" not in piece:
            raise ExecutionError(f"bad weight spec {piece!r}")
        name, raw = piece.split("=", 1)
        key = name.strip().lower()
        if key not in {c for c, _ in SIGNATURE_COMPONENTS}:
            raise ExecutionError(f"unknown signature component {name!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ExecutionError(f"bad weight value {raw!r}") from None
    weights = Weights(**{name: values.get(name, 0.0)
                         for name, _ in SIGNATURE_COMPONENTS})
    if weights.total <= 0:
        raise ExecutionError("at least one signature weight must be positive")
    return weights


def _component_slices() -> List[Tuple[str, slice]]:
    out = []
    start = 0
    for name, length in SIGNATURE_COMPONENTS:
        out.append((name, slice(start, start + length)))
        start += length
    return out


_SLICES = _component_slices()


def make_signature(values: Sequence[float]) -> Tuple[float, ...]:
    """Validate and freeze a flat signature vector."""
    sig = tuple(float(v) for v in values)
    if len(sig) != SIGNATURE_LENGTH:
        raise ExecutionError(
            f"signature must have {SIGNATURE_LENGTH} values, got {len(sig)}")
    if any(v < 0.0 or v > 1.0 for v in sig):
        raise ExecutionError("signature values must lie in [0, 1]")
    return sig


def random_signature(rng: random.Random) -> Tuple[float, ...]:
    """A uniformly random signature (adversarial workload generation)."""
    return tuple(rng.random() for __ in range(SIGNATURE_LENGTH))


def structured_signature(rng: random.Random,
                         spread: float = 0.12) -> Tuple[float, ...]:
    """A realistic signature: each component fluctuates around its own
    base level (a dark image has a low global-colour mean, a smooth one a
    low texture mean, ...).  This is what makes the coarse representation
    discriminating — per-component means spread over [0, 1] instead of
    piling up at 0.5 as uniform noise does.
    """
    values: List[float] = []
    for __, length in SIGNATURE_COMPONENTS:
        base = rng.random()
        for _ in range(length):
            values.append(min(1.0, max(0.0,
                                       base + rng.uniform(-spread, spread))))
    return tuple(values)


def perturb_signature(rng: random.Random, base: Sequence[float],
                      amount: float = 0.05) -> Tuple[float, ...]:
    """A signature near ``base`` — builds similarity clusters."""
    return tuple(min(1.0, max(0.0, v + rng.uniform(-amount, amount)))
                 for v in base)


def signature_distance(sig_a: Sequence[float], sig_b: Sequence[float],
                       weights: Weights) -> float:
    """Weighted distance in [0, 100] (phase-3 full comparison)."""
    if len(sig_a) != SIGNATURE_LENGTH or len(sig_b) != SIGNATURE_LENGTH:
        raise ExecutionError("signatures have the wrong length")
    total = 0.0
    for (name, sl), weight in zip(_SLICES, weights.as_tuple()):
        if weight == 0.0:
            continue
        component_a = sig_a[sl]
        component_b = sig_b[sl]
        diff = sum(map(abs, map(sub, component_a, component_b)))
        total += weight * (diff / len(component_a))
    return 100.0 * total / weights.total


def coarse_vector(signature: Sequence[float]) -> Tuple[float, ...]:
    """The coarse representation: one mean per component (index data)."""
    sig = tuple(signature)
    return tuple(sum(sig[sl]) / (sl.stop - sl.start) for __, sl in _SLICES)


def coarse_distance(coarse_a: Sequence[float], coarse_b: Sequence[float],
                    weights: Weights) -> float:
    """Weighted distance on coarse vectors (phase-2 filter).

    For every pair of signatures, ``coarse_distance(coarse(a),
    coarse(b), w) <= signature_distance(a, b, w)`` because
    ``|mean(x) - mean(y)| <= mean(|x - y|)`` — the filter is admissible.
    """
    total = 0.0
    for i, weight in enumerate(weights.as_tuple()):
        if weight == 0.0:
            continue
        total += weight * abs(coarse_a[i] - coarse_b[i])
    return 100.0 * total / weights.total


def component_bound(threshold: float, weights: Weights,
                    component_index: int) -> float:
    """Phase-1 per-dimension radius.

    If ``signature_distance(a, b, w) <= threshold`` then for component
    ``i`` with weight ``w_i > 0``::

        |coarse_i(a) - coarse_i(b)| <= threshold * W / (100 * w_i)

    so a range filter with this radius never loses a true match.
    """
    weight = weights.as_tuple()[component_index]
    if weight <= 0:
        raise ExecutionError("component_bound needs a positive weight")
    return threshold * weights.total / (100.0 * weight)

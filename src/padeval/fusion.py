"""Score-level fusion: per-detector min-max normalization, weighted sum.

Normalization parameters are fitted on the very scores being fused (one
fit per detector), mapping each detector's observed range onto [0, 1];
the fused score is then a convex combination of the two normalized
scores.  Joining is by sample id, so the two detectors may list samples
in different orders but must cover exactly the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import EmptySetError, PolarityMismatchError, ScoreSet, ValidationError

__all__ = [
    "WeightError",
    "IdMismatchError",
    "MinMaxParams",
    "minmax_fit",
    "fuse",
]


class WeightError(ValidationError):
    """Fusion weights are negative, non-finite, or do not sum to one."""


class IdMismatchError(ValidationError):
    """The two score sets do not cover the same sample ids."""


@dataclass(frozen=True)
class MinMaxParams:
    """Observed score range; degenerate when the range is empty."""

    lo: float
    hi: float

    @property
    def degenerate(self) -> bool:
        return not (self.hi > self.lo)


def minmax_fit(scores: Sequence[float]) -> MinMaxParams:
    """Range of the given scores.

    ``argmin`` and ``argmax`` pick the first extreme, as ``min`` and ``max``
    do, so a ``-0.0`` next to a ``0.0`` keeps the sign of whichever comes first.

    Raises:
        EmptySetError: no scores.
        ValidationError: a score is non-finite.
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise EmptySetError("cannot fit min-max parameters on no scores")
    if not np.isfinite(values).all():
        raise ValidationError("scores contain a non-finite value")
    return MinMaxParams(lo=float(values[values.argmin()]), hi=float(values[values.argmax()]))


def _normalise(params: MinMaxParams, scores: np.ndarray) -> np.ndarray:
    """The clamped ``(s - lo) / (hi - lo)`` of each finite score, in [0, 1].

    Degenerate parameters (``hi == lo``) carry no scale information, so
    every score maps to the neutral value 0.5.  When ``hi - lo`` overflows,
    the halved values are mapped instead, ``(s/2 - lo/2) / (hi/2 - lo/2)``,
    whose range is finite.
    """
    if params.degenerate:
        return np.full(scores.shape, 0.5)
    lo, hi = params.lo, params.hi
    if math.isfinite(hi - lo):
        t = (scores - lo) / (hi - lo)
    else:
        t = (scores / 2 - lo / 2) / (hi / 2 - lo / 2)
    # the comparisons of min(max(t, 0.0), 1.0), which keep a -0.0
    t[t < 0.0] = 0.0
    t[t > 1.0] = 1.0
    return t


def fuse(a: ScoreSet, b: ScoreSet, w_a: float = 0.5, w_b: float = 0.5) -> ScoreSet:
    """Weighted sum of the per-set min-max-normalized scores.

    Records are matched by sample id; the output keeps ``a``'s ordering,
    labels, and polarity.  ``w_a + w_b`` must equal one (within 1e-9) with
    both weights non-negative.

    Raises:
        IdMismatchError: ``a`` and ``b`` cover different sample ids.
        PolarityMismatchError: the sets declare different polarities.
        WeightError: weights invalid.
    """
    if a.polarity is not b.polarity:
        raise PolarityMismatchError(
            f"cannot fuse polarity {a.polarity.value!r} with {b.polarity.value!r}"
        )
    w_a, w_b = float(w_a), float(w_b)
    if not (math.isfinite(w_a) and math.isfinite(w_b)) or w_a < 0.0 or w_b < 0.0:
        raise WeightError(f"weights must be non-negative and finite, got {w_a!r}, {w_b!r}")
    if abs((w_a + w_b) - 1.0) > 1e-9:
        raise WeightError(f"weights must sum to 1, got {w_a!r} + {w_b!r}")
    b_index = dict(zip(b.sample_ids, range(len(b))))
    # -1 marks an id of ``a`` that ``b`` lacks; ids are unique within each set,
    # so equal lengths and no -1 mean that both cover the same ids
    b_order = np.fromiter(map(b_index.get, a.sample_ids, repeat(-1)), dtype=np.intp, count=len(a))
    if len(a) != len(b) or (b_order < 0).any():
        odd = sorted(set(a.sample_ids).symmetric_difference(b_index))[0]
        raise IdMismatchError(f"score sets cover different samples (first difference: {odd!r})")
    norm_a = _normalise(minmax_fit(a.values), a.values)
    norm_b = _normalise(minmax_fit(b.values), b.values)
    # convex weights of values in [0, 1]: the sum is finite, and the columns of a are valid
    values = w_a * norm_a + w_b * norm_b[b_order]
    return ScoreSet._trusted(a.sample_ids, a.label_codes, values, a.polarity)

"""Depth-variance PAD score.

A real face presented to a depth sensor shows centimetre-scale relief
across its landmarks; a flat or near-flat artefact (a printed or fabric
face) does not.  The score is simply the population standard deviation of
the depth values sampled at the face landmarks, in millimetres, so higher
values indicate bona fide presentations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DepthMap, LandmarkSet, ValidationError

__all__ = ["TooFewValidLandmarksError", "DvScore", "dv_score"]

DEFAULT_MIN_VALID = 10


class TooFewValidLandmarksError(ValidationError):
    """Fewer landmarks hit measured pixels than the caller requires."""

    def __init__(self, n_valid: int, min_valid: int):
        super().__init__(f"only {n_valid} valid landmark depths, need at least {min_valid}")
        self.n_valid = n_valid
        self.min_valid = min_valid


@dataclass(frozen=True)
class DvScore:
    """Depth-variance score plus the number of landmarks it was computed from."""

    value: float
    n_valid: int


def dv_score(depth: DepthMap, landmarks: LandmarkSet, min_valid: int = DEFAULT_MIN_VALID) -> DvScore:
    """Population standard deviation of the valid landmark depths.

    Each continuous landmark coordinate is mapped to the nearest pixel with
    ``floor(coord + 0.5)`` per axis (halves round up).  A landmark is
    unmeasurable when the rounded pixel falls outside the grid, however far,
    or holds the no-measurement sentinel ``0``; the others are valid.

    Args:
        depth: depth grid in integer millimetres, ``0`` meaning unmeasured.
        landmarks: sub-pixel landmark positions.
        min_valid: minimum number of measurable landmarks (at least 2,
            since a spread needs two points).

    Returns:
        The score (millimetres; higher means more relief, i.e. more bona
        fide) and the count of landmarks that contributed.

    Raises:
        TooFewValidLandmarksError: fewer than ``min_valid`` landmarks hit
            measured pixels.
        ValidationError: ``min_valid`` is below 2.
    """
    if min_valid < 2:
        raise ValidationError(f"min_valid must be at least 2, got {min_valid}")
    # the bounds are tested on the floored floats: a far-out landmark has no int64 pixel
    cols = np.floor(landmarks.points[:, 0] + 0.5)
    rows = np.floor(landmarks.points[:, 1] + 0.5)
    inside = (cols >= 0) & (cols < depth.width) & (rows >= 0) & (rows < depth.height)
    picked = depth.values[rows[inside].astype(np.int64), cols[inside].astype(np.int64)]
    values = picked[picked != 0].astype(np.float64)
    if values.size < min_valid:
        raise TooFewValidLandmarksError(int(values.size), min_valid)
    # the score is a function of the depth multiset: sort so that landmark
    # order cannot leak into the floating-point summation order
    values.sort()
    return DvScore(value=float(np.std(values)), n_valid=int(values.size))

"""Shared value types for presentation-attack-detection evaluation.

Conventions used throughout the package:

* A *score* is a plain float whose meaning is fixed by an explicit
  :class:`Polarity` carried next to the data.  Nothing in this package ever
  guesses score orientation from the data itself; a higher score means "more
  bona fide" (PAD detectors) or "more likely a mated pair" (recognition
  comparators), and which of the two applies is stated by the producer.
* Depth maps hold integer millimetres.  The value ``0`` is a sentinel for
  "no measurement" (the convention used by commodity depth sensors) and is
  never a legal distance.
* Sample identifiers are opaque non-empty strings, unique within a set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "PadevalError",
    "ValidationError",
    "EmptySetError",
    "DuplicateIdError",
    "NonFiniteScoreError",
    "PolarityMismatchError",
    "PresentationLabel",
    "TrialLabel",
    "Label",
    "LABEL_BY_NAME",
    "Polarity",
    "ScoreRecord",
    "ScoreSet",
    "DepthMap",
    "LandmarkSet",
    "FeatureMatrix",
    "validate_score_set",
]


class PadevalError(Exception):
    """Base class for every structured error raised by this package."""


class ValidationError(PadevalError):
    """A value violates a documented precondition."""


class EmptySetError(ValidationError):
    """An operation that needs at least one element received none."""


class DuplicateIdError(ValidationError):
    """Two records in one set share a sample identifier."""

    def __init__(self, sample_id: str):
        super().__init__(f"duplicate sample_id {sample_id!r}")
        self.sample_id = sample_id


class NonFiniteScoreError(ValidationError):
    """A score is NaN or infinite."""

    def __init__(self, sample_id: str, score: float):
        super().__init__(f"non-finite score {score!r} for sample_id {sample_id!r}")
        self.sample_id = sample_id
        self.score = score


class PolarityMismatchError(ValidationError):
    """Score sets that must share one polarity declare different ones."""


class PresentationLabel(Enum):
    """Ground-truth class of a presentation shown to a PAD subsystem."""

    BONA_FIDE = "bonafide"
    ATTACK = "attack"


class TrialLabel(Enum):
    """Ground-truth class of a recognition comparison trial.

    ``ATTACK_MATED`` marks an attack presentation compared against a
    reference of the identity the attack imitates; it is scored like a mated
    trial but measures vulnerability rather than recognition quality.
    """

    MATED = "mated"
    NONMATED = "nonmated"
    ATTACK_MATED = "attackmated"


Label = Union[PresentationLabel, TrialLabel]

#: Serialized spelling used by the CSV formats, for both label families.
LABEL_BY_NAME: dict[str, Label] = {
    PresentationLabel.BONA_FIDE.value: PresentationLabel.BONA_FIDE,
    PresentationLabel.ATTACK.value: PresentationLabel.ATTACK,
    TrialLabel.MATED.value: TrialLabel.MATED,
    TrialLabel.NONMATED.value: TrialLabel.NONMATED,
    TrialLabel.ATTACK_MATED.value: TrialLabel.ATTACK_MATED,
}


class Polarity(Enum):
    """Declared orientation of the scores in a :class:`ScoreSet`."""

    HIGHER_IS_BONA_FIDE = "higher_is_bonafide"
    HIGHER_IS_MATCH = "higher_is_match"


@dataclass(frozen=True)
class ScoreRecord:
    """One scored sample: identifier, ground-truth label, raw score."""

    sample_id: str
    label: Label
    score: float


@dataclass(frozen=True)
class ScoreSet:
    """An ordered collection of score records with a declared polarity."""

    records: tuple[ScoreRecord, ...]
    polarity: Polarity

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ScoreRecord]:
        return iter(self.records)

    def scores(self) -> list[float]:
        return [r.score for r in self.records]

    def ids(self) -> list[str]:
        return [r.sample_id for r in self.records]

    def with_label(self, label: Label) -> "ScoreSet":
        """Sub-set holding only the records carrying ``label``."""
        kept = tuple(r for r in self.records if r.label is label)
        return ScoreSet(records=kept, polarity=self.polarity)


def _id_ok(sample_id: object) -> bool:
    """Ids are non-empty line-atomic tokens: no NUL, no CR, no LF.

    Line breaks are excluded so that ids sit on one line of every text
    format and error messages can cite meaningful line numbers.
    """
    return (
        isinstance(sample_id, str)
        and sample_id != ""
        and not any(ch in sample_id for ch in "\x00\r\n")
    )


def validate_score_set(score_set: ScoreSet) -> None:
    """Check the :class:`ScoreSet` invariants, raising on the first breach.

    Raises:
        EmptySetError: the set holds no records.
        DuplicateIdError: two records share a ``sample_id``.
        NonFiniteScoreError: a score is NaN or +/-inf.
        ValidationError: an id is empty or contains NUL or line breaks, or
            a label/polarity field holds a foreign type.
    """
    if not isinstance(score_set.polarity, Polarity):
        raise ValidationError(f"polarity must be a Polarity, got {score_set.polarity!r}")
    if len(score_set.records) == 0:
        raise EmptySetError("score set holds no records")
    seen: set[str] = set()
    for rec in score_set.records:
        if not _id_ok(rec.sample_id):
            raise ValidationError(
                f"sample_id must be a non-empty single-line string without NUL, got {rec.sample_id!r}"
            )
        if rec.sample_id in seen:
            raise DuplicateIdError(rec.sample_id)
        seen.add(rec.sample_id)
        if not isinstance(rec.label, (PresentationLabel, TrialLabel)):
            raise ValidationError(f"label must be a PresentationLabel or TrialLabel, got {rec.label!r}")
        if not isinstance(rec.score, float) or not math.isfinite(rec.score):
            raise NonFiniteScoreError(rec.sample_id, rec.score)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class DepthMap:
    """A row-major grid of depth values in integer millimetres.

    ``values[row, col]`` is the distance at pixel ``(x=col, y=row)``.  Zero
    is the no-measurement sentinel; valid distances are 1..65535.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"depth map must be a non-empty 2-D grid, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"depth values must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 65535:
            raise ValidationError("depth values must lie in 0..65535 millimetres")
        self.values = _read_only(arr.astype(np.uint16))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(eq=False)
class LandmarkSet:
    """Ordered 2-D landmark coordinates in pixel units.

    Coordinates are continuous (sub-pixel) positions with ``x`` across
    columns and ``y`` down rows; they may fall outside the image they are
    later applied to, in which case the consumer decides how to treat them.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValidationError(f"landmarks must be a non-empty (n, 2) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValidationError("landmark coordinates must be finite")
        self.points = _read_only(pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(eq=False)
class FeatureMatrix:
    """Dense float features, one row per sample, with aligned identifiers."""

    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.sample_ids = tuple(self.sample_ids)
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValidationError(f"feature matrix must be non-empty 2-D, got shape {arr.shape}")
        if len(self.sample_ids) != arr.shape[0]:
            raise ValidationError(
                f"{len(self.sample_ids)} sample_ids for {arr.shape[0]} feature rows"
            )
        seen: set[str] = set()
        for sid in self.sample_ids:
            if not _id_ok(sid):
                raise ValidationError(f"bad sample_id {sid!r}")
            if sid in seen:
                raise DuplicateIdError(sid)
            seen.add(sid)
        if not np.isfinite(arr).all():
            raise ValidationError("feature values must be finite")
        self.values = _read_only(arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def rows(self, index: Sequence[int]) -> "FeatureMatrix":
        """Sub-matrix holding the given row indices, in the given order."""
        idx = list(index)
        return FeatureMatrix(
            sample_ids=tuple(self.sample_ids[i] for i in idx),
            values=self.values[idx].copy(),
        )

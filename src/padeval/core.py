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

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Sequence, Union

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
    "ScoreSet",
    "DepthMap",
    "LandmarkSet",
    "FeatureMatrix",
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


# ScoreSet.label_codes index the labels in LABEL_BY_NAME order: by code, the
# label and its serialized name; by name, the code
_LABEL_ARRAY = np.array(list(LABEL_BY_NAME.values()), dtype=object)
_LABEL_NAMES = np.array(list(LABEL_BY_NAME), dtype=object)
_CODE_BY_NAME = {name: code for code, name in enumerate(LABEL_BY_NAME)}
# enum members are singletons, so a label is one of the five exactly when its id is
_CODE_BY_ID = {id(label): code for code, label in enumerate(LABEL_BY_NAME.values())}


def _label_code(label: object) -> int | None:
    """The code of ``label``, or None for anything that is not a :data:`Label`."""
    return _CODE_BY_ID.get(id(label))


def _label_codes(labels: Sequence[object]) -> np.ndarray:
    """The uint8 code of each label; ValidationError at the first foreign one."""
    codes = list(map(_CODE_BY_ID.get, map(id, labels)))
    if None in codes:
        bad = labels[codes.index(None)]
        raise ValidationError(f"label must be a PresentationLabel or TrialLabel, got {bad!r}")
    return np.array(codes, dtype=np.uint8)


def _check_finite(ids: Sequence[str], values: np.ndarray) -> None:
    """NonFiniteScoreError for the first NaN or infinite score, naming its id."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteScoreError(ids[k], float(values[k]))


@dataclass(frozen=True, eq=False, init=False)
class ScoreSet:
    """Aligned score columns with a declared polarity, checked when built.

    ``sample_ids[k]``, ``labels[k]`` and ``values[k]`` describe sample ``k``.
    Labels are stored as ``label_codes``, a read-only uint8 array whose
    entries index the five labels in ``LABEL_BY_NAME`` order; ``labels`` is
    the tuple of :data:`Label` they stand for, built on each access.
    ``values`` is a read-only float64 array.

    Raises:
        EmptySetError: the set holds no samples.
        DuplicateIdError: two samples share a ``sample_id``.
        NonFiniteScoreError: a score is NaN or +/-inf.
        ValidationError: an id is empty or contains NUL, a line break or a
            surrogate, a label/polarity field holds a foreign type, or the
            columns differ in length.
    """

    sample_ids: tuple[str, ...]
    label_codes: np.ndarray
    values: np.ndarray
    polarity: Polarity

    def __init__(
        self,
        sample_ids: Sequence[str],
        labels: Sequence[Label],
        values: Sequence[float] | np.ndarray,
        polarity: Polarity,
    ) -> None:
        if not isinstance(polarity, Polarity):
            raise ValidationError(f"polarity must be a Polarity, got {polarity!r}")
        ids, labels = tuple(sample_ids), tuple(labels)
        if not ids:
            raise EmptySetError("score set holds no records")
        values = np.asarray(values)
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"scores must be real numbers, got dtype {values.dtype}")
        values = values.astype(np.float64)  # a copy: the caller's array stays writeable
        if values.shape != (len(ids),) or len(labels) != len(ids):
            raise ValidationError(
                f"{len(ids)} sample_ids, {len(labels)} labels and {values.shape} scores are not aligned"
            )
        _check_ids(ids)
        codes = _label_codes(labels)
        _check_finite(ids, values)
        self._fill(ids, codes, values, polarity)

    @classmethod
    def _trusted(
        cls, sample_ids: tuple[str, ...], codes: np.ndarray, values: np.ndarray, polarity: Polarity
    ) -> "ScoreSet":
        """The one unchecked constructor: a set from columns that already hold every invariant.

        ``codes`` and ``values`` are taken as they are and made read-only, so
        the caller hands over arrays that nobody else writes to.
        """
        score_set = object.__new__(cls)
        score_set._fill(sample_ids, codes, values, polarity)
        return score_set

    def _fill(self, ids: tuple[str, ...], codes: np.ndarray, values: np.ndarray, polarity: Polarity) -> None:
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "label_codes", _read_only(codes))
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "polarity", polarity)

    @property
    def labels(self) -> tuple[Label, ...]:
        """The label of each sample, built on each access."""
        return tuple(_LABEL_ARRAY[self.label_codes].tolist())

    def __len__(self) -> int:
        return len(self.sample_ids)

    def with_label(self, label: Label) -> "ScoreSet":
        """Sub-set holding only the samples carrying ``label``.

        Raises:
            EmptySetError: no sample carries ``label``.
        """
        keep = self.label_codes == _label_code(label)  # all False for a foreign label
        if not keep.any():
            raise EmptySetError("score set holds no records")
        return ScoreSet._trusted(
            tuple(compress(self.sample_ids, keep.tolist())),
            self.label_codes[keep],
            self.values[keep],
            self.polarity,
        )


def _ids_ok(ids: Sequence[object]) -> bool:
    """The sample-id rule over a whole column, and uniqueness.

    Ids are non-empty line-atomic strings of Unicode scalar values: no NUL,
    no CR, no LF, and nothing UTF-8 cannot encode (a surrogate code point).
    Line breaks are excluded so that ids sit on one line of every text
    format and error messages can cite meaningful line numbers.
    """
    try:
        joined = "".join(ids)  # TypeError on a non-str id
        joined.encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return False
    return (
        all(ids)
        and "\x00" not in joined
        and "\r" not in joined
        and "\n" not in joined
        and len(set(ids)) == len(ids)
    )


def _id_ok(sample_id: object) -> bool:
    """The sample-id rule for one id."""
    return _ids_ok((sample_id,))


def _first_bad_id(ids: Sequence[object]) -> tuple[int, bool] | None:
    """The first id that breaks the id rule or repeats an earlier one, as
    ``(index, repeated)``, or None when the column is valid.

    The column is checked at once; only a failing column is walked id by id.
    """
    if _ids_ok(ids):
        return None
    seen: set[object] = set()
    for k, sid in enumerate(ids):
        if not _id_ok(sid):
            return k, False
        if sid in seen:
            return k, True
        seen.add(sid)
    return None  # not reached: a column that fails _ids_ok has a faulty id


def _check_ids(ids: Sequence[str]) -> None:
    """Apply the id rule to every id and require them to be unique."""
    bad = _first_bad_id(ids)
    if bad is None:
        return
    k, repeated = bad
    if repeated:
        raise DuplicateIdError(ids[k])
    raise ValidationError(
        f"sample_id must be a non-empty single-line string without NUL or surrogates, got {ids[k]!r}"
    )


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
        _check_ids(self.sample_ids)
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

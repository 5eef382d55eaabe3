"""Threshold-based error rates for PAD and recognition vulnerability.

Decision rule
-------------
A score ``s`` is classified *positive* (bona fide, or match) exactly when
``s >= tau``; ties on the threshold are accepted.  All rates are computed
from integer counts under this rule:

* ``FMR``    fraction of non-mated scores ``>= tau`` (false matches)
* ``FNMR``   fraction of mated scores ``< tau`` (false non-matches)
* ``IAPMR``  fraction of attack-mated scores ``>= tau``
* ``APCER``  fraction of attack-presentation scores ``>= tau``
* ``BPCER``  fraction of bona fide scores ``< tau``

Candidate thresholds
--------------------
Every threshold search reads one private sweep that sorts each score class
once.  A grid is the midpoints between consecutive distinct sorted scores
(the upper score of the pair where the midpoint rounds onto the lower one
or overflows) plus a sentinel below the minimum (``min - 1``) and one above the maximum
(``max + 1``, or the next float up where that rounds back to ``max``).
Both-class sweeps (``d_eer``, ``det_curve``) count both classes on the
pooled grid of the positive then the negative scores; single-rate
constraints (``threshold_at_fmr``, ``bpcer_at_apcer``) take the first point
of the constrained class's own grid whose accept count fits the target.

Rates and their comparisons are carried out in exact integer/rational
arithmetic over counts and converted to float only at the boundary, so
results are reproducible bit-for-bit across platforms.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import (
    EmptySetError,
    Polarity,
    PolarityMismatchError,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
    ValidationError,
    _label_code,
    _read_only,
)

__all__ = [
    "Threshold",
    "InvalidTargetError",
    "DetAxes",
    "DetCurve",
    "PadReport",
    "VulnReport",
    "fmr",
    "fnmr",
    "iapmr",
    "apcer",
    "bpcer",
    "threshold_at_fmr",
    "d_eer",
    "bpcer_at_apcer",
    "det_curve",
    "evaluate_pad",
    "evaluate_vuln",
]

#: The APCER operating points of a PAD report, at which BPCER10 and BPCER20 are read.
APCER_TARGETS = (0.10, 0.05)

#: Decision thresholds are plain finite floats.
Threshold = float


class InvalidTargetError(ValidationError):
    """A target rate lies outside the open interval (0, 1)."""


class DetAxes(Enum):
    """Which rate pair a DET curve plots: PAD rates or recognition rates."""

    APCER_BPCER = "apcer_bpcer"
    FMR_FNMR = "fmr_fnmr"


@dataclass(eq=False)
class DetCurve:
    """A full detection-error trade-off sweep.

    ``x_rates[i]`` (APCER or FMR) is non-increasing and ``y_rates[i]``
    (BPCER or FNMR) non-decreasing along the strictly increasing
    ``thresholds``.  Float64 arrays are kept, not copied, and made read-only,
    the caller's too.
    """

    thresholds: np.ndarray
    x_rates: np.ndarray
    y_rates: np.ndarray
    axes: DetAxes

    def __post_init__(self) -> None:
        for name in ("thresholds", "x_rates", "y_rates"):
            setattr(self, name, _read_only(np.asarray(getattr(self, name), dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class PadReport:
    """PAD evaluation summary: D-EER plus the two fixed operating points."""

    d_eer: float
    eer_threshold: Threshold
    bpcer10: float  # BPCER at the lowest sweep point with APCER <= 10%
    bpcer20: float  # BPCER at the lowest sweep point with APCER <= 5%
    bpcer10_threshold: Threshold
    bpcer20_threshold: Threshold
    n_bonafide: int
    n_attack: int


@dataclass(frozen=True)
class VulnReport:
    """Vulnerability summary: per-target decision thresholds and IAPMR."""

    thresholds: Mapping[float, Threshold]
    iapmr: Mapping[float, float]
    n_mated: int
    n_nonmated: int
    n_attack: int


# ---------------------------------------------------------------------------
# input handling


def _sorted(scores: Sequence[float], what: str) -> np.ndarray:
    """The validated scores as a sorted float array."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be a flat sequence of scores")
    if arr.size == 0:
        raise EmptySetError(f"{what} is empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains a non-finite score")
    return np.sort(arr)


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not np.isfinite(tau):
        raise ValidationError(f"threshold must be finite, got {tau!r}")
    return tau


def _check_target(target: float) -> float:
    target = float(target)
    if not (0.0 < target < 1.0):
        raise InvalidTargetError(f"target rate must lie in (0, 1), got {target!r}")
    return target


def _count_ge(sorted_scores: np.ndarray, taus: np.ndarray | float) -> np.ndarray | int:
    """Number of scores >= tau, exact, for scalar or vector tau."""
    found = np.searchsorted(sorted_scores, taus, side="left")
    return sorted_scores.size - found


def _count_lt(sorted_scores: np.ndarray, taus: np.ndarray | float) -> np.ndarray | int:
    return np.searchsorted(sorted_scores, taus, side="left")


def _accept_rate(sorted_scores: np.ndarray, tau: float) -> float:
    """Share of scores >= a finite tau; int / int division is correctly rounded."""
    return int(_count_ge(sorted_scores, _check_tau(tau))) / sorted_scores.size


def _reject_rate(sorted_scores: np.ndarray, tau: float) -> float:
    """Share of scores < a finite tau; int / int division is correctly rounded."""
    return int(_count_lt(sorted_scores, _check_tau(tau))) / sorted_scores.size


def _floor_times(target: float, n: int) -> int:
    """floor(target * n) computed exactly from the binary value of target."""
    as_frac = Fraction(target)
    return (as_frac.numerator * n) // as_frac.denominator


def _grid(sorted_scores: np.ndarray) -> np.ndarray:
    """The candidate grid of sorted scores (see the module docstring), strictly
    increasing: every achievable accept/reject split of the scores is
    realised by exactly one grid point.

    Raises:
        ValidationError: the largest score is the largest finite float, so
            no finite threshold lies above it.
    """
    if sorted_scores[-1] == sys.float_info.max:
        raise ValidationError(
            f"score {sys.float_info.max!r} is the largest finite float: "
            "no finite threshold lies above it"
        )
    distinct = sorted_scores[np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))]
    lower, upper = distinct[:-1], distinct[1:]
    with np.errstate(over="ignore"):
        mids = lower + (upper - lower) / 2.0
    # the midpoint of adjacent floats can round onto the lower one, and an
    # overflowing difference makes it +inf; the upper score splits the same way
    mids = np.where((mids > lower) & (mids <= upper), mids, upper)
    # past 2**53, max + 1 rounds back to max; the next float up still rejects it
    hi = np.maximum(distinct[-1] + 1.0, np.nextafter(distinct[-1], np.inf))
    return np.concatenate(([distinct[0] - 1.0], mids, [hi]))


def _pooled(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled grid of two sorted classes, with ``neg`` accept and ``pos`` reject counts."""
    grid = _grid(np.sort(np.concatenate((pos, neg))))
    return grid, _count_ge(neg, grid), _count_lt(pos, grid)


def _first_feasible(neg: np.ndarray, targets: Sequence[float]) -> list[Threshold]:
    """Per target, the first point of sorted ``neg``'s own grid accepting at most that rate."""
    grid = _grid(neg)
    accepts = _count_ge(neg, grid)
    # count <= floor(target * n) <=> rate <= target; the top sentinel always fits
    return [float(grid[np.flatnonzero(accepts <= _floor_times(t, neg.size))[0]]) for t in targets]


def _d_eer(pos: np.ndarray, neg: np.ndarray) -> tuple[float, Threshold]:
    """The D-EER and its threshold over the pooled grid of sorted ``pos`` and ``neg``."""
    grid, c_apcer, c_bpcer = _pooled(pos, neg)
    # |APCER - BPCER| compared on the common denominator of the two rates
    gap = np.abs(c_apcer * pos.size - c_bpcer * neg.size)
    best = int(np.argmin(gap))
    eer = (Fraction(int(c_apcer[best]), neg.size) + Fraction(int(c_bpcer[best]), pos.size)) / 2
    return float(eer), float(grid[best])


# ---------------------------------------------------------------------------
# point metrics


def fmr(nonmated_scores: Sequence[float], tau: Threshold) -> float:
    """False match rate: fraction of non-mated scores at or above ``tau``."""
    return _accept_rate(_sorted(nonmated_scores, "nonmated_scores"), tau)


def fnmr(mated_scores: Sequence[float], tau: Threshold) -> float:
    """False non-match rate: fraction of mated scores below ``tau``."""
    return _reject_rate(_sorted(mated_scores, "mated_scores"), tau)


def iapmr(attack_scores: Sequence[float], tau: Threshold) -> float:
    """Impostor attack presentation match rate at ``tau``.

    The fraction of attack-versus-target comparison scores that reach the
    decision threshold, i.e. attacks accepted as matches.
    """
    return _accept_rate(_sorted(attack_scores, "attack_scores"), tau)


def apcer(attack_scores: Sequence[float], tau: Threshold) -> float:
    """Attack presentation classification error rate at ``tau``."""
    return _accept_rate(_sorted(attack_scores, "attack_scores"), tau)


def bpcer(bonafide_scores: Sequence[float], tau: Threshold) -> float:
    """Bona fide presentation classification error rate at ``tau``."""
    return _reject_rate(_sorted(bonafide_scores, "bonafide_scores"), tau)


# ---------------------------------------------------------------------------
# threshold sweeps


def threshold_at_fmr(nonmated_scores: Sequence[float], target: float) -> Threshold:
    """Smallest sweep threshold whose FMR does not exceed ``target``.

    The sweep grid is built from the non-mated scores alone.  Because FMR
    is non-increasing in the threshold, the result is the most permissive
    operating point satisfying the constraint.
    """
    nonmated = _sorted(nonmated_scores, "nonmated_scores")
    return _first_feasible(nonmated, [_check_target(target)])[0]


def d_eer(bonafide_scores: Sequence[float], attack_scores: Sequence[float]) -> tuple[float, Threshold]:
    """Detection equal error rate over the pooled sweep grid.

    Picks the grid threshold minimising ``|APCER - BPCER|`` (ties resolved
    toward the smallest threshold; comparisons done on exact integer
    cross-products) and returns ``((APCER + BPCER) / 2, threshold)``.
    """
    bona = _sorted(bonafide_scores, "bonafide_scores")
    attack = _sorted(attack_scores, "attack_scores")
    return _d_eer(bona, attack)


def bpcer_at_apcer(
    bonafide_scores: Sequence[float],
    attack_scores: Sequence[float],
    target_apcer: float,
) -> tuple[float, Threshold]:
    """BPCER at the smallest sweep threshold with APCER at most ``target_apcer``.

    The sweep grid is built from the attack scores (the constrained class);
    BPCER is then evaluated at the selected threshold.
    """
    bona = _sorted(bonafide_scores, "bonafide_scores")
    attack = _sorted(attack_scores, "attack_scores")
    tau = _first_feasible(attack, [_check_target(target_apcer)])[0]
    return _reject_rate(bona, tau), tau


def det_curve(
    positive_scores: Sequence[float],
    negative_scores: Sequence[float],
    axes: DetAxes,
) -> DetCurve:
    """Full error trade-off sweep over the pooled candidate grid.

    ``positive_scores`` belong to the class that should be accepted (bona
    fide presentations, or mated trials); ``negative_scores`` to the class
    that should be rejected (attacks, or non-mated trials).  ``x_rates``
    holds the negative-class acceptance rate (APCER/FMR) and ``y_rates``
    the positive-class rejection rate (BPCER/FNMR) at each threshold.
    The sorted copies and counts die when it returns; the curve is finished.
    """
    if not isinstance(axes, DetAxes):
        raise ValidationError(f"axes must be a DetAxes, got {axes!r}")
    pos = _sorted(positive_scores, "positive_scores")
    neg = _sorted(negative_scores, "negative_scores")
    grid, accepts, rejects = _pooled(pos, neg)
    return DetCurve(grid, accepts / neg.size, rejects / pos.size, axes)


# ---------------------------------------------------------------------------
# set-level evaluations


def _check_role(score_set: ScoreSet, expected_label, expected_polarity: Polarity, role: str) -> None:
    """Refuse a set that does not fit its role; the set itself is valid when built."""
    if score_set.polarity is not expected_polarity:
        raise PolarityMismatchError(
            f"{role} scores must declare polarity {expected_polarity.value!r}, "
            f"got {score_set.polarity.value!r}"
        )
    off_label = score_set.label_codes != _label_code(expected_label)
    if off_label.any():
        raise ValidationError(
            f"{role} set must contain only {expected_label.value!r} records; "
            f"found other labels (first: {score_set.sample_ids[int(off_label.argmax())]!r})"
        )


def evaluate_pad(bonafide: ScoreSet, attack: ScoreSet) -> PadReport:
    """PAD evaluation of one detector: D-EER, BPCER10, BPCER20.

    Both sets must declare ``HIGHER_IS_BONA_FIDE`` polarity and carry only
    their own presentation label, which guards against swapped inputs.
    """
    _check_role(bonafide, PresentationLabel.BONA_FIDE, Polarity.HIGHER_IS_BONA_FIDE, "bonafide")
    _check_role(attack, PresentationLabel.ATTACK, Polarity.HIGHER_IS_BONA_FIDE, "attack")
    bona, att = np.sort(bonafide.values), np.sort(attack.values)
    eer, eer_tau = _d_eer(bona, att)
    tau10, tau20 = _first_feasible(att, APCER_TARGETS)
    return PadReport(
        d_eer=eer,
        eer_threshold=eer_tau,
        bpcer10=_reject_rate(bona, tau10),
        bpcer20=_reject_rate(bona, tau20),
        bpcer10_threshold=tau10,
        bpcer20_threshold=tau20,
        n_bonafide=bona.size,
        n_attack=att.size,
    )


def evaluate_vuln(
    mated: ScoreSet,
    nonmated: ScoreSet,
    attack: ScoreSet,
    fmr_targets: Sequence[float],
) -> VulnReport:
    """Recognition-vulnerability evaluation at fixed-FMR operating points.

    For each target the decision threshold is set on the non-mated scores
    via :func:`threshold_at_fmr`, then IAPMR is measured on the
    attack-mated scores at that threshold.  All three sets must declare
    ``HIGHER_IS_MATCH`` polarity.
    """
    _check_role(mated, TrialLabel.MATED, Polarity.HIGHER_IS_MATCH, "mated")
    _check_role(nonmated, TrialLabel.NONMATED, Polarity.HIGHER_IS_MATCH, "nonmated")
    _check_role(attack, TrialLabel.ATTACK_MATED, Polarity.HIGHER_IS_MATCH, "attack")
    # only the mated scores' count is read, so they alone stay unsorted
    nonmates, attacks = np.sort(nonmated.values), np.sort(attack.values)
    targets = [_check_target(t) for t in fmr_targets]
    if not targets:
        raise ValidationError("at least one FMR target is required")
    thresholds = dict(zip(targets, _first_feasible(nonmates, targets)))
    rates = {t: _accept_rate(attacks, tau) for t, tau in thresholds.items()}
    return VulnReport(
        thresholds=thresholds,
        iapmr=rates,
        n_mated=mated.values.size,
        n_nonmated=nonmates.size,
        n_attack=attacks.size,
    )

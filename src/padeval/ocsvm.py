"""Linear one-class SVM trained by deterministic pairwise coordinate descent.

The model solves the standard nu-parameterised one-class dual

    minimise    1/2 * alpha' Q alpha        with  Q[i, j] = x_i . x_j
    subject to  0 <= alpha_i <= 1 / (nu * n),   sum_i alpha_i = 1

and recovers the primal decision function ``f(x) = w . x - rho`` with
``w = sum_i alpha_i x_i``.  Training data is the bona fide class only;
``f`` is oriented so that larger values mean more typical of the training
data, which matches the ``HIGHER_IS_BONA_FIDE`` score polarity.

The optimiser is a sequential minimal optimisation loop.  Each step takes
the coordinate with the smallest gradient among those free to grow, pairs
it with the shrinkable coordinate promising the largest second-order
objective decrease (gap squared over pair curvature, the classic
working-set rule that avoids first-order zigzag on ill-conditioned Gram
matrices), solves the one-dimensional sub-problem exactly, and clips to
the box.  Convergence is still declared from the most violating pair's
gap.  Pair updates preserve the simplex constraint by construction, every
tie in pair selection breaks toward the lowest index, and no randomness is
involved, so fitting is bit-for-bit deterministic for identical inputs
under one numpy build and OpenBLAS kernel.  The Gram columns are BLAS
matrix products, whose kernels sum in different orders, so another kernel
may change the last bits of the model, while the fit still certifies.

One iteration computes two Gram columns, ``x @ x[i]`` and ``x @ x[j]``
(matrix-vector products, O(n*d) each), and otherwise only makes O(n)
passes: the pair search adds to the gradient penalties kept in step with
the box (0, or an infinity on rows that cannot move that way), and the
gap, pair curvature, gain and gradient update are written into buffers
allocated once per fit.  Memory is O(n*d): neither the Gram matrix nor
any of its columns is kept between iterations.

``nu`` keeps its usual role: it upper-bounds the fraction of training rows
at the box ceiling (margin errors) and lower-bounds the fraction with
non-zero weight (support vectors); ``nu = 1`` forces the unique feasible
point ``alpha_i = 1/n``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .core import (
    FeatureMatrix,
    Label,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
    ValidationError,
)

__all__ = [
    "InfeasibleNuError",
    "NotConvergedError",
    "DimensionMismatchError",
    "OcsvmConfig",
    "OcsvmDiagnostics",
    "OcsvmModel",
    "fit",
    "decision_value",
    "score_matrix",
]

# Curvature floor for the one-dimensional sub-problem, as in classic SMO
# implementations; only reached on numerically degenerate pairs.
_ETA_FLOOR = 1e-12


class InfeasibleNuError(ValidationError):
    """nu is outside (0, 1] or below 1/n for n training rows."""


class DimensionMismatchError(ValidationError):
    """Input feature dimension differs from the model's."""


class NotConvergedError(PadevalError):
    """The KKT residual was above tol when the pair-update budget ran out, or after
    three exact gradient refreshes (a tol below the gradient's rounding)."""

    def __init__(self, kkt_residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations (KKT residual {kkt_residual:.3e})"
        )
        self.kkt_residual = kkt_residual
        self.iterations = iterations


@dataclass(frozen=True)
class OcsvmConfig:
    """Training knobs.

    Attributes:
        nu: in (0, 1]; bounds the margin-error and support fractions.
        tol: KKT residual at which training stops.
        max_iter: total pair-update budget; ``None`` means ``100 * n``.
        standardize: fit a per-dimension (mean, scale) transform on the
            training rows and apply it before the kernel; scale is the
            population standard deviation, with 1.0 substituted for
            constant dimensions.
    """

    nu: float = 0.5
    tol: float = 1e-6
    max_iter: int | None = None
    standardize: bool = True


@dataclass(frozen=True)
class OcsvmDiagnostics:
    """Solver evidence recorded by :func:`fit`.

    ``n_margin_errors`` counts rows at the box ceiling ``1/(nu*n)`` and
    ``n_support`` rows with non-zero weight.  ``objective_trace`` holds the
    dual objective at each iteration, non-increasing by construction.
    ``degenerate_data`` flags all-identical training rows, for which the
    forced initial weights are already optimal.
    """

    kkt_residual: float
    iterations: int
    n_support: int
    n_margin_errors: int
    degenerate_data: bool
    objective_trace: tuple[float, ...]


@dataclass(eq=False)
class OcsvmModel:
    """Fitted linear one-class model: ``f(x) = w . x_std - rho``.

    ``w`` lives in the standardized space when ``mean``/``scale`` are set;
    :func:`decision_value` applies the transform before the dot product.
    """

    w: np.ndarray
    rho: float
    nu: float
    dual_alphas: np.ndarray
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None
    diagnostics: OcsvmDiagnostics | None = None

    @property
    def d(self) -> int:
        return int(np.asarray(self.w).shape[0])


def _training_array(features: Union[FeatureMatrix, np.ndarray]) -> np.ndarray:
    values = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"training features must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("training features contain non-finite values")
    return arr


def _initial_alphas(n: int, c_box: float, nu: float) -> np.ndarray:
    alpha = np.zeros(n, dtype=np.float64)
    k = int(np.floor(nu * n))
    alpha[:k] = c_box
    if k < n:
        rest = 1.0 - c_box * k
        alpha[k] = rest if rest > 0.0 else 0.0
    return alpha


_OVERFLOW = "training rows are too large: sums and products of them overflow the float range"

# Largest squared row norm M that training accepts, checked after the
# standardizer and before the solver.  Below it every value the solver forms
# stays finite: by Cauchy-Schwarz each Gram entry is at most about M, and so
# is each gradient (a convex combination of Gram entries); a gap is at most
# 2M, a pair curvature at most 4M and the incremental gradient update at most
# 3M; the objective, ``w`` and ``rho`` are finite too.  Only the gain
# ``gap * gap / eta`` and the unclipped step ``gap / eta`` can overflow, and
# they overflow to +inf, never to NaN: the step is then clipped to the box.
# An overflowed gain ties at +inf with every other overflowed one, and
# ``argmax`` then takes the lowest-index candidate, not the best pair, so
# fits on rows beyond about 1e77 can take many more iterations; ROADMAP open
# item 2 (an exact power-of-two pre-scale of the rows) removes the overflow.
_MAX_SQUARED_NORM = sys.float_info.max / 8


def fit(features: Union[FeatureMatrix, np.ndarray], config: OcsvmConfig = OcsvmConfig()) -> OcsvmModel:
    """Train on bona fide rows; see the module docstring for the programme.

    Raises:
        InfeasibleNuError: ``nu`` outside (0, 1] or ``nu < 1/n``.
        NotConvergedError: KKT residual still above ``config.tol`` after
            the pair-update budget or after three exact gradient refreshes;
            a step that moves no weight raises the budget's error at once.
        ValidationError: fewer than two rows, non-finite rows, a bad
            ``tol``/``max_iter``, a standardizer (mean or scale) that is
            not finite, or rows, after the standardizer, whose largest
            squared norm exceeds ``sys.float_info.max / 8``; both are
            checked before the solver runs.
    """
    x_raw = _training_array(features)
    n, d = x_raw.shape
    if n < 2:
        raise ValidationError(f"training needs at least 2 rows, got {n}")
    nu = float(config.nu)
    if not (0.0 < nu <= 1.0):
        raise InfeasibleNuError(f"nu must lie in (0, 1], got {nu!r}")
    if nu < 1.0 / n:  # nu * n < 1 would refuse nu = 1/n where (1/n) * n rounds below 1, as at n = 49
        raise InfeasibleNuError(f"nu * n must be at least 1, got nu={nu!r} with n={n}")
    tol = float(config.tol)
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    max_iter = 100 * n if config.max_iter is None else int(config.max_iter)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")

    # overflowing rows are refused without a numpy warning; below the limit
    # the solver's gain can still overflow to +inf
    with np.errstate(over="ignore", invalid="ignore"):
        mean = scale = None
        x = x_raw
        if config.standardize:
            mean = x_raw.mean(axis=0)
            sd = x_raw.std(axis=0)
            scale = np.where(sd > 0.0, sd, 1.0)
            if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
                raise ValidationError(_OVERFLOW)
            x = (x_raw - mean) / scale
        if not np.einsum("ij,ij->i", x, x).max() <= _MAX_SQUARED_NORM:  # NaN is refused too
            raise ValidationError(_OVERFLOW)

        c_box = 1.0 / (nu * n)
        alpha = _initial_alphas(n, c_box, nu)
        degenerate = bool(np.all(x_raw == x_raw[0]))

        if degenerate:
            # Q is a constant matrix, so every feasible alpha already minimises
            # the dual; keep the forced initial weights and finish immediately
            # (the solver need not: gemv can round identical rows apart).
            grad = x @ (x.T @ alpha)
            iterations, residual, trace = 0, 0.0, [0.5 * float(alpha @ grad)]
        else:
            alpha, grad, iterations, residual, trace = _smo(x, alpha, c_box, tol, max_iter)
        w = x.T @ alpha
        rho = _solve_rho(grad, alpha, c_box)
    diagnostics = OcsvmDiagnostics(
        kkt_residual=float(residual),
        iterations=int(iterations),
        n_support=int(np.count_nonzero(alpha > 0.0)),
        n_margin_errors=int(np.count_nonzero(alpha == c_box)),
        degenerate_data=degenerate,
        objective_trace=tuple(trace),
    )
    return OcsvmModel(
        w=w, rho=rho, nu=nu, dual_alphas=alpha, mean=mean, scale=scale, diagnostics=diagnostics
    )


def _smo(
    x: np.ndarray,
    alpha: np.ndarray,
    c_box: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, float, list[float]]:
    n = x.shape[0]
    diag = np.einsum("ij,ij->i", x, x)
    # Which rows may grow (alpha < c_box) and shrink (alpha > 0), kept in step
    # with alpha as penalties of 0 or an infinity to add to the gradient.  Only
    # rows i and j change in a step.  Some row can always shrink: some initial
    # weight is positive, and a step moves weight from j to i, so one of them
    # keeps it.
    grow_pen = np.where(alpha < c_box, 0.0, np.inf)
    shrink_pen = np.where(alpha > 0.0, 0.0, -np.inf)
    # the O(n) passes and the two Gram columns write into these
    search, gap, pair_eta, gain, col_i, col_j = (np.empty(n) for _ in range(6))

    def most_violating() -> tuple[float, int]:
        """KKT gap of the most-violating pair (non-positive means optimal)
        and its growing row; -inf and -1 when no row can grow.

        Otherwise leaves ``grad + shrink_pen`` in ``search``.
        """
        np.add(grad, grow_pen, out=search)
        i = int(search.argmin())
        if search[i] == np.inf:  # no row can grow: the gradient is finite (see _MAX_SQUARED_NORM)
            return -np.inf, -1
        np.add(grad, shrink_pen, out=search)
        j = int(search.argmax())
        return float(grad[j] - grad[i]), i

    iterations = 0
    trace: list[float] = []
    # Outer restarts refresh the incrementally maintained gradient from the
    # exact alphas, so tiny float drift cannot fake convergence.
    grad = x @ (x.T @ alpha)
    for _refresh in range(3):
        while True:
            residual, i = most_violating()
            trace.append(0.5 * float(alpha @ grad))
            if residual <= tol:
                break
            if iterations >= max_iter:
                raise NotConvergedError(kkt_residual=residual, iterations=iterations)
            np.matmul(x, x[i], out=col_i)
            # Second-order partner choice: the most-violating j (used for the
            # stopping test above) can zigzag, so step instead with the
            # shrinkable row promising the largest objective decrease
            # gap^2 / eta.  The most-violating j always qualifies, so the
            # candidate set is never empty here.
            #
            # The gain is taken from the gap clamped at 0 and read off
            # grad + shrink_pen, which is -inf on rows that cannot shrink, so
            # every row outside the candidate set gains 0 and every candidate
            # its exact gain.  A positive maximum thus picks the row that
            # masking the others to -inf picks; on a maximum of 0 (every gain
            # underflowed) that is the first candidate, the first positive gap.
            np.subtract(search, grad[i], out=gap)
            np.maximum(gap, 0.0, out=gap)
            np.add(diag[i], diag, out=pair_eta)
            np.multiply(2.0, col_i, out=col_j)  # scratch until x @ x[j] lands there
            np.subtract(pair_eta, col_j, out=pair_eta)
            np.maximum(pair_eta, _ETA_FLOOR, out=pair_eta)
            np.multiply(gap, gap, out=gain)
            np.divide(gain, pair_eta, out=gain)
            j = int(gain.argmax())
            if gain[j] == 0.0:
                j = int((gap > 0.0).argmax())
            np.matmul(x, x[j], out=col_j)
            step = float(grad[j] - grad[i]) / float(pair_eta[j])
            room_i = c_box - alpha[i]
            step = min(step, room_i, alpha[j])
            pair_sum = alpha[i] + alpha[j]
            if step == room_i:
                new_i, new_j = c_box, pair_sum - c_box
            elif step == alpha[j]:
                new_i, new_j = min(pair_sum, c_box), 0.0
            else:
                new_i = alpha[i] + step
                new_j = pair_sum - new_i
            new_i = min(max(new_i, 0.0), c_box)
            new_j = min(max(new_j, 0.0), c_box)
            delta_i = new_i - alpha[i]
            delta_j = new_j - alpha[j]
            if delta_i == 0.0 and delta_j == 0.0:
                # a step that moves no weight leaves every later step the same until the
                # budget runs out (only zeros in grad may flip sign): stop as that would
                raise NotConvergedError(kkt_residual=residual, iterations=max_iter)
            alpha[i] = new_i
            alpha[j] = new_j
            # grad += delta_i * col_i + delta_j * col_j, the columns as scratch
            np.multiply(delta_i, col_i, out=col_i)
            np.multiply(delta_j, col_j, out=col_j)
            np.add(col_i, col_j, out=col_i)
            np.add(grad, col_i, out=grad)
            for k in (i, j):
                grow_pen[k] = 0.0 if alpha[k] < c_box else np.inf
                shrink_pen[k] = 0.0 if alpha[k] > 0.0 else -np.inf
            iterations += 1
        # re-derive the gradient without incremental drift and re-check
        grad = x @ (x.T @ alpha)
        residual, _ = most_violating()
        if residual <= tol:
            return alpha, grad, iterations, max(residual, 0.0), trace
    raise NotConvergedError(kkt_residual=residual, iterations=iterations)


def _solve_rho(grad: np.ndarray, alpha: np.ndarray, c_box: float) -> float:
    """Offset from the KKT stationarity conditions.

    Free support vectors satisfy ``w . x_i = rho`` exactly, so their mean
    gradient is the estimate of choice.  Without free vectors the KKT
    system only brackets rho between ``max(grad at ceiling)`` and
    ``min(grad at zero)``; the midpoint is used, or the ceiling edge when no
    row is at zero (e.g. nu = 1 puts every row at the ceiling).  Some weight
    is positive, so without free vectors some row is at the ceiling.
    """
    free = (alpha > 0.0) & (alpha < c_box)
    if free.any():
        return float(grad[free].mean())
    ceiling = grad[alpha == c_box].max()
    at_zero = alpha == 0.0
    return float((ceiling + grad[at_zero].min()) / 2.0 if at_zero.any() else ceiling)


def _row_scores(model: OcsvmModel, rows: np.ndarray) -> list[float]:
    """``w . standardize(row) - rho`` per row, one dot product each (a matrix product may
    reduce in another order, and a score must not depend on batching); an overflow gives
    +-inf or NaN without a numpy warning, for the callers to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model.mean is not None:
            rows = (rows - model.mean) / model.scale
        return [float(row @ model.w - model.rho) for row in rows]


def decision_value(model: OcsvmModel, x: Sequence[float]) -> float:
    """``w . standardize(x) - rho``; larger means more like the training data.

    Raises:
        DimensionMismatchError: ``x`` is not a ``model.d``-long vector.
        ValidationError: ``x`` holds a non-finite value, or the decision
            value overflows the float range.
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != model.d:
        raise DimensionMismatchError(
            f"expected a {model.d}-dimensional sample, got shape {vec.shape}"
        )
    if not np.isfinite(vec).all():
        raise ValidationError("sample contains non-finite values")
    (value,) = _row_scores(model, vec[np.newaxis])
    if not math.isfinite(value):
        raise ValidationError(f"non-finite decision value {value!r}")
    return value


def score_matrix(
    model: OcsvmModel,
    features: FeatureMatrix,
    labels: Union[Label, Mapping[str, Label]],
) -> ScoreSet:
    """Decision values for every row of ``features`` as a ScoreSet.

    ``labels`` supplies the ground-truth label per sample id (or one label
    for all rows); detector outputs carry evaluation labels so they can
    feed the metric functions directly.  Row order and ids are preserved
    and the polarity is ``HIGHER_IS_BONA_FIDE``.
    """
    if features.d != model.d:
        raise DimensionMismatchError(
            f"model expects {model.d}-dimensional rows, features have {features.d}"
        )
    values = _row_scores(model, features.values)  # an overflow is refused below
    if isinstance(labels, (PresentationLabel, TrialLabel)):
        per_row = [labels] * features.n
    else:
        missing = [sid for sid in features.sample_ids if sid not in labels]
        if missing:
            raise ValidationError(f"no label for sample_id {missing[0]!r}")
        per_row = [labels[sid] for sid in features.sample_ids]
    return ScoreSet(features.sample_ids, per_row, values, Polarity.HIGHER_IS_BONA_FIDE)

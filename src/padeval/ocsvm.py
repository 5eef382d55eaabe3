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
involved, so fitting is bit-for-bit deterministic for identical inputs.

``nu`` keeps its usual role: it upper-bounds the fraction of training rows
at the box ceiling (margin errors) and lower-bounds the fraction with
non-zero weight (support vectors); ``nu = 1`` forces the unique feasible
point ``alpha_i = 1/n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _check_finite,
    _label_codes,
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
    """nu is outside (0, 1] or nu * n < 1, so the dual has no solution."""


class DimensionMismatchError(ValidationError):
    """Input feature dimension differs from the model's."""


class NotConvergedError(PadevalError):
    """The iteration budget ran out before the KKT residual reached tol."""

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
    k = min(int(np.floor(nu * n)), n)
    alpha[:k] = c_box
    if k < n:
        rest = 1.0 - c_box * k
        alpha[k] = rest if rest > 0.0 else 0.0
    return alpha


def _apply_standardizer(x: np.ndarray, mean: np.ndarray | None, scale: np.ndarray | None) -> np.ndarray:
    if mean is None:
        return x
    return (x - mean) / scale


def fit(features: Union[FeatureMatrix, np.ndarray], config: OcsvmConfig = OcsvmConfig()) -> OcsvmModel:
    """Train on bona fide rows; see the module docstring for the programme.

    Raises:
        InfeasibleNuError: ``nu`` outside (0, 1] or ``nu * n < 1``.
        NotConvergedError: KKT residual still above ``config.tol`` after
            the pair-update budget.
        ValidationError: fewer than two rows, non-finite rows, or a bad
            ``tol``/``max_iter``.
    """
    x_raw = _training_array(features)
    n, d = x_raw.shape
    if n < 2:
        raise ValidationError(f"training needs at least 2 rows, got {n}")
    nu = float(config.nu)
    if not (0.0 < nu <= 1.0) or not np.isfinite(nu):
        raise InfeasibleNuError(f"nu must lie in (0, 1], got {nu!r}")
    if nu * n < 1.0:
        raise InfeasibleNuError(f"nu * n must be at least 1, got nu={nu!r} with n={n}")
    tol = float(config.tol)
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    max_iter = 100 * n if config.max_iter is None else int(config.max_iter)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")

    mean = scale = None
    x = x_raw
    if config.standardize:
        mean = x_raw.mean(axis=0)
        sd = x_raw.std(axis=0)
        scale = np.where(sd > 0.0, sd, 1.0)
        x = (x_raw - mean) / scale

    c_box = 1.0 / (nu * n)
    alpha = _initial_alphas(n, c_box, nu)
    degenerate = bool(np.all(x_raw == x_raw[0]))

    if degenerate:
        # Q is a constant matrix, so every feasible alpha already minimises
        # the dual; keep the forced initial weights and finish immediately.
        w = x.T @ alpha
        grad = x @ w
        iterations = 0
        residual = 0.0
        trace = (0.5 * float(alpha @ grad),)
    else:
        alpha, grad, iterations, residual, trace_list = _smo(x, alpha, c_box, tol, max_iter)
        w = x.T @ alpha
        trace = tuple(trace_list)

    rho = _solve_rho(grad, alpha, c_box)
    diagnostics = OcsvmDiagnostics(
        kkt_residual=float(residual),
        iterations=int(iterations),
        n_support=int(np.count_nonzero(alpha > 0.0)),
        n_margin_errors=int(np.count_nonzero(alpha == c_box)),
        degenerate_data=degenerate,
        objective_trace=trace,
    )
    return OcsvmModel(
        w=w, rho=rho, nu=nu, dual_alphas=alpha, mean=mean, scale=scale, diagnostics=diagnostics
    )


def _kkt_residual(grad: np.ndarray, alpha: np.ndarray, c_box: float) -> tuple[float, int, int]:
    """Most-violating pair and its KKT gap (non-positive means optimal)."""
    up = alpha < c_box
    low = alpha > 0.0
    if not up.any() or not low.any():
        return -np.inf, -1, -1
    grow = np.where(up, grad, np.inf)
    shrink = np.where(low, grad, -np.inf)
    i = int(np.argmin(grow))
    j = int(np.argmax(shrink))
    return float(grad[j] - grad[i]), i, j


def _smo(
    x: np.ndarray,
    alpha: np.ndarray,
    c_box: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, float, list[float]]:
    diag = np.einsum("ij,ij->i", x, x)
    iterations = 0
    trace: list[float] = []
    # Outer restarts refresh the incrementally maintained gradient from the
    # exact alphas, so tiny float drift cannot fake convergence.
    for _refresh in range(3):
        grad = x @ (x.T @ alpha)
        while True:
            residual, i, j = _kkt_residual(grad, alpha, c_box)
            trace.append(0.5 * float(alpha @ grad))
            if residual <= tol:
                break
            if iterations >= max_iter:
                raise NotConvergedError(kkt_residual=residual, iterations=iterations)
            col_i = x @ x[i]
            # Second-order partner choice: the most-violating j (used for the
            # stopping test above) can zigzag, so step instead with the
            # shrinkable row promising the largest objective decrease
            # gap^2 / eta.  The most-violating j always qualifies, so the
            # candidate set is never empty here.
            gap = grad - grad[i]
            pair_eta = np.maximum(diag[i] + diag - 2.0 * col_i, _ETA_FLOOR)
            gain = np.where((alpha > 0.0) & (gap > 0.0), gap * gap / pair_eta, -np.inf)
            j = int(np.argmax(gain))
            col_j = x @ x[j]
            step = float(gap[j]) / float(pair_eta[j])
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
            alpha[i] = new_i
            alpha[j] = new_j
            grad += delta_i * col_i + delta_j * col_j
            iterations += 1
        # re-derive the gradient without incremental drift and re-check
        grad = x @ (x.T @ alpha)
        residual, _, _ = _kkt_residual(grad, alpha, c_box)
        if residual <= tol:
            return alpha, grad, iterations, max(residual, 0.0), trace
    raise NotConvergedError(kkt_residual=residual, iterations=iterations)


def _solve_rho(grad: np.ndarray, alpha: np.ndarray, c_box: float) -> float:
    """Offset from the KKT stationarity conditions.

    Free support vectors satisfy ``w . x_i = rho`` exactly, so their mean
    gradient is the estimate of choice.  Without free vectors the KKT
    system only brackets rho between ``max(grad at ceiling)`` and
    ``min(grad at zero)``; the midpoint is used, or the finite edge when
    one side is absent (e.g. nu = 1 puts every row at the ceiling).
    """
    free = (alpha > 0.0) & (alpha < c_box)
    if free.any():
        return float(grad[free].mean())
    at_ceiling = alpha == c_box
    at_zero = alpha == 0.0
    if at_ceiling.any() and at_zero.any():
        return float((grad[at_ceiling].max() + grad[at_zero].min()) / 2.0)
    if at_ceiling.any():
        return float(grad[at_ceiling].max())
    return float(grad[at_zero].min())


def decision_value(model: OcsvmModel, x: Sequence[float]) -> float:
    """``w . standardize(x) - rho``; larger means more like the training data."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != model.d:
        raise DimensionMismatchError(
            f"expected a {model.d}-dimensional sample, got shape {vec.shape}"
        )
    if not np.isfinite(vec).all():
        raise ValidationError("sample contains non-finite values")
    return float(_apply_standardizer(vec, model.mean, model.scale) @ model.w - model.rho)


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
    standardized = _apply_standardizer(features.values, model.mean, model.scale)
    # score row by row: a matrix product may reduce in a different order than
    # the vector product in decision_value, and scores must not depend on
    # whether samples were batched
    values = [float(row @ model.w - model.rho) for row in standardized]
    if isinstance(labels, (PresentationLabel, TrialLabel)):
        per_row = [labels] * features.n
    else:
        missing = [sid for sid in features.sample_ids if sid not in labels]
        if missing:
            raise ValidationError(f"no label for sample_id {missing[0]!r}")
        per_row = [labels[sid] for sid in features.sample_ids]
    # the feature matrix vouches for its ids; the labels and the scores
    # (a product can overflow) are checked as the ScoreSet constructor would
    codes = _label_codes(per_row)
    values = np.array(values)
    _check_finite(features.sample_ids, values)
    return ScoreSet._trusted(features.sample_ids, codes, values, Polarity.HIGHER_IS_BONA_FIDE)

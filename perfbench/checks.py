"""Output checks against references computed here, not by padeval.

The threshold metrics are recomputed from class histograms over the
distinct scores (``np.unique`` + cumulative counts), a different shape from
the library's per-threshold binary searches; only the midpoint formula of
the candidate grid is shared, because it is part of the file contract.
Rates are exact integer counts divided once, as the contract requires, so
report fields, DET rows and fused scores must match bit for bit.  Solver
outputs (decision values, depth deviations) are compared within 1e-9
relative, since a different summation order may move the last bits.

Every check raises :class:`CheckError`; the caller counts it as a failed op.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

_DET_HEADER = "threshold,apcer_or_fmr,bpcer_or_fnmr"
_REL_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckError(f"{path}: cannot read ({exc})") from None


def read_scores(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """``sample_id,label,score`` rows as (ids, labels, scores)."""
    lines = _read_text(path).split("\n")
    _require(lines[0] == "sample_id,label,score", f"{path}: bad header {lines[0]!r}")
    _require(len(lines) > 2 and lines[-1] == "", f"{path}: no rows or no final newline")
    try:
        ids, labels, scores = zip(*(line.split(",") for line in lines[1:-1]))
        values = np.array(scores, dtype=np.float64)
    except ValueError as exc:
        raise CheckError(f"{path}: malformed row ({exc})") from None
    return list(ids), list(labels), values


# ---------------------------------------------------------------------------
# reference threshold sweeps


def _grid(distinct: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct scores plus one sentinel each side."""
    mids = distinct[:-1] + (distinct[1:] - distinct[:-1]) / 2.0
    _require(bool(np.all(mids > distinct[:-1])), "two scores are adjacent floats; no midpoint between them")
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def _below(hist: np.ndarray) -> np.ndarray:
    """Count of scores below each grid point, from per-distinct-value counts."""
    return np.concatenate(([0], np.cumsum(hist)))


def pooled_sweep(positive: np.ndarray, negative: np.ndarray):
    """(grid, negatives >= tau, positives < tau) over the pooled grid."""
    distinct, inverse = np.unique(np.concatenate((positive, negative)), return_inverse=True)
    hist_pos = np.bincount(inverse[: positive.size], minlength=distinct.size)
    hist_neg = np.bincount(inverse[positive.size :], minlength=distinct.size)
    return _grid(distinct), negative.size - _below(hist_neg), _below(hist_pos)


def _first_feasible(constrained: np.ndarray, target: float) -> float:
    """Smallest grid point of ``constrained`` whose rate of scores >= tau is at most target."""
    distinct, inverse = np.unique(constrained, return_inverse=True)
    at_or_above = constrained.size - _below(np.bincount(inverse, minlength=distinct.size))
    frac = Fraction(target)
    allowed = frac.numerator * constrained.size // frac.denominator
    return float(_grid(distinct)[np.flatnonzero(at_or_above <= allowed)[0]])


def ref_pad_metrics(bona: np.ndarray, attack: np.ndarray) -> dict:
    grid, att_ge, bona_lt = pooled_sweep(bona, attack)
    n_b, n_a = bona.size, attack.size
    best = int(np.argmin(np.abs(att_ge * n_b - bona_lt * n_a)))
    eer = (Fraction(int(att_ge[best]), n_a) + Fraction(int(bona_lt[best]), n_b)) / 2
    out = {"d_eer": float(eer), "eer_threshold": float(grid[best]), "n_bonafide": n_b, "n_attack": n_a}
    for key, target in (("bpcer10", 0.10), ("bpcer20", 0.05)):
        tau = _first_feasible(attack, target)
        out[key] = int(np.count_nonzero(bona < tau)) / n_b
        out[f"{key}_threshold"] = tau
    return out


def ref_vuln_metrics(mated, nonmated, attack, targets) -> dict:
    thresholds, iapmr = {}, {}
    for t in targets:
        tau = _first_feasible(nonmated, t)
        thresholds[repr(float(t))] = tau
        iapmr[repr(float(t))] = int(np.count_nonzero(attack >= tau)) / attack.size
    return {
        "thresholds": thresholds,
        "iapmr": iapmr,
        "n_mated": mated.size,
        "n_nonmated": nonmated.size,
        "n_attack": attack.size,
    }


# ---------------------------------------------------------------------------
# evaluation outputs


def check_report(report: dict, kind: str, expected_metrics: dict) -> None:
    """Report structure plus exact equality of every metric field."""
    _require(report.get("magic") == "PADEVAL", "report magic missing")
    _require(report.get("kind") == kind, f"report kind {report.get('kind')!r}, expected {kind!r}")
    got = report.get("metrics")
    _require(got == expected_metrics, f"report metrics {got!r} differ from reference {expected_metrics!r}")


def _load_report(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}: bad JSON ({exc})") from None


def _check_stdout(stdout: str, report: dict) -> None:
    expected = "".join(line + "\n" for line in report.get("summary", []))
    _require(stdout == expected, f"stdout {stdout!r} is not the report summary")


def _check_det(out_dir: str, positive: np.ndarray, negative: np.ndarray) -> None:
    grid, neg_ge, pos_lt = pooled_sweep(positive, negative)
    lines = _read_text(f"{out_dir}/det.csv").split("\n")
    _require(lines[0] == _DET_HEADER and lines[-1] == "", "det.csv header or final newline wrong")
    _require(len(lines) - 2 == grid.size, f"det.csv has {len(lines) - 2} rows, reference grid {grid.size}")
    try:
        table = np.array([row.split(",") for row in lines[1:-1]], dtype=np.float64)
    except ValueError as exc:
        raise CheckError(f"det.csv: malformed row ({exc})") from None
    _require(table.shape == (grid.size, 3), "det.csv rows do not have three columns")
    _require(np.array_equal(table[:, 0], grid), "det.csv thresholds differ from the reference grid")
    _require(np.array_equal(table[:, 1], neg_ge / negative.size), "det.csv x rates differ")
    _require(np.array_equal(table[:, 2], pos_lt / positive.size), "det.csv y rates differ")
    svg = _read_text(f"{out_dir}/det.svg")
    _require(svg.startswith("<svg") and svg.endswith("</svg>\n"), "det.svg is not one svg element")
    _require('<polyline points="' in svg, "det.svg has no curve")


def check_pad_outputs(out_dir: str, stdout: str, bona: np.ndarray, attack: np.ndarray) -> None:
    report = _load_report(f"{out_dir}/pad_report.json")
    check_report(report, "pad-report", ref_pad_metrics(bona, attack))
    _check_stdout(stdout, report)
    _check_det(out_dir, bona, attack)


def check_pad_outputs_from_file(out_dir: str, stdout: str, scores_path: str) -> None:
    _, labels, scores = read_scores(scores_path)
    labels = np.asarray(labels)
    check_pad_outputs(out_dir, stdout, scores[labels == "bonafide"], scores[labels == "attack"])


def check_vuln_outputs(out_dir, stdout, mated, nonmated, attack, targets) -> None:
    report = _load_report(f"{out_dir}/vuln_report.json")
    check_report(report, "vuln-report", ref_vuln_metrics(mated, nonmated, attack, targets))
    _check_stdout(stdout, report)
    _check_det(out_dir, mated, nonmated)


# ---------------------------------------------------------------------------
# score files


def _check_rows(path: str, ids, labels) -> np.ndarray:
    got_ids, got_labels, scores = read_scores(path)
    _require(got_ids == list(ids), f"{path}: ids do not cover exactly the input ids in order")
    _require(got_labels == list(labels), f"{path}: labels differ from the ground truth")
    return scores


def _require_close(path: str, got: np.ndarray, want: np.ndarray) -> None:
    err = np.abs(got - want) / (1.0 + np.abs(want))
    k = int(np.argmax(err))
    _require(err[k] <= _REL_TOL, f"{path}: row {k} holds {float(got[k])!r}, reference {float(want[k])!r}")


def _standardized(features: np.ndarray, model: dict) -> np.ndarray:
    if model.get("mean") is None:
        return features
    return (features - np.asarray(model["mean"])) / np.asarray(model["scale"])


def check_fused(out_path: str, a_path: str, b_path: str) -> None:
    """Min-max fusion with equal weights, recomputed by id join."""
    ids_a, labels_a, a = read_scores(a_path)
    ids_b, _, b = read_scores(b_path)
    b_by_id = dict(zip(ids_b, b.tolist()))
    _require(b_by_id.keys() == set(ids_a), "fusion inputs cover different ids")
    b = np.array([b_by_id[sid] for sid in ids_a])

    def norm(s: np.ndarray) -> np.ndarray:
        lo, hi = s.min(), s.max()
        return np.full(s.shape, 0.5) if hi == lo else np.clip((s - lo) / (hi - lo), 0.0, 1.0)

    got = _check_rows(out_path, ids_a, labels_a)
    _require(np.array_equal(got, 0.5 * norm(a) + 0.5 * norm(b)), f"{out_path}: fused scores differ")


def check_decision_scores(out_path, model_path, ids, labels, features: np.ndarray) -> None:
    model = _load_report(model_path)
    want = _standardized(features, model) @ np.asarray(model["w"]) - model["rho"]
    _require_close(out_path, _check_rows(out_path, ids, labels), want)


def check_dv_scores(out_path, ids, labels, depth_maps, points: np.ndarray) -> None:
    """Population deviation of the non-zero depths under the rounded landmarks."""
    cols = np.floor(points[:, 0] + 0.5).astype(np.int64)
    rows = np.floor(points[:, 1] + 0.5).astype(np.int64)
    want = []
    for depth in depth_maps:
        inside = (cols >= 0) & (cols < depth.shape[1]) & (rows >= 0) & (rows < depth.shape[0])
        values = depth[rows[inside], cols[inside]].astype(np.float64)
        values = values[values != 0]
        _require(values.size >= 10, "a capture has fewer than 10 measurable landmarks")
        want.append(math.sqrt(float(np.mean((values - values.mean()) ** 2))))
    _require_close(out_path, _check_rows(out_path, ids, labels), np.asarray(want))


# ---------------------------------------------------------------------------
# one-class model


def check_model(path: str, train: np.ndarray, nu: float, tol: float) -> None:
    """KKT certificate and nu-property of a model file, plus its dual weights when it stores them."""
    model = _load_report(path)
    n, d = train.shape
    _require(model.get("kind") == "ocsvm-model" and model.get("d") == d, "not a d-dimensional ocsvm model")
    _require(model.get("nu") == nu, f"model nu {model.get('nu')!r}, expected {nu!r}")
    diag = model.get("diagnostics") or {}
    _require(diag.get("kkt_residual", math.inf) <= tol, f"kkt_residual {diag.get('kkt_residual')!r} > {tol}")
    n_support, n_margin = diag.get("n_support", -1), diag.get("n_margin_errors", n + 2)
    # nu-property: margin-error fraction <= nu <= support fraction, each within 1/n
    _require(n_margin <= nu * n + 1 and n_support >= nu * n - 1, "nu-property violated")
    if "dual_alphas" not in model:  # the weights are O(n) evidence a model file may leave out
        return
    alpha = np.asarray(model["dual_alphas"], dtype=np.float64)
    _require(alpha.shape == (n,), f"{alpha.size} dual weights for {n} training rows")
    c_box = 1.0 / (nu * n)
    _require(n_support == int(np.count_nonzero(alpha > 0.0)), "n_support disagrees with the dual weights")
    _require(n_margin == int(np.count_nonzero(alpha == c_box)), "n_margin_errors disagrees with the weights")
    _require(bool(np.all((alpha >= 0.0) & (alpha <= c_box))), "dual weights leave the box [0, 1/(nu n)]")
    _require(abs(float(alpha.sum()) - 1.0) <= 1e-9, "dual weights do not sum to 1")
    _require_close(path, np.asarray(model.get("w")), _standardized(train, model).T @ alpha)

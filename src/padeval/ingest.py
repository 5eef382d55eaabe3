"""File formats: CSV score/feature/landmark tables, 16-bit PGM depth maps,
versioned JSON reports and models, DET curve exports.

All text formats are UTF-8 with ``\\n`` line endings; floats are written
with Python's shortest round-trip representation, so ``parse(write(x))``
reproduces ``x`` bit-for-bit.  JSON artifacts carry the magic string
``PADEVAL`` and a format version for forward compatibility.  Parsers
raise only structured :class:`~padeval.core.PadevalError` subclasses, with
one-based line numbers where the format has lines; they never raise bare
builtins, whatever bytes they are fed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence, Union

import numpy as np

from .core import (
    DepthMap,
    FeatureMatrix,
    LABEL_BY_NAME,
    Label,
    LandmarkSet,
    PadevalError,
    Polarity,
    ScoreRecord,
    ScoreSet,
    ValidationError,
    _id_ok,
)
from .metrics import DetAxes, DetCurve, PadReport, VulnReport
from .ocsvm import OcsvmDiagnostics, OcsvmModel

__all__ = [
    "ParseError",
    "RaggedRowError",
    "BadMagicError",
    "BadMaxvalError",
    "TruncatedError",
    "UnsupportedVersionError",
    "EmptyFileError",
    "FormatVersion",
    "FORMAT",
    "DEFAULTS",
    "ManifestRow",
    "fmt_float",
    "percent",
    "parse_scores",
    "write_scores",
    "parse_labels",
    "write_labels",
    "parse_features",
    "write_features",
    "parse_landmarks",
    "write_landmarks",
    "parse_manifest",
    "parse_depth_pgm",
    "write_depth_pgm",
    "write_report",
    "parse_report",
    "write_model",
    "parse_model",
    "write_det",
    "write_det_svg",
]


class ParseError(PadevalError):
    """Malformed input; ``line`` is one-based where the format has lines."""

    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        super().__init__(f"line {line}: {reason}" if line is not None else reason)


class RaggedRowError(ParseError):
    """A CSV row has the wrong number of columns."""


class BadMagicError(ParseError):
    """The input does not start with the expected format magic."""


class BadMaxvalError(ParseError):
    """A PGM input is not 16-bit (maxval 65535)."""


class TruncatedError(ParseError):
    """The input ends before the declared amount of data."""


class UnsupportedVersionError(ParseError):
    """A versioned artifact declares a version this build cannot read."""


class EmptyFileError(ParseError):
    """The input holds no content (or no data rows)."""


@dataclass(frozen=True)
class FormatVersion:
    magic: str = "PADEVAL"
    version: int = 1


FORMAT = FormatVersion()

#: Package-wide parameter defaults, echoed into every report for provenance.
DEFAULTS: dict[str, object] = {
    "nu": 0.5,
    "weights": [0.5, 0.5],
    "min_valid": 10,
    "tol": 1e-6,
}

_SCORES_HEADER = ["sample_id", "label", "score"]
_LABELS_HEADER = ["sample_id", "label"]
_LANDMARKS_HEADER = ["index", "x", "y"]
_MANIFEST_HEADER = ["sample_id", "depth", "landmarks", "label"]
_DET_HEADER = "threshold,apcer_or_fmr,bpcer_or_fnmr"


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def percent(rate: float, decimals: int) -> str:
    """Render a rate in [0, 1] as a fixed-decimal percentage (no sign)."""
    return f"{float(rate) * 100.0:.{decimals}f}"


# ---------------------------------------------------------------------------
# shared text plumbing


def _decode(data: Union[bytes, str], what: str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


def _csv_rows(text: str, what: str) -> list[tuple[int, list[str]]]:
    """All non-blank CSV rows with one-based line numbers."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[tuple[int, list[str]]] = []
    try:
        for fields in reader:
            if fields:
                rows.append((reader.line_num, fields))
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", line=reader.line_num) from None
    if not rows:
        raise EmptyFileError(f"{what} holds no content")
    return rows


def _check_header(rows: list[tuple[int, list[str]]], expected: list[str], what: str) -> None:
    line, fields = rows[0]
    if fields != expected:
        raise ParseError(
            f"expected {what} header {','.join(expected)!r}, got {','.join(fields)!r}", line=line
        )
    if len(rows) == 1:
        raise EmptyFileError(f"{what} has a header but no data rows")


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line=line)
    return value


def _parse_id(token: str, line: int, seen: set[str]) -> str:
    # ids are line-atomic: a quoted CSV field could smuggle in a line break,
    # which the single-line writers could not reproduce
    if not _id_ok(token):
        raise ParseError(f"bad sample_id {token!r}", line=line)
    if token in seen:
        raise ParseError(f"duplicate sample_id {token!r}", line=line)
    seen.add(token)
    return token


def _parse_label(token: str, line: int) -> Label:
    label = LABEL_BY_NAME.get(token)
    if label is None:
        raise ParseError(
            f"unknown label {token!r} (expected one of {', '.join(sorted(LABEL_BY_NAME))})",
            line=line,
        )
    return label


def _csv_line(fields: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# score / label / feature / landmark tables


def parse_scores(data: Union[bytes, str], polarity: Polarity) -> ScoreSet:
    """Read a ``sample_id,label,score`` table.

    The polarity is supplied by the caller: score files do not embed it,
    the surrounding protocol does.
    """
    if not isinstance(polarity, Polarity):
        raise ValidationError(f"polarity must be a Polarity, got {polarity!r}")
    rows = _csv_rows(_decode(data, "scores CSV"), "scores CSV")
    _check_header(rows, _SCORES_HEADER, "scores")
    seen: set[str] = set()
    records = []
    for line, fields in rows[1:]:
        if len(fields) != 3:
            raise RaggedRowError(f"expected 3 columns, got {len(fields)}", line=line)
        sid = _parse_id(fields[0], line, seen)
        label = _parse_label(fields[1], line)
        score = _parse_float(fields[2], line, "score")
        records.append(ScoreRecord(sample_id=sid, label=label, score=score))
    return ScoreSet(records=tuple(records), polarity=polarity)


def _writable_id(sample_id: str) -> str:
    if not _id_ok(sample_id):
        raise ValidationError(f"sample_id {sample_id!r} cannot be written to a single CSV line")
    return sample_id


def write_scores(score_set: ScoreSet) -> str:
    out = [_csv_line(_SCORES_HEADER)]
    out += [
        _csv_line([_writable_id(r.sample_id), r.label.value, fmt_float(r.score)])
        for r in score_set.records
    ]
    return "".join(out)


def parse_labels(data: Union[bytes, str]) -> dict[str, Label]:
    """Read a ``sample_id,label`` table into an ordered mapping."""
    rows = _csv_rows(_decode(data, "labels CSV"), "labels CSV")
    _check_header(rows, _LABELS_HEADER, "labels")
    seen: set[str] = set()
    labels: dict[str, Label] = {}
    for line, fields in rows[1:]:
        if len(fields) != 2:
            raise RaggedRowError(f"expected 2 columns, got {len(fields)}", line=line)
        sid = _parse_id(fields[0], line, seen)
        labels[sid] = _parse_label(fields[1], line)
    return labels


def write_labels(labels: Mapping[str, Label]) -> str:
    out = [_csv_line(_LABELS_HEADER)]
    out += [_csv_line([_writable_id(sid), lab.value]) for sid, lab in labels.items()]
    return "".join(out)


def _features_header(d: int) -> list[str]:
    return ["sample_id"] + [f"f{k}" for k in range(d)]


def parse_features(data: Union[bytes, str]) -> FeatureMatrix:
    """Read a ``sample_id,f0,...,f{d-1}`` table."""
    rows = _csv_rows(_decode(data, "features CSV"), "features CSV")
    line0, header = rows[0]
    if len(header) < 2 or header != _features_header(len(header) - 1):
        raise ParseError(
            "expected features header 'sample_id,f0,...,f{d-1}', got "
            f"{','.join(header[:4])}{',...' if len(header) > 4 else ''!r}",
            line=line0,
        )
    if len(rows) == 1:
        raise EmptyFileError("features CSV has a header but no data rows")
    d = len(header) - 1
    seen: set[str] = set()
    ids: list[str] = []
    values = np.empty((len(rows) - 1, d), dtype=np.float64)
    for r, (line, fields) in enumerate(rows[1:]):
        if len(fields) != d + 1:
            raise RaggedRowError(f"expected {d + 1} columns, got {len(fields)}", line=line)
        ids.append(_parse_id(fields[0], line, seen))
        for k in range(d):
            values[r, k] = _parse_float(fields[k + 1], line, f"feature f{k}")
    return FeatureMatrix(sample_ids=tuple(ids), values=values)


def write_features(features: FeatureMatrix) -> str:
    out = [_csv_line(_features_header(features.d))]
    for sid, row in zip(features.sample_ids, features.values):
        out.append(_csv_line([sid] + [fmt_float(v) for v in row]))
    return "".join(out)


def parse_landmarks(data: Union[bytes, str]) -> LandmarkSet:
    """Read an ``index,x,y`` table; indices must run 0, 1, 2, ... in order."""
    rows = _csv_rows(_decode(data, "landmarks CSV"), "landmarks CSV")
    _check_header(rows, _LANDMARKS_HEADER, "landmarks")
    points = np.empty((len(rows) - 1, 2), dtype=np.float64)
    for r, (line, fields) in enumerate(rows[1:]):
        if len(fields) != 3:
            raise RaggedRowError(f"expected 3 columns, got {len(fields)}", line=line)
        try:
            index = int(fields[0])
        except ValueError:
            raise ParseError(f"bad index {fields[0]!r}", line=line) from None
        if index != r:
            raise ParseError(f"landmark indices must increase from 0; expected {r}, got {index}", line=line)
        points[r, 0] = _parse_float(fields[1], line, "x")
        points[r, 1] = _parse_float(fields[2], line, "y")
    return LandmarkSet(points=points)


def write_landmarks(landmarks: LandmarkSet) -> str:
    out = [_csv_line(_LANDMARKS_HEADER)]
    for k, (x, y) in enumerate(landmarks.points):
        out.append(_csv_line([str(k), fmt_float(x), fmt_float(y)]))
    return "".join(out)


@dataclass(frozen=True)
class ManifestRow:
    """One sample of a depth-scoring batch: file paths plus ground truth."""

    sample_id: str
    depth_path: str
    landmarks_path: str
    label: Label


def parse_manifest(data: Union[bytes, str]) -> list[ManifestRow]:
    """Read a ``sample_id,depth,landmarks,label`` batch manifest."""
    rows = _csv_rows(_decode(data, "manifest CSV"), "manifest CSV")
    _check_header(rows, _MANIFEST_HEADER, "manifest")
    seen: set[str] = set()
    out = []
    for line, fields in rows[1:]:
        if len(fields) != 4:
            raise RaggedRowError(f"expected 4 columns, got {len(fields)}", line=line)
        sid = _parse_id(fields[0], line, seen)
        if fields[1] == "" or fields[2] == "":
            raise ParseError("depth and landmarks paths must be non-empty", line=line)
        out.append(
            ManifestRow(
                sample_id=sid,
                depth_path=fields[1],
                landmarks_path=fields[2],
                label=_parse_label(fields[3], line),
            )
        )
    return out


# ---------------------------------------------------------------------------
# 16-bit binary PGM depth maps


def parse_depth_pgm(data: bytes) -> DepthMap:
    """Read a binary ``P5`` PGM with maxval 65535, big-endian 16-bit samples.

    Header comments (``#`` to end of line) are allowed; 8-bit files are
    refused since depth millimetres do not fit a byte.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ParseError("PGM input must be bytes")
    data = bytes(data)
    if not data.startswith(b"P5"):
        raise BadMagicError("not a binary PGM (magic 'P5' missing)")
    pos = 2

    def next_token() -> str:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        if pos >= len(data):
            raise TruncatedError("PGM header ends early")
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        return data[start:pos].decode("ascii", errors="replace")

    fields = {}
    for name in ("width", "height", "maxval"):
        token = next_token()
        if not token.isdigit():
            raise ParseError(f"bad PGM {name} {token!r}")
        fields[name] = int(token)
    width, height, maxval = fields["width"], fields["height"], fields["maxval"]
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval != 65535:
        raise BadMaxvalError(f"expected 16-bit PGM (maxval 65535), got maxval {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ParseError("expected single whitespace after PGM maxval")
    pos += 1
    expected = width * height * 2
    raster = data[pos:]
    if len(raster) < expected:
        raise TruncatedError(f"PGM raster holds {len(raster)} bytes, expected {expected}")
    if len(raster) > expected:
        raise ParseError(f"{len(raster) - expected} trailing bytes after PGM raster")
    values = np.frombuffer(raster, dtype=">u2").reshape(height, width)
    return DepthMap(values=values.astype(np.uint16))


def write_depth_pgm(depth: DepthMap) -> bytes:
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    return header + depth.values.astype(">u2").tobytes()


# ---------------------------------------------------------------------------
# versioned JSON artifacts (reports, models)


def _reject_const(token: str) -> float:
    raise ParseError(f"non-finite JSON number {token!r}")


def _load_versioned_json(data: Union[bytes, str], kind: str) -> dict:
    text = _decode(data, kind)
    if not text.strip():
        raise EmptyFileError(f"{kind} holds no content")
    try:
        obj = json.loads(text, parse_constant=_reject_const)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} must be a JSON object")
    if obj.get("magic") != FORMAT.magic:
        raise BadMagicError(f"missing or wrong magic (expected {FORMAT.magic!r})")
    if obj.get("version") != FORMAT.version:
        raise UnsupportedVersionError(
            f"unsupported format version {obj.get('version')!r} (this build reads {FORMAT.version})"
        )
    return obj


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmr_label(target: float) -> str:
    return f"FMR={target * 100.0:g}%"


def _summary(report: Union[PadReport, VulnReport]) -> list[str]:
    """The report's human-oriented summary block, as the CLI prints it."""
    if isinstance(report, PadReport):
        return [
            f"D-EER: {percent(report.d_eer, 2)}% at threshold {fmt_float(report.eer_threshold)}",
            f"BPCER @ APCER<=10%: {percent(report.bpcer10, 2)}% (threshold {fmt_float(report.bpcer10_threshold)})",
            f"BPCER @ APCER<=5%: {percent(report.bpcer20, 2)}% (threshold {fmt_float(report.bpcer20_threshold)})",
            f"bona fide: {report.n_bonafide}, attacks: {report.n_attack}",
        ]
    lines = [
        f"{_fmr_label(t)}: threshold {fmt_float(report.thresholds[t])}, "
        f"IAPMR {percent(report.iapmr[t], 4)}%"
        for t in report.thresholds
    ]
    lines.append(
        f"mated: {report.n_mated}, non-mated: {report.n_nonmated}, "
        f"attack-mated: {report.n_attack}"
    )
    return lines


def write_report(report: Union[PadReport, VulnReport], config: Mapping[str, object] | None = None) -> str:
    """Serialize an evaluation report as versioned JSON.

    The payload carries the raw metric fields, a human-oriented summary
    block (PAD rates at two decimals, IAPMR at four), the caller's
    parameter echo, and the package defaults for provenance.
    """
    if isinstance(report, PadReport):
        kind = "pad-report"
        metrics: dict[str, object] = {
            "d_eer": report.d_eer,
            "eer_threshold": report.eer_threshold,
            "bpcer10": report.bpcer10,
            "bpcer10_threshold": report.bpcer10_threshold,
            "bpcer20": report.bpcer20,
            "bpcer20_threshold": report.bpcer20_threshold,
            "n_bonafide": report.n_bonafide,
            "n_attack": report.n_attack,
        }
    elif isinstance(report, VulnReport):
        kind = "vuln-report"
        metrics = {
            "thresholds": {fmt_float(t): tau for t, tau in report.thresholds.items()},
            "iapmr": {fmt_float(t): r for t, r in report.iapmr.items()},
            "n_mated": report.n_mated,
            "n_nonmated": report.n_nonmated,
            "n_attack": report.n_attack,
        }
    else:
        raise ValidationError(f"cannot serialize report of type {type(report).__name__}")
    return _dump_json(
        {
            "magic": FORMAT.magic,
            "version": FORMAT.version,
            "kind": kind,
            "metrics": metrics,
            "summary": _summary(report),
            "config": dict(config or {}),
            "defaults": DEFAULTS,
        }
    )


def parse_report(data: Union[bytes, str]) -> dict:
    """Load and structurally check a report payload (returned as a dict)."""
    obj = _load_versioned_json(data, "report")
    if obj.get("kind") not in ("pad-report", "vuln-report"):
        raise ParseError(f"unknown report kind {obj.get('kind')!r}")
    for key in ("metrics", "summary", "config", "defaults"):
        if key not in obj:
            raise ParseError(f"report is missing the {key!r} block")
    return obj


def _float_list(obj: object, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(v, (int, float)) for v in obj):
        raise ParseError(f"{what} must be a list of numbers")
    arr = np.asarray(obj, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} contains non-finite values")
    return arr


def write_model(model: OcsvmModel) -> str:
    """Serialize a fitted model (weights, offset, standardizer, diagnostics)."""
    diag = model.diagnostics
    payload: dict[str, object] = {
        "magic": FORMAT.magic,
        "version": FORMAT.version,
        "kind": "ocsvm-model",
        "d": model.d,
        "nu": model.nu,
        "w": [float(v) for v in model.w],
        "rho": float(model.rho),
        "mean": None if model.mean is None else [float(v) for v in model.mean],
        "scale": None if model.scale is None else [float(v) for v in model.scale],
        "dual_alphas": [float(v) for v in model.dual_alphas],
        "diagnostics": None
        if diag is None
        else {
            "kkt_residual": diag.kkt_residual,
            "iterations": diag.iterations,
            "n_support": diag.n_support,
            "n_margin_errors": diag.n_margin_errors,
            "degenerate_data": diag.degenerate_data,
            "objective_trace": list(diag.objective_trace),
        },
    }
    return _dump_json(payload)


def parse_model(data: Union[bytes, str]) -> OcsvmModel:
    obj = _load_versioned_json(data, "model")
    if obj.get("kind") != "ocsvm-model":
        raise ParseError(f"expected an ocsvm-model artifact, got kind {obj.get('kind')!r}")
    w = _float_list(obj.get("w"), "w")
    if not isinstance(obj.get("d"), int) or obj["d"] != w.shape[0]:
        raise ParseError("model d does not match the length of w")
    nu = obj.get("nu")
    rho = obj.get("rho")
    if not isinstance(nu, (int, float)) or not 0 < float(nu) <= 1:
        raise ParseError(f"bad model nu {nu!r}")
    if not isinstance(rho, (int, float)) or not math.isfinite(float(rho)):
        raise ParseError(f"bad model rho {rho!r}")
    mean = scale = None
    if obj.get("mean") is not None or obj.get("scale") is not None:
        mean = _float_list(obj.get("mean"), "mean")
        scale = _float_list(obj.get("scale"), "scale")
        if mean.shape != w.shape or scale.shape != w.shape:
            raise ParseError("standardizer dimensions do not match w")
        if (scale <= 0).any():
            raise ParseError("scale entries must be positive")
    alphas = _float_list(obj.get("dual_alphas"), "dual_alphas")
    diag_obj = obj.get("diagnostics")
    diagnostics = None
    if diag_obj is not None:
        if not isinstance(diag_obj, dict):
            raise ParseError("diagnostics must be an object")
        try:
            diagnostics = OcsvmDiagnostics(
                kkt_residual=float(diag_obj["kkt_residual"]),
                iterations=int(diag_obj["iterations"]),
                n_support=int(diag_obj["n_support"]),
                n_margin_errors=int(diag_obj["n_margin_errors"]),
                degenerate_data=bool(diag_obj["degenerate_data"]),
                objective_trace=tuple(float(v) for v in diag_obj["objective_trace"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad diagnostics block: {exc}") from None
    return OcsvmModel(
        w=w, rho=float(rho), nu=float(nu), dual_alphas=alphas, mean=mean, scale=scale, diagnostics=diagnostics
    )


# ---------------------------------------------------------------------------
# DET exports

_DET_LO = 1e-3  # plotted probability range; points outside are clamped
_DET_HI = 0.5
_DET_TICKS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
_PROBIT = NormalDist().inv_cdf


def write_det(curve: DetCurve) -> str:
    """DET sweep as CSV: one row per threshold, rates as exact decimals."""
    lines = [_DET_HEADER]
    for tau, x, y in zip(curve.thresholds, curve.x_rates, curve.y_rates):
        lines.append(f"{fmt_float(tau)},{fmt_float(x)},{fmt_float(y)}")
    return "\n".join(lines) + "\n"


def write_det_svg(curve: DetCurve) -> str:
    """DET curve on normal-deviate (probit) axes as a standalone SVG."""
    width, height = 720, 720
    ml, mr, mt, mb = 96, 30, 30, 72
    plot_w, plot_h = width - ml - mr, height - mt - mb
    lo_q, hi_q = _PROBIT(_DET_LO), _PROBIT(_DET_HI)
    span = hi_q - lo_q

    def x_px(rate: float) -> float:
        q = _PROBIT(min(max(rate, _DET_LO), _DET_HI))
        return ml + (q - lo_q) / span * plot_w

    def y_px(rate: float) -> float:
        q = _PROBIT(min(max(rate, _DET_LO), _DET_HI))
        return height - mb - (q - lo_q) / span * plot_h

    if curve.axes is DetAxes.APCER_BPCER:
        x_name, y_name = "APCER (%)", "BPCER (%)"
    else:
        x_name, y_name = "FMR (%)", "FNMR (%)"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in _DET_TICKS:
        gx = x_px(tick)
        gy = y_px(tick)
        label = f"{tick * 100:g}"
        parts.append(
            f'<line x1="{gx:.2f}" y1="{mt}" x2="{gx:.2f}" y2="{height - mb}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{gy:.2f}" x2="{width - mr}" y2="{gy:.2f}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{height - mb + 20}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{gy:.2f}" font-size="13" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif">{label}</text>'
        )
    points = " ".join(
        f"{x_px(x):.2f},{y_px(y):.2f}" for x, y in zip(curve.x_rates, curve.y_rates)
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="1.6"/>'
    )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 24}" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif">{x_name}</text>'
    )
    parts.append(
        f'<text x="24" y="{mt + plot_h / 2:.2f}" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 24 {mt + plot_h / 2:.2f})">{y_name}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

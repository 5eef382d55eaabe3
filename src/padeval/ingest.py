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
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from statistics import NormalDist
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .core import (
    DepthMap,
    FeatureMatrix,
    LABEL_BY_NAME,
    Label,
    LandmarkSet,
    PadevalError,
    Polarity,
    ScoreSet,
    ValidationError,
    _CODE_BY_NAME,
    _LABEL_NAMES,
    _check_ids,
    _id_ok,
    _ids_ok,
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


_MAGIC = "PADEVAL"
_VERSION = 1

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
#: The JSON type of each count and flag in a model's diagnostics block.
_DIAGNOSTIC_TYPES = {"iterations": int, "n_support": int, "n_margin_errors": int, "degenerate_data": bool}


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def _reprs(values: np.ndarray) -> list[str]:
    """:func:`fmt_float` of every value of a float array, in one pass."""
    return list(map(repr, values.tolist()))


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


@dataclass
class _Table:
    """A CSV table read in one pass, blank lines skipped.

    ``cells`` holds every cell of the data rows that are as wide as the
    header, row after row, and ``lines`` their one-based line numbers, as
    any sequence of ints (a list, or a range when no line was skipped).
    ``ragged`` is the first data row of another width, as ``(number of
    rows before it, line, fields)``, or None.
    """

    header: list[str]
    header_line: int
    cells: list[str]
    lines: Sequence[int]
    ragged: tuple[int, int, list[str]] | None

    def column(self, k: int) -> list[str]:
        return self.cells[k :: len(self.header)]

    def value_cells(self) -> list[str]:
        """Every cell but those of the first (id or index) column, row after row."""
        values = self.cells.copy()
        del values[:: len(self.header)]
        return values

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """The data rows with their line numbers in file order, up to the
        first ragged row."""
        width = len(self.header)
        n = len(self.lines) if self.ragged is None else self.ragged[0]
        for r in range(n):
            yield self.lines[r], self.cells[r * width : (r + 1) * width]
        if self.ragged is not None:
            yield self.ragged[1], self.ragged[2]


def _split_plain(text: str) -> _Table | None:
    """The table of plain CSV, split with ``str.split``; None for any other text.

    Plain means: no ``"``, CR or NUL, no blank line (a final line break
    aside), no line longer than ``csv.field_size_limit()``, and as many
    commas on every line as on the header.  With the excel dialect and no
    quotes, csv.reader splits fields on ``,`` and rows on ``\\n`` only, so
    for such text it reads this same table.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = (text[:-1] if text.endswith("\n") else text).split("\n")
    commas = lines[0].count(",")
    limit = csv.field_size_limit()
    if (
        "" in lines
        or len(text) > limit and max(map(len, lines)) > limit
        or set(map(str.count, lines, repeat(","))) != {commas}
    ):
        return None
    cells = ",".join(lines).split(",")
    header = cells[: commas + 1]
    del cells[: commas + 1]
    return _Table(header, 1, cells, range(2, len(lines) + 1), None)


def _read_table(data: Union[bytes, str], what: str) -> _Table:
    """Read a CSV table as one stream into a flat list of cells.

    Plain CSV is split with ``str.split`` (see :func:`_split_plain`), every
    other input goes through csv.reader.  A CSV syntax error anywhere wins
    over every error in the rows, which are checked only after the whole
    input has been read.
    """
    text = _decode(data, what)
    table = _split_plain(text)
    if table is not None:
        return table
    reader = csv.reader(io.StringIO(text, newline=""))
    header: list[str] = []
    header_line = 0
    cells: list[str] = []
    lines: list[int] = []
    ragged = None
    try:
        for header in reader:
            if header:
                break
        header_line = reader.line_num
        for fields in reader:
            if len(fields) == len(header):
                cells.extend(fields)
                lines.append(reader.line_num)
            elif fields and ragged is None:
                ragged = (len(lines), reader.line_num, fields)
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", line=reader.line_num) from None
    if not header:
        raise EmptyFileError(f"{what} holds no content")
    return _Table(header, header_line, cells, lines, ragged)


def _require_rows(table: _Table, what: str) -> None:
    if not table.lines and table.ragged is None:
        raise EmptyFileError(f"{what} has a header but no data rows")


def _check_header(table: _Table, expected: list[str], what: str) -> None:
    if table.header != expected:
        raise ParseError(
            f"expected {what} header {','.join(expected)!r}, got {','.join(table.header)!r}",
            line=table.header_line,
        )
    _require_rows(table, what)


def _floats(tokens: list[str]) -> np.ndarray:
    """Python's ``float`` of each token, as one float64 array; ValueError on a bad token."""
    return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


def _walk(table: _Table, cells: Sequence[Callable[[str, int, int], object]]) -> list[list]:
    """One list per column, each cell converted by its column's ``cell(token,
    line, row_index)``; raises at the first row of the wrong width or else
    the leftmost faulty cell, whichever comes first in file order."""
    columns: list[list] = [[] for _ in cells]
    for r, (line, fields) in enumerate(table.rows()):
        if len(fields) != len(cells):
            raise RaggedRowError(f"expected {len(cells)} columns, got {len(fields)}", line=line)
        for column, cell, token in zip(columns, cells, fields):
            column.append(cell(token, line, r))
    return columns


def _id_cell() -> Callable[[str, int, int], str]:
    """A sample-id converter with its own record of the ids seen so far."""
    seen: set[str] = set()

    def cell(token: str, line: int, r: int) -> str:
        # ids are line-atomic: a quoted CSV field could smuggle in a line break,
        # which the single-line writers could not reproduce
        if not _id_ok(token):
            raise ParseError(f"bad sample_id {token!r}", line=line)
        if token in seen:
            raise ParseError(f"duplicate sample_id {token!r}", line=line)
        seen.add(token)
        return token

    return cell


def _label_cell(token: str, line: int, r: int) -> Label:
    label = LABEL_BY_NAME.get(token)
    if label is None:
        raise ParseError(
            f"unknown label {token!r} (expected one of {', '.join(sorted(LABEL_BY_NAME))})",
            line=line,
        )
    return label


def _float_cell(what: str) -> Callable[[str, int, int], float]:
    """A converter to a finite float; ``what`` names the column in errors."""

    def cell(token: str, line: int, r: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"bad {what} {token!r}", line=line) from None
        if not math.isfinite(value):
            raise ParseError(f"{what} must be finite, got {token!r}", line=line)
        return value

    return cell


def _index_cell(token: str, line: int, r: int) -> int:
    try:
        index = int(token)
    except ValueError:
        raise ParseError(f"bad index {token!r}", line=line) from None
    if index != r:
        raise ParseError(f"landmark indices must increase from 0; expected {r}, got {index}", line=line)
    return index


def _path_cell(token: str, line: int, r: int) -> str:
    if token == "":
        raise ParseError("depth and landmarks paths must be non-empty", line=line)
    return token


def _quoted(cell: str) -> str:
    """One id as csv.writer's minimal quoting writes it: wrapped in quotes, its
    quotes doubled, if it holds ``,`` or ``"``."""
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_table(header: Sequence[str], first_column: Sequence[str], *columns: Sequence[str]) -> str:
    """The header and every row as CSV text, joined from columns of formatted cells.

    Only the first (id) column can need quoting: ids cannot hold CR, LF or
    NUL, and float reprs, ints and label names never hold ``,`` or ``"``.
    """
    joined = "".join(first_column)
    if "," in joined or '"' in joined:
        first_column = list(map(_quoted, first_column))
    return "\n".join([",".join(header), *map(",".join, zip(first_column, *columns))]) + "\n"


# ---------------------------------------------------------------------------
# score / label / feature / landmark tables


def parse_scores(data: Union[bytes, str], polarity: Polarity) -> ScoreSet:
    """Read a ``sample_id,label,score`` table.

    The polarity is supplied by the caller: score files do not embed it,
    the surrounding protocol does.
    """
    if not isinstance(polarity, Polarity):
        raise ValidationError(f"polarity must be a Polarity, got {polarity!r}")
    table = _read_table(data, "scores CSV")
    _check_header(table, _SCORES_HEADER, "scores")
    if table.ragged is None:
        ids, codes = table.column(0), list(map(_CODE_BY_NAME.get, table.column(1)))
        try:
            values = _floats(table.column(2))
        except ValueError:
            pass
        else:
            if None not in codes and _ids_ok(ids) and np.isfinite(values).all():
                return ScoreSet._trusted(tuple(ids), np.array(codes, dtype=np.uint8), values, polarity)
    # some row is at fault: the row walk names the first one
    ids, labels, values = _walk(table, [_id_cell(), _label_cell, _float_cell("score")])
    return ScoreSet(sample_ids=ids, labels=labels, values=values, polarity=polarity)


def write_scores(score_set: ScoreSet) -> str:
    labels = _LABEL_NAMES[score_set.label_codes].tolist()
    return _csv_table(_SCORES_HEADER, score_set.sample_ids, labels, _reprs(score_set.values))


def parse_labels(data: Union[bytes, str]) -> dict[str, Label]:
    """Read a ``sample_id,label`` table into an ordered mapping."""
    table = _read_table(data, "labels CSV")
    _check_header(table, _LABELS_HEADER, "labels")
    if table.ragged is None:
        ids, labels = table.column(0), list(map(LABEL_BY_NAME.get, table.column(1)))
        if None not in labels and _ids_ok(ids):
            return dict(zip(ids, labels))
    return dict(zip(*_walk(table, [_id_cell(), _label_cell])))


def write_labels(labels: Mapping[str, Label]) -> str:
    _check_ids(tuple(labels))
    return _csv_table(_LABELS_HEADER, list(labels), [lab.value for lab in labels.values()])


def _features_header(d: int) -> list[str]:
    return ["sample_id"] + [f"f{k}" for k in range(d)]


def parse_features(data: Union[bytes, str]) -> FeatureMatrix:
    """Read a ``sample_id,f0,...,f{d-1}`` table."""
    table = _read_table(data, "features CSV")
    header = table.header
    if len(header) < 2 or header != _features_header(len(header) - 1):
        shown = ",".join(header[:4]) + (",..." if len(header) > 4 else "")
        raise ParseError(
            f"expected features header 'sample_id,f0,...,f{{d-1}}', got {shown!r}",
            line=table.header_line,
        )
    _require_rows(table, "features CSV")
    d = len(header) - 1
    if table.ragged is None:
        try:
            values = _floats(table.value_cells()).reshape(-1, d)
            return FeatureMatrix(sample_ids=table.column(0), values=values)
        except (ValueError, ValidationError):
            pass  # some row is at fault: the row walk names the first one
    ids, *values = _walk(table, [_id_cell(), *(_float_cell(f"feature f{k}") for k in range(d))])
    return FeatureMatrix(sample_ids=ids, values=np.column_stack(values))


def write_features(features: FeatureMatrix) -> str:
    return _csv_table(_features_header(features.d), features.sample_ids, *map(_reprs, features.values.T))


@lru_cache(maxsize=4)
def _index_tokens(n: int) -> list[str]:
    """The canonical index column ``"0", "1", ..., str(n - 1)``; callers only compare with it."""
    return list(map(str, range(n)))


def _indices_from_zero(tokens: list[str]) -> bool:
    """Whether the index tokens read 0, 1, 2, ... as ints; ValueError on a token that is no int.

    The canonical tokens ``str(k)`` are compared first, so only a column
    spelled otherwise (``+1``, ``01``, `` 1``) pays for ``int`` of each token.
    """
    return tokens == _index_tokens(len(tokens)) or list(map(int, tokens)) == list(range(len(tokens)))


def parse_landmarks(data: Union[bytes, str]) -> LandmarkSet:
    """Read an ``index,x,y`` table; indices must run 0, 1, 2, ... in order."""
    table = _read_table(data, "landmarks CSV")
    _check_header(table, _LANDMARKS_HEADER, "landmarks")
    if table.ragged is None:
        try:
            if _indices_from_zero(table.column(0)):
                return LandmarkSet(points=_floats(table.value_cells()).reshape(-1, 2))
        except (ValueError, ValidationError):
            pass  # some row is at fault: the row walk names the first one
    _, xs, ys = _walk(table, [_index_cell, _float_cell("x"), _float_cell("y")])
    return LandmarkSet(points=np.column_stack([xs, ys]))


def write_landmarks(landmarks: LandmarkSet) -> str:
    points = landmarks.points
    return _csv_table(_LANDMARKS_HEADER, list(map(str, range(len(points)))), *map(_reprs, points.T))


@dataclass(frozen=True)
class ManifestRow:
    """One sample of a depth-scoring batch: file paths plus ground truth."""

    sample_id: str
    depth_path: str
    landmarks_path: str
    label: Label


def parse_manifest(data: Union[bytes, str]) -> list[ManifestRow]:
    """Read a ``sample_id,depth,landmarks,label`` batch manifest."""
    table = _read_table(data, "manifest CSV")
    _check_header(table, _MANIFEST_HEADER, "manifest")
    return list(map(ManifestRow, *_walk(table, [_id_cell(), _path_cell, _path_cell, _label_cell])))


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
    # DepthMap converts the big-endian view to native uint16, its one copy
    return DepthMap(values=np.frombuffer(raster, dtype=">u2").reshape(height, width))


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
    except (ValueError, RecursionError) as exc:  # bad syntax, an int too long to convert, deep nesting
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} must be a JSON object")
    if obj.get("magic") != _MAGIC:
        raise BadMagicError(f"missing or wrong magic (expected {_MAGIC!r})")
    if obj.get("version") != _VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {obj.get('version')!r} (this build reads {_VERSION})"
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
            "magic": _MAGIC,
            "version": _VERSION,
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


def _is_number(value: object) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _is_finite_float(value: object) -> bool:
    """A JSON number that converts to a finite float (no int past the float range)."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _float_list(obj: object, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(map(_is_number, obj)):
        raise ParseError(f"{what} must be a list of numbers")
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except OverflowError:  # an int past the float range
        raise ParseError(f"{what} contains non-finite values") from None
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} contains non-finite values")
    return arr


def write_model(model: OcsvmModel) -> str:
    """Serialize a fitted model (weights, offset, standardizer, diagnostics)."""
    diag = model.diagnostics
    payload: dict[str, object] = {
        "magic": _MAGIC,
        "version": _VERSION,
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
    if type(obj.get("d")) is not int or obj["d"] != w.shape[0]:
        raise ParseError("model d does not match the length of w")
    nu = obj.get("nu")
    rho = obj.get("rho")
    if not _is_number(nu) or not 0 < nu <= 1:
        raise ParseError(f"bad model nu {nu!r}")
    if not _is_finite_float(rho):
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
        residual = diag_obj.get("kkt_residual")
        if not _is_finite_float(residual):
            raise ParseError(f"bad diagnostics kkt_residual {residual!r}")
        for name, kind in _DIAGNOSTIC_TYPES.items():
            if type(diag_obj.get(name)) is not kind or diag_obj[name] < 0:
                raise ParseError(f"bad diagnostics {name} {diag_obj.get(name)!r}")
        trace = _float_list(diag_obj.get("objective_trace"), "diagnostics objective_trace")
        diagnostics = OcsvmDiagnostics(
            kkt_residual=float(residual),
            objective_trace=tuple(trace.tolist()),
            **{name: diag_obj[name] for name in _DIAGNOSTIC_TYPES},
        )
    return OcsvmModel(
        w=w, rho=float(rho), nu=float(nu), dual_alphas=alphas, mean=mean, scale=scale, diagnostics=diagnostics
    )


# ---------------------------------------------------------------------------
# DET exports

_DET_LO = 1e-3  # plotted probability range; points outside are clamped
_DET_HI = 0.5
_DET_TICKS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
_PROBIT = NormalDist().inv_cdf


def _distinct_reprs(values: np.ndarray) -> list[str]:
    """:func:`_reprs` of a float array, each distinct value formatted once.

    Values are told apart by their bits, so ``0.0`` and ``-0.0`` keep their
    own reprs.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(_reprs(bits.view(np.float64)), dtype=object)[inverse].tolist()


def write_det(curve: DetCurve) -> str:
    """DET sweep as CSV: one row per threshold, rates as exact decimals."""
    # rates are counts over a class size, so a long sweep repeats each one many times
    columns = (_reprs(curve.thresholds), _distinct_reprs(curve.x_rates), _distinct_reprs(curve.y_rates))
    return _DET_HEADER + "\n" + "".join([f"{t},{x},{y}\n" for t, x, y in zip(*columns)])


def write_det_svg(curve: DetCurve) -> str:
    """DET curve on normal-deviate (probit) axes as a standalone SVG."""
    width, height = 720, 720
    ml, mr, mt, mb = 96, 30, 30, 72
    plot_w, plot_h = width - ml - mr, height - mt - mb
    lo_q, hi_q = _PROBIT(_DET_LO), _PROBIT(_DET_HI)
    span = hi_q - lo_q

    # x_px and y_px map the probit q of a clamped rate, a float or a float64
    # array alike: the same operations in the same order give the same bits
    def x_px(q):
        return ml + (q - lo_q) / span * plot_w

    def y_px(q):
        return height - mb - (q - lo_q) / span * plot_h

    def pixels(rates: np.ndarray, to_px: Callable[[np.ndarray], np.ndarray]) -> list[str]:
        # rates are counts over a class size, so a long sweep repeats each one
        # many times: every distinct clamped rate is mapped and formatted once
        distinct, inverse = np.unique(np.clip(rates, _DET_LO, _DET_HI), return_inverse=True)
        q = np.fromiter(map(_PROBIT, distinct.tolist()), dtype=np.float64, count=distinct.size)
        cells = np.array([f"{v:.2f}" for v in to_px(q).tolist()], dtype=object)
        return cells[inverse].tolist()

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
        gx = x_px(_PROBIT(tick))
        gy = y_px(_PROBIT(tick))
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
    points = " ".join(map("{},{}".format, pixels(curve.x_rates, x_px), pixels(curve.y_rates, y_px)))
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

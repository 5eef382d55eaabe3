"""Independent reference implementations used only by the tests.

Everything here is written in the most literal style available (explicit
loops, ``Fraction`` rates, stdlib ``bisect``/``statistics``) so that a bug
would have to be made twice, in two different shapes, to slip through.  The
only deliberate overlap with the library is the midpoint formula of the
candidate grid, which is part of the contract and must match bit-for-bit.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from padeval.core import (
    _LABEL_NAMES,
    LABEL_BY_NAME,
    DepthMap,
    DuplicateIdError,
    EmptySetError,
    Label,
    NonFiniteScoreError,
    Polarity,
    PolarityMismatchError,
    PresentationLabel,
    TrialLabel,
    ValidationError,
    _id_ok,
    _ids_ok,
)
from padeval.depth_variance import DvScore, TooFewValidLandmarksError
from padeval.fusion import IdMismatchError, WeightError, _normalise, minmax_fit
from padeval.ingest import (
    BadMagicError,
    BadMaxvalError,
    EmptyFileError,
    ManifestRow,
    ParseError,
    RaggedRowError,
    TruncatedError,
    _reprs,
    _Table,
)
from padeval.metrics import DetAxes
from padeval.ocsvm import _ETA_FLOOR, NotConvergedError, _initial_alphas, _solve_rho

# ---------------------------------------------------------------------------
# threshold-sweep metrics


def midpoint_grid(values):
    """Candidate thresholds: midpoints of distinct sorted values + sentinels."""
    xs = sorted({float(v) for v in values})
    grid = [xs[0] - 1.0]
    for lo, hi in zip(xs, xs[1:]):
        mid = lo + (hi - lo) / 2.0
        # a midpoint rounded onto lo (adjacent floats) or overflowed: hi splits alike
        grid.append(mid if lo < mid <= hi else hi)
    grid.append(xs[-1] + 1.0)
    return sorted(set(grid))


def count_ge(sorted_scores, tau):
    return len(sorted_scores) - bisect_left(sorted_scores, tau)


def count_lt(sorted_scores, tau):
    return bisect_left(sorted_scores, tau)


def rate_ge(scores, tau) -> Fraction:
    return Fraction(count_ge(sorted(scores), tau), len(scores))


def threshold_at_fmr(nonmated, target):
    """Smallest grid threshold with an exact-rational FMR <= target."""
    xs = sorted(nonmated)
    want = Fraction(float(target))
    for tau in midpoint_grid(xs):
        if Fraction(count_ge(xs, tau), len(xs)) <= want:
            return tau
    raise AssertionError("the above-max sentinel is always feasible")


def d_eer(bonafide, attack):
    """Exhaustive sweep over the pooled grid, first minimal |APCER - BPCER|."""
    bona, att = sorted(bonafide), sorted(attack)
    best_gap = None
    best = None
    for tau in midpoint_grid(bona + att):
        a = Fraction(count_ge(att, tau), len(att))
        b = Fraction(count_lt(bona, tau), len(bona))
        gap = abs(a - b)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = (float((a + b) / 2), tau)
    return best


def bpcer_at_apcer(bonafide, attack, target):
    bona, att = sorted(bonafide), sorted(attack)
    want = Fraction(float(target))
    for tau in midpoint_grid(att):
        if Fraction(count_ge(att, tau), len(att)) <= want:
            return float(Fraction(count_lt(bona, tau), len(bona))), tau
    raise AssertionError("the above-max sentinel is always feasible")


def det_points(positives, negatives):
    """(threshold, x_rate, y_rate) triples over the pooled grid."""
    pos, neg = sorted(positives), sorted(negatives)
    out = []
    for tau in midpoint_grid(pos + neg):
        x = Fraction(count_ge(neg, tau), len(neg))
        y = Fraction(count_lt(pos, tau), len(pos))
        out.append((tau, float(x), float(y)))
    return out


# ---------------------------------------------------------------------------
# CSV tables


def csv_rows(text):
    """Every non-blank CSV row with its one-based line number, the whole
    input read before any row is returned; a CSV syntax error raises."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        for fields in reader:
            if fields:
                rows.append((reader.line_num, fields))
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", line=reader.line_num) from None
    return rows


def decode(data, what):
    """A text input decoded whole: a str as it is, bytes as UTF-8, any other type refused."""
    if isinstance(data, str):
        return data
    if not isinstance(data, (bytes, bytearray)):
        raise ParseError(f"{what} input must be str or bytes, got {type(data).__name__}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


def read_table(data, what):
    """The table reader as it was before plain CSV was split with ``str.split``:
    every input goes through csv.reader, one row at a time."""
    reader = csv.reader(io.StringIO(decode(data, what), newline=""))
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
    return _Table(header, header_line, lines, ragged, [cells])


# The table reader as it was when it split a whole decoded copy of the input,
# kept unchanged but for its block size, in characters, which is an argument
# here: the reference of the reader that splits the input's bytes.


def _text_spans(text, start, end, block_chars):
    while start <= end:
        stop = text.find("\n", start + block_chars - 1, end)
        if stop < 0:
            stop = end
        yield text[start:stop]
        start = stop + 1


def split_plain_text(text, block_chars=1 << 20):
    if '"' in text or "\r" in text or "\0" in text:
        return None
    end = len(text) - text.endswith("\n")
    first = text.find("\n", 0, end)
    if first < 0:
        first = end
    commas = text.count(",", 0, first)
    limit = csv.field_size_limit()
    long = len(text) > limit
    n = 0
    for span in _text_spans(text, 0, end, block_chars):
        lines = span.split("\n")
        if (
            "" in lines
            or long and max(map(len, lines)) > limit
            or set(map(str.count, lines, repeat(","))) != {commas}
        ):
            return None
        n += len(lines)
    blocks = (span.replace("\n", ",").split(",") for span in _text_spans(text, first + 1, end, block_chars))
    return _Table(text[:first].split(","), 1, range(2, n + 1), None, blocks)


def read_text_table(data, what, block_chars=1 << 20):
    text = decode(data, what)
    table = split_plain_text(text, block_chars)
    if table is not None:
        return table
    return read_table(text, what)


def csv_lines(header, rows):
    """CSV text written line by line, each line through a writer of its own."""
    lines = []
    for fields in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        lines.append(buf.getvalue())
    return "".join(lines)


# The writers as they were before the tables and the DET exports were joined
# from columns of preformatted strings, kept unchanged as the byte-for-byte
# reference of the new writers.


def csv_table(header, rows):
    """The header and every row as CSV text, written through one csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt_float(value):
    return repr(float(value))


def scores_table(score_set):
    labels = (lab.value for lab in score_set.labels)
    return csv_table(
        ["sample_id", "label", "score"],
        zip(score_set.sample_ids, labels, map(_fmt_float, score_set.values.tolist())),
    )


def features_table(features):
    header = ["sample_id"] + [f"f{k}" for k in range(features.d)]
    rows = ([sid, *map(_fmt_float, row)] for sid, row in zip(features.sample_ids, features.values.tolist()))
    return csv_table(header, rows)


def landmarks_table(landmarks):
    rows = ((str(k), _fmt_float(x), _fmt_float(y)) for k, (x, y) in enumerate(landmarks.points.tolist()))
    return csv_table(["index", "x", "y"], rows)


def det_csv(curve):
    """DET sweep as CSV, three float formattings per row on numpy scalars."""
    lines = ["threshold,apcer_or_fmr,bpcer_or_fnmr"]
    for tau, x, y in zip(curve.thresholds, curve.x_rates, curve.y_rates):
        lines.append(f"{_fmt_float(tau)},{_fmt_float(x)},{_fmt_float(y)}")
    return "\n".join(lines) + "\n"


def det_svg(curve):
    """DET curve on probit axes as SVG, two probits per polyline vertex."""
    det_lo, det_hi = 1e-3, 0.5
    probit = statistics.NormalDist().inv_cdf
    width, height = 720, 720
    ml, mr, mt, mb = 96, 30, 30, 72
    plot_w, plot_h = width - ml - mr, height - mt - mb
    lo_q, hi_q = probit(det_lo), probit(det_hi)
    span = hi_q - lo_q

    def x_px(rate):
        q = probit(min(max(rate, det_lo), det_hi))
        return ml + (q - lo_q) / span * plot_w

    def y_px(rate):
        q = probit(min(max(rate, det_lo), det_hi))
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
    for tick in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
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


# The writers as they were before they made their text one block of rows at
# a time: each table is joined whole from columns of formatted cells, kept
# unchanged as the byte-for-byte reference of the block writers.


def _quoted(cell):
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def whole_csv_table(header, first_column, *columns):
    """The header and every row as CSV text, joined from columns of formatted cells."""
    joined = "".join(first_column)
    if "," in joined or '"' in joined:
        first_column = list(map(_quoted, first_column))
    return "\n".join([",".join(header), *map(",".join, zip(first_column, *columns))]) + "\n"


def whole_scores(score_set):
    labels = _LABEL_NAMES[score_set.label_codes].tolist()
    return whole_csv_table(["sample_id", "label", "score"], score_set.sample_ids, labels, _reprs(score_set.values))


def whole_features(features):
    header = ["sample_id"] + [f"f{k}" for k in range(features.d)]
    return whole_csv_table(header, features.sample_ids, *map(_reprs, features.values.T))


def _per_distinct(values, cells):
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(cells(bits.view(np.float64)), dtype=object)[inverse].tolist()


def whole_det(curve):
    columns = (
        _reprs(curve.thresholds), _per_distinct(curve.x_rates, _reprs), _per_distinct(curve.y_rates, _reprs)
    )
    return "threshold,apcer_or_fmr,bpcer_or_fnmr\n" + "".join([f"{t},{x},{y}\n" for t, x, y in zip(*columns)])


def whole_det_svg(curve):
    det_lo, det_hi = 1e-3, 0.5
    probit = statistics.NormalDist().inv_cdf
    width, height = 720, 720
    ml, mr, mt, mb = 96, 30, 30, 72
    plot_w, plot_h = width - ml - mr, height - mt - mb
    lo_q, hi_q = probit(det_lo), probit(det_hi)
    span = hi_q - lo_q

    def x_px(q):
        return ml + (q - lo_q) / span * plot_w

    def y_px(q):
        return height - mb - (q - lo_q) / span * plot_h

    def pixels(rates, to_px):
        def cells(distinct):
            q = np.fromiter(map(probit, distinct.tolist()), dtype=np.float64, count=distinct.size)
            return [f"{v:.2f}" for v in to_px(q).tolist()]

        return _per_distinct(np.clip(rates, det_lo, det_hi), cells)

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
    for tick in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
        gx = x_px(probit(tick))
        gy = y_px(probit(tick))
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


# The PGM reader as it was when it read its header one byte at a time, kept
# unchanged as the reference of the reader that matches the header's items.


def parse_depth_pgm_bytewise(data):
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
        try:
            fields[name] = int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad PGM {name} of {len(token)} digits") from None
    width, height, maxval = fields["width"], fields["height"], fields["maxval"]
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval != 65535:
        raise BadMaxvalError(f"expected 16-bit PGM (maxval 65535), got maxval {maxval}")
    if pos >= len(data):
        raise TruncatedError("PGM header ends early")
    if not data[pos : pos + 1].isspace():
        raise ParseError("expected single whitespace after PGM maxval")
    pos += 1
    expected = width * height * 2
    raster = data[pos:]
    if len(raster) < expected:
        raise TruncatedError(f"PGM raster holds {len(raster)} bytes, expected {expected}")
    if len(raster) > expected:
        raise ParseError(f"{len(raster) - expected} trailing bytes after PGM raster")
    return DepthMap(values=np.frombuffer(raster, dtype=">u2").reshape(height, width))


# The per-table row walks that checked each kind of table before one walk
# driven by per-column converters served them all, kept unchanged as the
# reference for the parsers' error precedence, messages and line numbers.


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line=line)
    return value


def _parse_id(token: str, line: int, seen: set[str]) -> str:
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


def score_rows(rows):
    """Check a scores table row by row; raises the first row error in file order."""
    seen: set[str] = set()
    ids, labels, scores = [], [], []
    for line, fields in rows:
        if len(fields) != 3:
            raise RaggedRowError(f"expected 3 columns, got {len(fields)}", line=line)
        ids.append(_parse_id(fields[0], line, seen))
        labels.append(_parse_label(fields[1], line))
        scores.append(_parse_float(fields[2], line, "score"))
    return ids, labels, scores


def label_rows(rows):
    """Check a labels table row by row; raises the first row error in file order."""
    seen: set[str] = set()
    labels: dict[str, Label] = {}
    for line, fields in rows:
        if len(fields) != 2:
            raise RaggedRowError(f"expected 2 columns, got {len(fields)}", line=line)
        sid = _parse_id(fields[0], line, seen)
        labels[sid] = _parse_label(fields[1], line)
    return labels


def feature_rows(rows, d):
    """Check a features table row by row; raises the first row error in file order."""
    seen: set[str] = set()
    ids: list[str] = []
    values: list[list[float]] = []
    for line, fields in rows:
        if len(fields) != d + 1:
            raise RaggedRowError(f"expected {d + 1} columns, got {len(fields)}", line=line)
        ids.append(_parse_id(fields[0], line, seen))
        values.append([_parse_float(fields[k + 1], line, f"feature f{k}") for k in range(d)])
    return ids, np.array(values, dtype=np.float64).reshape(-1, d)


def indices_from_zero(tokens):
    """The landmark index check of the column parser before canonical tokens
    were compared first: ``int`` of every token."""
    return list(map(int, tokens)) == list(range(len(tokens)))


def landmark_rows(rows):
    """Check a landmarks table row by row; raises the first row error in file order."""
    points = []
    for r, (line, fields) in enumerate(rows):
        if len(fields) != 3:
            raise RaggedRowError(f"expected 3 columns, got {len(fields)}", line=line)
        try:
            index = int(fields[0])
        except ValueError:
            raise ParseError(f"bad index {fields[0]!r}", line=line) from None
        if index != r:
            raise ParseError(f"landmark indices must increase from 0; expected {r}, got {index}", line=line)
        points.append([_parse_float(fields[1], line, "x"), _parse_float(fields[2], line, "y")])
    return np.array(points, dtype=np.float64)


def manifest_rows(rows):
    """Check a manifest row by row; raises the first row error in file order."""
    seen: set[str] = set()
    out = []
    for line, fields in rows:
        if len(fields) != 4:
            raise RaggedRowError(f"expected 4 columns, got {len(fields)}", line=line)
        sid = _parse_id(fields[0], line, seen)
        if fields[1] == "" or fields[2] == "":
            raise ParseError("depth and landmarks paths must be non-empty", line=line)
        if "\x00" in fields[1] + fields[2]:
            raise ParseError("depth and landmarks paths must not hold NUL", line=line)
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
# depth variance


# The depth-variance score as it was before the landmark pixels were gathered
# with one fancy index, kept as the bit-for-bit reference.


def sample_depths_loop(depth, landmarks):
    """``(landmark_index, depth_or_None)`` per landmark, one landmark at a time."""
    cols = np.floor(landmarks.points[:, 0] + 0.5).astype(np.int64)
    rows = np.floor(landmarks.points[:, 1] + 0.5).astype(np.int64)
    in_bounds = (cols >= 0) & (cols < depth.width) & (rows >= 0) & (rows < depth.height)
    out = []
    for k in range(len(landmarks)):
        if not in_bounds[k]:
            out.append((k, None))
            continue
        value = int(depth.values[rows[k], cols[k]])
        out.append((k, value if value != 0 else None))
    return out


def dv_score_loop(depth, landmarks, min_valid):
    """The sorted float64 ``np.std`` of the depths :func:`sample_depths_loop` found."""
    sampled = sample_depths_loop(depth, landmarks)
    values = np.asarray([v for _, v in sampled if v is not None], dtype=np.float64)
    if values.size < min_valid:
        raise TooFewValidLandmarksError(int(values.size), min_valid)
    values.sort()
    return DvScore(value=float(np.std(values)), n_valid=int(values.size))


def dv_reference(depth_values, landmark_points, min_valid):
    """stdlib recomputation of the depth-variance score (or None if too few)."""
    height = len(depth_values)
    width = len(depth_values[0])
    picked = []
    for x, y in landmark_points:
        col = math.floor(float(x) + 0.5)
        row = math.floor(float(y) + 0.5)
        if not (0 <= col < width and 0 <= row < height):
            continue
        value = int(depth_values[row][col])
        if value != 0:
            picked.append(value)
    if len(picked) < min_valid:
        return None
    return statistics.pstdev(picked), len(picked)


# ---------------------------------------------------------------------------
# fusion


def fuse_reference(ids_a, scores_a, ids_b, scores_b, w_a, w_b):
    """Dict-based min-max fusion; returns fused scores in a's order."""
    lo_a, hi_a = min(scores_a), max(scores_a)
    lo_b, hi_b = min(scores_b), max(scores_b)

    def norm(s, lo, hi):
        if hi == lo:
            return 0.5
        if math.isinf(hi - lo):  # the range overflows: map the halved values
            return min(max((s / 2 - lo / 2) / (hi / 2 - lo / 2), 0.0), 1.0)
        return min(max((s - lo) / (hi - lo), 0.0), 1.0)

    by_id_b = dict(zip(ids_b, scores_b))
    return [
        w_a * norm(sa, lo_a, hi_a) + w_b * norm(by_id_b[i], lo_b, hi_b)
        for i, sa in zip(ids_a, scores_a)
    ]


# ---------------------------------------------------------------------------
# sample ids


def check_ids(ids):
    """The id check of the score sets and feature matrices as it was before it
    shared one first-bad-id locator with the table parsers."""
    if _ids_ok(ids):
        return
    seen: set[str] = set()
    for sid in ids:
        if not _id_ok(sid):
            raise ValidationError(
                "sample_id must be a non-empty single-line string without NUL or "
                f"surrogates, got {sid!r}"
            )
        if sid in seen:
            raise DuplicateIdError(sid)
        seen.add(sid)


# ---------------------------------------------------------------------------
# score sets with a tuple of labels


# ScoreSet, with_label, the label check of the set-level evaluations, fuse and
# write_scores as they were before ScoreSet stored its labels as a code
# column, kept unchanged as the reference of the columnar code: every derived
# set is built through the checking constructor again.


@dataclass(frozen=True, eq=False)
class TupleScoreSet:
    """Aligned score columns with a declared polarity, checked when built."""

    sample_ids: tuple[str, ...]
    labels: tuple[Label, ...]
    values: np.ndarray
    polarity: Polarity

    def __post_init__(self) -> None:
        if not isinstance(self.polarity, Polarity):
            raise ValidationError(f"polarity must be a Polarity, got {self.polarity!r}")
        ids, labels = tuple(self.sample_ids), tuple(self.labels)
        if not ids:
            raise EmptySetError("score set holds no records")
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"scores must be real numbers, got dtype {values.dtype}")
        values = values.astype(np.float64)  # a copy: the caller's array stays writeable
        if values.shape != (len(ids),) or len(labels) != len(ids):
            raise ValidationError(
                f"{len(ids)} sample_ids, {len(labels)} labels and {values.shape} scores are not aligned"
            )
        check_ids(ids)
        if not set(map(type, labels)) <= {PresentationLabel, TrialLabel}:
            bad = next(lab for lab in labels if not isinstance(lab, (PresentationLabel, TrialLabel)))
            raise ValidationError(f"label must be a PresentationLabel or TrialLabel, got {bad!r}")
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NonFiniteScoreError(ids[k], float(values[k]))
        values.flags.writeable = False
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def with_label(self, label: Label) -> "TupleScoreSet":
        keep = [k for k, lab in enumerate(self.labels) if lab is label]
        return TupleScoreSet(
            sample_ids=[self.sample_ids[k] for k in keep],
            labels=[label] * len(keep),
            values=self.values[keep],
            polarity=self.polarity,
        )


def checked_scores(score_set, expected_label, expected_polarity, role):
    """The sorted scores of a set that fits its role, found by a walk over its labels."""
    if score_set.polarity is not expected_polarity:
        raise PolarityMismatchError(
            f"{role} scores must declare polarity {expected_polarity.value!r}, "
            f"got {score_set.polarity.value!r}"
        )
    off_label = [sid for sid, lab in zip(score_set.sample_ids, score_set.labels) if lab is not expected_label]
    if off_label:
        raise ValidationError(
            f"{role} set must contain only {expected_label.value!r} records; "
            f"found other labels (first: {off_label[0]!r})"
        )
    return np.sort(score_set.values)


def fuse_tuple(a, b, w_a=0.5, w_b=0.5):
    """fuse with its id check on two Python sets, building a TupleScoreSet."""
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
    if b_index.keys() != set(a.sample_ids):
        odd = sorted(set(a.sample_ids).symmetric_difference(b_index))[0]
        raise IdMismatchError(f"score sets cover different samples (first difference: {odd!r})")
    b_order = np.fromiter(map(b_index.__getitem__, a.sample_ids), dtype=np.intp, count=len(a))
    norm_a = _normalise(minmax_fit(a.values), a.values)
    norm_b = _normalise(minmax_fit(b.values), b.values)
    values = w_a * norm_a + w_b * norm_b[b_order]
    return TupleScoreSet(sample_ids=a.sample_ids, labels=a.labels, values=values, polarity=a.polarity)


def write_scores_tuple(score_set):
    """write_scores with the label column built by one ``.value`` per sample."""
    labels = [lab.value for lab in score_set.labels]
    return whole_csv_table(["sample_id", "label", "score"], score_set.sample_ids, labels, _reprs(score_set.values))


# ---------------------------------------------------------------------------
# one-class SVM dual


def project_box_simplex(v, c):
    """Euclidean projection onto {a : 0 <= a_i <= c, sum(a) = 1} by bisection."""
    v = np.asarray(v, dtype=np.float64)
    lo = float(v.min()) - c - 1.0  # everything clips to c: sum = n*c >= 1
    hi = float(v.max())  # everything clips to 0: sum = 0 <= 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, c).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    out = np.clip(v - 0.5 * (lo + hi), 0.0, c)
    # exact simplex repair: spread the residual over strictly interior entries
    gap = 1.0 - out.sum()
    interior = (out > 0.0) & (out < c)
    if interior.any():
        out[interior] += gap / interior.sum()
    return np.clip(out, 0.0, c)


def dual_objective(q, alpha):
    return 0.5 * float(alpha @ q @ alpha)


def _active_set_polish(q, alpha, c):
    """Exact equality-constrained solve on the active set guessed from alpha."""
    n = alpha.size
    margin = 1e-7 * c
    at_zero = alpha <= margin
    at_c = alpha >= c - margin
    free = ~(at_zero | at_c)
    fixed = np.where(at_c, c, 0.0)
    budget = 1.0 - fixed.sum()
    if not free.any():
        if abs(budget) > 1e-12:
            return None
        return fixed
    f = np.flatnonzero(free)
    q_ff = q[np.ix_(f, f)]
    rhs_lin = -q[np.ix_(f, np.flatnonzero(at_c))].sum(axis=1) * c
    k = f.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = q_ff
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.concatenate([rhs_lin, [budget]])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    alpha_f = solution[:k]
    if (alpha_f < -1e-9).any() or (alpha_f > c + 1e-9).any():
        return None
    polished = fixed.copy()
    polished[f] = np.clip(alpha_f, 0.0, c)
    if abs(polished.sum() - 1.0) > 1e-9:
        return None
    # final exact repair of the simplex constraint
    polished[f] += (1.0 - polished.sum()) / k
    if (polished < -1e-12).any() or (polished > c + 1e-12).any():
        return None
    return np.clip(polished, 0.0, c)


def ocsvm_dual_oracle(x, nu, max_steps=30000):
    """FISTA projected gradient on the one-class dual, plus active-set polish.

    Returns ``(alpha, objective)`` with ``objective = min`` over the FISTA
    iterate and the polished candidate.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    c = 1.0 / (nu * n)
    q = x @ x.T
    lips = float(np.linalg.eigvalsh(q)[-1])
    step = 1.0 / lips if lips > 0.0 else 1.0
    alpha = project_box_simplex(np.full(n, 1.0 / n), c)
    carry = alpha.copy()
    t = 1.0
    best = alpha.copy()
    best_obj = dual_objective(q, alpha)
    last_progress = 0
    for k in range(max_steps):
        grad = q @ carry
        nxt = project_box_simplex(carry - step * grad, c)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        carry = nxt + ((t - 1.0) / t_next) * (nxt - alpha)
        moved = float(np.abs(nxt - alpha).max())
        alpha = nxt
        t = t_next
        obj = dual_objective(q, alpha)
        if obj < best_obj - 1e-13 * max(abs(best_obj), 1e-30):
            last_progress = k
        if obj < best_obj:
            best_obj = obj
            best = alpha.copy()
        elif obj > best_obj:  # momentum overshoot: restart
            carry = best.copy()
            alpha = best.copy()
            t = 1.0
        if moved < 1e-14 and k > 50:
            break
        if k - last_progress > 400:  # no measurable descent in 400 steps
            break
    polished = _active_set_polish(q, best, c)
    if polished is not None:
        pol_obj = dual_objective(q, polished)
        if pol_obj < best_obj:
            return polished, pol_obj
    return best, best_obj


def _kkt_residual(grad, alpha, c_box):
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


def smo_cached(x, alpha, c_box, tol, max_iter, branches=None):
    """The SMO loop as it was with a cache of every Gram column it computed,
    kept as the bit-for-bit reference for the solver without the cache.

    ``branches``, a Counter if given, counts the clip branch each step took:
    ``"room_i"`` (row i reaches the ceiling), ``"alpha_j"`` (row j reaches
    zero) or ``"interior"``.
    """
    columns: dict[int, np.ndarray] = {}

    def q_column(k: int) -> np.ndarray:
        col = columns.get(k)
        if col is None:
            col = x @ x[k]
            columns[k] = col
        return col

    diag = np.einsum("ij,ij->i", x, x)
    iterations = 0
    trace: list[float] = []
    for _refresh in range(3):
        grad = x @ (x.T @ alpha)
        while True:
            residual, i, j = _kkt_residual(grad, alpha, c_box)
            trace.append(0.5 * float(alpha @ grad))
            if residual <= tol:
                break
            if iterations >= max_iter:
                raise NotConvergedError(kkt_residual=residual, iterations=iterations)
            col_i = q_column(i)
            gap = grad - grad[i]
            pair_eta = np.maximum(diag[i] + diag - 2.0 * col_i, _ETA_FLOOR)
            gain = np.where((alpha > 0.0) & (gap > 0.0), gap * gap / pair_eta, -np.inf)
            j = int(np.argmax(gain))
            col_j = q_column(j)
            step = float(gap[j]) / float(pair_eta[j])
            room_i = c_box - alpha[i]
            step = min(step, room_i, alpha[j])
            pair_sum = alpha[i] + alpha[j]
            if step == room_i:
                branch = "room_i"
                new_i, new_j = c_box, pair_sum - c_box
            elif step == alpha[j]:
                branch = "alpha_j"
                new_i, new_j = min(pair_sum, c_box), 0.0
            else:
                branch = "interior"
                new_i = alpha[i] + step
                new_j = pair_sum - new_i
            if branches is not None:
                branches[branch] += 1
            new_i = min(max(new_i, 0.0), c_box)
            new_j = min(max(new_j, 0.0), c_box)
            delta_i = new_i - alpha[i]
            delta_j = new_j - alpha[j]
            alpha[i] = new_i
            alpha[j] = new_j
            grad += delta_i * col_i + delta_j * col_j
            iterations += 1
        grad = x @ (x.T @ alpha)
        residual, _, _ = _kkt_residual(grad, alpha, c_box)
        if residual <= tol:
            return alpha, grad, iterations, max(residual, 0.0), trace
    raise NotConvergedError(kkt_residual=residual, iterations=iterations)


def identical_rows_fit(x_raw, nu, standardize):
    """``fit`` on identical rows with its shortcut written the long way: the
    standardizer, the forced initial weights, ``w``, then the gradient from
    ``w``; the bit-for-bit reference for that shortcut.  Returns ``(w, rho,
    alphas, kkt_residual, iterations, objective_trace)``.
    """
    n = x_raw.shape[0]
    x = x_raw
    if standardize:
        mean = x_raw.mean(axis=0)
        sd = x_raw.std(axis=0)
        x = (x_raw - mean) / np.where(sd > 0.0, sd, 1.0)
    c_box = 1.0 / (nu * n)
    alpha = _initial_alphas(n, c_box, nu)
    w = x.T @ alpha
    grad = x @ w
    trace = (0.5 * float(alpha @ grad),)
    return w, _solve_rho(grad, alpha, c_box), alpha, 0.0, 0, trace


def dual_grid_search_2d(x, nu, steps=100001):
    """Dense grid search over the n=2 dual simplex (alpha2 = 1 - alpha1)."""
    x = np.asarray(x, dtype=np.float64)
    assert x.shape[0] == 2
    c = 1.0 / (nu * 2)
    q = x @ x.T
    best = None
    best_obj = None
    for a1 in np.linspace(0.0, 1.0, steps):
        a2 = 1.0 - a1
        if not (0.0 <= a1 <= c and 0.0 <= a2 <= c):
            continue
        alpha = np.array([a1, a2])
        obj = dual_objective(q, alpha)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = alpha
    return best, best_obj


# ---------------------------------------------------------------------------
# counter-based random stream (scalar reference)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_uniforms(seed: int, tag: int, count: int) -> list[float]:
    """First ``count`` uniforms of the tagged stream, via pure-int arithmetic."""
    base = mix64((seed ^ tag) & _MASK)
    out = []
    for k in range(1, count + 1):
        bits = mix64((base + k * _GOLDEN) & _MASK)
        out.append((bits >> 11) * 2.0**-53)
    return out


def stream_normals(seed: int, tag: int, count: int) -> list[float]:
    """Box-Muller on uniform pairs, mirroring the library's draw order."""
    pairs = (count + 1) // 2
    u = stream_uniforms(seed, tag, 2 * pairs)
    out = []
    for k in range(pairs):
        radius = math.sqrt(-2.0 * math.log1p(-u[2 * k]))
        angle = 2.0 * math.pi * u[2 * k + 1]
        out.append(radius * math.cos(angle))
        out.append(radius * math.sin(angle))
    return out[:count]

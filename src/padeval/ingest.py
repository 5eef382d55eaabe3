"""File formats: CSV score/feature/landmark tables, 16-bit PGM depth maps,
versioned JSON reports and models, DET curve exports.

All text formats are UTF-8 with ``\\n`` line endings; floats are written
with Python's shortest round-trip representation, so ``parse(write(x))``
reproduces ``x`` bit-for-bit.  JSON artifacts carry the magic string
``PADEVAL`` and a format version for forward compatibility.  Parsers
raise only structured :class:`~padeval.core.PadevalError` subclasses, with
one-based line numbers where the format has lines; they never raise bare
builtins, whatever bytes they are fed.  A CSV table is parsed from its
bytes one block of rows at a time: each block is decoded, and its cells are
converted into preallocated output columns and dropped before the next
block is split, so a parse holds the input, one block and the parsed
columns.  The score, feature and DET writers make their text one block of
rows at a time in the same way; each ``write_*`` function returns the join
of its blocks, and the CLI writes each block to the open file as it is made.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from statistics import NormalDist
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

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
    _first_bad_id,
)
from .depth_variance import DEFAULT_MIN_VALID
from .fusion import DEFAULT_WEIGHTS
from .metrics import DetAxes, DetCurve, PadReport, VulnReport
from .ocsvm import OcsvmConfig, OcsvmDiagnostics, OcsvmModel

__all__ = [
    "ParseError",
    "RaggedRowError",
    "BadMagicError",
    "BadMaxvalError",
    "TruncatedError",
    "UnsupportedVersionError",
    "EmptyFileError",
    "DEFAULTS",
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
    "nu": OcsvmConfig.nu,
    "weights": list(DEFAULT_WEIGHTS),
    "min_valid": DEFAULT_MIN_VALID,
    "tol": OcsvmConfig.tol,
}

_SCORES_HEADER = ["sample_id", "label", "score"]
_LABELS_HEADER = ["sample_id", "label"]
_LANDMARKS_HEADER = ["index", "x", "y"]
_MANIFEST_HEADER = ["sample_id", "depth", "landmarks", "label"]
_DET_HEADER = ["threshold", "apcer_or_fmr", "bpcer_or_fnmr"]
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


#: About how many bytes of plain CSV make one block of rows; a block always
#: ends at a line break, so it holds whole rows.
_BLOCK_BYTES = 1 << 20


@dataclass
class _Table:
    """A CSV table, blank lines skipped, whose rows are read one block at a time.

    ``lines`` holds the one-based line numbers of the data rows that are as
    wide as the header, as any sequence of ints (a list, or a range when no
    line was skipped), and ``blocks`` their cells, row after row, as flat
    lists of whole rows; it can be consumed once, and each block may be
    changed by its reader.  ``ragged`` is the first data row of another
    width, as ``(number of rows before it, line, fields)``, or None.
    """

    header: list[str]
    header_line: int
    lines: Sequence[int]
    ragged: tuple[int, int, list[str]] | None
    blocks: Iterable[list[str]]

    def row_blocks(self) -> Iterator[tuple[int, list[str]]]:
        """Each block of cells with the index of its first row."""
        start = 0
        for cells in self.blocks:
            rows = len(cells) // len(self.header)  # counted first: the reader may change the block
            yield start, cells
            start += rows


def _spans(data: bytes, start: int, end: int) -> Iterator[tuple[int, int]]:
    """The lines of ``data[start:end]`` in spans of about :data:`_BLOCK_BYTES` bytes, as
    ``(start, stop)`` offsets, each span ending at a line break at ``stop`` or at ``end``;
    none if ``start > end``."""
    while start <= end:
        stop = data.find(b"\n", start + _BLOCK_BYTES - 1, end)
        if stop < 0:
            stop = end
        yield start, stop
        start = stop + 1


def _check_utf8(data: bytes, what: str) -> None:
    """ParseError unless ``data`` is UTF-8, worded as a decode of the whole input words it; each
    span decoded ends just after its line break, so no error crosses its end."""
    for start, stop in _spans(data, 0, len(data)):
        try:
            str(data[start : stop + 1], "utf-8")
        except UnicodeDecodeError as exc:
            whole = UnicodeDecodeError("utf-8", data, start + exc.start, start + exc.end, exc.reason)
            raise ParseError(f"{what} is not valid UTF-8: {whole}") from None


def _utf8(data: Union[bytes, str], what: str) -> bytes:
    """The bytes of a text input: a str encoded, its surrogates passed, or bytes checked to be UTF-8."""
    if isinstance(data, str):
        return data.encode("utf-8", "surrogatepass")
    if not isinstance(data, (bytes, bytearray)):
        raise ParseError(f"{what} input must be str or bytes, got {type(data).__name__}")
    if not data.isascii():
        _check_utf8(data, what)
    return bytes(data)


def _split_plain(data: bytes) -> _Table | None:
    """The table of plain CSV, split with ``split``; None for any other input.

    Plain means: no ``"``, CR or NUL, no blank line but at the end, no line
    of more than ``csv.field_size_limit()`` bytes, and as many commas on
    every line as on the header.  With the excel dialect and no quotes,
    csv.reader splits fields on ``,`` and rows on ``\\n`` only, and its rows
    of blank lines are skipped, so for such input it reads this same table.
    A first pass over the lines, span by span, decides plainness and counts
    the rows; each block decodes its span of rows and splits it when read.
    """
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    # rstrip copies the input, so only input that ends in a blank line pays for it
    end = len(data.rstrip(b"\n")) if data.endswith(b"\n\n") else len(data) - data.endswith(b"\n")
    first = data.find(b"\n", 0, end)
    if first < 0:
        first = end
    commas = data.count(b",", 0, first)
    limit = csv.field_size_limit()
    long = len(data) > limit
    n = 0
    for start, stop in _spans(data, 0, end):
        lines = data[start:stop].split(b"\n")
        if (
            b"" in lines
            or long and max(map(len, lines)) > limit
            or set(map(bytes.count, lines, repeat(b","))) != {commas}
        ):
            return None
        n += len(lines)
    blocks = (
        str(data[start:stop], "utf-8", "surrogatepass").replace("\n", ",").split(",")
        for start, stop in _spans(data, first + 1, end)
    )
    return _Table(str(data[:first], "utf-8", "surrogatepass").split(","), 1, range(2, n + 1), None, blocks)


def _read_table(data: Union[bytes, str], what: str) -> _Table:
    """Read a CSV table whose rows come one block at a time.

    The input is read as bytes, with no whole decoded copy: bytes that are
    not all ASCII are checked to be UTF-8 up front, span by span, and a str
    is encoded, its surrogates passed, as the blocks are decoded.  Plain CSV
    makes one block per span of lines (see :func:`_split_plain`); every
    other input goes through csv.reader in one pass and makes one block.  A
    CSV syntax error anywhere wins over every error in the rows, which are
    checked only as their blocks are read.

    Quoted input stays whole because no count of quotes per line tells which
    line breaks end rows: a quote inside an unquoted field is a literal, so
    csv.reader reads ``a"b,1\\nc,2\\n`` as two rows.  A csv.reader per span
    would need the quote state at the start of its span, which only a csv
    pass over everything before the span gives.
    """
    data = _utf8(data, what)
    table = _split_plain(data)
    if table is not None:
        return table
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogatepass", newline=""))
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


#: The first faulty cell of a column rule, as ``(row index, reason)``.  Rows
#: count the table's cells, so the rows after a ragged row count too.
_Fault = tuple[int, str]


def _block_faults(start: int, *faults: _Fault | None) -> list[_Fault]:
    """The faults a block's column rules found, their rows moved on by the
    block's first row ``start``, in the order of the columns."""
    return [(start + r, reason) for r, reason in filter(None, faults)]


def _raise_first(table: _Table, *faults: _Fault | None) -> None:
    """Raise the first fault of ``table`` in file order, if it has one.

    ``faults`` come in the order of their columns, so the earliest row wins
    and within that row the leftmost column; a ragged row wins over every
    fault at or after its place.
    """
    first = min(filter(None, faults), key=lambda fault: fault[0], default=None)
    if table.ragged is not None and (first is None or table.ragged[0] <= first[0]):
        _, line, fields = table.ragged
        raise RaggedRowError(f"expected {len(table.header)} columns, got {len(fields)}", line=line)
    if first is not None:
        raise ParseError(first[1], line=table.lines[first[0]])


def _id_fault(ids: list[str]) -> _Fault | None:
    """The first id that breaks the id rule or repeats an earlier one."""
    # ids are line-atomic: a quoted CSV field could smuggle in a line break,
    # which the single-line writers could not reproduce
    bad = _first_bad_id(ids)
    if bad is None:
        return None
    k, repeated = bad
    return k, f"{'duplicate' if repeated else 'bad'} sample_id {ids[k]!r}"


def _label_fault(tokens: list[str], labels: list) -> _Fault | None:
    """The first label token that its lookup, ``labels``, maps to None."""
    if None not in labels:
        return None
    r = labels.index(None)
    return r, f"unknown label {tokens[r]!r} (expected one of {', '.join(sorted(LABEL_BY_NAME))})"


def _float_cells(tokens: list[str], names: Sequence[str]) -> tuple[np.ndarray | None, _Fault | None]:
    """Python's ``float`` of each token as one float64 array, and the first
    token that is no finite float; the array is None if a token is no float.

    The tokens are ``len(names)`` columns row after row, so the flat index
    of a token gives its row and, within the row, the leftmost column;
    ``names`` name the columns in errors.
    """
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:  # some token is no float: walk to the first that is no finite float
        for k, token in enumerate(tokens):
            r, what = divmod(k, len(names))
            try:
                if not math.isfinite(float(token)):
                    return None, (r, f"{names[what]} must be finite, got {token!r}")
            except ValueError:
                return None, (r, f"bad {names[what]} {token!r}")
    else:
        finite = np.isfinite(values)
        if finite.all():
            return values, None
        k = int(finite.argmin())
        return values, (k // len(names), f"{names[k % len(names)]} must be finite, got {tokens[k]!r}")


def _path_fault(depths: list[str], landmarks: list[str]) -> _Fault | None:
    """The first row with an empty depth or landmarks path, or one holding NUL,
    which no file system path can; within a row the empty path wins."""
    faults = []
    rows = [column.index("") for column in (depths, landmarks) if "" in column]
    if rows:
        faults.append((min(rows), "depth and landmarks paths must be non-empty"))
    if "\0" in "".join(depths) or "\0" in "".join(landmarks):
        row = next(r for r, pair in enumerate(zip(depths, landmarks)) if "\0" in "".join(pair))
        faults.append((row, "depth and landmarks paths must not hold NUL"))
    return min(faults, key=lambda fault: fault[0], default=None)


def _quoted(cell: str) -> str:
    """One id as csv.writer's minimal quoting writes it: wrapped in quotes, its
    quotes doubled, if it holds ``,`` or ``"``."""
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


#: About how many cells one block of written rows holds; a block always holds
#: at least one whole row.
_BLOCK_CELLS = 1 << 16


def _row_slices(n: int, width: int) -> Iterator[slice]:
    """The slices of ``n`` rows of ``width`` cells that make the written blocks."""
    step = max(1, _BLOCK_CELLS // width)
    return (slice(start, start + step) for start in range(0, n, step))


def _csv_blocks(
    header: Sequence[str], n: int, columns: Callable[[slice], Sequence[Sequence[str]]]
) -> Iterator[str]:
    """The header line, then the ``n`` rows as CSV text, one block of rows at a time.

    ``columns`` formats the cells of each column, the id column first, for
    one block's slice of rows only.  Only the id column can need quoting:
    ids cannot hold CR, LF or NUL, and float reprs, ints and label names
    never hold ``,`` or ``"``.  Each block decides for itself whether to
    quote, and only the cells that need quotes get them, so where the blocks
    end changes no byte.
    """
    yield ",".join(header) + "\n"
    for rows in _row_slices(n, len(header)):
        first, *rest = columns(rows)
        joined = "".join(first)
        if "," in joined or '"' in joined:
            first = list(map(_quoted, first))
        yield "\n".join(map(",".join, zip(first, *rest))) + "\n"


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
    ids: list[str] = []
    codes, values = np.empty(len(table.lines), dtype=np.uint8), np.empty(len(table.lines))
    faults: list[_Fault] = []
    for start, cells in table.row_blocks():
        ids += cells[::3]
        tokens = cells[1::3]
        got = list(map(_CODE_BY_NAME.get, tokens))
        scores, bad_score = _float_cells(cells[2::3], ["score"])
        faults = _block_faults(start, _label_fault(tokens, got), bad_score)
        if faults:
            break
        codes[start : start + len(got)] = got
        values[start : start + len(got)] = scores
    _raise_first(table, _id_fault(ids), *faults)
    return ScoreSet._trusted(tuple(ids), codes, values, polarity)


def _scores_blocks(score_set: ScoreSet) -> Iterator[str]:
    """:func:`write_scores` one block of rows at a time."""

    def columns(rows: slice) -> tuple:
        labels = _LABEL_NAMES[score_set.label_codes[rows]].tolist()
        return score_set.sample_ids[rows], labels, _reprs(score_set.values[rows])

    return _csv_blocks(_SCORES_HEADER, len(score_set), columns)


def write_scores(score_set: ScoreSet) -> str:
    return "".join(_scores_blocks(score_set))


def parse_labels(data: Union[bytes, str]) -> dict[str, Label]:
    """Read a ``sample_id,label`` table into an ordered mapping."""
    table = _read_table(data, "labels CSV")
    _check_header(table, _LABELS_HEADER, "labels")
    ids: list[str] = []
    labels: list = []
    faults: list[_Fault] = []
    for start, cells in table.row_blocks():
        ids += cells[::2]
        tokens = cells[1::2]
        got = list(map(LABEL_BY_NAME.get, tokens))
        faults = _block_faults(start, _label_fault(tokens, got))
        if faults:
            break
        labels += got
    _raise_first(table, _id_fault(ids), *faults)
    return dict(zip(ids, labels))


def _labels_blocks(sample_ids: Sequence[str], labels: Sequence[Label]) -> Iterator[str]:
    """The ``sample_id,label`` table of the aligned columns, one block of rows at a time."""
    return _csv_blocks(
        _LABELS_HEADER, len(sample_ids), lambda rows: (sample_ids[rows], [lab.value for lab in labels[rows]])
    )


def write_labels(labels: Mapping[str, Label]) -> str:
    _check_ids(tuple(labels))
    return "".join(_labels_blocks(tuple(labels), tuple(labels.values())))


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
    names = [f"feature f{k}" for k in range(d)]
    ids: list[str] = []
    values = np.empty((len(table.lines), d))
    faults: list[_Fault] = []
    for start, cells in table.row_blocks():
        ids += cells[:: d + 1]
        del cells[:: d + 1]
        block, bad_value = _float_cells(cells, names)
        faults = _block_faults(start, bad_value)
        if faults:
            break
        values[start : start + len(block) // d] = block.reshape(-1, d)
    _raise_first(table, _id_fault(ids), *faults)
    return FeatureMatrix(tuple(ids), values)


def _float_blocks(header: Sequence[str], first: Sequence[str], values: np.ndarray) -> Iterator[str]:
    """:func:`_csv_blocks` of the column ``first`` followed by the float columns of ``values``."""
    return _csv_blocks(header, len(first), lambda rows: (first[rows], *map(_reprs, values[rows].T)))


def _features_blocks(features: FeatureMatrix) -> Iterator[str]:
    """:func:`write_features` one block of rows at a time."""
    return _float_blocks(_features_header(features.d), features.sample_ids, features.values)


def write_features(features: FeatureMatrix) -> str:
    return "".join(_features_blocks(features))


@lru_cache(maxsize=4)
def _index_tokens(start: int, n: int) -> list[str]:
    """The canonical index tokens ``str(start), ..., str(start + n - 1)``; callers only compare with them."""
    return list(map(str, range(start, start + n)))


def _index_fault(tokens: list[str], start: int) -> _Fault | None:
    """The first index token of a block that is no int or not its row index;
    ``start`` is the index of the block's first row.

    The canonical tokens ``str(k)`` are compared first; only a column spelled
    otherwise (``+1``, ``01``, `` 1``) is checked token by token with ``int``.
    """
    if tokens == _index_tokens(start, len(tokens)):
        return None
    for r, token in enumerate(tokens):
        try:
            index = int(token)
        except ValueError:
            return r, f"bad index {token!r}"
        if index != start + r:
            return r, f"landmark indices must increase from 0; expected {start + r}, got {index}"
    return None  # a non-canonical spelling of every row index


def parse_landmarks(data: Union[bytes, str]) -> LandmarkSet:
    """Read an ``index,x,y`` table; indices must run 0, 1, 2, ... in order."""
    table = _read_table(data, "landmarks CSV")
    _check_header(table, _LANDMARKS_HEADER, "landmarks")
    points = np.empty((len(table.lines), 2))
    faults: list[_Fault] = []
    for start, cells in table.row_blocks():
        bad_index = _index_fault(cells[::3], start)
        del cells[::3]
        block, bad_point = _float_cells(cells, ["x", "y"])
        faults = _block_faults(start, bad_index, bad_point)
        if faults:
            break
        points[start : start + len(block) // 2] = block.reshape(-1, 2)
    _raise_first(table, *faults)
    return LandmarkSet(points=points)


def write_landmarks(landmarks: LandmarkSet) -> str:
    points = landmarks.points
    return "".join(_float_blocks(_LANDMARKS_HEADER, list(map(str, range(len(points)))), points))


def parse_manifest(data: Union[bytes, str]) -> tuple[list[str], list[str], list[str], list[Label]]:
    """Read a ``sample_id,depth,landmarks,label`` batch manifest as its four
    columns in row order: sample ids, depth paths, landmarks paths and labels."""
    table = _read_table(data, "manifest CSV")
    _check_header(table, _MANIFEST_HEADER, "manifest")
    ids: list[str] = []
    depths: list[str] = []
    landmarks: list[str] = []
    labels: list[Label] = []
    faults: list[_Fault] = []
    for start, cells in table.row_blocks():
        ids += cells[::4]
        block_depths, block_landmarks, tokens = cells[1::4], cells[2::4], cells[3::4]
        block_labels = list(map(LABEL_BY_NAME.get, tokens))
        faults = _block_faults(
            start, _path_fault(block_depths, block_landmarks), _label_fault(tokens, block_labels)
        )
        if faults:
            break
        depths += block_depths
        landmarks += block_landmarks
        labels += block_labels
    _raise_first(table, _id_fault(ids), *faults)
    return ids, depths, landmarks, labels


# ---------------------------------------------------------------------------
# 16-bit binary PGM depth maps


#: A ``#`` comment, to the end of its line, or a PGM header token as group 1;
#: a search skips the whitespace between them, one match at a time.
_PGM_HEADER_ITEM = re.compile(rb"#[^\r\n]*|([^\s#]+)")


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
    tokens = (item for item in _PGM_HEADER_ITEM.finditer(data, 2) if item[1])
    fields = {}
    for name in ("width", "height", "maxval"):
        item = next(tokens, None)
        if item is None:
            raise TruncatedError("PGM header ends early")
        token = item[1].decode("ascii", errors="replace")
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
    if item.end() == len(data):
        raise TruncatedError("PGM header ends early")
    if not data[item.end() : item.end() + 1].isspace():
        raise ParseError("expected single whitespace after PGM maxval")
    expected = width * height * 2
    raster = data[item.end() + 1 :]
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
    text = str(_utf8(data, kind), "utf-8", "surrogatepass")
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
        metrics: dict[str, object] = asdict(report)
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
        "diagnostics": None if model.diagnostics is None else asdict(model.diagnostics),
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


def _per_distinct(values: np.ndarray, cells: Callable[[np.ndarray], list[str]]) -> list[str]:
    """``cells(values)`` with each distinct value formatted once.

    Values are told apart by their bits, so ``0.0`` and ``-0.0`` keep their
    own cells; ``cells`` gets the distinct values in the order of their bits.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(cells(bits.view(np.float64)), dtype=object)[inverse].tolist()


def _det_blocks(curve: DetCurve) -> Iterator[str]:
    """:func:`write_det` one block of rows at a time."""

    # rates are counts over a class size, so a long sweep repeats each one many times
    def columns(rows: slice) -> tuple:
        return (
            _reprs(curve.thresholds[rows]),
            _per_distinct(curve.x_rates[rows], _reprs),
            _per_distinct(curve.y_rates[rows], _reprs),
        )

    return _csv_blocks(_DET_HEADER, len(curve), columns)


def write_det(curve: DetCurve) -> str:
    """DET sweep as CSV: one row per threshold, rates as exact decimals."""
    return "".join(_det_blocks(curve))


def _det_svg_blocks(curve: DetCurve) -> Iterator[str]:
    """:func:`write_det_svg` one block of polyline points at a time."""
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
        # (clamped rates are positive and finite, so their bits sort as their values)
        def cells(distinct: np.ndarray) -> list[str]:
            q = np.fromiter(map(_PROBIT, distinct.tolist()), dtype=np.float64, count=distinct.size)
            return [f"{v:.2f}" for v in to_px(q).tolist()]

        return _per_distinct(np.clip(rates, _DET_LO, _DET_HI), cells)

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
    yield "\n".join(parts) + '\n<polyline points="'
    # the points are "x,y" pairs joined by spaces, across the blocks too
    for rows in _row_slices(len(curve), 2):
        if rows.start:
            yield " "
        yield " ".join(map("{},{}".format, pixels(curve.x_rates[rows], x_px), pixels(curve.y_rates[rows], y_px)))
    tail = [
        '" fill="none" stroke="#1f4e9c" stroke-width="1.6"/>',
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 24}" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif">{x_name}</text>',
        f'<text x="24" y="{mt + plot_h / 2:.2f}" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 24 {mt + plot_h / 2:.2f})">{y_name}</text>',
        "</svg>",
    ]
    yield "\n".join(tail) + "\n"


def write_det_svg(curve: DetCurve) -> str:
    """DET curve on normal-deviate (probit) axes as a standalone SVG."""
    return "".join(_det_svg_blocks(curve))

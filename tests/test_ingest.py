"""File formats: exact round-trips, structured failures, report rendering."""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import score_columns

from padeval import (
    DepthKind,
    DepthMap,
    DetAxes,
    DetCurve,
    FeatureMatrix,
    LandmarkSet,
    OcsvmConfig,
    PadReport,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    SynthDepthSpec,
    TrialLabel,
    ValidationError,
    VulnReport,
    decision_value,
    det_curve,
    fit,
    gen_depth,
    gen_features,
    SynthFeatureSpec,
)
from padeval import ingest
from padeval.ingest import (
    BadMagicError,
    BadMaxvalError,
    DEFAULTS,
    EmptyFileError,
    ParseError,
    RaggedRowError,
    TruncatedError,
    UnsupportedVersionError,
    fmt_float,
    parse_depth_pgm,
    parse_features,
    parse_labels,
    parse_landmarks,
    parse_manifest,
    parse_model,
    parse_report,
    parse_scores,
    percent,
    write_depth_pgm,
    write_det,
    write_det_svg,
    write_features,
    write_labels,
    write_landmarks,
    write_model,
    write_report,
    write_scores,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
sample_ids = st.text(min_size=1, max_size=30).filter(
    lambda s: not any(ch in s for ch in "\x00\r\n")
)
any_label = st.sampled_from(list(PresentationLabel) + list(TrialLabel))
# ids that never need CSV quoting
plain_ids = st.text(alphabet="abcxyz0123456789_-.", min_size=1, max_size=12)
# ids that need CSV quoting or carry non-ASCII text: delimiters, quotes,
# tabs, edge spaces, accents, symbols outside the BMP; no surrogates, which
# no id may hold
csv_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\t", " ", "é", "€", "\u2028", "\U0001f600"]),
        st.characters(exclude_characters="\x00\r\n", exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=12,
)


class TestFormatting:
    @given(finite_floats)
    def test_fmt_float_round_trips(self, value):
        assert float(fmt_float(value)) == value

    def test_fmt_float_is_shortest_repr(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(1.0) == "1.0"
        assert fmt_float(-0.0) == "-0.0"

    def test_percent_rendering(self):
        assert percent(1591 / 1608, 4) == "98.9428"
        assert percent(13412 / 14472, 4) == "92.6755"
        assert percent(98 / 728, 2) == "13.46"
        assert percent(135 / 728, 2) == "18.54"
        assert percent(0.5, 2) == "50.00"
        assert percent(0.0, 2) == "0.00"
        assert percent(1.0, 2) == "100.00"


class TestScoresCsv:
    @given(
        st.lists(
            st.tuples(sample_ids, any_label, finite_floats),
            min_size=1,
            max_size=40,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from(list(Polarity)),
    )
    def test_round_trip(self, rows, polarity):
        ids, labels, scores = zip(*rows)
        original = ScoreSet(sample_ids=ids, labels=labels, values=scores, polarity=polarity)
        text = write_scores(original)
        parsed = parse_scores(text.encode("utf-8"), polarity)
        assert score_columns(parsed) == score_columns(original)
        assert parsed.polarity is polarity

    def test_ids_with_delimiters_survive(self):
        tricky = ['a,b', 'quote"inside', "tab\tchar", "café", " padded "]
        original = ScoreSet(
            sample_ids=tricky,
            labels=[PresentationLabel.ATTACK] * len(tricky),
            values=[float(k) for k in range(len(tricky))],
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        parsed = parse_scores(write_scores(original), Polarity.HIGHER_IS_BONA_FIDE)
        assert parsed.sample_ids == tuple(tricky)

    @pytest.mark.parametrize("bad", ["with\rreturn", "with\nnewline", "nul\x00char"])
    def test_line_break_ids_refused_on_both_sides(self, bad):
        # the constructor refuses the id before write_scores could see it
        with pytest.raises(ValidationError):
            write_scores(
                ScoreSet(
                    sample_ids=(bad,),
                    labels=(PresentationLabel.ATTACK,),
                    values=(1.0,),
                    polarity=Polarity.HIGHER_IS_BONA_FIDE,
                )
            )
        quoted = bad.replace("\x00", "")
        data = f'sample_id,label,score\n"{quoted}x",attack,1.0\n'
        if "\x00" not in bad:
            with pytest.raises(ParseError, match="sample_id"):
                parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)

    def test_polarity_must_be_supplied(self):
        with pytest.raises(ValidationError):
            parse_scores("sample_id,label,score\na,bonafide,1.0\n", "higher_is_bonafide")

    def test_empty_and_header_only(self):
        with pytest.raises(EmptyFileError):
            parse_scores(b"", Polarity.HIGHER_IS_BONA_FIDE)
        with pytest.raises(EmptyFileError):
            parse_scores(b"sample_id,label,score\n", Polarity.HIGHER_IS_BONA_FIDE)

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_scores(b"id,label,score\na,bonafide,1.0\n", Polarity.HIGHER_IS_BONA_FIDE)

    def test_ragged_row_carries_line_number(self):
        data = b"sample_id,label,score\na,bonafide,1.0\nb,attack\n"
        with pytest.raises(RaggedRowError) as err:
            parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)
        assert err.value.line == 3

    def test_duplicate_id(self):
        data = b"sample_id,label,score\na,bonafide,1.0\na,attack,2.0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)

    def test_unknown_label_names_the_alternatives(self):
        data = b"sample_id,label,score\na,genuine,1.0\n"
        with pytest.raises(ParseError, match="bonafide"):
            parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)

    @pytest.mark.parametrize("token", ["inf", "nan", "1e999", "abc", ""])
    def test_bad_scores(self, token):
        data = f"sample_id,label,score\na,bonafide,{token}\n"
        with pytest.raises(ParseError):
            parse_scores(data, Polarity.HIGHER_IS_BONA_FIDE)

    def test_non_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_scores(b"\xff\xfe\x00bad", Polarity.HIGHER_IS_BONA_FIDE)


# columns of ids where either no id or some ids need CSV quoting
table_rows = st.lists(
    st.tuples(st.one_of(plain_ids, csv_ids), any_label, finite_floats, finite_floats),
    min_size=1,
    max_size=30,
    unique_by=lambda t: t[0],
)


class TestOneWriterTables:
    @given(table_rows)
    @example([("a", PresentationLabel.ATTACK, 1.0, -0.0), ("b", TrialLabel.MATED, 2.5, 1e300)])
    @example([('x,"y"', PresentationLabel.ATTACK, 1.0, 2.0), ("z", TrialLabel.MATED, 0.1, 5e-324)])
    def test_bytes_match_the_per_line_writer(self, rows):
        ids, labels, scores, extra = zip(*rows)
        score_set = ScoreSet(
            sample_ids=ids, labels=labels, values=scores, polarity=Polarity.HIGHER_IS_BONA_FIDE
        )
        expected_scores = oracles.csv_lines(
            ["sample_id", "label", "score"], [[i, l.value, repr(s)] for i, l, s, _ in rows]
        )
        assert write_scores(score_set).encode("utf-8") == expected_scores.encode("utf-8")
        expected_labels = oracles.csv_lines(["sample_id", "label"], [[i, l.value] for i, l, _, _ in rows])
        assert write_labels(dict(zip(ids, labels))).encode("utf-8") == expected_labels.encode("utf-8")
        features = FeatureMatrix(sample_ids=ids, values=np.column_stack([scores, extra]))
        expected_features = oracles.csv_lines(
            ["sample_id", "f0", "f1"], [[i, repr(s), repr(e)] for i, _, s, e in rows]
        )
        assert write_features(features).encode("utf-8") == expected_features.encode("utf-8")
        landmarks = LandmarkSet(points=np.column_stack([scores, extra]))
        expected_landmarks = oracles.csv_lines(
            ["index", "x", "y"], [[str(k), repr(s), repr(e)] for k, (_, _, s, e) in enumerate(rows)]
        )
        assert write_landmarks(landmarks).encode("utf-8") == expected_landmarks.encode("utf-8")

    @given(table_rows, st.integers(min_value=1, max_value=4))
    def test_bytes_match_the_frozen_writer(self, rows, d):
        ids, labels, scores, extra = zip(*rows)
        score_set = ScoreSet(
            sample_ids=ids, labels=labels, values=scores, polarity=Polarity.HIGHER_IS_MATCH
        )
        assert write_scores(score_set) == oracles.scores_table(score_set)
        labels_map = dict(zip(ids, labels))
        assert write_labels(labels_map) == oracles.csv_table(
            ["sample_id", "label"], ((sid, lab.value) for sid, lab in labels_map.items())
        )
        features = FeatureMatrix(sample_ids=ids, values=np.column_stack([scores, extra] * d)[:, :d])
        assert write_features(features) == oracles.features_table(features)
        landmarks = LandmarkSet(points=np.column_stack([extra, scores]))
        assert write_landmarks(landmarks) == oracles.landmarks_table(landmarks)

    def test_only_ids_that_need_it_are_quoted(self):
        score_set = ScoreSet(
            sample_ids=("plain", "a,b", 'say "hi"', "tab\there"),
            labels=(PresentationLabel.ATTACK,) * 4,
            values=(1.0, 2.0, 3.0, 4.0),
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        assert write_scores(score_set).splitlines()[1:] == [
            "plain,attack,1.0",
            '"a,b",attack,2.0',
            '"say ""hi""",attack,3.0',
            "tab\there,attack,4.0",
        ]

    def test_surrogate_ids_refused(self):
        # a lone surrogate cannot be written as UTF-8
        with pytest.raises(ValidationError, match="sample_id must be"):
            ScoreSet(
                sample_ids=("\ud800",),
                labels=(PresentationLabel.ATTACK,),
                values=(1.0,),
                polarity=Polarity.HIGHER_IS_BONA_FIDE,
            )
        with pytest.raises(ValidationError, match="sample_id must be"):
            FeatureMatrix(sample_ids=("\ud800",), values=[[1.0]])
        with pytest.raises(ValidationError, match="sample_id must be"):
            write_labels({"\ud800": PresentationLabel.ATTACK})


class TestLabelsCsv:
    @given(
        st.dictionaries(sample_ids, any_label, min_size=1, max_size=30)
    )
    def test_round_trip_preserves_order(self, labels):
        parsed = parse_labels(write_labels(labels))
        assert parsed == labels
        assert list(parsed) == list(labels)

    def test_errors(self):
        with pytest.raises(EmptyFileError):
            parse_labels("sample_id,label\n")
        with pytest.raises(RaggedRowError):
            parse_labels("sample_id,label\na,bonafide,extra\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_labels("sample_id,label\na,bonafide\na,attack\n")


class TestFeaturesCsv:
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda d: st.lists(
                st.tuples(
                    sample_ids, st.lists(finite_floats, min_size=d, max_size=d)
                ),
                min_size=1,
                max_size=20,
                unique_by=lambda t: t[0],
            )
        )
    )
    def test_round_trip(self, rows):
        original = FeatureMatrix(
            sample_ids=tuple(r[0] for r in rows), values=[r[1] for r in rows]
        )
        parsed = parse_features(write_features(original))
        assert parsed.sample_ids == original.sample_ids
        assert parsed.values.tolist() == original.values.tolist()

    def test_generated_features_round_trip(self):
        feats, _ = gen_features(SynthFeatureSpec(n_bonafide=5, n_attack=5, d=7, seed=3))
        parsed = parse_features(write_features(feats))
        assert parsed.values.tolist() == feats.values.tolist()

    def test_parsed_matrix_is_read_only(self):
        parsed = parse_features("sample_id,f0,f1\na,1.0,2.0\nb,3.0,-0.0\n")
        assert parsed.sample_ids == ("a", "b") and isinstance(parsed.sample_ids, tuple)
        with pytest.raises(ValueError):
            parsed.values[0, 0] = 5.0

    def test_header_must_enumerate_columns(self):
        with pytest.raises(ParseError, match="header"):
            parse_features("sample_id,f0,f2\na,1.0,2.0\n")
        with pytest.raises(ParseError, match="header"):
            parse_features("sample_id\na\n")

    def test_header_message_quotes_the_fragment(self):
        with pytest.raises(ParseError) as err:
            parse_features("a,b\nx,1\n")
        assert str(err.value) == "line 1: expected features header 'sample_id,f0,...,f{d-1}', got 'a,b'"
        with pytest.raises(ParseError) as err:
            parse_features("a,b,c,d,e,f\nx,1,2,3,4,5\n")
        assert str(err.value).endswith(", got 'a,b,c,d,...'")

    def test_ragged_row(self):
        with pytest.raises(RaggedRowError) as err:
            parse_features("sample_id,f0,f1\na,1.0,2.0\nb,3.0\n")
        assert err.value.line == 3


# ---------------------------------------------------------------------------
# the column parsers against the row walk they fall back to

_HEADERS = {
    "scores": ["sample_id", "label", "score"],
    "labels": ["sample_id", "label"],
    "landmarks": ["index", "x", "y"],
    "manifest": ["sample_id", "depth", "landmarks", "label"],
}
# floats as written, and other spellings Python's float accepts
_float_tokens = st.one_of(
    finite_floats.map(repr), st.sampled_from([" 1.5", "1_000", "+.5", "1E3", "\u0661", "-0.0"])
)
_label_tokens = any_label.map(lambda lab: lab.value)
# each fault as (what, how): a bad or repeated id, a bad cell, a row of the
# wrong width, a field beyond the CSV size limit, or a blank line (no fault)
_FAULTS = [
    ("id", ""),
    ("id", "a\nb"),
    ("id", "nul\x00"),
    ("id", "\ud800"),
    ("id", None),  # the id of another row
    ("cell", "genuine"),
    ("cell", "abc"),
    ("cell", ""),
    ("cell", "inf"),
    ("cell", "nan"),
    ("cell", "1e999"),
    ("ragged", "extra"),
    ("ragged", None),
    ("syntax", "x" * 131073),
    ("blank", None),
]


def _header(kind, d):
    return _HEADERS.get(kind) or ["sample_id"] + [f"f{k}" for k in range(d)]


@st.composite
def _tables(draw, kind, id_texts=csv_ids):
    d = draw(st.integers(min_value=1, max_value=4))
    ids = draw(st.lists(id_texts, min_size=1, max_size=10, unique=True))
    if kind == "labels":
        rows = [[sid, draw(_label_tokens)] for sid in ids]
    elif kind == "landmarks":
        spellings = [lambda k: str(k), lambda k: f" {k}", lambda k: f"+{k}", lambda k: f"0{k}"]
        rows = [[draw(st.sampled_from(spellings))(k), draw(_float_tokens), draw(_float_tokens)]
                for k in range(len(ids))]
    elif kind == "scores":
        rows = [[sid, draw(_label_tokens), draw(_float_tokens)] for sid in ids]
    elif kind == "manifest":
        rows = [[sid, draw(id_texts), draw(id_texts), draw(_label_tokens)] for sid in ids]
    else:
        rows = [[sid, *draw(st.lists(_float_tokens, min_size=d, max_size=d))] for sid in ids]
    return _header(kind, d), rows


def _inject(rows, faults):
    """A copy of ``rows`` with each ``((what, how), row index, column)`` applied."""
    rows = [list(row) for row in rows]
    blanks = []
    for (what, how), r, c in faults:
        row = rows[r]
        if what == "id":
            row[0] = rows[(r + 1) % len(rows)][0] if how is None else how
        elif what == "cell" and len(row) > 1:
            row[1 + c % (len(row) - 1)] = how
        elif what == "ragged" and how is not None:
            row.append(how)
        elif what == "ragged" and len(row) > 1:
            row.pop()
        elif what == "syntax":
            row[c % len(row)] = how
        else:
            blanks.append(r)
    for r in sorted(blanks, reverse=True):
        rows.insert(r, [])  # the writer puts out a bare line break
    return rows


_PARSERS = {
    "scores": lambda text: parse_scores(text, Polarity.HIGHER_IS_BONA_FIDE),
    "labels": parse_labels,
    "features": parse_features,
    "landmarks": parse_landmarks,
    "manifest": parse_manifest,
}
# the per-table row walks, the reference of the column parsers
_WALKS = {
    "scores": oracles.score_rows,
    "labels": oracles.label_rows,
    "features": oracles.feature_rows,
    "landmarks": oracles.landmark_rows,
    "manifest": oracles.manifest_rows,
}
_KINDS = list(_WALKS)


def _parse(kind, text):
    return _PARSERS[kind](text)


def _parse_by_rows(kind, text):
    """The table read whole, then checked and converted row by row."""
    header, *rows = oracles.csv_rows(text)
    walk = _WALKS[kind]
    if kind == "scores":
        ids, labels, values = walk(rows)
        return ScoreSet(sample_ids=ids, labels=labels, values=values, polarity=Polarity.HIGHER_IS_BONA_FIDE)
    if kind in ("labels", "manifest"):
        return walk(rows)
    if kind == "landmarks":
        return LandmarkSet(points=walk(rows))
    ids, values = walk(rows, len(header[1]) - 1)
    return FeatureMatrix(sample_ids=ids, values=values)


def _columns(parsed):
    if isinstance(parsed, list):
        return parsed
    if isinstance(parsed, dict):
        return list(parsed.items())
    if isinstance(parsed, LandmarkSet):
        return parsed.points.view(np.uint64).tolist()
    labels = getattr(parsed, "labels", None)
    return parsed.sample_ids, labels, parsed.values.view(np.uint64).tolist()


def _outcome(parse, *args):
    try:
        return _columns(parse(*args))
    except PadevalError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# block sizes, in bytes, that the reader is run with besides its own
# (None), so that tables span several blocks
_BLOCK_SIZES = [None, 1, 7, 64]


@contextlib.contextmanager
def _blocks_of(block_bytes):
    """Plain CSV read in blocks of about ``block_bytes`` bytes (None: the reader's own)."""
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        yield


def _table_outcome(read, text):
    try:
        table = read(text, "some CSV")
    except PadevalError as exc:
        return type(exc), str(exc), exc.line
    cells = [cell for block in table.blocks for cell in block]
    return table.header, table.header_line, cells, list(table.lines), table.ragged


def _block_outcomes(kind, text, block_bytes):
    """The table and parse outcomes with blocks of about ``block_bytes``
    bytes, and with the whole-table csv.reader of ``oracles``, which the
    reader of a decoded copy in ``oracles`` matches, in blocks of as many
    characters."""
    with _blocks_of(block_bytes):
        new = _table_outcome(ingest._read_table, text), _outcome(_parse, kind, text)
    old = []
    for read in (oracles.read_table, functools.partial(oracles.read_text_table, block_chars=block_bytes or 1 << 20)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_read_table", read)
            old.append((_table_outcome(read, text), _outcome(_parse, kind, text)))
    assert old[0] == old[1]
    return new, old[0]


class TestColumnParsersMatchRowWalk:
    @given(st.sampled_from(_KINDS).flatmap(lambda kind: st.tuples(st.just(kind), _tables(kind))),
           st.lists(st.integers(min_value=0, max_value=9), max_size=3),
           st.sampled_from(_BLOCK_SIZES))
    def test_valid_tables_parse_like_the_row_walk(self, kind_table, blank_rows, block_bytes):
        kind, (header, rows) = kind_table
        blanks = [(("blank", None), r % len(rows), 0) for r in blank_rows]
        text = oracles.csv_lines(header, _inject(rows, blanks))
        with _blocks_of(block_bytes):
            parsed = _parse(kind, text)
        assert _columns(parsed) == _columns(_parse_by_rows(kind, text))

    @given(
        st.sampled_from(_KINDS).flatmap(lambda kind: st.tuples(st.just(kind), _tables(kind))),
        st.lists(
            st.tuples(st.sampled_from(_FAULTS), st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=2
        ),
        st.sampled_from(_BLOCK_SIZES),
    )
    def test_faulty_tables_fail_like_the_row_walk(self, kind_table, faults, block_bytes):
        kind, (header, rows) = kind_table
        faults = [(fault, r % len(rows), c) for fault, r, c in faults]
        text = oracles.csv_lines(header, _inject(rows, faults))
        new, old = _block_outcomes(kind, text, block_bytes)
        assert new == old
        assert new[1] == _outcome(_parse_by_rows, kind, text)

    # a cell fault at column 2 hits the first value column of the tables with
    # one or two of them, and the label of the manifest, whose paths take
    # any token but the empty one
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize(
        "faults, line",
        [
            pytest.param([(("cell", "abc"), 0, 2), (("syntax", "x" * 131073), 2, 1)], 4,
                         id="csv-syntax-error-after-a-row-error"),
            pytest.param([(("id", ""), 1, 0), (("ragged", "extra"), 2, 0)], 3,
                         id="ragged-row-after-a-bad-id"),
            pytest.param([(("ragged", "extra"), 1, 0), (("ragged", None), 3, 0)], 3,
                         id="ragged-row-after-a-ragged-row"),
            pytest.param([(("cell", "inf"), 1, 2), (("id", None), 2, 0)], 3,
                         id="duplicate-id-after-a-non-finite-score"),
            pytest.param([(("cell", "nan"), 1, 2), (("cell", "abc"), 3, 2)], 3,
                         id="bad-cell-after-a-non-finite-cell"),
            pytest.param([(("blank", None), 0, 0), (("blank", None), 2, 0), (("cell", "nan"), 2, 2)], 6,
                         id="blank-lines"),
            pytest.param([(("cell", "1e999"), 3, 2)], 5, id="quoted-ids-with-commas"),
            pytest.param([(("cell", ""), 1, 0)], 3, id="empty-first-value-cell"),
            # csv.reader keeps the rows after a ragged row, and their faults lose to it
            pytest.param([(("ragged", "extra"), 1, 0), (("cell", "abc"), 3, 2)], 3,
                         id="bad-cell-two-rows-after-an-extra-field-row"),
            pytest.param([(("ragged", None), 1, 0), (("id", None), 2, 0)], 3,
                         id="duplicate-id-after-a-short-row"),
            pytest.param([(("ragged", "extra"), 2, 0), (("id", ""), 3, 0)], 4,
                         id="empty-id-after-a-ragged-row"),
        ],
    )
    def test_fault_orders(self, kind, faults, line):
        ids = ["a,b", '"q", r', "c", "d,e,", "f"] if kind != "landmarks" else list("01234")
        cells = {"scores": ["attack", "0.5"], "labels": ["bonafide"], "manifest": ["d.pgm", "l.csv", "attack"]}
        rows = [[sid, *cells.get(kind, ["0.5", "-1.5"])] for sid in ids]
        text = oracles.csv_lines(_header(kind, 2), _inject(rows, faults))
        outcome = _outcome(_parse, kind, text)
        assert outcome == _outcome(_parse_by_rows, kind, text)
        assert issubclass(outcome[0], ParseError) and outcome[2] == line
        for block_bytes in _BLOCK_SIZES:
            new, old = _block_outcomes(kind, text, block_bytes)
            assert new == old and new[1] == outcome


# ---------------------------------------------------------------------------
# the str.split reading of plain CSV against csv.reader

_LIMIT = csv.field_size_limit()


def _shift_comma(text, k):
    """``text`` with its k-th comma moved to the end of another line, so the
    rows turn ragged while the total number of cells stays the same."""
    commas = [i for i, ch in enumerate(text) if ch == ","]
    if not commas:
        return text
    i = commas[k % len(commas)]
    text = text[:i] + text[i + 1 :]
    ends = [j for j, ch in enumerate(text) if ch == "\n"] + [len(text)]
    j = ends[(k + 1) % len(ends)]
    return text[:j] + "," + text[j:]


# each edit as (what, argument): one character inserted, every line break
# written as CRLF, blank lines before, inside and after the table, the final
# line break dropped, a field at or beyond the field size limit, a comma moved
_EDITS = [
    ("insert", '"'),
    ("insert", "\r"),
    ("insert", "\x00"),
    ("insert", "\n"),
    ("insert", ","),
    ("insert", "x" * _LIMIT),
    ("insert", "x" * (_LIMIT + 1)),
    ("crlf", None),
    ("lead", None),
    ("trail", None),
    ("chop", None),
    ("shift", None),
]


def _edit(text, edits):
    for (what, arg), k in edits:
        if what == "insert":
            at = k % (len(text) + 1)
            text = text[:at] + arg + text[at:]
        elif what == "crlf":
            text = text.replace("\n", "\r\n")
        elif what == "lead":
            text = "\n" + text
        elif what == "trail":
            text = text + "\n"
        elif what == "chop":
            text = text[:-1]
        else:
            text = _shift_comma(text, k)
    return text


class TestPlainSplitMatchesCsvReader:
    @given(
        st.sampled_from(_KINDS).flatmap(
            lambda kind: st.tuples(st.just(kind), st.sampled_from([plain_ids, csv_ids]).flatmap(
                lambda id_texts: _tables(kind, id_texts)))
        ),
        st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 10**6)), max_size=3),
        st.sampled_from(_BLOCK_SIZES),
    )
    def test_same_table_and_parse(self, kind_table, edits, block_bytes):
        kind, (header, rows) = kind_table
        text = _edit(oracles.csv_lines(header, rows), edits)
        new, old = _block_outcomes(kind, text, block_bytes)
        assert new == old

    @pytest.mark.parametrize(
        "text, plain",
        [
            pytest.param("index,x,y\n0,1.5,2\n1,3,4\n", True, id="plain"),
            pytest.param("index,x,y\n0,1.5,2\n1,3,4", True, id="no-final-newline"),
            pytest.param("index,x,y\n", True, id="header-only"),
            pytest.param("index,x,y", True, id="header-only-no-newline"),
            pytest.param("index,x,y\n0, 1.5 ,\u2028\n", True, id="spaces-and-unicode-separators"),
            pytest.param("index,x,y\n" + "0,1,2\n" * (_LIMIT // 6 + 1), True, id="file-beyond-the-limit"),
            pytest.param('index,x,y\n"0",1.5,2\n', False, id="quotes"),
            pytest.param("index,x,y\n0,1.5,2\r1,3,4\n", False, id="bare-cr"),
            pytest.param("index,x,y\r\n0,1.5,2\r\n", False, id="crlf"),
            pytest.param("index,x,y\n0,1.5,2\x00\n", False, id="nul"),
            pytest.param("\nindex,x,y\n0,1.5,2\n", False, id="leading-blank-line"),
            pytest.param("index,x,y\n\n0,1.5,2\n", False, id="interior-blank-line"),
            pytest.param("index,x,y\n0,1.5,2\n\n", False, id="trailing-blank-line"),
            pytest.param("", False, id="empty"),
            pytest.param("\n", False, id="one-line-break"),
            pytest.param("index,x,y\n0,1.5," + "1" * _LIMIT + "\n", False, id="line-beyond-the-limit"),
            pytest.param("index,x,y\n0,1.5," + "1" * (_LIMIT + 1) + "\n", False, id="field-beyond-the-limit"),
            pytest.param("index\n" + "1" * _LIMIT + "\n", True, id="field-at-the-limit"),
            pytest.param("index\n" + "1" * (_LIMIT + 1) + "\n", False, id="lone-field-beyond-the-limit"),
            pytest.param("index,x,y\n0,1,2,1\n1,2\n", False, id="ragged-rows-adding-up"),
            pytest.param("index,x,y\n0,1\n", False, id="short-row"),
        ],
    )
    def test_each_fallback_trigger(self, text, plain):
        assert (ingest._split_plain(text.encode()) is not None) == plain
        for kind in _KINDS:
            new, old = _block_outcomes(kind, text, None)
            assert new == old

    def test_plain_files_never_construct_a_csv_reader(self):
        depth, landmarks = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, width=32, height=32, seed=3))
        scores = ScoreSet(
            sample_ids=["a", "b.1", "c-2"],
            labels=[PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK, PresentationLabel.ATTACK],
            values=[0.25, -1e-300, 3.0],
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        landmarks_csv, scores_csv = write_landmarks(landmarks), write_scores(scores)

        def constructed(*args, **kwargs):
            raise AssertionError("csv.reader ran on a plain file")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest.csv, "reader", constructed)
            parsed_landmarks = parse_landmarks(landmarks_csv)
            parsed_scores = parse_scores(scores_csv, Polarity.HIGHER_IS_BONA_FIDE)
        assert parsed_landmarks.points.tolist() == landmarks.points.tolist()
        assert score_columns(parsed_scores) == score_columns(scores)


# ---------------------------------------------------------------------------
# tables read one block of rows at a time, against the whole-table reader

def _valid_rows(kind, n):
    """``n`` valid rows of a ``kind`` table with two value columns."""
    cells = {"scores": ["attack", "0.5"], "labels": ["bonafide"], "manifest": ["d.pgm", "l.csv", "attack"]}
    return [[str(k) if kind == "landmarks" else f"s{k}", *cells.get(kind, ["0.5", "-1.5"])] for k in range(n)]


class TestBlockReader:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param([], id="valid"),
            pytest.param([(("cell", "abc"), 11, 2)], id="bad-cell-in-the-last-row"),
            pytest.param([(("id", None), 11, 0)], id="duplicate-id-in-the-last-row"),
            pytest.param([(("id", ""), 11, 0)], id="empty-id-in-the-last-row"),
            pytest.param([(("cell", "inf"), 10, 2), (("id", None), 11, 0)], id="two-faults-in-the-last-rows"),
            pytest.param([(("ragged", "extra"), 11, 0)], id="ragged-last-row"),
            pytest.param([(("blank", None), 11, 0)], id="blank-line-before-the-last-row"),
            pytest.param([(("syntax", 'a"b'), 11, 0)], id="quote-in-the-last-row"),
            pytest.param([(("syntax", "x" * (_LIMIT + 1)), 11, 1)], id="field-beyond-the-limit-in-the-last-row"),
        ],
    )
    @pytest.mark.parametrize("ending", ["\n", ""], ids=["final-newline", "no-final-newline"])
    def test_every_span_boundary(self, kind, faults, ending):
        # every block size from one byte to the whole table, so that
        # each row ends on a span boundary for some size and the last block
        # holds the fault, the line that is not plain, or the last row alone
        rows = _valid_rows(kind, 12)
        text = oracles.csv_lines(_header(kind, 2), _inject(rows, faults))
        text = text if ending else text[:-1]
        for block_bytes in [*range(1, 80), len(text) - 1, len(text), len(text) + 1]:
            new, old = _block_outcomes(kind, text, block_bytes)
            assert new == old, block_bytes

    # rows of one or two bytes put a line break next to every span end
    @pytest.mark.parametrize("text", ["index\n1\n2\n", "index\n1\n2", "i\n1\n22\n333\n", "a,b\n1,2\n,\n", "x,y\n,"])
    def test_short_rows_at_every_block_size(self, text):
        for block_bytes in range(1, len(text) + 2):
            for kind in _KINDS:
                new, old = _block_outcomes(kind, text, block_bytes)
                assert new == old, (kind, block_bytes)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("ending", ["\n", ""], ids=["final-newline", "no-final-newline"])
    def test_header_only_tables(self, kind, ending):
        text = ",".join(_header(kind, 2)) + ending
        for block_bytes in _BLOCK_SIZES:
            new, old = _block_outcomes(kind, text, block_bytes)
            assert new == old
            assert new[1][0] is EmptyFileError

    def test_spans_hold_whole_rows(self):
        text = oracles.csv_lines(["index", "x", "y"], _valid_rows("landmarks", 12))
        with _blocks_of(1):
            blocks = list(ingest._read_table(text, "landmarks CSV").row_blocks())
        assert blocks == [(k, [str(k), "0.5", "-1.5"]) for k in range(12)]
        # a span of 24 bytes ends at the first line break from its 24th byte
        # on, which closes its third row of 11 or 12 bytes
        with _blocks_of(2 * len("10,0.5,-1.5\n")):
            starts = [start for start, _ in ingest._read_table(text, "landmarks CSV").row_blocks()]
        assert starts == [0, 3, 6, 9]

    # ids of four-byte characters are checked to be UTF-8 first; a check
    # that decoded the input whole would read about 5.0 here, not 0.9
    @pytest.mark.parametrize("prefix", ["sample-", "\U0001f600-"], ids=["ascii", "non-ascii"])
    def test_peak_memory_is_one_block_beside_the_input(self, prefix):
        rng = np.random.default_rng(12)
        ids = [f"{prefix}{k:05d}" for k in range(4000)]
        data = write_features(FeatureMatrix(sample_ids=ids, values=rng.normal(size=(4000, 32)))).encode()
        with _blocks_of(1 << 16):
            tracemalloc.start()
            try:
                parsed = parse_features(data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert parsed.sample_ids == tuple(ids)
        assert peak < 3 * len(data)


# ids of two-, three- and four-byte UTF-8 characters, so that block ends,
# which are counted in bytes, fall inside characters for some block sizes
_WIDE_IDS = ["é", "中文", "\U0001f600x", "a€b", "ü" * 5, "z"]


# line breaks, ASCII, and whole, cut and invalid UTF-8 sequences
_UTF8_PIECES = [b"\n", b"a", b",", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80",
                b"\xe2", b"\x82", b"\xf0\x9f", b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]


def _utf8_outcome(check, data):
    try:
        check(data, "some CSV")
    except ParseError as exc:
        return str(exc)
    return None


class TestTableReaderOfBytes:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_non_ascii_ids_across_every_block_end(self, kind, as_bytes):
        rows = [[sample_id, *row[1:]] for sample_id, row in zip(_WIDE_IDS, _valid_rows(kind, len(_WIDE_IDS)))]
        text = oracles.csv_lines(_header(kind, 2), rows)
        data = text.encode()
        assert ingest._split_plain(data) is not None
        for block_bytes in range(1, len(data) + 2):
            new, old = _block_outcomes(kind, data if as_bytes else text, block_bytes)
            assert new == old, block_bytes

    def test_line_beyond_the_limit_in_bytes_but_not_in_characters(self):
        cell = "é" * (_LIMIT // 2 + 1)
        text = f"sample_id,label\n{cell},bonafide\nb,attack\n"
        assert ingest._split_plain(text.encode()) is None
        assert oracles.split_plain_text(text) is not None
        for kind in _KINDS:
            new, old = _block_outcomes(kind, text, None)
            assert new == old
        assert parse_labels(text) == {cell: PresentationLabel.BONA_FIDE, "b": PresentationLabel.ATTACK}

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize(
        "fault",
        [("cell", "abc"), ("ragged", "extra"), ("id", None), ("syntax", 'a"b'), ("syntax", "x" * (_LIMIT + 1))],
        ids=["bad-cell", "ragged-row", "duplicate-id", "quote", "field-beyond-the-limit"],
    )
    def test_invalid_utf8_wins_over_an_earlier_faulty_row(self, kind, fault):
        rows = [[sample_id, *row[1:]] for sample_id, row in zip(_WIDE_IDS, _valid_rows(kind, len(_WIDE_IDS)))]
        head = oracles.csv_lines(_header(kind, 2), _inject(rows, [(fault, 1, 1)])).encode()
        data = head + b"tail\xff,x\n"
        for block_bytes in _BLOCK_SIZES:
            new, old = _block_outcomes(kind, data, block_bytes)
            assert new == old
            assert new[0][1] == f"some CSV is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position " \
                f"{len(head) + 4}: invalid start byte"

    @given(st.lists(st.sampled_from(_UTF8_PIECES), max_size=16).map(b"".join), st.sampled_from([1, 2, 3, 5, 8]))
    @example(b"\xe2\n", 1)
    def test_utf8_check_span_by_span_reports_as_the_whole_decode(self, data, block_bytes):
        with _blocks_of(block_bytes):
            assert _utf8_outcome(ingest._check_utf8, data) == _utf8_outcome(oracles.decode, data)

    def test_bytearray_reads_as_bytes(self):
        data = oracles.csv_lines(["sample_id", "label"], [[sample_id, "attack"] for sample_id in _WIDE_IDS]).encode()
        assert parse_labels(bytearray(data)) == parse_labels(data)


class TestLandmarksCsv:
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40))
    def test_round_trip(self, points):
        original = LandmarkSet(points=np.asarray(points, dtype=np.float64))
        parsed = parse_landmarks(write_landmarks(original))
        assert parsed.points.tolist() == original.points.tolist()

    def test_indices_must_be_sequential(self):
        with pytest.raises(ParseError, match="expected 1, got 5"):
            parse_landmarks("index,x,y\n0,1.0,2.0\n5,3.0,4.0\n")

    def test_bad_index_token(self):
        with pytest.raises(ParseError, match="bad index"):
            parse_landmarks("index,x,y\nzero,1.0,2.0\n")

    index_tokens = st.lists(
        st.one_of(
            st.integers(-2, 30).map(str),
            st.integers(0, 30).flatmap(lambda k: st.sampled_from([f"+{k}", f"0{k}", f" {k}", f"{k} ", f"{k:_}"])),
            st.sampled_from(["", "x", "1.0", "\u0661", "١٢", "0x1", "-0"]),
        ),
        max_size=30,
    )

    @given(st.integers(0, 30), index_tokens, st.integers(0, 12))
    @example(12, ["+0", "01", " 2"], 0)
    @example(3, ["+7", "08"], 7)
    def test_index_check_matches_int_comparison(self, n, prefix, start):
        # a block of n tokens from row `start` on, canonical but for the first
        # ones, which are spelled as drawn; the rows before it are canonical
        tokens = prefix[:n] + [str(k) for k in range(start + len(prefix), start + n)]
        try:
            accepted = oracles.indices_from_zero([str(k) for k in range(start)] + tokens)
        except ValueError:
            accepted = False
        assert (ingest._index_fault(tokens, start) is None) == accepted

    @given(index_tokens.filter(len), st.sampled_from(_BLOCK_SIZES))
    def test_landmarks_with_any_index_spelling_parse_as_before(self, tokens, block_bytes):
        text = "index,x,y\n" + "".join(f"{t},1.5,{k}.0\n" for k, t in enumerate(tokens))
        with _blocks_of(block_bytes):
            outcome = _outcome(_parse, "landmarks", text)
        assert outcome == _outcome(_parse_by_rows, "landmarks", text)
        try:
            accepted = oracles.indices_from_zero(tokens)
        except ValueError:
            accepted = False
        # the x and y cells are all valid, so the index column alone decides
        assert isinstance(outcome, list) == accepted


class TestManifestCsv:
    def test_parses_rows(self):
        data = (
            "sample_id,depth,landmarks,label\n"
            "s1,maps/s1.pgm,marks/s1.csv,bonafide\n"
            "s2,maps/s2.pgm,marks/s2.csv,attack\n"
        )
        rows = parse_manifest(data)
        assert [r.sample_id for r in rows] == ["s1", "s2"]
        assert rows[0].depth_path == "maps/s1.pgm"
        assert rows[1].label is PresentationLabel.ATTACK

    def test_empty_paths_rejected(self):
        with pytest.raises(ParseError, match="non-empty"):
            parse_manifest("sample_id,depth,landmarks,label\ns1,,marks.csv,bonafide\n")

    @pytest.mark.parametrize("paths", ["de\x00pth.pgm,marks.csv", "depth.pgm,marks\x00.csv"])
    def test_nul_in_a_path_rejected_at_its_line(self, paths):
        data = f"sample_id,depth,landmarks,label\ns1,d.pgm,m.csv,bonafide\ns2,{paths},attack\n"
        with pytest.raises(ParseError, match="must not hold NUL") as err:
            parse_manifest(data)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ("s1,,m\x00.csv,bonafide\n", "non-empty"),  # one row: the empty path wins
            ("s1,d.pgm,m\x00.csv,bonafide\ns2,,m.csv,attack\n", "NUL"),
            ("s1,,m.csv,bonafide\ns2,d.pgm,m\x00.csv,attack\n", "non-empty"),
        ],
    )
    def test_nul_and_empty_paths_share_one_precedence(self, rows, reason):
        with pytest.raises(ParseError, match=reason) as err:
            parse_manifest("sample_id,depth,landmarks,label\n" + rows)
        assert err.value.line == 2


# pieces of PGM headers: numbers, tokens that are none, whitespace and comments
_PGM_PIECES = [b"1", b"2", b"0", b"65535", b"255", b"x", b"\xff", b"\x00", b" ", b"\t", b"\n", b"\r", b"\x0b",
               b"\x0c", b"#", b"# c", b"#\r", b"##1"]


def _pgm_outcome(parse, data):
    try:
        return parse(data).values.tolist()
    except PadevalError as exc:
        return type(exc), str(exc)


class TestDepthPgm:
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip(self, w, h, seed):
        rng = np.random.default_rng(seed)
        original = DepthMap(values=rng.integers(0, 65536, (h, w), dtype=np.uint16))
        parsed = parse_depth_pgm(write_depth_pgm(original))
        assert parsed.values.tolist() == original.values.tolist()

    def test_generated_map_round_trips(self):
        dm, _ = gen_depth(SynthDepthSpec(kind=DepthKind.CURVED_FACE, seed=11, invalid_fraction=0.1))
        assert parse_depth_pgm(write_depth_pgm(dm)).values.tolist() == dm.values.tolist()

    def test_header_comments_allowed(self):
        raster = bytes([0, 1, 0, 2, 0, 3, 0, 4])
        data = b"P5 # a comment\n2 # width\n2\n# maxval next\n65535\n" + raster
        parsed = parse_depth_pgm(data)
        assert parsed.values.tolist() == [[1, 2], [3, 4]]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_depth_pgm(b"P2\n2 2\n65535\n" + bytes(8))

    def test_eight_bit_refused(self):
        with pytest.raises(BadMaxvalError):
            parse_depth_pgm(b"P5\n2 2\n255\n" + bytes(4))

    def test_truncated_raster(self):
        with pytest.raises(TruncatedError):
            parse_depth_pgm(b"P5\n2 2\n65535\n" + bytes(7))

    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            parse_depth_pgm(b"P5\n2 2\n")

    def test_header_that_ends_at_the_maxval_is_truncated(self):
        with pytest.raises(TruncatedError, match="^PGM header ends early$"):
            parse_depth_pgm(b"P5 1 1 65535")

    def test_comment_right_after_the_maxval_rejected(self):
        with pytest.raises(ParseError, match="^expected single whitespace after PGM maxval$") as err:
            parse_depth_pgm(b"P5 1 1 65535#c\n\0\0")
        assert type(err.value) is ParseError

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_depth_pgm(b"P5\n2 2\n65535\n" + bytes(9))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ParseError, match="dimensions"):
            parse_depth_pgm(b"P5\n0 2\n65535\n")

    def test_non_digit_dimension(self):
        with pytest.raises(ParseError, match="width"):
            parse_depth_pgm(b"P5\nx 2\n65535\n" + bytes(8))

    def test_bytes_required(self):
        with pytest.raises(ParseError, match="bytes"):
            parse_depth_pgm("P5\n2 2\n65535\n")

    @given(
        st.sampled_from([b"P5", b"P5", b"P2", b""]),
        st.lists(st.sampled_from(_PGM_PIECES), max_size=12).map(b"".join),
        st.sampled_from([b"", bytes(2), bytes(4), bytes(8)]),
        st.binary(max_size=3),
    )
    @example(b"P5", b"#x\r", b"", b"")
    @example(b"P5", b"#x\r2 1 65535\n", bytes(4), b"")
    def test_header_reads_as_the_bytewise_tokenizer(self, magic, header, raster, tail):
        data = magic + header + raster + tail
        assert _pgm_outcome(parse_depth_pgm, data) == _pgm_outcome(oracles.parse_depth_pgm_bytewise, data)

    @pytest.mark.parametrize("filler", [b" ", b"#\n", b"# a comment\r\n\t"], ids=["spaces", "empty-comments", "comments"])
    def test_two_megabyte_header_reads_in_linear_time_and_constant_memory(self, filler):
        data = b"P5" + filler * ((2 << 20) // len(filler)) + b"1 1 65535\n" + bytes(2)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            parsed = parse_depth_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the header is read about once: reading it once per byte would take hours
        assert time.perf_counter() - start < 30
        assert parsed.values.tolist() == [[0]] and peak < 1 << 16

    @pytest.mark.parametrize("name", ["width", "height", "maxval"])
    def test_over_long_header_number(self, name):
        fields = {"width": 2, "height": 2, "maxval": 65535, name: "1" * 5000}  # more digits than int() converts
        header = "P5\n{width} {height}\n{maxval}\n".format(**fields).encode()
        with pytest.raises(ParseError, match=f"^bad PGM {name} of 5000 digits$"):
            parse_depth_pgm(header + bytes(8))


def sample_pad_report() -> PadReport:
    return PadReport(
        d_eer=0.25,
        eer_threshold=0.55,
        bpcer10=0.3,
        bpcer10_threshold=0.9,
        bpcer20=0.4,
        bpcer20_threshold=1.2,
        n_bonafide=4,
        n_attack=4,
    )


def sample_vuln_report() -> VulnReport:
    return VulnReport(
        thresholds={0.001: 1.5, 0.01: 1.25},
        iapmr={0.001: 2 / 3, 0.01: 0.75},
        n_mated=10,
        n_nonmated=3,
        n_attack=3,
    )


class TestReports:
    def test_pad_report_payload(self):
        obj = parse_report(write_report(sample_pad_report(), config={"nu": 0.3}))
        assert obj["kind"] == "pad-report"
        assert obj["metrics"]["d_eer"] == 0.25
        assert obj["metrics"]["n_bonafide"] == 4
        assert obj["config"] == {"nu": 0.3}
        assert obj["defaults"] == DEFAULTS

    def test_pad_summary_lines(self):
        obj = parse_report(write_report(sample_pad_report()))
        assert obj["summary"] == [
            "D-EER: 25.00% at threshold 0.55",
            "BPCER @ APCER<=10%: 30.00% (threshold 0.9)",
            "BPCER @ APCER<=5%: 40.00% (threshold 1.2)",
            "bona fide: 4, attacks: 4",
        ]

    def test_vuln_summary_lines(self):
        obj = parse_report(write_report(sample_vuln_report()))
        assert obj["summary"] == [
            "FMR=0.1%: threshold 1.5, IAPMR 66.6667%",
            "FMR=1%: threshold 1.25, IAPMR 75.0000%",
            "mated: 10, non-mated: 3, attack-mated: 3",
        ]

    def test_vuln_metrics_keyed_by_exact_target(self):
        obj = parse_report(write_report(sample_vuln_report()))
        assert obj["metrics"]["thresholds"] == {"0.001": 1.5, "0.01": 1.25}
        assert obj["metrics"]["iapmr"]["0.001"] == 2 / 3

    def test_magic_and_version_checks(self):
        good = json.loads(write_report(sample_pad_report()))
        bad_magic = dict(good, magic="OTHER")
        with pytest.raises(BadMagicError):
            parse_report(json.dumps(bad_magic))
        bad_version = dict(good, version=2)
        with pytest.raises(UnsupportedVersionError):
            parse_report(json.dumps(bad_version))
        bad_kind = dict(good, kind="mystery")
        with pytest.raises(ParseError, match="kind"):
            parse_report(json.dumps(bad_kind))

    def test_structural_errors(self):
        with pytest.raises(EmptyFileError):
            parse_report("   ")
        with pytest.raises(ParseError, match="JSON"):
            parse_report("{not json")
        with pytest.raises(ParseError, match="object"):
            parse_report("[1, 2]")
        with pytest.raises(ParseError, match="non-finite"):
            parse_report('{"magic": "PADEVAL", "version": 1, "kind": "pad-report", "metrics": Infinity}')

    def test_unserializable_report_rejected(self):
        with pytest.raises(ValidationError):
            write_report({"d_eer": 0.1})


class TestModels:
    def test_round_trip_preserves_decisions(self):
        feats, _ = gen_features(SynthFeatureSpec(n_bonafide=40, n_attack=1, d=5, seed=6))
        model = fit(feats.values[:40], OcsvmConfig(nu=0.3))
        clone = parse_model(write_model(model))
        assert clone.w.tolist() == model.w.tolist()
        assert clone.rho == model.rho
        assert clone.nu == model.nu
        assert clone.mean.tolist() == model.mean.tolist()
        assert clone.scale.tolist() == model.scale.tolist()
        assert clone.dual_alphas.tolist() == model.dual_alphas.tolist()
        assert clone.diagnostics == model.diagnostics
        probe = feats.values[40]
        assert decision_value(clone, probe) == decision_value(model, probe)

    def test_standardizer_optional(self):
        x = np.random.default_rng(0).normal(3.0, 1.0, (20, 3))
        model = fit(x, OcsvmConfig(standardize=False))
        clone = parse_model(write_model(model))
        assert clone.mean is None and clone.scale is None

    def test_boolean_dimension_refused(self):
        payload = json.loads(write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 1)) + 5)))
        assert parse_model(json.dumps(payload)).d == 1
        payload["d"] = True
        with pytest.raises(ParseError, match="d does not match"):
            parse_model(json.dumps(payload))

    def test_dimension_consistency_enforced(self):
        payload = json.loads(write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 3)) + 5)))
        payload["d"] = 7
        with pytest.raises(ParseError, match="d does not match"):
            parse_model(json.dumps(payload))

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("nu", 0.0, "nu"),
            ("rho", "x", "rho"),
            ("w", [1.0, None], "w"),
            ("kind", "pad-report", "kind"),
            # booleans are not numbers, and an int past the float range is a ParseError
            ("nu", True, "nu"),
            ("rho", True, "rho"),
            ("rho", False, "rho"),
            ("w", [True, 1.0, 1.0], "w"),
            ("mean", [1.0, False, 1.0], "mean"),
            ("dual_alphas", [True], "dual_alphas"),
            pytest.param("nu", 10**400, "nu", id="nu-int-past-the-float-range"),
            pytest.param("rho", 10**400, "rho", id="rho-int-past-the-float-range"),
            pytest.param("rho", -(10**400), "rho", id="rho-negative-int-past-the-float-range"),
            pytest.param("w", [1.0, 10**400, 1.0], "w", id="w-int-past-the-float-range"),
            pytest.param("scale", [1.0, 1.0, 10**400], "scale", id="scale-int-past-the-float-range"),
            pytest.param("dual_alphas", [10**400], "dual_alphas", id="dual_alphas-int-past-the-float-range"),
            pytest.param("mean", [1.0, 2.0], "^standardizer dimensions do not match w$", id="mean-shorter-than-w"),
            pytest.param("diagnostics", [], "^diagnostics must be an object$", id="diagnostics-not-an-object"),
        ],
    )
    def test_field_validation(self, field, value, match):
        payload = json.loads(write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 3)) + 5)))
        payload[field] = value
        with pytest.raises(ParseError, match=match):
            parse_model(json.dumps(payload))

    @pytest.mark.parametrize(
        "field,token",
        [
            ("kkt_residual", "1e400"),
            pytest.param("kkt_residual", "1" + "0" * 400, id="kkt_residual-int-past-the-float-range"),
            ("kkt_residual", "true"),
            ("iterations", "2.7"),
            ("iterations", None),
            ("n_support", "-1"),
            ("n_margin_errors", "false"),
            ("degenerate_data", '"no"'),
            ("degenerate_data", "0"),
            ("objective_trace", '"123"'),
            ("objective_trace", "[1.0, true]"),
            pytest.param("objective_trace", "[1" + "0" * 400 + "]", id="objective_trace-int-past-the-float-range"),
        ],
    )
    def test_diagnostics_field_validation(self, field, token):
        payload = json.loads(write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 3)) + 5)))
        if token is None:
            del payload["diagnostics"][field]
        else:
            payload["diagnostics"][field] = "@"
        with pytest.raises(ParseError, match=field):
            parse_model(json.dumps(payload).replace('"@"', token or ""))

    @pytest.mark.parametrize(
        "x,config",
        [
            (np.full((4, 2), 3.0), OcsvmConfig(nu=0.5)),
            (np.random.default_rng(2).normal(0, 1, (7, 3)), OcsvmConfig(nu=1.0)),
            (np.random.default_rng(3).normal(0, 1, (30, 4)) + 5, OcsvmConfig(nu=0.2, standardize=False)),
        ],
        ids=["degenerate", "nu-one", "raw"],
    )
    def test_written_diagnostics_load(self, x, config):
        model = fit(x, config)
        assert parse_model(write_model(model)).diagnostics == model.diagnostics

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"magic": "PADEVAL", "version": 1' + "0" * 5000 + "}"],
        ids=["nested-past-the-recursion-limit", "int-past-the-digit-limit"],
    )
    def test_json_the_decoder_refuses_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="bad JSON"):
            parse_model(text)
        with pytest.raises(ParseError, match="bad JSON"):
            parse_report(text)

    def test_non_positive_scale_rejected(self):
        payload = json.loads(write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 3)) + 5)))
        payload["scale"] = [1.0, 0.0, 1.0]
        with pytest.raises(ParseError, match="scale"):
            parse_model(json.dumps(payload))


class TestDetExports:
    def make_curve(self):
        bona = [0.9, 0.8, 0.7, 0.6]
        attack = [0.4, 0.3, 0.2, 0.1]
        return det_curve(bona, attack, DetAxes.APCER_BPCER)

    def test_csv_shape_and_values(self):
        curve = self.make_curve()
        text = write_det(curve)
        lines = text.splitlines()
        assert lines[0] == "threshold,apcer_or_fmr,bpcer_or_fnmr"
        assert len(lines) == len(curve) + 1
        first = lines[1].split(",")
        assert float(first[0]) == curve.thresholds[0]
        assert float(first[1]) == curve.x_rates[0]
        assert float(first[2]) == curve.y_rates[0]

    def test_csv_is_deterministic(self):
        assert write_det(self.make_curve()) == write_det(self.make_curve())

    def test_svg_structure(self):
        curve = self.make_curve()
        svg = write_det_svg(curve)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "APCER (%)" in svg and "BPCER (%)" in svg
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        pairs = [p.split(",") for p in points.split()]
        assert len(pairs) == len(curve)
        assert all(math.isfinite(float(c)) for pair in pairs for c in pair)

    def test_svg_axis_names_follow_curve_kind(self):
        curve = det_curve([0.9, 0.8], [0.2, 0.1], DetAxes.FMR_FNMR)
        svg = write_det_svg(curve)
        assert "FMR (%)" in svg and "FNMR (%)" in svg

    def test_svg_is_deterministic(self):
        assert write_det_svg(self.make_curve()) == write_det_svg(self.make_curve())

    # scores on a coarse grid, so that the classes tie within and across each other
    tied_scores = st.lists(st.integers(min_value=-6, max_value=6).map(lambda k: k / 4), min_size=1, max_size=40)
    any_scores = st.lists(finite_floats, min_size=1, max_size=40)

    @given(
        st.one_of(tied_scores, any_scores),
        st.one_of(tied_scores, any_scores),
        st.sampled_from(list(DetAxes)),
    )
    @example([0.5], [0.5], DetAxes.APCER_BPCER)
    @example([1.0], [0.0], DetAxes.FMR_FNMR)
    def test_bytes_match_the_frozen_writers(self, positives, negatives, axes):
        if sys.float_info.max in positives + negatives:
            # no finite threshold lies above the largest finite float
            with pytest.raises(ValidationError, match="no finite threshold lies above it"):
                det_curve(positives, negatives, axes)
            return
        curve = det_curve(positives, negatives, axes)
        assert write_det(curve) == oracles.det_csv(curve)
        assert write_det_svg(curve) == oracles.det_svg(curve)

    @pytest.mark.parametrize("axes", list(DetAxes))
    def test_rates_at_and_beyond_the_plotted_window(self, axes):
        # 1000 negatives and 2 positives: x runs through 0.001 and 0.5 exactly, and y is 0, 0.5 or 1
        curve = det_curve([250.0, 750.0], np.arange(1000.0), axes)
        assert {0.0, 0.001, 0.5, 1.0} <= set(curve.x_rates.tolist())
        assert set(curve.y_rates.tolist()) == {0.0, 0.5, 1.0}
        assert write_det(curve) == oracles.det_csv(curve)
        assert write_det_svg(curve) == oracles.det_svg(curve)

    edge_rates = st.one_of(
        st.sampled_from([0.0, 5e-324, 0.0005, 0.001, 0.5, 1.0, math.nextafter(0.001, 0.0),
                         math.nextafter(0.001, 1.0), math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
        st.floats(min_value=0.0, max_value=1.0),
    )

    @given(
        st.lists(st.tuples(finite_floats, edge_rates, edge_rates), min_size=1, max_size=40),
        st.sampled_from(list(DetAxes)),
    )
    def test_any_rates_match_the_frozen_writers(self, rows, axes):
        thresholds, xs, ys = zip(*rows)
        curve = DetCurve(thresholds, xs, ys, axes)
        assert write_det(curve) == oracles.det_csv(curve)
        assert write_det_svg(curve) == oracles.det_svg(curve)

    # few distinct rates, so that each repeats, with both signed zeros
    repeated_rates = st.sampled_from([0.0, -0.0, 5e-324, 0.001, 0.25, 1 / 3, 0.5, 1.0])

    @given(
        st.lists(st.tuples(finite_floats, repeated_rates, repeated_rates), min_size=1, max_size=80),
        st.sampled_from(list(DetAxes)),
    )
    @example([(0.0, -0.0, 0.0), (1.0, 0.0, -0.0), (2.0, -0.0, -0.0)], DetAxes.APCER_BPCER)
    def test_repeated_rates_match_the_frozen_writers(self, rows, axes):
        thresholds, xs, ys = zip(*rows)
        curve = DetCurve(thresholds, xs, ys, axes)
        text = write_det(curve)
        assert text == oracles.det_csv(curve)
        assert write_det_svg(curve) == oracles.det_svg(curve)
        # 0.0 and -0.0 are told apart by their bits, not merged by value
        assert [line.split(",")[1:] for line in text.splitlines()[1:]] == [[repr(x), repr(y)] for x, y in zip(xs, ys)]


@contextlib.contextmanager
def _written_blocks_of(rows, width):
    """Writers that make blocks of ``rows`` rows of a table ``width`` cells wide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_CELLS", rows * width)
        yield


@st.composite
def _block_cases(draw, empty_ok=False):
    """A block size ``b`` and a row count at or around its multiples."""
    b = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.sampled_from([0] * empty_ok + [1, b - 1, b, b + 1, 2 * b + 1]))
    return b, n


def _block_ids(draw, b, n):
    """Plain ids, and one that needs quoting in a block after the first, if there is one."""
    ids = [f"s{k}" for k in range(n)]
    if n > b:
        k = draw(st.integers(min_value=b, max_value=n - 1))
        ids[k] = draw(st.sampled_from([f"a,{k}", f'say "{k}"', f'",{k}']))
    return ids


class TestBlockWritersMatchWholeWriters:
    """Each writer makes its text one block of rows at a time; the join of the
    blocks is the text of the frozen writers that joined each table whole."""

    # few distinct values, so that each repeats across blocks, with both signed zeros
    repeated_rates = st.sampled_from([0.0, -0.0, 5e-324, 0.001, 0.25, 1 / 3, 0.5, 1.0])

    @given(st.data(), _block_cases())
    def test_scores(self, data, case):
        b, n = case
        ids = _block_ids(data.draw, b, n)
        labels = data.draw(st.lists(any_label, min_size=n, max_size=n))
        values = data.draw(st.lists(st.one_of(finite_floats, self.repeated_rates), min_size=n, max_size=n))
        score_set = ScoreSet(sample_ids=ids, labels=labels, values=values, polarity=Polarity.HIGHER_IS_MATCH)
        with _written_blocks_of(b, 3):
            assert len(list(ingest._scores_blocks(score_set))) == 1 + -(-n // b)
            assert write_scores(score_set) == oracles.whole_scores(score_set)

    @given(st.data(), _block_cases(), st.integers(min_value=1, max_value=3))
    def test_features(self, data, case, d):
        b, n = case
        ids = _block_ids(data.draw, b, n)
        values = data.draw(st.lists(st.one_of(finite_floats, self.repeated_rates), min_size=n * d, max_size=n * d))
        features = FeatureMatrix(sample_ids=ids, values=np.reshape(values, (n, d)))
        with _written_blocks_of(b, d + 1):
            assert len(list(ingest._features_blocks(features))) == 1 + -(-n // b)
            assert write_features(features) == oracles.whole_features(features)

    @given(st.data(), _block_cases(empty_ok=True), st.sampled_from(list(DetAxes)))
    def test_det(self, data, case, axes):
        b, n = case
        rows = data.draw(
            st.lists(st.tuples(finite_floats, self.repeated_rates, self.repeated_rates), min_size=n, max_size=n)
        )
        self.check_det(rows, b, axes)

    @pytest.mark.parametrize("axes", list(DetAxes))
    def test_signed_zeros_at_block_borders(self, axes):
        # blocks of two rows: 0.0 and -0.0 on both sides of each border, and both in every block
        rows = [(0.0, 0.0, -0.0), (1.0, -0.0, 0.0), (2.0, 0.0, -0.0), (3.0, -0.0, 0.0), (4.0, 0.0, 0.0)]
        self.check_det(rows, 2, axes)

    @staticmethod
    def check_det(rows, b, axes):
        n = len(rows)
        thresholds, xs, ys = zip(*rows) if rows else ((), (), ())
        curve = DetCurve(thresholds, xs, ys, axes)
        with _written_blocks_of(b, 3):
            assert len(list(ingest._det_blocks(curve))) == 1 + -(-n // b)
            assert write_det(curve) == oracles.whole_det(curve)
        with _written_blocks_of(b, 2):
            # the head with the polyline's start, the points with a space between blocks, the tail
            assert len(list(ingest._det_svg_blocks(curve))) == 2 + max(0, 2 * -(-n // b) - 1)
            assert write_det_svg(curve) == oracles.whole_det_svg(curve)

    def test_one_block_for_any_table_narrower_than_the_block(self):
        curve = DetCurve([0.0, 1.0], [1.0, 0.0], [0.0, 1.0], DetAxes.FMR_FNMR)
        assert len(list(ingest._det_blocks(curve))) == 2
        with _written_blocks_of(1, 1):  # fewer cells than a row: a block still holds one whole row
            assert list(ingest._det_blocks(curve)) == [
                "threshold,apcer_or_fmr,bpcer_or_fnmr\n", "0.0,1.0,0.0\n", "1.0,0.0,1.0\n"
            ]


class TestParserRobustnessSmoke:
    """A quick random probe; the heavyweight fuzz lives in the acceptance suite."""

    parsers = [
        lambda b: parse_scores(b, Polarity.HIGHER_IS_BONA_FIDE),
        parse_labels,
        parse_features,
        parse_landmarks,
        parse_manifest,
        parse_depth_pgm,
        parse_report,
        parse_model,
    ]

    def test_parsers_raise_only_structured_errors(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            blob = rng.bytes(int(rng.integers(0, 120)))
            for parser in self.parsers:
                try:
                    parser(blob)
                except PadevalError:
                    pass

    @pytest.mark.parametrize(
        "data",
        [memoryview(b"sample_id,label\na,attack\n"), None, 7, [b"sample_id,label\n"]],
        ids=["memoryview", "none", "int", "list"],
    )
    def test_inputs_other_than_str_or_bytes_are_parse_errors(self, data):
        for parser in self.parsers:
            with pytest.raises(ParseError, match=" must be "):
                parser(data)

    def test_over_long_digit_runs_raise_structured_errors(self):
        digits = "1" * 5000  # more digits than int() converts
        model = write_model(fit(np.random.default_rng(1).normal(0, 1, (10, 2)) + 5))
        inputs = [
            (parse_depth_pgm, f"P5\n{digits} 2\n65535\n".encode() + bytes(8)),
            (parse_depth_pgm, f"P5\n2 {digits}\n65535\n".encode() + bytes(8)),
            (parse_depth_pgm, f"P5\n2 2\n{digits}\n".encode() + bytes(8)),
            (parse_landmarks, f"index,x,y\n{digits},1.0,2.0\n"),
            (parse_model, re.sub(r'"d": \d+', f'"d": {digits}', model)),
            (parse_model, re.sub(r'"iterations": \d+', f'"iterations": {digits}', model)),
        ]
        for parser, data in inputs:
            assert digits in (data if isinstance(data, str) else data.decode("ascii", errors="replace"))
            with pytest.raises(PadevalError):
                parser(data)

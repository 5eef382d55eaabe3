"""Value-type invariants: score sets, depth maps, landmarks, feature rows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from padeval import (
    DepthMap,
    DuplicateIdError,
    EmptySetError,
    FeatureMatrix,
    LandmarkSet,
    NonFiniteScoreError,
    PadevalError,
    Polarity,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
    ValidationError,
    fuse,
)
from conftest import make_score_set
from padeval import core, metrics
from padeval.core import LABEL_BY_NAME
from padeval.ingest import write_labels, write_scores


class TestScoreSet:
    def test_valid_set_passes(self):
        score_set = make_score_set([0.1, 0.9, -3.5])
        assert score_set.values.dtype == np.float64
        assert (score_set.sample_ids[2], score_set.labels[2], score_set.values[2]) == (
            "s00002", PresentationLabel.BONA_FIDE, -3.5
        )

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError, match="score set holds no records"):
            ScoreSet(sample_ids=(), labels=(), values=(), polarity=Polarity.HIGHER_IS_BONA_FIDE)

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError) as err:
            ScoreSet(
                sample_ids=("a", "a"),
                labels=(PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK),
                values=(0.5, 0.6),
                polarity=Polarity.HIGHER_IS_BONA_FIDE,
            )
        assert err.value.sample_id == "a"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteScoreError) as err:
            make_score_set([0.1, bad])
        assert err.value.sample_id == "s00001"
        assert str(err.value) == f"non-finite score {bad!r} for sample_id 's00001'"

    @pytest.mark.parametrize("bad_id", ["", "nul\x00id", "line\nbreak", "carriage\rreturn", 7])
    def test_bad_ids_rejected(self, bad_id):
        with pytest.raises(ValidationError, match="sample_id must be"):
            ScoreSet(
                sample_ids=(bad_id,),
                labels=(PresentationLabel.ATTACK,),
                values=(0.5,),
                polarity=Polarity.HIGHER_IS_MATCH,
            )

    def test_foreign_label_rejected(self):
        with pytest.raises(ValidationError, match="label must be"):
            ScoreSet(
                sample_ids=("a",), labels=("bonafide",), values=(0.5,), polarity=Polarity.HIGHER_IS_BONA_FIDE
            )

    def test_foreign_polarity_rejected(self):
        with pytest.raises(ValidationError, match="polarity must be"):
            ScoreSet(
                sample_ids=("a",),
                labels=(PresentationLabel.BONA_FIDE,),
                values=(0.5,),
                polarity="higher_is_bonafide",
            )

    @pytest.mark.parametrize(
        "labels, values",
        [
            ((PresentationLabel.BONA_FIDE,), (0.5,)),
            ((PresentationLabel.BONA_FIDE,) * 2, (0.5,)),
            ((PresentationLabel.BONA_FIDE,) * 2, [[0.5, 0.6]]),
            ((PresentationLabel.BONA_FIDE,) * 2, ("0.5", "0.6")),
        ],
    )
    def test_misaligned_or_non_numeric_columns_rejected(self, labels, values):
        with pytest.raises(ValidationError):
            ScoreSet(
                sample_ids=("a", "b"), labels=labels, values=values, polarity=Polarity.HIGHER_IS_BONA_FIDE
            )

    def test_values_read_only(self):
        given_values = np.array([0.5, -1.0])
        score_set = make_score_set(given_values)
        with pytest.raises(ValueError):
            score_set.values[0] = 2.0
        assert given_values.flags.writeable  # the set keeps its own copy
        direct = ScoreSet(
            sample_ids=("a", "b"),
            labels=(PresentationLabel.ATTACK,) * 2,
            values=given_values,
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        given_values[0] = 7.0
        assert direct.values.tolist() == [0.5, -1.0]
        with pytest.raises(ValueError):
            direct.values[1] = 2.0

    def test_with_label_filters(self):
        both = ScoreSet(
            sample_ids=("a", "b", "c"),
            labels=(PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK, PresentationLabel.BONA_FIDE),
            values=(0.9, 0.2, 0.8),
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        bona = both.with_label(PresentationLabel.BONA_FIDE)
        assert bona.sample_ids == ("a", "c")
        assert bona.values.tolist() == [0.9, 0.8]
        assert bona.polarity is both.polarity

    def test_with_absent_label_raises(self):
        score_set = make_score_set([0.1, 0.2], label=PresentationLabel.BONA_FIDE)
        with pytest.raises(EmptySetError, match="score set holds no records"):
            score_set.with_label(PresentationLabel.ATTACK)

    def test_accessors_preserve_order(self):
        scores = [0.5, -1.0, 2.25]
        score_set = make_score_set(scores, label=TrialLabel.MATED, polarity=Polarity.HIGHER_IS_MATCH)
        assert score_set.values.tolist() == scores
        assert score_set.sample_ids == ("s00000", "s00001", "s00002")
        assert len(score_set) == 3


class TestDepthMap:
    def test_round_trip_values(self):
        values = np.array([[0, 1], [2, 65535]], dtype=np.int64)
        depth = DepthMap(values=values)
        assert depth.values.dtype == np.uint16
        assert depth.height == 2 and depth.width == 2
        assert depth.values.tolist() == [[0, 1], [2, 65535]]

    def test_values_read_only(self):
        depth = DepthMap(values=np.ones((2, 3), dtype=np.uint16))
        with pytest.raises(ValueError):
            depth.values[0, 0] = 5

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((0, 4), dtype=np.uint16),
            np.zeros(4, dtype=np.uint16),
            np.zeros((2, 2, 2), dtype=np.uint16),
            np.full((2, 2), 1.5),
            np.full((2, 2), -1, dtype=np.int32),
            np.full((2, 2), 65536, dtype=np.int64),
        ],
    )
    def test_bad_grids_rejected(self, values):
        with pytest.raises(ValidationError):
            DepthMap(values=values)


class TestLandmarkSet:
    def test_accepts_n_by_2(self):
        lms = LandmarkSet(points=[[0.5, 1.5], [2.0, 3.0]])
        assert len(lms) == 2
        assert lms.points.dtype == np.float64

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((0, 2)),
            np.zeros((3, 3)),
            np.zeros(4),
            [[0.0, float("nan")]],
            [[float("inf"), 0.0]],
        ],
    )
    def test_bad_points_rejected(self, points):
        with pytest.raises(ValidationError):
            LandmarkSet(points=points)


class TestFeatureMatrix:
    def test_shape_accessors(self):
        fm = FeatureMatrix(sample_ids=("a", "b"), values=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (fm.n, fm.d) == (2, 3)

    def test_rows_selects_in_order(self):
        fm = FeatureMatrix(sample_ids=("a", "b", "c"), values=np.arange(6.0).reshape(3, 2))
        sub = fm.rows([2, 0])
        assert sub.sample_ids == ("c", "a")
        assert sub.values.tolist() == [[4.0, 5.0], [0.0, 1.0]]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            FeatureMatrix(sample_ids=("a", "a"), values=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "ids, values",
        [
            (("a",), np.zeros((2, 2))),
            (("a", "b"), np.zeros((2, 0))),
            (("a", ""), np.zeros((2, 2))),
            (("a", "b"), [[0.0, 1.0], [float("nan"), 2.0]]),
        ],
    )
    def test_bad_matrices_rejected(self, ids, values):
        with pytest.raises(ValidationError):
            FeatureMatrix(sample_ids=ids, values=values)


@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
def test_any_finite_scores_validate(scores):
    score_set = make_score_set(scores, label=TrialLabel.NONMATED, polarity=Polarity.HIGHER_IS_MATCH)
    assert score_set.values.tolist() == [float(s) for s in scores]


# ---------------------------------------------------------------------------
# the code column against the tuple of labels it replaced

all_labels = st.sampled_from(list(LABEL_BY_NAME.values()))
foreign_labels = st.sampled_from(["bonafide", None, 0, PresentationLabel])
# a small alphabet, so that drawn ids collide; "," and '"' need quoting in CSV
plain_ids = st.text(alphabet='ab,"', min_size=1, max_size=3)
bad_ids = st.sampled_from(["", "nul\x00", "line\nbreak", "cr\r", "\ud800", 7])
any_scores = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def columns(draw, unique=False):
    """Keyword arguments of a ScoreSet: valid ones, or with a fault here and there."""
    ids = draw(st.lists(plain_ids, max_size=12, unique=unique))
    n = len(ids)
    labels = draw(st.lists(all_labels, min_size=n, max_size=n))
    values = draw(st.lists(any_scores, min_size=n, max_size=n))
    polarity = draw(st.sampled_from(list(Polarity)))
    if not unique:
        for column, faults in ((ids, bad_ids), (labels, foreign_labels), (values, non_finite)):
            if column and draw(st.booleans()):
                column[draw(st.integers(0, len(column) - 1))] = draw(faults)
        if draw(st.integers(0, 9)) == 0:  # columns of different lengths
            column = draw(st.sampled_from([ids, labels, values]))
            if column:
                column.pop()
        if draw(st.integers(0, 9)) == 0:
            values = [str(v) for v in values]
        if draw(st.integers(0, 9)) == 0:
            polarity = polarity.value
    return dict(sample_ids=ids, labels=labels, values=values, polarity=polarity)


def outcome(build):
    """A built set's ids, labels, value bits and polarity, or its error's type and message."""
    try:
        score_set = build()
    except PadevalError as exc:
        return type(exc), str(exc)
    return score_set.sample_ids, score_set.labels, score_set.values.view(np.int64).tolist(), score_set.polarity


def both(kwargs):
    """The same columns as a ScoreSet and as the frozen tuple-label set."""
    return ScoreSet(**kwargs), oracles.TupleScoreSet(**kwargs)


class TestLabelCodesMatchTupleSet:
    @given(columns())
    @example(dict(sample_ids=["a"], labels=["bonafide"], values=[0.5], polarity=Polarity.HIGHER_IS_MATCH))
    @example(dict(sample_ids=["a", "a"], labels=[0, 0], values=[float("nan")] * 2,
                  polarity=Polarity.HIGHER_IS_MATCH))
    def test_constructor(self, kwargs):
        assert outcome(lambda: ScoreSet(**kwargs)) == outcome(lambda: oracles.TupleScoreSet(**kwargs))

    @given(columns(unique=True).filter(lambda kw: kw["sample_ids"]), st.one_of(all_labels, foreign_labels))
    def test_with_label(self, kwargs, label):
        new, old = both(kwargs)
        assert outcome(lambda: new.with_label(label)) == outcome(lambda: old.with_label(label))

    @given(
        columns(unique=True).filter(lambda kw: kw["sample_ids"]),
        all_labels,
        st.sampled_from(list(Polarity)),
        st.sampled_from(["bonafide", "attack", "mated"]),
    )
    def test_checked_scores(self, kwargs, label, polarity, role):
        new, old = both(kwargs)

        def sorted_bits(check, score_set):
            try:
                return check(score_set, label, polarity, role).view(np.int64).tolist()
            except PadevalError as exc:
                return type(exc), str(exc)

        def checked_scores(score_set, *args):  # the role check, then the sort the metrics make
            metrics._check_role(score_set, *args)
            return np.sort(score_set.values)

        assert sorted_bits(checked_scores, new) == sorted_bits(oracles.checked_scores, old)

    @given(
        columns(unique=True).filter(lambda kw: kw["sample_ids"]),
        st.randoms(use_true_random=False),
        st.sampled_from(["same", "drop", "add", "swap"]),
        st.sampled_from([(0.5, 0.5), (0.3, 0.7), (1.0, 0.0), (0.5, 0.6)]),
        st.booleans(),
    )
    def test_fuse(self, kwargs, rnd, edit, weights, same_polarity):
        ids_b = list(kwargs["sample_ids"])
        rnd.shuffle(ids_b)
        if edit == "drop" and len(ids_b) > 1:
            ids_b.pop()
        elif edit == "add":
            ids_b.append("zz")
        elif edit == "swap":
            ids_b[0] = "zz"
        polarity_b = kwargs["polarity"] if same_polarity else Polarity.HIGHER_IS_MATCH
        kwargs_b = dict(
            sample_ids=ids_b,
            labels=[PresentationLabel.ATTACK] * len(ids_b),
            values=[rnd.uniform(-5.0, 5.0) for _ in ids_b],
            polarity=polarity_b,
        )
        (a, a_old), (b, b_old) = both(kwargs), both(kwargs_b)
        assert outcome(lambda: fuse(a, b, *weights)) == outcome(lambda: oracles.fuse_tuple(a_old, b_old, *weights))

    @given(columns(unique=True).filter(lambda kw: kw["sample_ids"]))
    def test_write_scores(self, kwargs):
        new, old = both(kwargs)
        assert write_scores(new) == oracles.write_scores_tuple(old)

    def test_labels_are_a_view_of_read_only_codes(self):
        labels = (TrialLabel.ATTACK_MATED, PresentationLabel.BONA_FIDE, TrialLabel.MATED)
        score_set = ScoreSet(sample_ids=("a", "b", "c"), labels=labels, values=(1.0, 2.0, 3.0),
                             polarity=Polarity.HIGHER_IS_MATCH)
        assert score_set.labels == labels
        # codes index the labels in LABEL_BY_NAME order
        assert score_set.label_codes.dtype == np.uint8
        assert score_set.label_codes.tolist() == [list(LABEL_BY_NAME.values()).index(lab) for lab in labels]
        with pytest.raises(ValueError):
            score_set.label_codes[0] = 0

    def test_derived_sets_skip_the_id_check(self, monkeypatch):
        both_labels = ScoreSet(
            sample_ids=("a", "b", "c"),
            labels=(PresentationLabel.BONA_FIDE, PresentationLabel.ATTACK, PresentationLabel.BONA_FIDE),
            values=(0.9, 0.2, 0.8),
            polarity=Polarity.HIGHER_IS_BONA_FIDE,
        )
        calls = []
        monkeypatch.setattr(core, "_ids_ok", lambda ids: calls.append(ids) or True)
        bona = both_labels.with_label(PresentationLabel.BONA_FIDE)
        fused = fuse(both_labels, both_labels)
        assert calls == []
        assert bona.sample_ids == ("a", "c") and bona.labels == (PresentationLabel.BONA_FIDE,) * 2
        assert fused.labels == both_labels.labels and fused.values.tolist() == pytest.approx([1.0, 0.0, 6 / 7])


# ---------------------------------------------------------------------------
# the shared first-bad-id locator against the id walk it replaced

# ids from a small alphabet, so that drawn ids repeat, among every kind of bad id
id_cells = st.one_of(
    st.text(alphabet="ab", min_size=1, max_size=2),
    st.sampled_from(["", "nul\x00", "lf\n", "cr\r", "\ud800", "a\udfff"]),
    st.sampled_from([7, None, b"a", 1.5]),
)


def id_outcome(check):
    """The type and message of the error a check raises, or None."""
    try:
        check()
    except PadevalError as exc:
        return type(exc), str(exc)
    return None


@given(st.lists(id_cells, min_size=1, max_size=8))
@example(["a", "", "a"])
@example(["a", "b", "a", 7])
def test_id_checks_match_the_id_walk(ids):
    n = len(ids)
    expected = id_outcome(lambda: oracles.check_ids(tuple(ids)))
    assert id_outcome(lambda: ScoreSet(sample_ids=ids, labels=[PresentationLabel.ATTACK] * n,
                                       values=[0.0] * n, polarity=Polarity.HIGHER_IS_BONA_FIDE)) == expected
    assert id_outcome(lambda: FeatureMatrix(sample_ids=ids, values=np.zeros((n, 1)))) == expected
    labels = dict.fromkeys(ids, PresentationLabel.ATTACK)  # a mapping holds each id once
    assert id_outcome(lambda: write_labels(labels)) == id_outcome(lambda: oracles.check_ids(tuple(labels)))

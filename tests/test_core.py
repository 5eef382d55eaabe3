"""Value-type invariants: score sets, depth maps, landmarks, feature rows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padeval import (
    DepthMap,
    DuplicateIdError,
    EmptySetError,
    FeatureMatrix,
    LandmarkSet,
    NonFiniteScoreError,
    Polarity,
    PresentationLabel,
    ScoreRecord,
    ScoreSet,
    TrialLabel,
    ValidationError,
)
from conftest import make_score_set


class TestScoreSet:
    def test_valid_set_passes(self):
        score_set = make_score_set([0.1, 0.9, -3.5])
        assert score_set.values.dtype == np.float64
        assert score_set.records[2] == ScoreRecord("s00002", PresentationLabel.BONA_FIDE, -3.5)

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
        assert direct.scores() == [0.5, -1.0]
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
        assert bona.ids() == ["a", "c"]
        assert bona.scores() == [0.9, 0.8]
        assert bona.polarity is both.polarity

    def test_with_absent_label_raises(self):
        score_set = make_score_set([0.1, 0.2], label=PresentationLabel.BONA_FIDE)
        with pytest.raises(EmptySetError, match="score set holds no records"):
            score_set.with_label(PresentationLabel.ATTACK)

    def test_accessors_preserve_order(self):
        scores = [0.5, -1.0, 2.25]
        score_set = make_score_set(scores, label=TrialLabel.MATED, polarity=Polarity.HIGHER_IS_MATCH)
        assert score_set.scores() == scores
        assert score_set.ids() == ["s00000", "s00001", "s00002"]
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
    assert score_set.scores() == [float(s) for s in scores]
    assert [r.score for r in score_set] == [float(s) for s in scores]

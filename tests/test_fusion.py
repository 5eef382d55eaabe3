"""Min-max normalization and two-detector weighted-sum fusion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import make_score_set
from padeval import (
    EmptySetError,
    IdMismatchError,
    MinMaxParams,
    PolarityMismatchError,
    PresentationLabel,
    ScoreSet,
    ValidationError,
    WeightError,
    fuse,
    minmax_fit,
)
from padeval.fusion import _normalise

finite_scores = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# signed zeros, subnormals and ranges whose width overflows
any_finite = st.one_of(finite_scores, st.floats(allow_nan=False, allow_infinity=False))


class TestMinMax:
    def test_fit_takes_observed_range(self):
        params = minmax_fit([0.0, 5.0, 10.0])
        assert params == MinMaxParams(lo=0.0, hi=10.0)
        assert not params.degenerate

    def test_single_score_is_degenerate(self):
        assert minmax_fit([3.0]).degenerate

    def test_constant_scores_are_degenerate(self):
        assert minmax_fit([2.0, 2.0, 2.0]).degenerate

    def test_fit_rejects_empty_and_non_finite(self):
        with pytest.raises(EmptySetError):
            minmax_fit([])
        with pytest.raises(ValidationError):
            minmax_fit([1.0, math.inf])

    @given(st.lists(st.one_of(any_finite, st.sampled_from([0.0, -0.0])), min_size=1, max_size=300))
    def test_fit_matches_python_min_max(self, scores):
        # the first of equal extremes is kept, so a zero range end has the sign min/max give it
        params = minmax_fit(scores)
        assert (params.lo.hex(), params.hi.hex()) == (min(scores).hex(), max(scores).hex())

    def test_normalise_maps_midpoint(self):
        assert _normalise(MinMaxParams(0.0, 10.0), np.array([5.0])).tolist() == [0.5]

    def test_normalise_clamps_out_of_range(self):
        assert _normalise(MinMaxParams(0.0, 10.0), np.array([-3.0, 25.0])).tolist() == [0.0, 1.0]

    def test_normalise_degenerate_is_neutral(self):
        params = minmax_fit([7.0, 7.0])
        assert _normalise(params, np.array([-100.0, 7.0, 100.0])).tolist() == [0.5, 0.5, 0.5]

    @given(st.lists(finite_scores, min_size=1, max_size=50), st.lists(finite_scores, min_size=1, max_size=10))
    def test_normalise_stays_in_unit_interval(self, scores, probes):
        values = _normalise(minmax_fit(scores), np.array(probes))
        assert ((0.0 <= values) & (values <= 1.0)).all()


class TestFuse:
    def test_equal_weights_average_normalized_scores(self):
        # normalized a = [0, 1, 0.2], normalized b = [0, 1, 0.8]
        a = make_score_set([0.0, 10.0, 2.0])
        b = make_score_set([0.0, 5.0, 4.0])
        fused = fuse(a, b)
        assert fused.values.tolist() == [0.0, 1.0, 0.5]

    def test_full_weight_on_one_side(self):
        a = make_score_set([1.0, 4.0, 13.0])
        b = make_score_set([9.0, 2.0, 5.0])
        fused = fuse(a, b, w_a=1.0, w_b=0.0)
        assert fused.values.tolist() == [0.0, 0.25, 1.0]

    def test_weight_symmetry(self):
        a = make_score_set([0.3, 1.7, -2.0, 0.9])
        b = make_score_set([5.0, 1.0, 2.5, 4.0])
        ab = fuse(a, b, w_a=0.3, w_b=0.7)
        ba = fuse(b, a, w_a=0.7, w_b=0.3)
        assert ab.values.tolist() == ba.values.tolist()

    def test_join_is_by_id_not_position(self):
        a = make_score_set([1.0, 2.0, 3.0])
        shuffled = ScoreSet(
            sample_ids=("s00002", "s00000", "s00001"),
            labels=(PresentationLabel.BONA_FIDE,) * 3,
            values=(8.0, 0.0, 4.0),
            polarity=a.polarity,
        )
        fused = fuse(a, shuffled, w_a=0.0, w_b=1.0)
        # output follows a's order, values come from b's matching ids
        assert fused.sample_ids == a.sample_ids
        assert fused.values.tolist() == [0.0, 0.5, 1.0]

    def test_output_keeps_first_sets_labels_and_polarity(self):
        a = make_score_set([1.0, 2.0], label=PresentationLabel.ATTACK)
        b = make_score_set([5.0, 6.0], label=PresentationLabel.BONA_FIDE)
        fused = fuse(a, b)
        assert fused.labels == (PresentationLabel.ATTACK,) * 2
        assert fused.polarity is a.polarity

    def test_degenerate_side_contributes_neutral_half(self):
        a = make_score_set([0.0, 1.0])
        b = make_score_set([3.0, 3.0])
        fused = fuse(a, b)
        assert fused.values.tolist() == [0.25, 0.75]

    def test_weight_validation(self):
        a = make_score_set([0.0, 1.0])
        b = make_score_set([2.0, 3.0])
        with pytest.raises(WeightError):
            fuse(a, b, w_a=0.5, w_b=0.6)
        with pytest.raises(WeightError):
            fuse(a, b, w_a=-0.2, w_b=1.2)
        with pytest.raises(WeightError):
            fuse(a, b, w_a=math.nan, w_b=1.0)

    def test_id_mismatch_names_first_difference(self):
        a = make_score_set([0.0, 1.0, 2.0])
        b = make_score_set([0.0, 1.0], prefix="s")
        with pytest.raises(IdMismatchError, match="s00002"):
            fuse(a, b)

    def test_polarity_mismatch_rejected(self):
        from padeval import Polarity, TrialLabel

        a = make_score_set([0.0, 1.0])
        b = make_score_set(
            [0.0, 1.0], label=TrialLabel.MATED, polarity=Polarity.HIGHER_IS_MATCH
        )
        with pytest.raises(PolarityMismatchError):
            fuse(a, b)

    @given(
        st.lists(st.tuples(any_finite, any_finite), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=1000),
    )
    def test_matches_reference_and_stays_bounded(self, pairs, w_millis):
        w_a = w_millis / 1000.0
        a = make_score_set([p[0] for p in pairs])
        b = make_score_set([p[1] for p in pairs])
        fused = fuse(a, b, w_a=w_a, w_b=1.0 - w_a)
        expected = oracles.fuse_reference(
            a.sample_ids, [p[0] for p in pairs], b.sample_ids, [p[1] for p in pairs], w_a, 1.0 - w_a
        )
        assert fused.values.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
        assert ((0.0 <= fused.values) & (fused.values <= 1.0)).all()

    def test_overflowing_range_maps_halved_values(self):
        # hi - lo overflows to inf; the halved range still spans the scores
        a = make_score_set([-1.7e308, 0.0, 1.7e308])
        b = make_score_set([0.0, 1.0, 2.0])
        assert fuse(a, b, w_a=1.0, w_b=0.0).values.tolist() == [0.0, 0.5, 1.0]
        expected = oracles.fuse_reference(a.sample_ids, a.values.tolist(), b.sample_ids, b.values.tolist(), 0.5, 0.5)
        assert fuse(a, b).values.tolist() == expected == [0.0, 0.5, 1.0]

    @given(st.lists(st.tuples(finite_scores, finite_scores), min_size=2, max_size=40))
    def test_comonotone_inputs_fuse_monotonically(self, pairs):
        # when both detectors agree on the ordering, fusion preserves it
        pairs = sorted(set(pairs))
        a_vals = sorted(p[0] for p in pairs)
        b_vals = sorted(p[1] for p in pairs)
        fused = fuse(make_score_set(a_vals), make_score_set(b_vals), 0.4, 0.6)
        scores = fused.values.tolist()
        assert all(x <= y for x, y in zip(scores, scores[1:]))

"""Depth-variance detector: sampling rules, the score itself, invariances."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from padeval import (
    DepthKind,
    DepthMap,
    DvScore,
    LandmarkSet,
    SynthDepthSpec,
    TooFewValidLandmarksError,
    ValidationError,
    dv_score,
    gen_depth,
)


def grid_map(rows):
    return DepthMap(values=np.asarray(rows, dtype=np.int64))


class TestLandmarkSampling:
    """Which pixel each landmark reads, seen through the score of two landmarks."""

    def test_nearest_pixel_rounding(self):
        # value at (x=1, y=3) is 42; landmark (1.4, 2.6) must land there
        values = np.zeros((4, 4), dtype=np.int64) + 7
        values[3, 1] = 42
        lms = LandmarkSet(points=[[1.4, 2.6], [0.0, 0.0]])
        assert dv_score(grid_map(values), lms, min_valid=2) == DvScore(value=17.5, n_valid=2)

    def test_halves_round_up(self):
        # (1.5, 2.5) reads values[3, 2] == 15, not values[2, 1] == 10
        values = np.arange(16, dtype=np.int64).reshape(4, 4) + 1
        lms = LandmarkSet(points=[[1.5, 2.5], [0.0, 0.0]])
        assert dv_score(grid_map(values), lms, min_valid=2) == DvScore(value=7.0, n_valid=2)

    def test_out_of_bounds_is_invalid(self):
        depth = grid_map(np.ones((3, 3), dtype=np.int64))
        points = [[-1.0, 0.0], [0.0, -0.51], [2.6, 0.0], [0.0, 2.6], [-0.5, 0.0]]
        # -0.5 rounds up to pixel 0 and is therefore still in bounds
        with pytest.raises(TooFewValidLandmarksError) as err:
            dv_score(depth, LandmarkSet(points=points), min_valid=2)
        assert err.value.n_valid == 1
        assert dv_score(depth, LandmarkSet(points=points + [[2.0, 2.0]]), min_valid=2).n_valid == 2

    @pytest.mark.parametrize("far", [1e300, -1e300, 2.0**63, -(2.0**63), 9.3e18])
    def test_far_out_landmarks_are_invalid(self, far):
        """A landmark beyond int64's range is outside the grid like any other, with no cast warning."""
        depth = grid_map(np.arange(9, dtype=np.int64).reshape(3, 3) + 1)
        points = [[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]
        want = dv_score(depth, LandmarkSet(points=points), min_valid=2)
        for extra in ([far, 1.0], [1.0, far], [far, far]):
            assert dv_score(depth, LandmarkSet(points=points + [extra]), min_valid=2) == want

    def test_sentinel_zero_is_invalid(self):
        depth = grid_map(np.array([[5, 0], [3, 9]], dtype=np.int64))
        lms = LandmarkSet(points=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert dv_score(depth, lms, min_valid=2) == DvScore(value=3.0, n_valid=2)


class TestDvScore:
    def test_two_point_spread(self):
        values = np.array([[2, 4]], dtype=np.int64)
        score = dv_score(grid_map(values), LandmarkSet(points=[[0, 0], [1, 0]]), min_valid=2)
        assert score.value == 1.0  # population std of {2, 4}
        assert score.n_valid == 2

    def test_sentinel_excluded_from_spread(self):
        values = np.array([[0, 5, 7]], dtype=np.int64)
        lms = LandmarkSet(points=[[0, 0], [1, 0], [2, 0]])
        score = dv_score(grid_map(values), lms, min_valid=2)
        assert score.value == 1.0  # std over {5, 7}; the 0 is no-measurement
        assert score.n_valid == 2

    def test_constant_map_scores_zero(self):
        values = np.full((8, 8), 1234, dtype=np.int64)
        lms = LandmarkSet(points=[[x, y] for x in range(8) for y in range(8)])
        assert dv_score(grid_map(values), lms, min_valid=10).value == 0.0

    def test_too_few_valid_landmarks(self):
        values = np.array([[5, 0], [0, 0]], dtype=np.int64)
        lms = LandmarkSet(points=[[0, 0], [1, 0], [0, 1], [9, 9]])
        with pytest.raises(TooFewValidLandmarksError) as err:
            dv_score(grid_map(values), lms, min_valid=2)
        assert err.value.n_valid == 1
        assert err.value.min_valid == 2

    def test_min_valid_floor(self):
        depth = grid_map(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValidationError):
            dv_score(depth, LandmarkSet(points=[[0, 0]]), min_valid=1)

    def test_default_min_valid_is_ten(self):
        depth = grid_map(np.full((3, 3), 7, dtype=np.int64))
        lms = LandmarkSet(points=[[x, y] for x in range(3) for y in range(3)])
        with pytest.raises(TooFewValidLandmarksError):
            dv_score(depth, lms)  # 9 valid < default 10
        assert dv_score(depth, lms, min_valid=9).n_valid == 9


coords = st.floats(min_value=-3.0, max_value=14.0, allow_nan=False)


@given(
    st.lists(st.integers(0, 30), min_size=4, max_size=100),
    st.lists(st.tuples(coords, coords), min_size=2, max_size=60),
)
def test_matches_stdlib_reference(flat_values, points):
    side = int(np.ceil(np.sqrt(len(flat_values))))
    values = np.zeros((side, side), dtype=np.int64)
    values.flat[: len(flat_values)] = flat_values
    depth = grid_map(values)
    lms = LandmarkSet(points=points)
    expected = oracles.dv_reference(values.tolist(), points, min_valid=2)
    if expected is None:
        with pytest.raises(TooFewValidLandmarksError):
            dv_score(depth, lms, min_valid=2)
    else:
        score = dv_score(depth, lms, min_valid=2)
        assert score.n_valid == expected[1]
        assert score.value == pytest.approx(expected[0], rel=1e-12, abs=1e-12)


# coordinates around grids of 1x1 to 5x5: exact halves (x.5, -0.5), values
# just past them, and points well outside
edge_coords = st.one_of(
    st.integers(-2, 5).map(lambda k: k + 0.5),
    st.sampled_from([-0.5, -0.51, -0.49, 0.49, 4.4999999999999995, -40.0, 1e9]),
    st.floats(min_value=-1.5, max_value=5.5, allow_nan=False),
)


def _dv_outcome(score, *args):
    try:
        result = score(*args)
    except TooFewValidLandmarksError as exc:
        return "too few", exc.n_valid, exc.min_valid
    return result.value.hex(), result.n_valid


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.one_of(st.just(0), st.sampled_from([1, 65535]), st.integers(1, 65535)), min_size=25, max_size=25),
    st.lists(st.tuples(edge_coords, edge_coords), min_size=8, max_size=60),
    st.integers(2, 8),
)
@example(1, 1, [7] * 25, [(0.0, 0.0), (-0.5, -0.5), (0.5, 0.0), (0.49, 0.49)], 2)
def test_matches_the_per_landmark_loop(height, width, flat_values, points, min_valid):
    depth = grid_map(np.asarray(flat_values[: height * width], dtype=np.int64).reshape(height, width))
    lms = LandmarkSet(points=points)
    assert _dv_outcome(dv_score, depth, lms, min_valid) == _dv_outcome(oracles.dv_score_loop, depth, lms, min_valid)


@given(st.permutations(list(range(12))))
def test_landmark_order_irrelevant(order):
    values = (np.arange(16, dtype=np.int64) * 13 % 31 + 1).reshape(4, 4)
    points = [[float(k % 4), float(k // 4)] for k in range(12)]
    base = dv_score(grid_map(values), LandmarkSet(points=points), min_valid=2)
    shuffled = dv_score(
        grid_map(values), LandmarkSet(points=[points[i] for i in order]), min_valid=2
    )
    assert shuffled.value == base.value
    assert shuffled.n_valid == base.n_valid


class TestInvariances:
    @staticmethod
    def _noisy_map():
        depth, lms = gen_depth(
            SynthDepthSpec(kind=DepthKind.CURVED_FACE, width=64, height=64, seed=5)
        )
        return depth, lms

    def test_translation_invariance(self):
        depth, lms = self._noisy_map()
        base = dv_score(depth, lms)
        shifted = np.where(depth.values > 0, depth.values.astype(np.int64) + 500, 0)
        moved = dv_score(DepthMap(values=shifted), lms)
        assert moved.n_valid == base.n_valid
        assert abs(moved.value - base.value) <= 1e-9

    def test_scale_equivariance(self):
        depth, lms = self._noisy_map()
        base = dv_score(depth, lms)
        doubled = dv_score(DepthMap(values=depth.values.astype(np.int64) * 2), lms)
        assert abs(doubled.value - 2.0 * base.value) <= 1e-9 * max(1.0, 2.0 * base.value)

    def test_planar_noise_free_scores_exactly_zero(self):
        depth, lms = gen_depth(
            SynthDepthSpec(kind=DepthKind.PLANAR_SHIRT, noise_sigma_mm=0.0, seed=0)
        )
        assert dv_score(depth, lms).value == 0.0

    def test_planar_score_approaches_noise_sigma(self):
        scores = []
        for seed in range(100):
            depth, lms = gen_depth(
                SynthDepthSpec(
                    kind=DepthKind.PLANAR_SHIRT, width=64, height=64, noise_sigma_mm=1.0, seed=seed
                )
            )
            scores.append(dv_score(depth, lms).value)
        assert abs(float(np.mean(scores)) - 1.0) < 0.15

    def test_curved_scores_above_planar_per_seed(self):
        for seed in range(100):
            curved, lms = gen_depth(
                SynthDepthSpec(
                    kind=DepthKind.CURVED_FACE, width=64, height=64, noise_sigma_mm=1.0, seed=seed
                )
            )
            planar, _ = gen_depth(
                SynthDepthSpec(
                    kind=DepthKind.PLANAR_SHIRT, width=64, height=64, noise_sigma_mm=1.0, seed=seed
                )
            )
            assert dv_score(curved, lms).value >= dv_score(planar, lms).value

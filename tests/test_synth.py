"""Synthetic data generators: stream contract, surface shapes, cluster geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from padeval import (
    DepthKind,
    LANDMARK_TEMPLATE_SIZE,
    OcsvmConfig,
    PresentationLabel,
    SpecError,
    SynthDepthSpec,
    SynthFeatureSpec,
    d_eer,
    fit,
    gen_depth,
    gen_features,
    landmark_template,
    score_matrix,
)
from padeval.synth import (
    _Stream,
    _TAG_DEPTH_NOISE,
    _TAG_FEAT_BONAFIDE,
    _TAG_FEAT_DIRECTION,
)


class TestStream:
    @pytest.mark.parametrize("seed,tag", [(0, _TAG_DEPTH_NOISE), (12345, _TAG_FEAT_DIRECTION), (2**64 - 1, _TAG_FEAT_BONAFIDE)])
    def test_uniforms_match_integer_reference(self, seed, tag):
        got = _Stream(seed, tag).uniform(64).tolist()
        assert got == oracles.stream_uniforms(seed, tag, 64)

    def test_normals_match_integer_reference(self):
        got = _Stream(7, _TAG_DEPTH_NOISE).normal(33)
        want = oracles.stream_normals(7, _TAG_DEPTH_NOISE, 33)
        assert got.tolist() == pytest.approx(want, abs=1e-12)

    def test_split_draws_continue_the_counter(self):
        one = _Stream(9, _TAG_DEPTH_NOISE)
        parts = np.concatenate([one.uniform(7), one.uniform(9)])
        whole = _Stream(9, _TAG_DEPTH_NOISE).uniform(16)
        assert parts.tolist() == whole.tolist()

    def test_prefix_stability_for_normals(self):
        assert (
            _Stream(3, _TAG_DEPTH_NOISE).normal(5).tolist()
            == _Stream(3, _TAG_DEPTH_NOISE).normal(6)[:5].tolist()
        )

    def test_tags_give_distinct_streams(self):
        a = _Stream(5, _TAG_DEPTH_NOISE).uniform(8)
        b = _Stream(5, _TAG_FEAT_BONAFIDE).uniform(8)
        assert a.tolist() != b.tolist()

    def test_uniform_range_and_rough_mean(self):
        u = _Stream(11, _TAG_DEPTH_NOISE).uniform(20000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.02

    def test_normal_rough_moments(self):
        z = _Stream(13, _TAG_DEPTH_NOISE).normal(20000)
        assert abs(float(z.mean())) < 0.03
        assert abs(float(z.std()) - 1.0) < 0.03

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(SpecError):
            _Stream(seed, _TAG_DEPTH_NOISE)


class TestLandmarkTemplate:
    def test_size_and_bounds(self):
        marks = landmark_template(128, 128)
        assert len(marks) == LANDMARK_TEMPLATE_SIZE == 468
        x, y = marks.points[:, 0], marks.points[:, 1]
        assert float(x.min()) >= 0 and float(x.max()) <= 127
        assert float(y.min()) >= 0 and float(y.max()) <= 127

    def test_centred_and_scaled_with_the_map(self):
        small = landmark_template(16, 16).points
        big = landmark_template(160, 160).points
        # same layout, ten times the scale around the respective centres
        assert np.allclose(big - 79.5, 10.0 * (small - 7.5), atol=1e-9)
        # centroid sits near the centre (truncating the grid to 468 points
        # drops part of the last row, so it is not exactly central)
        assert np.allclose(big.mean(axis=0), [79.5, 79.5], atol=2.0)

    def test_row_major_grid_order(self):
        pts = landmark_template(128, 128).points
        # first 22 points share one y and sweep x left to right
        assert np.unique(pts[:22, 1]).size == 1
        assert (np.diff(pts[:22, 0]) > 0).all()


def depth_spec(**kwargs):
    defaults = dict(kind=DepthKind.PLANAR_SHIRT, noise_sigma_mm=0.0)
    defaults.update(kwargs)
    return SynthDepthSpec(**defaults)


class TestGenDepth:
    def test_deterministic(self):
        spec = depth_spec(kind=DepthKind.CURVED_FACE, noise_sigma_mm=2.0, invalid_fraction=0.1, seed=42)
        map_a, marks_a = gen_depth(spec)
        map_b, marks_b = gen_depth(spec)
        assert map_a.values.tolist() == map_b.values.tolist()
        assert marks_a.points.tolist() == marks_b.points.tolist()

    def test_seed_changes_noise(self):
        a, _ = gen_depth(depth_spec(noise_sigma_mm=2.0, seed=0))
        b, _ = gen_depth(depth_spec(noise_sigma_mm=2.0, seed=1))
        assert a.values.tolist() != b.values.tolist()

    def test_planar_surface_is_constant(self):
        dm, _ = gen_depth(depth_spec(base_depth_mm=1000.0))
        assert np.unique(dm.values).tolist() == [1000]

    def test_wrinkled_surface_varies_only_along_x(self):
        dm, _ = gen_depth(depth_spec(kind=DepthKind.WRINKLED_SHIRT, wrinkle_amp_mm=5.0))
        values = dm.values
        assert (values == values[0, :]).all()  # vertical folds: rows identical
        assert int(values.max()) == 1005
        assert int(values.min()) == 995

    def test_curved_surface_bulges_toward_sensor_at_centre(self):
        dm, _ = gen_depth(depth_spec(kind=DepthKind.CURVED_FACE, curvature_amp_mm=20.0))
        values = dm.values
        assert int(values[64, 64]) == 980  # centre sits amp closer than the base
        assert int(values[0, 0]) == 1000  # corners lie outside the face ellipse
        assert int(values[64, 64]) < int(values[64, 0])

    def test_invalid_fraction_drops_pixels_to_zero(self):
        spec = depth_spec(invalid_fraction=0.25, seed=3)
        dm, _ = gen_depth(spec)
        frac = float((dm.values == 0).mean())
        assert abs(frac - 0.25) < 0.02

    def test_no_dropouts_by_default(self):
        dm, _ = gen_depth(depth_spec(noise_sigma_mm=2.0))
        assert int((dm.values == 0).sum()) == 0

    def test_valid_pixels_clamped_away_from_sentinel(self):
        dm, _ = gen_depth(depth_spec(base_depth_mm=1.0, noise_sigma_mm=50.0, seed=5))
        assert int(dm.values.min()) >= 1

    def test_clamped_at_sensor_ceiling(self):
        dm, _ = gen_depth(depth_spec(base_depth_mm=65535.0, noise_sigma_mm=50.0, seed=5))
        assert int(dm.values.max()) == 65535

    def test_overflowing_noise_clamps_without_warning(self):
        dm, _ = gen_depth(depth_spec(width=8, height=8, noise_sigma_mm=1e308, seed=5))
        assert set(np.unique(dm.values).tolist()) == {1, 65535}

    def test_fold_phase_overflow_rejected(self):
        # 2*pi*7 / 1e-320 overflows, and sin(inf) would write the 0 sentinel
        spec = depth_spec(kind=DepthKind.WRINKLED_SHIRT, width=8, height=8, wrinkle_wavelength_px=1e-320)
        with pytest.raises(SpecError, match="fold phase overflow"):
            gen_depth(spec)
        tiny = depth_spec(kind=DepthKind.WRINKLED_SHIRT, width=8, height=8, wrinkle_wavelength_px=1e-300)
        assert int(gen_depth(tiny)[0].values.min()) >= 1

    def test_pixel_count_is_bounded(self):
        # an int64 product of these would wrap to 0, and a float one to inf
        for width, height in [(2048, 2049), (np.int64(2**32), np.int64(2**32)), (10**400, 8)]:
            with pytest.raises(SpecError, match="maps larger than 4194304 pixels"):
                gen_depth(depth_spec(width=width, height=height))

    def test_map_matches_spec_shape_and_landmarks_fit(self):
        dm, marks = gen_depth(depth_spec(width=48, height=32))
        assert (dm.height, dm.width) == (32, 48)
        assert float(marks.points[:, 0].max()) < 48
        assert float(marks.points[:, 1].max()) < 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "planar-shirt"},
            {"width": 4},
            {"height": 7},
            {"base_depth_mm": 0.0},
            {"base_depth_mm": 70000.0},
            {"curvature_amp_mm": -1.0},
            {"noise_sigma_mm": -0.5},
            {"noise_sigma_mm": math.nan},
            {"wrinkle_wavelength_px": 0.0},
            {"invalid_fraction": 1.0},
            {"invalid_fraction": -0.1},
            {"invalid_fraction": math.nan},
            {"invalid_fraction": math.inf},
            {"seed": -1},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(SpecError):
            gen_depth(depth_spec(**kwargs))


class TestGenFeatures:
    def test_shapes_ids_labels(self):
        feats, labels = gen_features(SynthFeatureSpec(n_bonafide=3, n_attack=2, d=5))
        assert feats.values.shape == (5, 5)
        assert feats.sample_ids == ("bf_00000", "bf_00001", "bf_00002", "atk_00000", "atk_00001")
        assert labels == [PresentationLabel.BONA_FIDE] * 3 + [PresentationLabel.ATTACK] * 2

    def test_deterministic(self):
        spec = SynthFeatureSpec(n_bonafide=4, n_attack=4, seed=9)
        a, _ = gen_features(spec)
        b, _ = gen_features(spec)
        assert a.values.tolist() == b.values.tolist()

    def test_bona_fide_rows_independent_of_attack_count(self):
        few, _ = gen_features(SynthFeatureSpec(n_bonafide=5, n_attack=3, seed=2))
        many, _ = gen_features(SynthFeatureSpec(n_bonafide=5, n_attack=17, seed=2))
        assert few.values[:5].tolist() == many.values[:5].tolist()

    def test_cluster_geometry(self):
        spec = SynthFeatureSpec(n_bonafide=2000, n_attack=2000, d=16, mean_separation=4.0, center_norm=10.0, seed=8)
        feats, _ = gen_features(spec)
        bona = feats.values[:2000]
        attack = feats.values[2000:]
        assert float(np.linalg.norm(bona.mean(axis=0))) == pytest.approx(10.0, abs=0.1)
        assert float(np.linalg.norm(attack.mean(axis=0))) == pytest.approx(6.0, abs=0.1)
        gap = bona.mean(axis=0) - attack.mean(axis=0)
        assert float(np.linalg.norm(gap)) == pytest.approx(4.0, abs=0.1)
        # unit within-cluster deviation in every coordinate
        assert np.allclose(bona.std(axis=0), 1.0, atol=0.1)

    def test_an_all_zero_direction_falls_back_to_the_first_basis_vector(self):
        # SplitMix64's finalizer is a bijection that maps 0 to 0, so this seed (the
        # finalizer's preimage of -GOLDEN mod 2**64, xor the direction tag) makes the
        # direction stream's first key and uniform 0: the first Box-Muller radius is
        # 0, and so are both normals of the pair
        seed = 176493733711377272
        direction = _Stream(seed, _TAG_FEAT_DIRECTION).normal(2)
        assert np.linalg.norm(direction) == 0.0
        spec = SynthFeatureSpec(n_bonafide=3, n_attack=2, d=2, seed=seed)
        feats, _ = gen_features(spec)
        noise = _Stream(seed, _TAG_FEAT_BONAFIDE).normal(6).reshape(3, 2)
        expected = spec.center_norm * np.array([1.0, 0.0]) + noise
        assert feats.values[:3].view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bonafide": 0},
            {"n_attack": 0},
            {"d": 0},
            {"mean_separation": -1.0},
            {"mean_separation": math.inf},
            {"center_norm": 0.0},
            {"seed": 2**64},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        base = dict(n_bonafide=2, n_attack=2)
        base.update(kwargs)
        with pytest.raises(SpecError):
            gen_features(SynthFeatureSpec(**base))


class TestEndToEndSeparability:
    def run_chain(self, separation, seed):
        spec = SynthFeatureSpec(
            n_bonafide=600, n_attack=400, d=16, mean_separation=separation, seed=seed
        )
        feats, labels = gen_features(spec)
        train = feats.rows(range(200))  # first bona fide rows only
        model = fit(train, OcsvmConfig(nu=0.5, standardize=False))
        held_out = feats.rows(range(200, feats.n))
        scored = score_matrix(
            model, held_out, dict(zip(feats.sample_ids, labels))
        )
        bona = scored.with_label(PresentationLabel.BONA_FIDE)
        attack = scored.with_label(PresentationLabel.ATTACK)
        rate, _ = d_eer(bona.values, attack.values)
        return rate

    def test_zero_separation_is_chance(self):
        assert self.run_chain(0.0, seed=21) == pytest.approx(0.5, abs=0.06)

    def test_wide_separation_is_near_perfect(self):
        assert self.run_chain(8.0, seed=22) < 0.02

    def test_d_eer_non_increasing_in_separation(self):
        # seeded 5-separation x 10-seed grid; averaging over seeds leaves
        # only sampling noise, for which 0.03 slack is allowed
        separations = [0.0, 1.0, 2.0, 4.0, 8.0]
        means = []
        for separation in separations:
            rates = [self.run_chain(separation, seed=1000 + k) for k in range(10)]
            means.append(sum(rates) / len(rates))
        for weaker, stronger in zip(means, means[1:]):
            assert stronger <= weaker + 0.03

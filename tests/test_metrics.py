"""Error-rate metrics against frozen examples and an independent sweep oracle."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from padeval import (
    DetAxes,
    EmptySetError,
    InvalidTargetError,
    Polarity,
    PolarityMismatchError,
    PresentationLabel,
    TrialLabel,
    ValidationError,
    apcer,
    bpcer,
    bpcer_at_apcer,
    d_eer,
    det_curve,
    evaluate_pad,
    evaluate_vuln,
    fmr,
    fnmr,
    iapmr,
    threshold_at_fmr,
)
from padeval.metrics import _grid, _pad
from conftest import make_score_set

# tie-rich lattice scores: eighths are exact in binary, so arithmetic on them
# (midpoints, power-of-two rescaling) stays exact
lattice_scores = st.lists(
    st.integers(min_value=-400, max_value=400).map(lambda k: k / 8.0),
    min_size=1,
    max_size=60,
)
continuous_scores = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)
any_scores = st.one_of(lattice_scores, continuous_scores)
# any_scores with signed zeros and magnitudes where x - 1.0 == x mixed in
edge_scores = st.tuples(
    any_scores, st.lists(st.sampled_from([-0.0, 0.0, 1e17, -1e17]), max_size=6)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
targets = st.lists(st.floats(min_value=1e-6, max_value=0.999999), min_size=1, max_size=4)


def bits(values):
    return [np.float64(v).tobytes() for v in values]


def grid(scores):
    """The candidate grid of the scores, sorted as every sweep sorts them."""
    return _grid(np.sort(np.asarray(scores, dtype=np.float64)))


class TestPointMetrics:
    def test_fmr_counts_ties_as_matches(self):
        assert fmr([0.1, 0.2, 0.3, 0.4], 0.25) == 0.5
        assert fmr([0.1, 0.2], 1.0) == 0.0
        assert fmr([0.25, 0.3], 0.25) == 1.0  # score == tau accepts

    def test_fnmr(self):
        assert fnmr([0.8, 0.9], 0.85) == 0.5
        assert fnmr([0.8, 0.9], 0.0) == 0.0

    def test_iapmr(self):
        assert iapmr([0.5, 0.36, 0.2], 0.35) == pytest.approx(2 / 3)
        assert iapmr([0.99], 0.5) == 1.0

    def test_apcer_bpcer(self):
        assert apcer([0.2, 0.6, 0.9], 0.5) == pytest.approx(2 / 3)
        assert bpcer([0.92, 0.88, 0.95, 0.99], 0.9) == 0.25

    def test_boundary_threshold(self):
        scores = [0.1, 0.5, 0.9]
        assert apcer(scores, 1.0) == 0.0
        assert bpcer(scores, 1.0) == 1.0

    def test_median_split(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=1000).tolist()
        tau = float(np.median(scores))
        assert fmr(scores, tau) == oracles.rate_ge(scores, tau)
        assert abs(fmr(scores, tau) - 0.5) <= 1.0 / 1000

    @pytest.mark.parametrize("func", [fmr, fnmr, iapmr, apcer, bpcer])
    def test_empty_rejected(self, func):
        with pytest.raises(EmptySetError):
            func([], 0.5)

    @pytest.mark.parametrize("func", [fmr, fnmr, iapmr, apcer, bpcer])
    def test_non_finite_rejected(self, func):
        with pytest.raises(ValidationError):
            func([0.1, float("nan")], 0.5)
        with pytest.raises(ValidationError):
            func([0.1], float("inf"))


class TestCandidateThresholds:
    def test_single_value(self):
        assert grid([0.5]).tolist() == [-0.5, 1.5]

    def test_counts_and_order(self):
        points = grid([0.1, 0.2, 0.2, 0.4])
        assert len(points) == 4  # 3 distinct -> 2 midpoints + 2 sentinels
        assert (np.diff(points) > 0).all()

    def test_adjacent_floats_keep_every_split(self):
        # the midpoint of adjacent floats rounds onto the lower one
        xs = [-100.0, float(np.nextafter(-100.0, 0.0))]
        counts = [oracles.count_ge(xs, tau) for tau in grid(xs).tolist()]
        assert counts == [2, 1, 0]

    @given(any_scores)
    def test_matches_reference_grid(self, scores):
        assert grid(scores).tolist() == oracles.midpoint_grid(scores)

    @given(any_scores)
    def test_grid_realises_every_split(self, scores):
        # one grid point per achievable accept/reject split, none duplicated
        xs = sorted(scores)
        counts = [oracles.count_ge(xs, tau) for tau in grid(scores).tolist()]
        assert counts[0] == len(xs) and counts[-1] == 0
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert len(counts) == len(set(xs)) + 1


class TestThresholdAtFmr:
    def test_worked_example(self):
        tau = threshold_at_fmr([0.1, 0.2, 0.3, 0.4], 0.25)
        assert tau == pytest.approx(0.35, abs=1e-12)
        assert fmr([0.1, 0.2, 0.3, 0.4], tau) == 0.25

    def test_infeasible_below_forces_above_max(self):
        tau = threshold_at_fmr([0.5], 0.9)
        assert tau == 1.5
        assert fmr([0.5], tau) == 0.0

    def test_near_one_target_keeps_max_acceptance(self):
        # all-distinct scores, near-1 target: the full-acceptance sentinel has
        # FMR 1.0 > target, so the sweep drops exactly one score
        scores = [1.0, 2.0, 3.0, 4.0]
        tau = threshold_at_fmr(scores, 0.999999)
        assert tau == 1.5
        assert fmr(scores, tau) == 0.75

    @given(any_scores, st.floats(min_value=1e-6, max_value=0.999999))
    def test_oracle_equivalence(self, scores, target):
        assert threshold_at_fmr(scores, target) == oracles.threshold_at_fmr(scores, target)

    def test_sentinel_stays_above_a_huge_maximum(self):
        # 1e17 + 1.0 rounds back to 1e17; the sentinel must still reject it
        tau = threshold_at_fmr([0.0, 1e17], 0.25)
        assert tau > 1e17 and fmr([0.0, 1e17], tau) == 0.0

    @given(any_scores, st.floats(min_value=1e-6, max_value=0.999999))
    def test_postcondition_most_permissive(self, scores, target):
        want = Fraction(float(target))
        tau = threshold_at_fmr(scores, target)
        assert oracles.rate_ge(scores, tau) <= want
        for t in grid(scores).tolist():
            if t < tau:
                assert oracles.rate_ge(scores, t) > want

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_bad_target_rejected(self, target):
        with pytest.raises(InvalidTargetError):
            threshold_at_fmr([0.1, 0.2], target)


class TestDEer:
    def test_worked_example(self):
        eer, tau = d_eer([0.9, 0.8, 0.7, 0.4], [0.6, 0.5, 0.3, 0.2])
        assert eer == 0.25
        assert tau == pytest.approx(0.55, abs=1e-12)

    def test_perfect_separation(self):
        eer, tau = d_eer([0.8, 0.9, 1.0], [0.0, 0.1, 0.2])
        assert eer == 0.0
        assert apcer([0.0, 0.1, 0.2], tau) == 0.0
        assert bpcer([0.8, 0.9, 1.0], tau) == 0.0

    def test_identical_multisets_give_half(self):
        scores = [0.1, 0.2, 0.3]
        eer, _ = d_eer(scores, scores)
        assert abs(eer - 0.5) <= 1.0 / (2 * len(scores))

    def test_tie_break_toward_smallest_threshold(self):
        # two grid points reach gap 0; the smaller threshold must win
        eer, tau = d_eer([1.0, 3.0], [0.0, 2.0])
        oracle_eer, oracle_tau = oracles.d_eer([1.0, 3.0], [0.0, 2.0])
        assert (eer, tau) == (oracle_eer, oracle_tau)

    @given(any_scores, any_scores)
    def test_oracle_equivalence(self, bona, attack):
        assert d_eer(bona, attack) == oracles.d_eer(bona, attack)

    def test_two_dimensional_scores_rejected(self):
        with pytest.raises(ValidationError, match="^bonafide_scores must be a flat sequence of scores$"):
            d_eer([[1.0, 2.0]], [0.0])

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=50, unique=True),
        st.lists(st.integers(10_001, 20_000), min_size=1, max_size=50, unique=True),
    )
    def test_gap_bound_on_tie_free_sets(self, bona_raw, attack_raw):
        # map disjoint integers onto interleaved floats: guaranteed tie-free
        bona = [v * 0.125 for v in bona_raw]
        attack = [v * 0.125 - 1250.0 + 0.0625 for v in attack_raw]
        assert not set(bona) & set(attack)
        eer, tau = d_eer(bona, attack)
        gap = abs(apcer(attack, tau) - bpcer(bona, tau))
        assert gap <= 1.0 / min(len(bona), len(attack)) + 1e-12


class TestBpcerAtApcer:
    def test_worked_example_eleven_candidates(self):
        attacks = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
        bona = [0.92, 0.88, 0.95, 0.99]
        assert len(grid(attacks)) == 11
        rate, tau = bpcer_at_apcer(bona, attacks, 0.10)
        assert tau == pytest.approx(0.90, abs=1e-12)
        assert rate == 0.25

    def test_separated_sets_zero_bpcer(self):
        rate, _ = bpcer_at_apcer([5.0, 6.0], [1.0, 2.0], 0.2)
        assert rate == 0.0

    @given(any_scores, any_scores, st.floats(min_value=1e-6, max_value=0.999999))
    def test_oracle_equivalence(self, bona, attack, target):
        assert bpcer_at_apcer(bona, attack, target) == oracles.bpcer_at_apcer(
            bona, attack, target
        )

    def test_bad_target_rejected(self):
        with pytest.raises(InvalidTargetError):
            bpcer_at_apcer([0.5], [0.5], 1.0)


class TestDetCurve:
    def test_three_point_example(self):
        curve = det_curve([1.0], [0.0], DetAxes.APCER_BPCER)
        assert curve.thresholds.tolist() == [-1.0, 0.5, 2.0]
        assert curve.x_rates.tolist() == [1.0, 0.0, 0.0]
        assert curve.y_rates.tolist() == [0.0, 0.0, 1.0]
        assert len(curve) == 3

    @given(any_scores, any_scores)
    def test_oracle_equivalence(self, pos, neg):
        curve = det_curve(pos, neg, DetAxes.FMR_FNMR)
        expected = oracles.det_points(pos, neg)
        got = list(zip(curve.thresholds.tolist(), curve.x_rates.tolist(), curve.y_rates.tolist()))
        assert got == expected

    @given(any_scores, any_scores)
    def test_pointwise_equals_direct_calls(self, pos, neg):
        curve = det_curve(pos, neg, DetAxes.APCER_BPCER)
        for tau, x, y in zip(curve.thresholds, curve.x_rates, curve.y_rates):
            assert apcer(neg, float(tau)) == x
            assert bpcer(pos, float(tau)) == y

    @given(any_scores, any_scores)
    def test_monotone_rates(self, pos, neg):
        curve = det_curve(pos, neg, DetAxes.APCER_BPCER)
        assert (np.diff(curve.thresholds) > 0).all()
        assert (np.diff(curve.x_rates) <= 0).all()
        assert (np.diff(curve.y_rates) >= 0).all()

    def test_axes_type_checked(self):
        with pytest.raises(ValidationError):
            det_curve([1.0], [0.0], "apcer_bpcer")


@given(lattice_scores, st.integers(-4, 4), st.integers(-40, 40))
def test_rates_invariant_under_monotone_transform(scores, log2_scale, shift_eighths):
    """Power-of-two rescaling plus an exact shift never changes any rate."""
    scale = 2.0**log2_scale
    shift = shift_eighths / 8.0
    moved = [s * scale + shift for s in scores]
    eer_a, _ = d_eer(scores, [s + 0.0625 for s in scores])
    eer_b, _ = d_eer(moved, [(s + 0.0625) * scale + shift for s in scores])
    assert eer_a == eer_b
    tau_a = threshold_at_fmr(scores, 0.25)
    tau_b = threshold_at_fmr(moved, 0.25)
    assert oracles.rate_ge(scores, tau_a) == oracles.rate_ge(moved, tau_b)


@given(continuous_scores, st.floats(-50, 50, allow_nan=False))
def test_fnmr_complements_fmr(scores, tau):
    # under the ties-accept rule every score is counted exactly once
    n = len(scores)
    xs = sorted(scores)
    assert oracles.count_ge(xs, tau) + oracles.count_lt(xs, tau) == n
    assert fnmr(scores, tau) == pytest.approx(1.0 - fmr(scores, tau), abs=1e-12)


class TestEvaluatePad:
    def test_separated_data(self):
        bona = make_score_set([5.0, 6.0, 7.0], label=PresentationLabel.BONA_FIDE)
        attack = make_score_set([1.0, 2.0], label=PresentationLabel.ATTACK, prefix="a")
        report = evaluate_pad(bona, attack)
        assert report.d_eer == 0.0
        assert report.bpcer10 == 0.0
        assert report.bpcer20 == 0.0
        assert (report.n_bonafide, report.n_attack) == (3, 2)

    @given(edge_scores, edge_scores)
    def test_report_matches_primitives(self, bona_scores, attack_scores):
        bona = make_score_set(bona_scores, label=PresentationLabel.BONA_FIDE)
        attack = make_score_set(attack_scores, label=PresentationLabel.ATTACK, prefix="a")
        report = evaluate_pad(bona, attack)
        got = [
            report.d_eer,
            report.eer_threshold,
            report.bpcer10,
            report.bpcer10_threshold,
            report.bpcer20,
            report.bpcer20_threshold,
        ]
        expected = [
            *d_eer(bona_scores, attack_scores),
            *bpcer_at_apcer(bona_scores, attack_scores, 0.10),
            *bpcer_at_apcer(bona_scores, attack_scores, 0.05),
        ]
        assert bits(got) == bits(expected)
        assert (report.n_bonafide, report.n_attack) == (len(bona_scores), len(attack_scores))

    def test_wrong_polarity_rejected(self):
        bona = make_score_set([1.0], polarity=Polarity.HIGHER_IS_MATCH)
        attack = make_score_set([0.0], label=PresentationLabel.ATTACK, prefix="a")
        with pytest.raises(PolarityMismatchError):
            evaluate_pad(bona, attack)

    def test_off_label_records_rejected(self):
        bona = make_score_set([1.0], label=PresentationLabel.BONA_FIDE)
        mislabelled = make_score_set([0.0], label=PresentationLabel.BONA_FIDE, prefix="a")
        with pytest.raises(ValidationError):
            evaluate_pad(bona, mislabelled)


class TestEvaluateVuln:
    @staticmethod
    def _sets(mated, nonmated, attack):
        return (
            make_score_set(mated, label=TrialLabel.MATED, polarity=Polarity.HIGHER_IS_MATCH),
            make_score_set(
                nonmated, label=TrialLabel.NONMATED, polarity=Polarity.HIGHER_IS_MATCH, prefix="n"
            ),
            make_score_set(
                attack, label=TrialLabel.ATTACK_MATED, polarity=Polarity.HIGHER_IS_MATCH, prefix="x"
            ),
        )

    def test_counts_recomputed_from_raw_data(self):
        mated, nonmated, attack = self._sets([5.0, 6.0, 7.0], [0.0, 1.0, 2.0, 3.0], [2.5, 5.0, 0.5])
        report = evaluate_vuln(mated, nonmated, attack, [0.5])
        assert report.thresholds[0.5] == pytest.approx(1.5, abs=1e-12)
        assert report.iapmr[0.5] == pytest.approx(2 / 3)
        assert (report.n_mated, report.n_nonmated, report.n_attack) == (3, 4, 3)
        # independent recount at the chosen threshold
        tau = report.thresholds[0.5]
        assert report.iapmr[0.5] == float(oracles.rate_ge([2.5, 5.0, 0.5], tau))

    def test_multiple_targets_ordered_like_input(self):
        rng = np.random.default_rng(3)
        mated, nonmated, attack = self._sets(
            rng.normal(4, 1, 50).tolist(), rng.normal(0, 1, 400).tolist(), rng.normal(3, 1, 60).tolist()
        )
        report = evaluate_vuln(mated, nonmated, attack, [0.01, 0.1])
        assert list(report.thresholds) == [0.01, 0.1]
        # looser FMR target -> lower threshold -> IAPMR can only grow
        assert report.thresholds[0.1] <= report.thresholds[0.01]
        assert report.iapmr[0.1] >= report.iapmr[0.01]

    @given(edge_scores, edge_scores, edge_scores, targets)
    def test_report_matches_primitives(self, mated_scores, nonmated_scores, attack_scores, fmr_targets):
        report = evaluate_vuln(*self._sets(mated_scores, nonmated_scores, attack_scores), fmr_targets)
        assert list(report.thresholds) == list(dict.fromkeys(fmr_targets))
        for t, tau in report.thresholds.items():
            expected = threshold_at_fmr(nonmated_scores, t)
            assert bits([tau, report.iapmr[t]]) == bits([expected, iapmr(attack_scores, expected)])
        counts = (report.n_mated, report.n_nonmated, report.n_attack)
        assert counts == (len(mated_scores), len(nonmated_scores), len(attack_scores))

    def test_no_targets_rejected(self):
        mated, nonmated, attack = self._sets([1.0], [0.0], [0.5])
        with pytest.raises(ValidationError):
            evaluate_vuln(mated, nonmated, attack, [])

    def test_pad_labels_rejected(self):
        mated, nonmated, attack = self._sets([1.0], [0.0], [0.5])
        wrong = make_score_set([1.0], label=PresentationLabel.BONA_FIDE, polarity=Polarity.HIGHER_IS_MATCH)
        with pytest.raises(ValidationError):
            evaluate_vuln(wrong, nonmated, attack, [0.1])


def curve_bits(curve):
    return curve.axes, [bits(getattr(curve, name)) for name in ("thresholds", "x_rates", "y_rates")]


class TestOneSweep:
    """The report and curve of one evaluation's sweep equal the public functions' bit for bit."""

    @given(edge_scores, edge_scores)
    def test_pad(self, bona_scores, attack_scores):
        bona = make_score_set(bona_scores, label=PresentationLabel.BONA_FIDE)
        attack = make_score_set(attack_scores, label=PresentationLabel.ATTACK, prefix="a")
        report, curve = _pad(bona, attack)
        expected = evaluate_pad(bona, attack)
        assert bits(dataclasses.astuple(report)) == bits(dataclasses.astuple(expected))
        want = det_curve(bona_scores, attack_scores, DetAxes.APCER_BPCER)
        assert curve_bits(curve) == curve_bits(want)

    @pytest.mark.parametrize("evaluation", ["pad", "det_curve"])
    def test_curve_maker_lets_go_of_the_sweep(self, monkeypatch, evaluation):
        """Once the curve is returned, nothing holds the sorted classes or their counts."""
        import gc
        import weakref

        from padeval import metrics

        refs = []
        real = metrics._pooled

        def pooled(pos, neg):
            grid, accepts, rejects = real(pos, neg)
            refs.extend(map(weakref.ref, (pos, neg, accepts, rejects)))
            return grid, accepts, rejects

        monkeypatch.setattr(metrics, "_pooled", pooled)
        if evaluation == "pad":
            attack = make_score_set([0.0, 4.0], label=PresentationLabel.ATTACK, prefix="a")
            _, made = _pad(make_score_set([3.0, 4.0, 5.0]), attack)
        else:
            made = det_curve([3.0, 2.0], [0.0, 2.0, 1.0], DetAxes.FMR_FNMR)
        gc.collect()
        assert len(refs) == 4 and [ref() for ref in refs] == [None] * 4
        assert made.thresholds.size == made.x_rates.size == made.y_rates.size > 0

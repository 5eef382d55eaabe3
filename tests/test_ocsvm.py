"""One-class SVM solver: forced solutions, KKT certificates, oracle duals."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from padeval import ocsvm
from padeval import (
    DimensionMismatchError,
    FeatureMatrix,
    InfeasibleNuError,
    NonFiniteScoreError,
    NotConvergedError,
    OcsvmConfig,
    OcsvmModel,
    Polarity,
    PresentationLabel,
    TrialLabel,
    ValidationError,
    decision_value,
    fit,
    score_matrix,
)


def gaussian_cloud(n, d, seed, offset=3.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (n, d)) + offset


def dual_objective(x, alpha):
    return 0.5 * float(alpha @ (x @ x.T) @ alpha)


class TestForcedSolutions:
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_nu_one_forces_uniform_alphas(self, n):
        x = gaussian_cloud(n, 3, seed=n)
        model = fit(x, OcsvmConfig(nu=1.0))
        assert model.dual_alphas.tolist() == [1.0 / n] * n
        assert model.diagnostics.iterations == 0
        assert model.diagnostics.n_support == n
        assert model.diagnostics.n_margin_errors == n

    def test_two_point_line_nu_one(self):
        # box 1/(nu*n) = 0.5 meets the simplex in the single point (0.5, 0.5)
        x = np.array([[1.0], [3.0]])
        model = fit(x, OcsvmConfig(nu=1.0, standardize=False))
        alpha_ref, _ = oracles.dual_grid_search_2d(x, nu=1.0)
        assert model.dual_alphas.tolist() == alpha_ref.tolist() == [0.5, 0.5]
        assert float(model.w[0]) == 2.0

    def test_degenerate_identical_rows(self):
        x = np.full((4, 2), 3.0)
        model = fit(x, OcsvmConfig(nu=0.5, standardize=False))
        assert model.diagnostics.degenerate_data
        assert model.diagnostics.iterations == 0
        # the mean row sits exactly on the decision boundary
        assert decision_value(model, [3.0, 3.0]) == 0.0

    def test_non_degenerate_not_flagged(self):
        model = fit(gaussian_cloud(20, 2, seed=1))
        assert not model.diagnostics.degenerate_data


class TestKktAndNuProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_residual_within_tol(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        d = int(rng.integers(2, 16))
        nu = float(rng.uniform(0.1, 0.9))
        model = fit(gaussian_cloud(n, d, seed=seed + 100), OcsvmConfig(nu=nu))
        assert model.diagnostics.kkt_residual <= 1e-6

    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.9])
    def test_nu_property_bounds(self, nu):
        n = 200
        model = fit(gaussian_cloud(n, 8, seed=42), OcsvmConfig(nu=nu))
        diag = model.diagnostics
        assert diag.n_margin_errors / n <= nu + 1.0 / n
        assert diag.n_support / n >= nu - 1.0 / n

    def test_dual_feasibility_exact(self):
        n, nu = 80, 0.3
        model = fit(gaussian_cloud(n, 5, seed=9), OcsvmConfig(nu=nu))
        alpha = model.dual_alphas
        c = 1.0 / (nu * n)
        assert float(alpha.min()) >= 0.0
        assert float(alpha.max()) <= c
        assert abs(float(alpha.sum()) - 1.0) <= 1e-6

    def test_primal_recovery(self):
        x = gaussian_cloud(60, 4, seed=17)
        model = fit(x, OcsvmConfig(nu=0.4))
        standardized = (x - model.mean) / model.scale
        assert model.w.tolist() == (standardized.T @ model.dual_alphas).tolist()

    def test_objective_trace_non_increasing(self):
        model = fit(gaussian_cloud(150, 6, seed=23), OcsvmConfig(nu=0.35))
        trace = np.asarray(model.diagnostics.objective_trace)
        assert len(trace) >= 1
        slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        assert (np.diff(trace) <= slack).all()

    def test_margin_errors_sit_at_or_below_boundary(self):
        x = gaussian_cloud(120, 3, seed=31)
        nu = 0.3
        model = fit(x, OcsvmConfig(nu=nu, standardize=False))
        c = 1.0 / (nu * x.shape[0])
        for i in np.flatnonzero(model.dual_alphas == c):
            assert decision_value(model, x[i]) <= 2e-6


class TestOracleObjective:
    @pytest.mark.parametrize("seed,nu", [(0, 0.2), (1, 0.5), (2, 0.35)])
    def test_matches_projected_gradient_dual(self, seed, nu):
        x = gaussian_cloud(50, 3, seed=seed)
        model = fit(x, OcsvmConfig(nu=nu, standardize=False))
        _, oracle_obj = oracles.ocsvm_dual_oracle(x, nu)
        got = dual_objective(x, model.dual_alphas)
        assert got == pytest.approx(oracle_obj, rel=1e-6, abs=1e-9)

    def test_oracle_ceiling_rows_score_low(self):
        x = gaussian_cloud(40, 2, seed=5)
        nu = 0.4
        model = fit(x, OcsvmConfig(nu=nu, standardize=False))
        alpha_ref, _ = oracles.ocsvm_dual_oracle(x, nu)
        c = 1.0 / (nu * x.shape[0])
        clearly_ceiling = np.flatnonzero(alpha_ref >= c * (1.0 - 1e-6))
        assert clearly_ceiling.size > 0
        for i in clearly_ceiling:
            assert decision_value(model, x[i]) <= 1e-4


class TestDeterminismAndScaling:
    def test_refit_is_bit_identical(self):
        x = gaussian_cloud(90, 7, seed=77)
        a = fit(x, OcsvmConfig(nu=0.45))
        b = fit(x, OcsvmConfig(nu=0.45))
        assert a.w.tolist() == b.w.tolist()
        assert a.rho == b.rho
        assert a.dual_alphas.tolist() == b.dual_alphas.tolist()
        assert a.diagnostics == b.diagnostics

    def test_standardized_ranking_survives_feature_rescaling(self):
        x = gaussian_cloud(60, 5, seed=13)
        probes = gaussian_cloud(30, 5, seed=14)
        scales = 2.0 ** np.array([-3.0, 5.0, 0.0, 8.0, -1.0])
        offsets = np.array([4.0, -2.0, 0.0, 16.0, 1.0])
        model_raw = fit(x, OcsvmConfig(nu=0.5, standardize=True))
        model_scaled = fit(x * scales + offsets, OcsvmConfig(nu=0.5, standardize=True))
        raw = [decision_value(model_raw, p) for p in probes]
        scaled = [decision_value(model_scaled, p * scales + offsets) for p in probes]
        assert np.argsort(raw).tolist() == np.argsort(scaled).tolist()


def _fit_bits(x, config):
    """Every output of a fit as exact bits, or the error it raised."""
    try:
        model = fit(x, config)
    except NotConvergedError as exc:
        return type(exc), str(exc)
    diag = model.diagnostics
    return (
        model.w.view(np.uint64).tolist(),
        np.float64(model.rho).view(np.uint64),
        model.dual_alphas.view(np.uint64).tolist(),
        np.asarray(diag.objective_trace, dtype=np.float64).view(np.uint64).tolist(),
        diag.iterations,
    )


class TestSolverWithoutColumnCache:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["normal", "lattice"]),
        st.floats(min_value=0.05, max_value=1.0),
        st.booleans(),
    )
    def test_matches_the_cached_solver_bit_for_bit(self, n, d, seed, draw, nu, standardize):
        assume(nu * n >= 1.0)
        rng = np.random.default_rng(seed)
        # lattice rows repeat and tie, which exercises the lowest-index tie breaks
        x = rng.normal(3.0, 1.0, (n, d)) if draw == "normal" else rng.integers(-2, 3, (n, d)).astype(np.float64)
        config = OcsvmConfig(nu=nu, standardize=standardize)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ocsvm, "_smo", oracles.smo_cached)
            expected = _fit_bits(x, config)
        assert _fit_bits(x, config) == expected

    def test_fit_memory_is_linear_in_the_rows(self):
        x = gaussian_cloud(3000, 8, seed=8)
        tracemalloc.start()
        try:
            fit(x, OcsvmConfig(standardize=False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * x.nbytes


class TestValidation:
    @pytest.mark.parametrize("nu", [0.0, -0.5, 1.5, float("nan")])
    def test_nu_range(self, nu):
        with pytest.raises(InfeasibleNuError):
            fit(gaussian_cloud(10, 2, seed=0), OcsvmConfig(nu=nu))

    def test_nu_times_n_below_one(self):
        with pytest.raises(InfeasibleNuError):
            fit(gaussian_cloud(2, 2, seed=0), OcsvmConfig(nu=0.4))
        fit(gaussian_cloud(2, 2, seed=0), OcsvmConfig(nu=0.5))  # boundary is fine

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            fit(np.ones((1, 3)), OcsvmConfig())

    def test_non_finite_rows_rejected(self):
        x = gaussian_cloud(5, 2, seed=0)
        x[2, 1] = np.nan
        with pytest.raises(ValidationError):
            fit(x, OcsvmConfig())

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"max_iter": 0}])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            fit(gaussian_cloud(10, 2, seed=0), OcsvmConfig(**kwargs))

    def test_iteration_budget_exhaustion(self):
        x = gaussian_cloud(100, 8, seed=3)
        with pytest.raises(NotConvergedError) as err:
            fit(x, OcsvmConfig(nu=0.5, max_iter=1))
        assert err.value.iterations == 1
        assert err.value.kkt_residual > 1e-6


class TestScoring:
    def test_decision_value_arithmetic(self):
        model = OcsvmModel(w=np.array([1.0, 0.0]), rho=0.5, nu=0.5, dual_alphas=np.array([1.0]))
        assert decision_value(model, [1.0, 0.0]) == 0.5
        assert decision_value(model, [0.0, 0.0]) == -0.5

    def test_dimension_mismatch(self):
        model = fit(gaussian_cloud(10, 3, seed=0))
        with pytest.raises(DimensionMismatchError):
            decision_value(model, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            score_matrix(model, FeatureMatrix(sample_ids=("a",), values=[[1.0, 2.0]]),
                         PresentationLabel.BONA_FIDE)

    def test_batch_equals_per_row(self):
        x = gaussian_cloud(25, 4, seed=21)
        model = fit(x)
        probes = FeatureMatrix(
            sample_ids=tuple(f"p{k}" for k in range(8)),
            values=gaussian_cloud(8, 4, seed=22),
        )
        scored = score_matrix(model, probes, PresentationLabel.ATTACK)
        assert scored.polarity is Polarity.HIGHER_IS_BONA_FIDE
        assert scored.ids() == list(probes.sample_ids)
        for record, row in zip(scored, probes.values):
            assert record.score == decision_value(model, row)
            assert record.label is PresentationLabel.ATTACK

    def test_per_id_labels(self):
        x = gaussian_cloud(6, 2, seed=2)
        model = fit(x)
        probes = FeatureMatrix(sample_ids=("a", "b"), values=gaussian_cloud(2, 2, seed=4))
        labels = {"a": TrialLabel.MATED, "b": TrialLabel.NONMATED}
        scored = score_matrix(model, probes, labels)
        assert [r.label for r in scored] == [TrialLabel.MATED, TrialLabel.NONMATED]

    def test_missing_label_rejected(self):
        model = fit(gaussian_cloud(6, 2, seed=2))
        probes = FeatureMatrix(sample_ids=("a", "b"), values=gaussian_cloud(2, 2, seed=4))
        with pytest.raises(ValidationError):
            score_matrix(model, probes, {"a": TrialLabel.MATED})

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_foreign_labels_and_overflowing_scores_fail_as_in_the_constructor(self):
        model = OcsvmModel(w=np.array([1e300, 0.0]), rho=0.0, nu=0.5, dual_alphas=np.array([1.0]))
        probes = FeatureMatrix(sample_ids=("a", "b"), values=[[1.0, 0.0], [1e10, 0.0]])
        with pytest.raises(ValidationError, match="^label must be a PresentationLabel or TrialLabel, got 'mated'$"):
            score_matrix(model, probes, {"a": TrialLabel.MATED, "b": "mated"})
        with pytest.raises(NonFiniteScoreError, match="^non-finite score inf for sample_id 'b'$"):
            score_matrix(model, probes, PresentationLabel.ATTACK)

"""One-class SVM solver: forced solutions, KKT certificates, oracle duals."""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject
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
    PadevalError,
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

    def test_identical_rows_match_the_written_out_shortcut_bit_for_bit(self):
        # gemv can round the gradient entries of identical wide rows apart (d >= 16
        # here), so the solver alone would report a residual of about 1e-13 on some
        # of these and take a step on the large ones; the fit must not
        def bits(*values):
            return [np.asarray(v, dtype=np.float64).view(np.int64).tolist() for v in values]

        values = (-1e-300, 0.0, 1 / 3, -3.7, 1e-150, np.pi * 1e50, 7.3e100)
        for n, d in itertools.product((2, 3, 7, 30, 100), (1, 2, 5, 16, 32, 100)):
            signs = np.where(np.random.default_rng(n * d).random(d) < 0.5, 1.0, -2.5)
            for value, nu, standardize in itertools.product(values, (1 / n, 0.73, 1.0), (False, True)):
                x = np.full((n, d), value) * signs
                model = fit(x, OcsvmConfig(nu=nu, standardize=standardize))
                diag = model.diagnostics
                w, rho, alpha, residual, iterations, trace = oracles.identical_rows_fit(x, nu, standardize)
                c_box = 1.0 / (nu * n)
                assert bits(model.w, model.rho, model.dual_alphas) == bits(w, rho, alpha)
                assert bits(diag.kkt_residual, diag.objective_trace) == bits(residual, trace)
                assert (diag.iterations, diag.n_support, diag.n_margin_errors, diag.degenerate_data) == (
                    iterations, np.count_nonzero(alpha > 0.0), np.count_nonzero(alpha == c_box), True
                )

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

    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 8),
        share=st.floats(0.0, 1.0),
        standardize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=7, d=3, share=1.0, standardize=True, seed=0)
    def test_some_weight_is_positive_and_none_is_above_the_ceiling(self, n, d, share, standardize, seed):
        # the solver's stopping test and the offset's bracket rely on both
        nu = 1.0 if share == 1.0 else 1.0 / n + share * (1.0 - 1.0 / n)
        assume(nu >= 1.0 / n)
        try:
            model = fit(gaussian_cloud(n, d, seed=seed), OcsvmConfig(nu=nu, standardize=standardize))
        except NotConvergedError:
            # centred rows near nu = 1/n can need more than the default budget
            # (8 x 7 at seed 0 takes 10681 steps); convergence is not checked here
            reject()
        alpha, c_box = model.dual_alphas, 1.0 / (nu * n)
        assert (alpha > 0.0).any() and (alpha <= c_box).all()
        if nu == 1.0:
            assert (alpha == c_box).all() and model.diagnostics.iterations == 0

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
    """Every output of a fit as exact bits, or the type and message of the error it raised."""
    try:
        model = fit(x, config)
    except PadevalError as exc:
        return type(exc), str(exc)
    diag = model.diagnostics
    return (
        model.w.view(np.uint64).tolist(),
        np.float64(model.rho).view(np.uint64),
        model.dual_alphas.view(np.uint64).tolist(),
        np.asarray(diag.objective_trace, dtype=np.float64).view(np.uint64).tolist(),
        diag.iterations,
        np.float64(diag.kkt_residual).view(np.uint64),
        (diag.n_support, diag.n_margin_errors, diag.degenerate_data),
    )


def _draw_rows(rng, n, d, draw):
    if draw == "normal":
        return rng.normal(3.0, 1.0, (n, d))
    if draw == "lattice":
        # lattice rows repeat and tie, which exercises the lowest-index tie breaks
        return rng.integers(-2, 3, (n, d)).astype(np.float64)
    if draw == "far":
        # sorted so that the initial weights sit on the least typical rows;
        # the last row's Gram entries overflow, so the fit refuses the rows
        x = rng.normal(3.0, 1.0, (n, d))
        x = x[np.argsort(x.sum(axis=1), kind="stable")]
        x[-1] = 1e308
        return x
    # rows near 1e155: Gram entries overflow to +-inf, so the fit refuses the rows
    return rng.normal(0.0 if draw == "huge" else 3.0, 1.0, (n, d)) * 1e155


def _cached_fit_bits(x, config, branches=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ocsvm, "_smo", functools.partial(oracles.smo_cached, branches=branches))
        return _fit_bits(x, config)


class TestSolverWithoutColumnCache:
    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["normal", "lattice", "huge", "huge_positive", "far"]),
        st.one_of(
            st.floats(min_value=0.05, max_value=1.0),
            st.just(1.0),
            st.integers(min_value=1, max_value=300),  # nu = k / n: nu * n is k, or a hair off it
        ),
        st.booleans(),
        st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
    )
    def test_matches_the_cached_solver_bit_for_bit(self, n, d, seed, draw, nu, standardize, max_iter):
        if isinstance(nu, int):
            nu = min(nu, n) / n
        assume(nu >= 1.0 / n)
        x = _draw_rows(np.random.default_rng(seed), n, d, draw)
        config = OcsvmConfig(nu=nu, standardize=standardize, max_iter=max_iter)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _fit_bits(x, config) == _cached_fit_bits(x, config)

    def test_every_clip_branch_is_compared(self):
        branches = collections.Counter()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for draw in ("normal", "lattice"):
                x = _draw_rows(rng, 60, 3, draw)
                # nu * n is no integer, so one row starts part-filled: steps
                # that empty a row (the alpha_j clip) are common then
                config = OcsvmConfig(nu=(0.105, 0.33, 0.91)[seed % 3], standardize=False)
                assert _fit_bits(x, config) == _cached_fit_bits(x, config, branches)
        assert set(branches) == {"room_i", "alpha_j", "interior"}, branches

    def test_overflowing_draws_are_refused_before_the_solver(self):
        def no_solver(*args):
            raise AssertionError("the solver ran")

        for seed in range(12):
            for draw in ("huge", "huge_positive", "far"):
                x = _draw_rows(np.random.default_rng(seed), 20, 1 + seed % 3, draw)
                for standardize in (False, True):
                    config = OcsvmConfig(nu=(0.105, 0.33, 0.91, 0.5)[seed % 4], standardize=standardize)
                    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                        mp.setattr(ocsvm, "_smo", no_solver)
                        warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
                        assert _fit_bits(x, config) == (ValidationError, ocsvm._OVERFLOW)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["normal", "lattice"]),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_rows_just_under_the_norm_limit_fit_as_the_cached_solver(self, n, d, seed, draw, nu):
        assume(nu >= 1.0 / n)
        x = _draw_rows(np.random.default_rng(seed), n, d, draw)
        norms = np.einsum("ij,ij->i", x, x)
        assume(norms.max() > 0.0)
        # a tolerance on the scale of the rows, so that the fit can converge
        config = OcsvmConfig(nu=nu, tol=1e-9 * ocsvm._MAX_SQUARED_NORM, standardize=False)
        root = np.sqrt(ocsvm._MAX_SQUARED_NORM / norms.max())
        under = x * (root * (1.0 - 2.0**-40))
        over = x * (root * (1.0 + 2.0**-40))
        assert np.einsum("ij,ij->i", under, under).max() <= ocsvm._MAX_SQUARED_NORM
        assert np.einsum("ij,ij->i", over, over).max() > ocsvm._MAX_SQUARED_NORM
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            bits = _fit_bits(under, config)
            assert bits == _cached_fit_bits(under, config)
            assert bits[0] is not ValidationError
            if bits[0] is not NotConvergedError:
                model = fit(under, config)
                outputs = (model.w, model.rho, model.dual_alphas, model.diagnostics.objective_trace)
                assert all(np.isfinite(v).all() for v in outputs)
            assert _fit_bits(over, config) == (ValidationError, ocsvm._OVERFLOW)

    def test_steps_whose_gains_all_underflow_match_the_cached_solver(self):
        # Gram entries near 1e-179 make every gain gap^2 / eta underflow to 0,
        # so every step takes the partner from the zero-gain fallback; the
        # tiny weights on the lowest rows make that choice matter, as a step
        # then empties the partner (the alpha_j clip)
        n, nu = 20, 0.33
        c_box = 1.0 / (nu * n)
        k = int(np.floor(nu * n))
        for seed in range(3):
            x = np.random.default_rng(seed).normal(3.0, 1.0, (n, 3)) * 1e-90
            assert (2.0 * np.einsum("ij,ij->i", x, x).max()) ** 2 / ocsvm._ETA_FLOOR == 0.0
            start = ocsvm._initial_alphas(n, c_box, nu)
            start[k + 1 :] = np.arange(1, n - k) * 1e-170
            start = start[::-1].copy()
            branches = collections.Counter()
            runs = []
            for smo in (ocsvm._smo, functools.partial(oracles.smo_cached, branches=branches)):
                alpha = start.copy()  # both solvers update alpha in place
                with pytest.raises(NotConvergedError) as err:
                    smo(x, alpha, c_box, 1e-300, 200)
                runs.append((alpha.view(np.uint64).tolist(), err.value.iterations, err.value.kkt_residual))
            assert runs[0] == runs[1]
            assert branches["alpha_j"] > 0

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
    @pytest.mark.parametrize("nu", [0.0, -0.5, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_nu_range(self, nu):
        with pytest.raises(InfeasibleNuError):
            fit(gaussian_cloud(10, 2, seed=0), OcsvmConfig(nu=nu))

    def test_nu_times_n_below_one(self):
        with pytest.raises(InfeasibleNuError):
            fit(gaussian_cloud(2, 2, seed=0), OcsvmConfig(nu=0.4))
        fit(gaussian_cloud(2, 2, seed=0), OcsvmConfig(nu=0.5))  # boundary is fine

    @pytest.mark.parametrize("n", [49, 98, 103])
    @pytest.mark.parametrize("standardize", [False, True])
    def test_nu_one_over_n_is_accepted(self, n, standardize):
        nu = 1.0 / n
        assert nu * n < 1.0  # the product rounds below 1 at these n
        x = gaussian_cloud(n, 4, seed=n)
        model = fit(x, OcsvmConfig(nu=nu, standardize=standardize))
        assert model.diagnostics.kkt_residual <= 1e-6
        with pytest.raises(InfeasibleNuError, match=r"^nu \* n must be at least 1"):
            fit(x, OcsvmConfig(nu=np.nextafter(nu, 0.0), standardize=standardize))

    def test_a_tol_below_the_gradient_rounding_stops_at_the_third_refresh(self):
        # gradients near 1e11 round in steps far above the default tol of 1e-6, so
        # three exact refreshes end the fit long before the budget of 100 n steps
        x = np.random.default_rng(20).normal(3.0, 1.0, (5, 8)) * 1e5
        stops = []
        for max_iter in (None, 10**6):
            with pytest.raises(NotConvergedError) as err:
                fit(x, OcsvmConfig(nu=0.3, standardize=False, max_iter=max_iter))
            assert err.value.iterations < 100 * 5
            assert err.value.kkt_residual > 1e-6
            stops.append(str(err.value))
        assert stops[0] == stops[1]  # a larger budget does not help

    def test_a_step_that_moves_no_weight_ends_the_fit_as_its_budget_would(self):
        # rows of -2**63 make pair curvatures near 8.5e37, so the gap of 3 gives steps
        # below the rounding of the weights: the first step moves none, every later one
        # would repeat it, and a budget of 10**400 steps ran for ever
        tiny = -(2.0**-1022)
        x = np.array([[-188.04337475994544, -3.0], [0.5, 5e-324], [tiny, -3.0], [tiny, 0.0],
                      [tiny, -(2.0**63)], [-(2.0**63), 0.0]])
        config = OcsvmConfig(tol=2.0**-14, standardize=False)
        assert _fit_bits(x, config) == _cached_fit_bits(x, config)  # the default budget of 600 steps
        residuals = []
        for max_iter in (600, 10**6, 10**400):
            start = time.perf_counter()
            with pytest.raises(NotConvergedError) as err:
                fit(x, dataclasses.replace(config, max_iter=max_iter))
            assert time.perf_counter() - start < 5.0  # 10**6 steps took about 18 s
            assert err.value.iterations == max_iter
            residuals.append(err.value.kkt_residual)
        assert residuals == residuals[:1] * 3

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            fit(np.ones((1, 3)), OcsvmConfig())

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(ValidationError, match=r"^training features must be 2-D, got shape \(5,\)$"):
            fit(np.ones(5))

    def test_non_finite_rows_rejected(self):
        x = gaussian_cloud(5, 2, seed=0)
        x[2, 1] = np.nan
        with pytest.raises(ValidationError):
            fit(x, OcsvmConfig())

    @pytest.mark.parametrize(
        "x, standardize",
        [
            pytest.param(np.full((4, 2), 1e200), False, id="degenerate"),
            pytest.param(np.array([[1e200, 0.0], [-1e200, 1.0], [1e200, 2.0]]), False, id="solver"),
            pytest.param(np.array([[1e200, 0.0], [-1e200, 1.0], [1e200, 2.0]]), True, id="standardizer"),
            # finite weights and gradients near 1.2e308, whose midpoint offset overflows
            pytest.param(np.array([[7.4e153, 8.6e153], [8.4e153, 8.3e153]]), False, id="offset"),
        ],
    )
    def test_overflowing_rows_rejected_without_a_warning(self, x, standardize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise
            with pytest.raises(ValidationError, match="^training rows are too large"):
                fit(x, OcsvmConfig(nu=0.5, standardize=standardize))

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

    def test_non_finite_sample_rejected(self):
        model = OcsvmModel(w=np.array([1.0, 0.0]), rho=0.5, nu=0.5, dual_alphas=np.array([1.0]))
        with pytest.raises(ValidationError, match="^sample contains non-finite values$"):
            decision_value(model, [np.nan, 0.0])

    def test_dimension_mismatch(self):
        model = fit(gaussian_cloud(10, 3, seed=0))
        with pytest.raises(DimensionMismatchError):
            decision_value(model, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            score_matrix(model, FeatureMatrix(sample_ids=("a",), values=[[1.0, 2.0]]),
                         PresentationLabel.BONA_FIDE)

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_batch_equals_per_row(self, seed, standardize):
        model = fit(gaussian_cloud(25, 4, seed=seed), OcsvmConfig(standardize=standardize))
        assert (model.mean is not None) is standardize
        probes = FeatureMatrix(
            sample_ids=tuple(f"p{k}" for k in range(8)),
            values=gaussian_cloud(8, 4, seed=seed + 100) * 10.0 ** np.arange(-2, 2),
        )
        scored = score_matrix(model, probes, PresentationLabel.ATTACK)
        assert scored.polarity is Polarity.HIGHER_IS_BONA_FIDE
        assert scored.sample_ids == probes.sample_ids
        assert scored.labels == (PresentationLabel.ATTACK,) * probes.n
        singles = np.array([decision_value(model, row) for row in probes.values])
        assert scored.values.view(np.int64).tolist() == singles.view(np.int64).tolist()

    @pytest.mark.parametrize("standardize", [True, False])
    def test_overflowing_decision_value_is_refused_without_a_warning(self, standardize):
        mean, scale = (np.zeros(2), np.ones(2)) if standardize else (None, None)
        model = OcsvmModel(w=np.array([1e300, 0.0]), rho=0.0, nu=0.5, dual_alphas=np.array([1.0]),
                           mean=mean, scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decision_value(model, [1.0, 0.0]) == 1e300
            with pytest.raises(ValidationError, match="^non-finite decision value inf$"):
                decision_value(model, [1e10, 0.0])

    def test_per_id_labels(self):
        x = gaussian_cloud(6, 2, seed=2)
        model = fit(x)
        probes = FeatureMatrix(sample_ids=("a", "b"), values=gaussian_cloud(2, 2, seed=4))
        labels = {"a": TrialLabel.MATED, "b": TrialLabel.NONMATED}
        scored = score_matrix(model, probes, labels)
        assert scored.labels == (TrialLabel.MATED, TrialLabel.NONMATED)

    def test_missing_label_rejected(self):
        model = fit(gaussian_cloud(6, 2, seed=2))
        probes = FeatureMatrix(sample_ids=("a", "b"), values=gaussian_cloud(2, 2, seed=4))
        with pytest.raises(ValidationError):
            score_matrix(model, probes, {"a": TrialLabel.MATED})

    def test_foreign_labels_and_overflowing_scores_fail_as_in_the_constructor(self):
        model = OcsvmModel(w=np.array([1e300, 0.0]), rho=0.0, nu=0.5, dual_alphas=np.array([1.0]))
        probes = FeatureMatrix(sample_ids=("a", "b"), values=[[1.0, 0.0], [1e10, 0.0]])
        with pytest.raises(ValidationError, match="^label must be a PresentationLabel or TrialLabel, got 'mated'$"):
            score_matrix(model, probes, {"a": TrialLabel.MATED, "b": "mated"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is refused without a numpy warning
            with pytest.raises(NonFiniteScoreError, match="^non-finite score inf for sample_id 'b'$"):
                score_matrix(model, probes, PresentationLabel.ATTACK)

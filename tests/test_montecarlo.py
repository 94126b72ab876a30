import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jcas_lab import filtering, montecarlo
from jcas_lab.errors import DimensionError, ParameterError
from jcas_lab.cli import mc_row, per_step_lines, write_lines
from jcas_lab.montecarlo import empirical_block_distortion, expected_covariance_mc
from jcas_lab.riccati import BeamPolicy, mb_fixed_point, sbar, vbar
from jcas_lab.statespace import GaussMarkovModel

import mc_reference
from conftest import BENCH_2X2, quad_mb_root


class TestExpectedCovarianceMc:
    def test_always_sensing_is_exact(self, unstable_model):
        rep = expected_covariance_mc(unstable_model, 1.0, 50, 500, seed=1, critical=math.nan)
        assert rep.std_error == 0.0
        assert rep.empirical_mean_trace == rep.v_bound_trace
        assert rep.verdict == "within"

    def test_never_sensing_is_exact(self, stable_model):
        rep = expected_covariance_mc(stable_model, 0.0, 50, 300, seed=2, critical=math.nan)
        assert rep.std_error == 0.0
        assert rep.empirical_mean_trace == rep.s_bound_trace
        assert rep.empirical_mean_trace == rep.v_bound_trace
        assert rep.verdict == "within"

    def test_sandwich_mid_lambda(self, unstable_model, stable_model):
        for model in (unstable_model, stable_model):
            rep = expected_covariance_mc(model, 0.5, 30, 2000, seed=3, critical=math.nan)
            lo, hi = rep.band()
            assert lo <= rep.empirical_mean_trace <= hi
            assert rep.verdict == "within"

    def test_rerun_deterministic(self, unstable_model):
        a = expected_covariance_mc(
            unstable_model, 0.6, 25, 400, seed=9, per_step=True, critical=math.nan
        )
        b = expected_covariance_mc(
            unstable_model, 0.6, 25, 400, seed=9, per_step=True, critical=math.nan
        )
        assert a.empirical_mean_trace == b.empirical_mean_trace
        assert a.std_error == b.std_error
        assert np.array_equal(a.per_step_mean, b.per_step_mean)

    def test_scalar_model_rejects_matrix_p0(self, stable_model):
        with pytest.raises(DimensionError):
            expected_covariance_mc(
                stable_model, 0.5, 10, 10, seed=0, p0=np.eye(2), critical=math.nan
            )

    def test_negative_p0_rejected(self, stable_model):
        with pytest.raises(ParameterError):
            expected_covariance_mc(stable_model, 0.5, 10, 10, seed=0, p0=[[-4.0]], critical=math.nan)

    def test_matrix_model_rejects_wrong_p0_shape(self, matrix_model):
        with pytest.raises(DimensionError):
            expected_covariance_mc(
                matrix_model, 0.5, 10, 10, seed=0, p0=np.eye(3), critical=math.nan
            )

    def test_single_trial_infinite_band(self, stable_model):
        rep = expected_covariance_mc(stable_model, 0.5, 10, 1, seed=4, critical=math.nan)
        assert rep.infinite_band
        assert math.isinf(rep.std_error)
        assert rep.verdict == "within"

    def test_matrix_model_runs(self, matrix_model):
        rep = expected_covariance_mc(matrix_model, 0.5, 20, 200, seed=5, critical=math.nan)
        assert rep.verdict == "within"

    def test_near_critical_flag(self, unstable_model):
        lam_c = 1.0 - 1.0 / 1.15**2
        hot = expected_covariance_mc(unstable_model, 0.26, 10, 50, seed=6, critical=lam_c)
        cold = expected_covariance_mc(unstable_model, 0.9, 10, 50, seed=6, critical=lam_c)
        assert hot.near_critical and not cold.near_critical

    def test_lambda_validated(self, stable_model):
        with pytest.raises(ParameterError):
            expected_covariance_mc(stable_model, 1.2, 10, 10, seed=0)

    def test_overflowing_cell_reports_inf_within(self, unstable_model):
        # never sensed, a = -1.15 overflows P_n to +inf well before 3000 steps;
        # overflow warnings may stay, but nothing may compute inf - inf or inf / inf
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.filterwarnings("error", message="invalid value", category=RuntimeWarning)
            rep = expected_covariance_mc(
                unstable_model, 0.0, 3000, 50, seed=1, per_step=True, critical=math.nan
            )
        assert rep.empirical_mean_trace == rep.std_error == math.inf
        assert rep.s_bound_trace == rep.v_bound_trace == math.inf
        assert rep.verdict == "within" and not rep.infinite_band
        assert rep.band() == (-math.inf, math.inf)
        assert np.isposinf(rep.per_step_mean[-1]) and not np.isnan(rep.per_step_mean).any()
        _, _, per_step = mc_reference.covariance_mc(unstable_model, 0.0, 100, 50, 1)
        assert np.array_equal(rep.per_step_mean[:101], per_step)

    def test_overflow_then_sensing_is_not_nan(self):
        # a = 1e30 overflows P to +inf within a few erasures; a sensing step
        # from +inf takes the Riccati step's limit a^2 r / c^2 + q, not nan
        model = GaussMarkovModel.scalar(1e30, 1.0, 0.2, 1.5)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.filterwarnings("error", message="invalid value", category=RuntimeWarning)
            rep = expected_covariance_mc(model, 0.5, 30, 200, seed=1, per_step=True, critical=math.nan)
        assert mc_row(rep).split(",")[3:8] == ["inf", "inf", "inf", "inf", "within"]
        assert not np.isnan(rep.per_step_mean).any()

    def test_per_step_traces(self, stable_model, tmp_path):
        rep = expected_covariance_mc(
            stable_model, 0.5, 15, 100, seed=7, per_step=True, critical=math.nan
        )
        assert len(rep.per_step_mean) == 16
        assert rep.per_step_s[0] == rep.per_step_v[0] == rep.per_step_mean[0]
        path = tmp_path / "steps.csv"
        write_lines(path, per_step_lines(rep, "test"))
        lines = path.read_text().strip().split("\n")
        assert lines[1] == "i,mean_trace,s_bound,v_bound"
        assert len(lines) == 2 + 16

    def test_bound_iterates_not_kept(self, stable_model):
        # the S_n and V_n bounds keep one float trace per step, not the
        # horizon + 1 covariance matrices (about 280 B a step)
        peaks = []
        for horizon in (1000, 4000):
            tracemalloc.start()
            try:
                expected_covariance_mc(stable_model, 0.5, horizon, 1, seed=5, critical=math.nan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 3000 * 64

    def test_csv_row_fields(self, stable_model):
        rep = expected_covariance_mc(stable_model, 0.5, 10, 50, seed=8, critical=math.nan)
        row = mc_row(rep)
        assert row.split(",")[7] == "within"


@pytest.mark.parametrize("shape", [(200, 5001), (30, 256), (30, 255), (7, 33), (10000, 1), (10000,), (500, 2, 2)])
def test_centered_mean_adds_in_trial_order(shape):
    # wide trials are added one row at a time, narrow ones by accumulate
    # over row chunks; both give the trial-order loop's bits
    rng = np.random.default_rng(list(shape))
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    want = mc_reference.centered_mean(list(values))
    assert np.asarray(montecarlo._centered_mean(values)).tobytes() == np.asarray(want).tobytes()


class TestFarBelowCritical:
    """Cells far below the critical lam, where runs of hundreds of erasures
    leave P huge before a sensing step.  The subtracted step cancelled
    there: on (3, 1e3) at lam = 0.01 it gave negative covariances and 463
    of 801 per-step means were nan, and on a = -1.15 it returned 0 once P
    passed 1e17, about 146 erasures in a row.  The one-step form keeps
    every covariance at least q, and a mean is finite wherever no trial's
    open-loop run overflowed (9^323 does on a = 3)."""

    @pytest.mark.parametrize("a, c, horizon", [(3.0, 1e3, 800), (-1.15, 1.0, 2000)])
    def test_every_covariance_at_least_q(self, a, c, horizon):
        model = GaussMarkovModel.scalar(a, c, 0.2, 1.5)
        with np.errstate(over="ignore"):
            rep = expected_covariance_mc(model, 0.01, horizon, 50, seed=1, per_step=True, critical=math.nan)
            cell = filtering.covariance_trials(model, 0.01, horizon, 50, 1, model.Q)
            traces = np.array([np.trace(p, axis1=1, axis2=2) for p in cell])
        # the cell holds the long erasure runs that broke the subtracted form
        assert traces.max() > 1e17
        # nan >= q is False, so neither a nan nor a negative covariance passes
        assert (traces >= 0.2).all()
        assert (rep.per_step_mean >= 0.2).all()
        assert np.isfinite(rep.per_step_mean[np.isfinite(traces).all(axis=1)]).all()


class TestBlockDistortion:
    def test_noiseless_perfect_init(self):
        model = GaussMarkovModel.scalar(-0.95, 1.0, 0.0, 1e-12)
        rep = empirical_block_distortion(
            model, BeamPolicy.switching(1.0), 50, 20, seed=1, s0_mean=[0.0], s0_cov=[[0.0]]
        )
        assert rep.mean < 1e-12

    def test_always_sensing_matches_steady_state(self, stable_model):
        fp = quad_mb_root(-0.95, 1.0, 0.2, 1.5, 1.0)
        rep = empirical_block_distortion(
            stable_model,
            BeamPolicy.switching(1.0),
            800,
            300,
            seed=2,
            s0_mean=[0.0],
            s0_cov=[[fp]],
        )
        assert abs(rep.mean - fp) <= 3.0 * rep.std_error

    def test_multibeam_matches_steady_state(self, stable_model):
        fp = float(np.trace(mb_fixed_point(2.0, stable_model)))
        rep = empirical_block_distortion(
            stable_model,
            BeamPolicy.multibeam(2.0),
            800,
            300,
            seed=3,
            s0_mean=[0.0],
            s0_cov=[[fp]],
        )
        assert abs(rep.mean - fp) <= 3.0 * rep.std_error

    def test_deterministic(self, stable_model):
        kw = dict(s0_mean=[0.0], s0_cov=[[1.0]])
        a = empirical_block_distortion(stable_model, BeamPolicy.multibeam(2.0), 50, 40, 5, **kw)
        b = empirical_block_distortion(stable_model, BeamPolicy.multibeam(2.0), 50, 40, 5, **kw)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert np.array_equal(a.per_index_mean, b.per_index_mean)

    def test_per_index_shape(self, stable_model):
        rep = empirical_block_distortion(
            stable_model, BeamPolicy.switching(0.7), 30, 25, seed=6, s0_mean=[0.0], s0_cov=[[1.0]]
        )
        assert rep.per_index_mean.shape == (31,)
        assert rep.ci3()[0] <= rep.mean <= rep.ci3()[1]

    @staticmethod
    def assert_in_switching_band(rep, model, lam):
        lo = float(np.trace(sbar(lam, model))) - 3.0 * rep.std_error
        hi = float(np.trace(vbar(lam, model))) + 3.0 * rep.std_error
        assert lo <= rep.mean <= hi

    def test_unstable_switching_keeps_the_error(self, unstable_model):
        # a = -1.15: s_i and shat_i grow like 1.15^i, and a raw-state filter
        # rounds their difference to 0 after about 250 steps
        rep = empirical_block_distortion(
            unstable_model, BeamPolicy.switching(0.7), 2000, 200, seed=1, s0_mean=[0.0], s0_cov=[[1.0]]
        )
        self.assert_in_switching_band(rep, unstable_model, 0.7)
        assert np.all(rep.per_index_mean[-100:] != 0.0)

    def test_overflowing_block_reports_inf(self, unstable_model):
        # never sensed, a = -1.15 overflows |e_i|^2 to +inf well before 3000
        # steps; like an overflowing covariance cell, the standard error is
        # inf, and nothing may compute inf - inf
        with np.errstate(over="ignore"):
            rep = empirical_block_distortion(
                unstable_model, BeamPolicy.switching(0.0), 3000, 4, seed=1, s0_mean=[0.0], s0_cov=[[1.0]]
            )
        assert rep.mean == rep.std_error == math.inf
        assert rep.ci3() == (-math.inf, math.inf)
        assert np.isposinf(rep.per_index_mean[-1]) and not np.isnan(rep.per_index_mean).any()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unstable_2x2_switching_in_band(self, seed):
        # the benchmark 2x2 model has eigenvalue 1.05; lost digits would
        # inflate the standard error far past 0.1
        rep = empirical_block_distortion(
            BENCH_2X2, BeamPolicy.switching(0.7), 1000, 20, seed, s0_mean=[0.0, 0.0], s0_cov=np.eye(2)
        )
        assert rep.std_error < 0.1
        self.assert_in_switching_band(rep, BENCH_2X2, 0.7)

    def test_rejects_bad_initial_condition(self, matrix_model):
        policy = BeamPolicy.switching(0.5)
        with pytest.raises(DimensionError):
            empirical_block_distortion(matrix_model, policy, 10, 5, 1, [0.0], np.eye(2))
        with pytest.raises(DimensionError):
            empirical_block_distortion(matrix_model, policy, 10, 5, 1, [0.0, 0.0], np.eye(3))
        with pytest.raises(ParameterError):
            empirical_block_distortion(matrix_model, policy, 10, 5, 1, [0.0, 0.0], -np.eye(2))
        with pytest.raises(ParameterError):
            empirical_block_distortion(matrix_model, policy, 0, 5, 1, [0.0, 0.0], np.eye(2))


MODELS = ("stable_model", "unstable_model", "matrix_model", "correlated_model")
#: a 3x3 model with k = 2 as well, whose w and v draw blocks differ in width
BLOCK_MODELS = MODELS + ("wide_model",)


#: with SEGMENT = 8: below, equal to, a one-step tail past, and not a multiple of it
SHORT_SEGMENT = 8
HORIZONS = (5, 8, 17, 19)


class TestBatchedEqualsPerTrial:
    """The batched engine reproduces the per-trial loops bit for bit."""

    @pytest.fixture
    def short_segments(self, monkeypatch):
        monkeypatch.setattr(filtering, "SEGMENT", SHORT_SEGMENT)

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("trials", [1, 6])
    def test_covariance_cell(self, request, short_segments, model_name, lam, trials):
        model = request.getfixturevalue(model_name)
        for horizon in HORIZONS:
            rep = expected_covariance_mc(
                model, lam, horizon, trials, seed=31, per_step=True, critical=math.nan
            )
            mean, se, per_step = mc_reference.covariance_mc(model, lam, horizon, trials, 31)
            assert rep.empirical_mean_trace == mean
            assert rep.std_error == se
            assert np.array_equal(rep.per_step_mean, per_step)
            assert rep.infinite_band == (trials == 1)

    @pytest.mark.parametrize("model_name", BLOCK_MODELS)
    @pytest.mark.parametrize(
        "policy",
        [BeamPolicy.switching(lam) for lam in (0.0, 0.6, 1.0)]
        + [BeamPolicy.multibeam(g) for g in (1.0, 2.0, math.inf)],
        ids=lambda p: f"{p.kind}-{p.value}",
    )
    @pytest.mark.parametrize("trials", [1, 4])
    def test_block_distortion(self, request, short_segments, model_name, policy, trials):
        model = request.getfixturevalue(model_name)
        s0 = np.linspace(-0.5, 0.5, model.m)
        p0 = 0.7 * np.eye(model.m)
        for horizon in HORIZONS:
            rep = empirical_block_distortion(model, policy, horizon, trials, 23, s0, p0)
            mean, se, per_index = mc_reference.block_distortion(
                model, policy, horizon, trials, 23, s0, p0
            )
            assert rep.mean == mean
            assert rep.std_error == se
            assert np.array_equal(rep.per_index_mean, per_index)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_default_segment_tail(self, request, model_name):
        model = request.getfixturevalue(model_name)
        horizon = 2 * filtering.SEGMENT + 1
        s0, p0 = np.zeros(model.m), np.eye(model.m)
        policy = BeamPolicy.switching(0.7)
        rep = empirical_block_distortion(model, policy, horizon, 3, 8, s0, p0)
        mean, se, per_index = mc_reference.block_distortion(model, policy, horizon, 3, 8, s0, p0)
        assert rep.mean == mean and rep.std_error == se
        assert np.array_equal(rep.per_index_mean, per_index)
        cell = expected_covariance_mc(model, 0.7, horizon, 3, 8, per_step=True, critical=math.nan)
        ref_mean, ref_se, ref_steps = mc_reference.covariance_mc(model, 0.7, horizon, 3, 8)
        assert cell.empirical_mean_trace == ref_mean and cell.std_error == ref_se
        assert np.array_equal(cell.per_step_mean, ref_steps)


def test_2x2_means_pinned():
    # a covariance cell and a switching block of the masked matrix step; the
    # scipy-free CI step asserts these same values
    cell = expected_covariance_mc(BENCH_2X2, 0.5, 50, 200, seed=1)
    assert cell.verdict == "within"
    assert cell.empirical_mean_trace == 1.1755781738531237
    block = empirical_block_distortion(BENCH_2X2, BeamPolicy.switching(0.7), 1000, 20, 1, [0.0, 0.0], np.eye(2))
    assert block.mean == 1.0088889904537472


class TestSeedIndependence:
    """Adjacent seeds give independent trials, not a permutation of the same ones.

    Per-trial seeds seed XOR t would make the seeds 1000 and 1001 with 2048
    trials both run the trial seeds 0..2047, in another order.
    """

    SEEDS, TRIALS = (1000, 1001), 2048

    def test_covariance_cells(self, unstable_model):
        finals = []
        for seed in self.SEEDS:
            *_, p = filtering.covariance_trials(
                unstable_model, 0.5, 30, self.TRIALS, seed, np.array([[0.2]])
            )
            finals.append(np.sort(np.trace(p, axis1=1, axis2=2)))
        assert not np.array_equal(*finals)

    def test_block_distortion_trials(self, stable_model):
        blocks = []
        for seed in self.SEEDS:
            run = filtering.filter_trials(
                stable_model, BeamPolicy.switching(0.5), 10, self.TRIALS, seed, [0.0], [[1.0]]
            )
            ((_, errors, *_),) = run
            blocks.append(np.sort(np.mean(np.sum(errors ** 2, axis=2), axis=0)))
        assert not np.array_equal(*blocks)

import math

import numpy as np
import pytest

from jcas_lab import filtering
from jcas_lab.errors import NumericalError, ParameterError
from jcas_lab.filtering import (
    FilterState,
    PREDICTED,
    kalman_gain,
    kalman_step,
    measurement_update,
    run_filter,
    write_trajectory_csv,
)
from jcas_lab.riccati import BeamPolicy, gamma_bs, innovation, mb_fixed_point, riccati_step
from jcas_lab.statespace import GaussMarkovModel, lyapunov_sequence, lyapunov_step

import mc_reference
from conftest import random_psd


class TestRunFilterTruth:
    """The simulated truth s_i, independent of the filter."""

    def test_zero_process_noise_is_deterministic_decay(self):
        model = GaussMarkovModel.scalar(-0.95, 1.0, 0.0, 1.5)
        traj = run_filter(model, BeamPolicy.multibeam(math.inf), 6, [2.0], [[0.0]], seed=1)
        expected = 2.0 * (-0.95) ** np.arange(7)
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-12)

    def test_repeat_call_identical(self, unstable_model):
        out1 = run_filter(unstable_model, BeamPolicy.switching(0.6), 51, [0.3], [[1.0]], seed=99)
        out2 = run_filter(unstable_model, BeamPolicy.switching(0.6), 51, [0.3], [[1.0]], seed=99)
        assert np.array_equal(out1.states, out2.states)
        for z1, z2 in zip(out1.measurements, out2.measurements):
            assert (z1 is None and z2 is None) or np.array_equal(z1, z2)

    def test_erased_steps_have_no_measurement(self, unstable_model):
        never = run_filter(unstable_model, BeamPolicy.multibeam(math.inf), 40, [0.0], [[1.0]], seed=5)
        always = run_filter(unstable_model, BeamPolicy.multibeam(1.0), 40, [0.0], [[1.0]], seed=5)
        assert all(z is None for z in never.measurements)
        assert always.measurements[0] is None
        assert all(z is not None for z in always.measurements[1:])
        # a switching run predicts without an update exactly where it records no measurement
        traj = run_filter(unstable_model, BeamPolicy.switching(0.5), 40, [0.0], [[1.0]], seed=5)
        est = traj.estimates[:, 0]
        erased = [z is None for z in traj.measurements[:-1]]
        assert erased == list(est[1:] == -1.15 * est[:-1])
        assert 5 < sum(erased) < 35

    def test_two_step_variance_matches_propagation(self, unstable_model):
        # Var(s_2) = A^2 Q + Q = 0.4645 with s_0 = 0, over the trials of one run
        n_trials = 10_000
        run = filtering.filter_trials(
            unstable_model, BeamPolicy.multibeam(math.inf), 2, n_trials, 42, [0.0], [[0.0]]
        )
        ((_, states, *_),) = run
        vals = states[2, :, 0]
        target = (-1.15) ** 2 * 0.2 + 0.2
        se = target * math.sqrt(2.0 / (n_trials - 1))
        assert abs(np.var(vals, ddof=1) - target) < 3 * se


#: the benchmark 2x2 model (unstable, one output)
BENCH_2X2 = GaussMarkovModel(A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=0.1 * np.eye(2), R=[[0.5]])


class TestRunFilterEqualsReference:
    """run_filter reproduces the per-trial loops of mc_reference bit for bit."""

    @pytest.mark.parametrize(
        "model",
        [
            GaussMarkovModel.scalar(1.15, 1.0, 0.2, 1.5),
            "unstable_model",
            "stable_model",
            BENCH_2X2,
            "correlated_model",
            "wide_model",
        ],
        ids=["scalar+1.15", "scalar-1.15", "scalar-0.95", "bench2x2", "correlated2x2", "wide3x3"],
    )
    @pytest.mark.parametrize(
        "policy",
        [BeamPolicy.switching(lam) for lam in (0.0, 0.6, 1.0)]
        + [BeamPolicy.multibeam(g) for g in (1.0, 2.0, math.inf)],
        ids=lambda p: f"{p.kind}-{p.value}",
    )
    def test_fields_equal(self, request, model, policy):
        if isinstance(model, str):
            model = request.getfixturevalue(model)
        s0 = np.linspace(-0.5, 0.5, model.m)
        p0 = 0.7 * np.eye(model.m)
        # around two draw segments (2 x SEGMENT = 500 steps): below, at, one-step tail, past
        for horizon in (1, 2, 499, 500, 501, 1203):
            traj = run_filter(model, policy, horizon, s0, p0, seed=23 + horizon)
            ref = mc_reference.filter_trial(model, policy, horizon, s0, p0, 23 + horizon)
            for field in ("states", "estimates", "covariances", "gammas", "per_letter_distortions"):
                got, want = getattr(traj, field), getattr(ref, field)
                assert got.shape == want.shape and np.array_equal(got, want), field
            assert len(traj.measurements) == horizon + 1
            for z, z_ref in zip(traj.measurements, ref.measurements):
                assert (z is None) == (z_ref is None)
                assert z is None or (z.shape == z_ref.shape and np.array_equal(z, z_ref))


class TestFilterTrials:
    """Trial t of a batched run is column t of its draw blocks."""

    @pytest.mark.parametrize(
        "model_name", ["stable_model", "unstable_model", "matrix_model", "correlated_model"]
    )
    @pytest.mark.parametrize(
        "policy",
        [BeamPolicy.switching(0.6), BeamPolicy.multibeam(2.0)],
        ids=lambda p: f"{p.kind}-{p.value}",
    )
    def test_trial_is_column(self, request, monkeypatch, model_name, policy):
        # segments of 8 steps: the 19-step run crosses two segment boundaries
        monkeypatch.setattr(filtering, "SEGMENT", 8)
        model = request.getfixturevalue(model_name)
        horizon, trials, seed = 19, 4, 2**40 + 5
        s0, p0 = np.linspace(-0.5, 0.5, model.m), 0.7 * np.eye(model.m)
        m, k = model.m, model.k
        states = np.empty((horizon + 1, trials, m))
        estimates = np.empty_like(states)
        covariances = np.empty((horizon + 1, trials, m, m))
        present = np.empty((horizon + 1, trials), bool)
        z = np.empty((horizon + 1, trials, k))
        starts = []
        run = filtering.filter_trials(model, policy, horizon, trials, seed, s0, p0)
        for start, s, e, ps, arrived, zs in run:
            stop = start + len(s)
            starts.append(start)
            states[start:stop], estimates[start:stop], present[start:stop] = s, e, arrived
            z[start:stop] = zs
            for i, p in enumerate(ps, start):
                covariances[i] = np.reshape(p, (-1, m, m))
        assert starts == [0, 9, 17]
        refs = mc_reference.filter_trials(model, policy, horizon, trials, s0, p0, seed)
        for t, traj in enumerate(refs):
            assert np.array_equal(states[:, t], traj.states)
            assert np.array_equal(estimates[:, t], traj.estimates)
            assert np.array_equal(covariances[:, t], traj.covariances)
            assert list(present[:, t]) == [zt is not None for zt in traj.measurements]
            for i, zt in enumerate(traj.measurements):
                assert zt is None or np.array_equal(z[i, t], zt)


class TestKalmanGain:
    def test_scalar_value(self):
        model = GaussMarkovModel.scalar(-1.15, 1.0, 0.2, 1.5)
        k = kalman_gain(model, [[1.0]], 1.0)
        assert k[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_infinite_gamma_zero_gain(self, matrix_model):
        k = kalman_gain(matrix_model, np.eye(2), math.inf)
        assert np.array_equal(k, np.zeros((2, 1)))

    def test_noiseless_limit_identity(self):
        model = GaussMarkovModel(A=np.eye(2) * 0.5, C=np.eye(2), Q=np.eye(2), R=np.eye(2) * 1e-12)
        k = kalman_gain(model, np.eye(2), 1.0)
        np.testing.assert_allclose(k, np.eye(2), atol=1e-9)

    def test_shape(self, matrix_model):
        k = kalman_gain(matrix_model, np.eye(2), 2.0)
        assert k.shape == (2, 1)

    def test_stack_matches_single(self, matrix_model):
        ps = np.stack([np.eye(2), [[2.0, 0.3], [0.3, 1.0]]])
        for gamma in (2.0, math.inf):
            k = kalman_gain(matrix_model, ps, gamma)
            assert k.shape == (2, 2, 1)
            for k_one, p in zip(k, ps):
                assert np.array_equal(k_one, kalman_gain(matrix_model, p, gamma))


class TestInnovationSolve:
    def test_singular_innovation_raises_with_condition(self):
        # R = 0 and P = 0 make S = C P C^T + gamma R zero; Q = 0 keeps P at 0
        model = GaussMarkovModel(A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=np.zeros((2, 2)), R=[[0.0]])
        p = np.zeros((2, 2))
        calls = [
            lambda: riccati_step(model, p, 1.0),
            lambda: gamma_bs(p, 0.5, model),
            lambda: kalman_gain(model, p, 1.0),
            lambda: run_filter(model, BeamPolicy.multibeam(1.0), 3, [0.0, 0.0], p, seed=1),
            lambda: run_filter(model, BeamPolicy.switching(1.0), 3, [0.0, 0.0], p, seed=1),
        ]
        for call in calls:
            with pytest.raises(NumericalError, match="innovation covariance is singular") as info:
                call()
            assert info.value.condition == math.inf

    def test_one_solve_per_filter_step(self, matrix_model, monkeypatch):
        solve = np.linalg.solve
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        horizon = 40
        run_filter(matrix_model, BeamPolicy.multibeam(2.0), horizon, [0.0, 0.0], np.eye(2), seed=5)
        # no measurement at time 0; each later step solves its innovation once
        assert len(calls) == horizon - 1

        calls.clear()
        state = FilterState([0.0, 0.0], np.eye(2), 0)
        measurements = [[0.3], None, [-0.2], [0.1], None]
        for z in measurements:
            state = kalman_step(matrix_model, state, z, math.inf if z is None else 2.0)
        assert len(calls) == sum(z is not None for z in measurements)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_correction_alone_rounds_as_with_gain(self, m):
        # riccati_step (like gamma_bs and the policy iteration) solves S
        # against C P A^T alone, innovation against [C P, C P A^T]; the
        # shared block must come out the same
        rng = np.random.default_rng(m)
        for k in range(1, m + 1):
            model = GaussMarkovModel(
                A=rng.standard_normal((m, m)) / math.sqrt(m),
                C=rng.standard_normal((k, m)),
                Q=random_psd(rng, m),
                R=random_psd(rng, k),
            )
            ps = np.stack([random_psd(rng, m) for _ in range(3)])
            for gamma in (1.0, 2.5):
                assert np.array_equal(riccati_step(model, ps, gamma), innovation(model, ps, gamma)[1])
                assert np.array_equal(
                    riccati_step(model, ps[0], gamma), innovation(model, ps[0], gamma)[1]
                )


class TestKalmanStep:
    def test_open_loop_covariance(self, unstable_model):
        state = FilterState([0.0], [[1.0]], 0)
        out = kalman_step(unstable_model, state, None, math.inf)
        assert out.covariance[0, 0] == pytest.approx(1.5225, abs=1e-12)
        assert out.time_index == 1 and out.phase == PREDICTED

    def test_full_measurement_covariance(self, unstable_model):
        state = FilterState([0.0], [[1.0]], 0)
        out = kalman_step(unstable_model, state, np.array([0.3]), 1.0)
        # 1.3225 + 0.2 - 1.3225/2.5 = 0.9935
        assert out.covariance[0, 0] == pytest.approx(0.9935, abs=1e-12)

    def test_perfect_measurement_kills_covariance(self):
        model = GaussMarkovModel.scalar(-1.15, 1.0, 0.0, 1e-14)
        state = FilterState([0.0], [[1.0]], 0)
        out = kalman_step(model, state, np.array([0.2]), 1.0)
        assert out.covariance[0, 0] < 1e-8

    def test_erasure_contract_enforced(self, unstable_model):
        state = FilterState([0.0], [[1.0]], 0)
        with pytest.raises(ParameterError):
            kalman_step(unstable_model, state, np.array([0.1]), math.inf)
        with pytest.raises(ParameterError):
            kalman_step(unstable_model, state, None, 1.0)

    def test_updated_phase_rejected(self, unstable_model):
        state = FilterState([0.0], [[1.0]], 0, phase="updated")
        with pytest.raises(ParameterError):
            kalman_step(unstable_model, state, None, math.inf)

    def test_psd_preserved_over_randomized_steps(self):
        rng = np.random.default_rng(7)
        scalar = GaussMarkovModel.scalar(-1.15, 1.0, 0.2, 1.5)
        matrix = GaussMarkovModel(
            A=[[0.9, 0.4], [-0.3, 0.8]], C=[[1.0, 0.2]], Q=0.2 * np.eye(2), R=[[0.7]]
        )
        for i in range(10_000):
            if i % 2:
                model, p = scalar, np.array([[rng.uniform(0.01, 50.0)]])
            else:
                model, p = matrix, random_psd(rng, 2)
            gamma = float(rng.choice([1.0, 1.7, 5.0, math.inf]))
            state = FilterState(np.zeros(model.m), p, 0)
            z = None if math.isinf(gamma) else rng.standard_normal(model.k)
            upd = measurement_update(model, state, z, gamma)
            assert np.trace(upd.covariance) <= np.trace(p) + 1e-10
            out = kalman_step(model, state, z, gamma)
            assert np.min(np.linalg.eigvalsh(out.covariance)) >= -1e-9


class TestRunFilter:
    def test_multibeam_tail_reaches_fixed_point(self, stable_model):
        traj = run_filter(stable_model, BeamPolicy.multibeam(1.0), 5000, [0.0], [[1.0]], seed=3)
        fp_trace = float(np.trace(mb_fixed_point(1.0, stable_model)))
        tail = np.trace(traj.covariances[-100:], axis1=1, axis2=2)
        assert abs(np.mean(tail) - fp_trace) < 1e-6

    def test_always_sensing_matches_deterministic_recursion(self, unstable_model):
        p0 = np.array([[1.0]])
        traj = run_filter(unstable_model, BeamPolicy.switching(1.0), 40, [0.0], p0, seed=11)
        assert all(z is not None for z in traj.measurements[1:])
        expected = [p0, lyapunov_step(unstable_model, p0, 1.0)]  # no measurement at time 0
        for _ in range(2, 41):
            expected.append(riccati_step(unstable_model, expected[-1], 1.0))
        for i in range(41):
            assert np.array_equal(traj.covariances[i], expected[i])

    def test_never_sensing_unstable_blows_up(self, unstable_model):
        traj = run_filter(unstable_model, BeamPolicy.switching(0.0), 99, [0.0], [[1.0]], seed=2)
        assert all(z is None for z in traj.measurements[1:])
        assert np.trace(traj.covariances[-1]) > 1e6

    def test_erased_forever_equals_lyapunov_iterates_bitwise(self, unstable_model, matrix_model):
        for model, p0 in (
            (unstable_model, np.array([[0.7]])),
            (matrix_model, np.array([[0.7, 0.1], [0.1, 0.9]])),
        ):
            traj = run_filter(model, BeamPolicy.multibeam(math.inf), 20, np.zeros(model.m), p0, seed=8)
            seq = lyapunov_sequence(model, 1.0, 20, p0)
            for i in range(21):
                assert np.array_equal(traj.covariances[i], seq[i])

    def test_bit_identical_reruns(self, unstable_model, matrix_model):
        for model in (unstable_model, matrix_model):
            a = run_filter(model, BeamPolicy.switching(0.6), 80, np.zeros(model.m), np.eye(model.m), seed=123)
            b = run_filter(model, BeamPolicy.switching(0.6), 80, np.zeros(model.m), np.eye(model.m), seed=123)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.gammas, b.gammas)

    def test_distortions_recompute_from_states_and_estimates(self, matrix_model):
        traj = run_filter(matrix_model, BeamPolicy.switching(0.5), 60, [0.0, 0.0], np.eye(2), seed=17)
        recomputed = np.sum((traj.states - traj.estimates) ** 2, axis=1)
        np.testing.assert_allclose(traj.per_letter_distortions, recomputed, atol=1e-12)
        assert len(traj.measurements) == 61
        assert traj.measurements[0] is None and math.isinf(traj.gammas[0])

    def test_horizon_validation(self, unstable_model):
        with pytest.raises(ParameterError):
            run_filter(unstable_model, BeamPolicy.switching(0.5), 0, [0.0], [[1.0]], seed=1)

    def test_estimates_match_gaussian_conditioning_oracle(self, stable_model):
        # direct joint-Gaussian conditioning on a 3-step scalar run
        a, c, q, r = -0.95, 1.0, 0.2, 1.5
        s0_hat, p0 = 0.7, 1.3
        n = 3
        traj = run_filter(stable_model, BeamPolicy.multibeam(1.0), n, [s0_hat], [[p0]], seed=21)
        z = np.array([traj.measurements[i][0] for i in range(1, n + 1)])

        # latent u = (s0, w1..w3, v1..v3); rows of M give (s0..s3, z1..z3)
        var_u = np.diag([p0, q, q, q, r, r, r])
        m_rows = []
        for i in range(n + 1):
            row = np.zeros(7)
            row[0] = a**i
            for k in range(1, i + 1):
                row[k] = a ** (i - k)
            m_rows.append(row)
        for i in range(1, n + 1):
            row = c * m_rows[i].copy()
            row[3 + i] = 1.0
            m_rows.append(row)
        m_mat = np.array(m_rows)
        cov = m_mat @ var_u @ m_mat.T
        mean = np.zeros(7)
        mean[: n + 1] = s0_hat * a ** np.arange(n + 1)
        mean[n + 1 :] = c * mean[1 : n + 1]

        def cond_mean_var(i, j):
            # E[s_i | z_1..z_j] and its variance
            if j == 0:
                return mean[i], cov[i, i]
            zi = slice(n + 1, n + 1 + j)
            szz = cov[zi, zi]
            ssz = cov[i, zi]
            sol = np.linalg.solve(szz, z[:j] - mean[zi])
            mu = mean[i] + ssz @ sol
            var = cov[i, i] - ssz @ np.linalg.solve(szz, ssz)
            return mu, var

        for i in range(n + 1):
            mu, var = cond_mean_var(i, max(i - 1, 0))
            assert traj.estimates[i, 0] == pytest.approx(mu, abs=1e-9)
            assert traj.covariances[i, 0, 0] == pytest.approx(var, abs=1e-9)

        # post-measurement estimates against E[s_i | z^i]
        for i in range(1, n + 1):
            state = FilterState(traj.estimates[i], traj.covariances[i], i)
            upd = measurement_update(stable_model, state, traj.measurements[i], 1.0)
            mu, var = cond_mean_var(i, i)
            assert upd.estimate[0] == pytest.approx(mu, abs=1e-9)
            assert upd.covariance[0, 0] == pytest.approx(var, abs=1e-9)


class TestTrajectoryCsv:
    def test_columns_and_erasures(self, unstable_model, tmp_path):
        traj = run_filter(unstable_model, BeamPolicy.switching(0.5), 20, [0.0], [[1.0]], seed=4)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, comment="unit test")
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "i,s0,z_present,z0,gamma,shat0,d_i"
        assert len(lines) == 2 + 21
        first = lines[2].split(",")
        assert first[0] == "0" and first[2] == "0" and first[3] == ""
        assert first[4] == "inf"

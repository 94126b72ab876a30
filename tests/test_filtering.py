import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from jcas_lab import filtering, riccati
from jcas_lab.errors import NumericalError, ParameterError
from jcas_lab.cli import trajectory_lines, write_lines
from jcas_lab.filtering import run_filter
from jcas_lab.riccati import BeamPolicy, gamma_bs, innovation, iterate_map, mb_fixed_point, riccati_step
from jcas_lab.statespace import GaussMarkovModel, lyapunov_step

import exact_reference
import mc_reference
from conftest import BENCH_2X2, random_psd
from mc_reference import PREDICTED, FilterState, kalman_gain, kalman_step, measurement_update


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
        # a switching run predicts without an update exactly where it records
        # no measurement: there shat_{i+1} = a shat_i up to the rounding of the
        # written s - e (a few units of roundoff of |s| and |shat|)
        traj = run_filter(unstable_model, BeamPolicy.switching(0.5), 40, [0.0], [[1.0]], seed=5)
        s, est = traj.states[:, 0], traj.estimates[:, 0]
        erased = [z is None for z in traj.measurements[:-1]]
        drift = np.abs(est[1:] - -1.15 * est[:-1])
        scale = np.abs(s[1:]) + np.abs(est[1:]) + 1.15 * (np.abs(s[:-1]) + np.abs(est[:-1]))
        assert erased == list(drift <= 8 * np.finfo(float).epsneg * scale)
        assert 5 < sum(erased) < 35

    def test_two_step_variance_matches_propagation(self, unstable_model):
        # Var(s_2) = A^2 Q + Q = 0.4645 with s_0 = 0, over the trials of one run
        n_trials = 10_000
        run = filtering.filter_trials(
            unstable_model, BeamPolicy.multibeam(math.inf), 2, n_trials, 42, [0.0], [[0.0]]
        )
        # never sensed from shat_0 = s_0 = 0, the estimate stays 0 and the error is the state
        ((_, errors, *_),) = run
        vals = errors[2, :, 0]
        target = (-1.15) ** 2 * 0.2 + 0.2
        se = target * math.sqrt(2.0 / (n_trials - 1))
        assert abs(np.var(vals, ddof=1) - target) < 3 * se


class TestRunFilterEqualsReference:
    """run_filter reproduces the per-trial loops of mc_reference bit for bit:
    the per-step loop's truth, measurements and covariances, the error loop's
    estimates s - e and distortions |e|^2."""

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
        errors = np.empty((horizon + 1, trials, m))
        drive = np.empty_like(errors)
        covariances = np.empty((horizon + 1, trials, m, m))
        present = np.empty((horizon + 1, trials), bool)
        noise = np.empty((horizon + 1, trials, k))
        starts = []
        run = filtering.filter_trials(model, policy, horizon, trials, seed, s0, p0)
        for start, e, ps, arrived, d, nv in run:
            stop = start + len(e)
            starts.append(start)
            errors[start:stop], drive[start:stop], present[start:stop] = e, d, arrived
            noise[start:stop] = nv
            for i, p in enumerate(ps, start):
                covariances[i] = np.reshape(p, (-1, m, m))
        assert starts == [0, 9, 17]
        refs = mc_reference.filter_trials(model, policy, horizon, trials, s0, p0, seed)
        for t, ref in enumerate(refs):
            traj = ref.trajectory
            assert np.array_equal(errors[:, t], ref.errors)
            assert np.array_equal(drive[:, t], ref.drive)
            assert np.array_equal(covariances[:, t], traj.covariances)
            assert list(present[:, t]) == [zt is not None for zt in traj.measurements]
            arrived = present[:, t]
            assert np.array_equal(noise[arrived, t], ref.noise[arrived])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_refuses_non_finite_estimate_on_the_call(self, matrix_model, value):
        # a nan estimate used to run to distortions that were all nan
        policy = BeamPolicy.switching(0.5)
        with pytest.raises(ParameterError, match=r"^initial estimate must be finite, got \[0.0, (nan|inf)\]$"):
            filtering.filter_trials(matrix_model, policy, 10, 2, 1, [0.0, value], np.eye(2))
        with pytest.raises(ParameterError, match=r"^initial estimate must be finite"):
            run_filter(matrix_model, policy, 10, [0.0, value], np.eye(2), 1)

    @pytest.mark.parametrize("trials", (0, -1))
    def test_refuses_trials_on_the_call(self, matrix_model, trials):
        # 0 and -1 used to fail inside numpy with a broadcast or a
        # negative-dimension error, once the generator first ran
        with pytest.raises(ParameterError, match=rf"^trials must be >= 1, got {trials}$"):
            filtering.filter_trials(matrix_model, BeamPolicy.switching(0.5), 10, trials, 1, [0.0, 0.0], np.eye(2))


class TestCovarianceTrials:
    @pytest.mark.parametrize("model_name", ["unstable_model", "matrix_model"])
    @pytest.mark.parametrize(
        "lam, horizon, trials, scale, message",
        [
            # each used to run: lam = 1.5 as if every step sensed, -0.5 and
            # nan as if every step were erased, a negative P0 as given, and
            # trials = 0 to a ZeroDivisionError
            (1.5, 10, 5, 1.0, r"^lam must lie in \[0, 1\], got 1.5$"),
            (-0.5, 10, 5, 1.0, r"^lam must lie in \[0, 1\], got -0.5$"),
            (math.nan, 10, 5, 1.0, r"^lam must lie in \[0, 1\], got nan$"),
            (0.5, 10, 0, 1.0, r"^trials must be >= 1, got 0$"),
            (0.5, 0, 5, 1.0, r"^horizon must be >= 1, got 0$"),
            (0.5, 10, 5, -1.0, r"^P0 not positive semidefinite$"),
        ],
    )
    def test_refuses_arguments_on_the_call(self, request, model_name, lam, horizon, trials, scale, message):
        model = request.getfixturevalue(model_name)
        with pytest.raises(ParameterError, match=message):
            filtering.covariance_trials(model, lam, horizon, trials, 1, scale * model.Q)

    def test_refuses_asymmetric_p0(self):
        # its symmetric part is I, which the PSD test alone passed: the
        # sensing cell at lam = 1 then returned tr P_1 = -11.35
        with pytest.raises(ParameterError, match=r"^P0 not symmetric$"):
            filtering.covariance_trials(BENCH_2X2, 1.0, 10, 5, 1, [[1.0, 5.0], [-5.0, 1.0]])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_refuses_non_finite_p0(self, unstable_model, value):
        with pytest.raises(ParameterError, match=r"^P0 entries must be finite$"):
            filtering.covariance_trials(unstable_model, 0.5, 10, 5, 1, [[value]])
        with pytest.raises(ParameterError, match=r"^P0 entries must be finite$"):
            run_filter(unstable_model, BeamPolicy.switching(0.5), 10, [0.0], [[value]], 1)


class TestErrorRecursion:
    """The error loop against the truth/estimate recursion on the same draws.

    The two recursions differ only in rounding; ``mc_reference.rounding_bound``
    propagates both local rounding errors, the recursion's scaled by |s_i|
    and |shat_i|, through the closed loop.
    """

    @pytest.mark.parametrize("model_name", ["stable_model", "matrix_model"])
    @pytest.mark.parametrize(
        "policy",
        [BeamPolicy.switching(0.6), BeamPolicy.multibeam(2.0)],
        ids=lambda p: f"{p.kind}-{p.value}",
    )
    def test_stable_matches_per_step_loop(self, request, model_name, policy):
        model = request.getfixturevalue(model_name)
        s0, p0 = np.full(model.m, 0.5), np.eye(model.m)
        for ref in mc_reference.filter_trials(model, policy, 600, 3, s0, p0, 41):
            s, est = ref.trajectory.states, ref.loop_estimates
            z = s @ model.C.T + ref.noise
            bound = mc_reference.rounding_bound(model, ref, s, est, z, np.finfo(float).epsneg)
            assert np.all(np.abs(ref.errors - (s - est)) <= bound)

    @pytest.mark.parametrize(
        "model",
        [GaussMarkovModel.scalar(-1.15, 1.0, 0.2, 1.5), GaussMarkovModel.scalar(1.15, 1.0, 0.2, 1.5), BENCH_2X2],
        ids=["scalar-1.15", "scalar+1.15", "bench2x2"],
    )
    @pytest.mark.parametrize(
        "policy",
        [BeamPolicy.switching(0.6), BeamPolicy.multibeam(2.0)],
        ids=lambda p: f"{p.kind}-{p.value}",
    )
    def test_unstable_matches_extended_precision(self, model, policy):
        # at 150 steps |s_i| reaches about 1.15^150 = 1e9: float64 truth and
        # estimate keep about 7 digits of their difference, and the error
        # loop all of them.  A scalar trial is held to the exact recursion
        # of exact_reference (unit 0, plus the rounding of the exact error
        # to a float), since np.longdouble is plain double on some
        # platforms; the matrix one to np.longdouble, about 10 digits.
        s0, p0 = np.full(model.m, 0.5), np.eye(model.m)
        for ref in mc_reference.filter_trials(model, policy, 150, 3, s0, p0, 43):
            if model.is_scalar:
                a, c = model.scalars()[:2]
                s, est, exact = exact_reference.truth_estimate(a, c, ref.gains, ref.drive, ref.noise, s0[0])
                s, est = s[:, None], est[:, None]
                truth = np.array([float(x) for x in exact])[:, None]
                z = s @ model.C.T + ref.noise
                bound = mc_reference.rounding_bound(model, ref, s, est, z, 0.0)
                bound += np.finfo(float).epsneg * np.abs(truth)
            else:
                s, est, z = mc_reference.truth_estimate(model, ref, s0)
                truth = s - est
                bound = mc_reference.rounding_bound(model, ref, s, est, z, np.finfo(np.longdouble).epsneg)
            assert np.all(np.abs(ref.errors - truth) <= bound)
            # the bound is tight enough to reject the float64 raw-state loop
            loop = ref.trajectory.states - ref.loop_estimates
            assert np.any(np.abs(loop - truth) > bound)


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
    def test_singular_innovation_raises_with_condition(self, monkeypatch):
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

        # A swaps the coordinates and R = Q = 0: from P = I a sensing step
        # gives diag(1, 0) and a second one diag(0, 0), whose S = P[0, 0] is
        # 0; an open-loop step swaps the diagonal.  Three trials reach a
        # masked step whose stack has S = 0 in one member only
        swap = GaussMarkovModel(A=[[0.0, 1.0], [1.0, 0.0]], C=[[1.0, 0.0]], Q=np.zeros((2, 2)), R=[[0.0]])
        solve, stacks = riccati._solve_innovation, []

        def recorded(model, p, gamma):
            stacks.append(p)
            return solve(model, p, gamma)

        monkeypatch.setattr(riccati, "_solve_innovation", recorded)
        runs = [
            lambda: filtering.covariance_trials(swap, 0.5, 20, 3, 1, np.eye(2)),
            lambda: filtering.filter_trials(swap, BeamPolicy.switching(0.5), 20, 3, 2, [0.0, 0.0], np.eye(2)),
        ]
        for run in runs:
            stacks.clear()
            with pytest.raises(NumericalError, match="innovation covariance is singular") as info:
                for _ in run():
                    pass
            assert info.value.condition == math.inf
            assert stacks[-1].shape == (3, 2, 2)
            assert sorted(stacks[-1][:, 0, 0]) == [0.0, 1.0, 1.0]

    def test_one_solve_per_filter_step(self, matrix_model, monkeypatch):
        # every step that senses computes its innovation once, through
        # riccati._solve_innovation; with one output that is a division of
        # A P C^T by S and no LAPACK call, with two it is one LAPACK solve
        # against the m columns of C P A^T
        innovations, solves = [], []
        innovation_solve, lapack_solve = riccati._solve_innovation, np.linalg.solve

        def counted_innovation(model, p, gamma):
            innovations.append(p)
            return innovation_solve(model, p, gamma)

        def counted_solve(*args):
            solves.append(args)
            return lapack_solve(*args)

        monkeypatch.setattr(riccati, "_solve_innovation", counted_innovation)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        two_outputs = GaussMarkovModel(
            A=matrix_model.A, C=[[1.0, 0.0], [0.5, 1.0]], Q=matrix_model.Q, R=[[0.5, 0.1], [0.1, 0.8]]
        )
        horizon = 40
        for model in (matrix_model, two_outputs):
            lapack = model.k > 1
            innovations.clear()
            solves.clear()
            run_filter(model, BeamPolicy.multibeam(2.0), horizon, [0.0, 0.0], np.eye(2), seed=5)
            # no measurement at time 0, one innovation on every later step
            assert len(innovations) == horizon - 1
            assert len(solves) == lapack * (horizon - 1)
            assert all(rhs.shape[-1] == model.m for _, rhs in solves)

            innovations.clear()
            solves.clear()
            state = FilterState([0.0, 0.0], np.eye(2), 0)
            measurements = [None if z is None else [z] * model.k for z in (0.3, None, -0.2, 0.1, None)]
            for z in measurements:
                state = kalman_step(model, state, z, math.inf if z is None else 2.0)
            # riccati_step computes the innovation for P'; the oracle solves
            # for its own filter gain K = P C^T S^{-1} with LAPACK
            arrived = sum(z is not None for z in measurements)
            assert len(innovations) == arrived
            assert len(solves) == (1 + lapack) * arrived
            assert all(rhs.shape[-1] == model.m for _, rhs in solves)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_single_output_solve_is_lapacks(self, m):
        # with k = 1, L = A P C^T / S is LAPACK's 1x1 solve with one
        # right-hand column, a division, against each member's own products
        # [A; C] P and (A P) C^T (stacked matmuls here, one 2-D product each
        # in the library) and S = (C P) C^T summed over j = 0..m-1 in order.
        # gamma = 0 and C = e_1 make S = P[0, 0] exactly, so S takes every
        # magnitude, subnormals, infinities and nan, and A P C^T overflows
        # and turns nan in places
        rng = np.random.default_rng([12, m])
        n = 3000
        model = GaussMarkovModel(A=rng.standard_normal((m, m)), C=np.eye(1, m), Q=np.eye(m), R=[[1.0]])
        p = rng.choice([-1.0, 1.0], (n, m, m)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, m, m))
        s = p[:, 0, 0]
        s[::10] = rng.choice([-1.0, 1.0], n // 10) * 10.0 ** rng.uniform(-323.0, -308.0, n // 10)
        s[1::10], s[2::10], s[3::10] = math.inf, -math.inf, math.nan
        p[4::10, 0, -1], p[5::10, 0, -1] = math.inf, math.nan
        gamma = np.zeros((n, 1, 1))
        assert (s != 0.0).all() and (abs(s[::10]) < np.finfo(float).tiny).all()
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.vstack([model.A, model.C]) @ p
            apc = rows[:, :-1] @ model.C.T
            innov = model.C[0, 0] * rows[:, -1:, :1]
            for j in range(1, m):
                innov = innov + model.C[0, j] * rows[:, -1:, j:j + 1]
            columns = np.linalg.solve(np.repeat(innov + gamma * model.R, m, axis=0), apc.reshape(n * m, 1, 1))
            expected = columns.reshape(n, m, 1)
            got = riccati._solve_innovation(model, p, gamma)[0]
            got_2d = [riccati._solve_innovation(model, p[i], 0.0)[0] for i in range(0, n, 97)]
        # with m = 1, A P C^T = a S, so only nan leaves the finite range
        assert np.isnan(got).any() and (m == 1 or np.isinf(got).any())

        def bits(x):
            # signed zeros apart, every nan alike
            return np.isnan(x).tobytes() + np.where(np.isnan(x), 0.0, x).tobytes()

        assert bits(got) == bits(expected)
        for one, want in zip(got_2d, expected[::97]):
            assert bits(one) == bits(want)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_predictor_gain_is_a_times_filter_gain(self, m):
        # With k > 1, L = (S^{-1} C P A^T)^T and A K, K = (S^{-1} C P)^T,
        # share the computed S and C P.  With Y = S^{-1} fl(C P A^T),
        # X = S^{-1} fl(C P),
        #   L - A K = (L^T - Y)^T + (Y - X A^T)^T + A (X - K^T)^T + (A K^T - fl(A K^T)).
        # LU with partial pivoting solves (S + dS) x = b with
        # |dS| <= gamma_{3k} |L_S| |U_S| (Higham, Thm 9.4), so a computed
        # solution x^ is off by S^{-1} dS x^; fl(C P A^T) and fl(A K^T) are
        # off by at most gamma_m times the product of the absolute values.
        # With k = 1 the two sides round apart, each against the exact
        # L = A K: L = fl(fl(A P) C^T) / S^, whose numerator is within
        # e_v = gamma_2m |A||P||C^T| and whose S^ (like the oracle's) is
        # within e_S = gamma_{2m+1} (|C||P||C^T| + gamma R), so L is within
        # (1 + u) (e_v + |L| e_S) / (S - e_S) + u |L|; the oracle's
        # K = fl(C P) * fl(1 / S^) (LAPACK's 1x1 solve with m columns) is
        # within (1 + 2u) (gamma_m |C||P| + |K| e_S) / (S - e_S) + 2u |K|,
        # and fl(A K^T) adds gamma_m |A||K|.
        rng = np.random.default_rng(100 + m)
        u = np.finfo(float).eps / 2

        def gam(n):
            return n * u / (1.0 - n * u)

        for k in range(1, m + 2):
            model = GaussMarkovModel(
                A=rng.standard_normal((m, m)) / math.sqrt(m),
                C=rng.standard_normal((k, m)),
                Q=random_psd(rng, m),
                R=random_psd(rng, k),
            )
            a = model.A
            for gamma in (1.0, 2.5):
                p = random_psd(rng, m)
                gain = innovation(model, p, gamma)[0]
                filter_gain = kalman_gain(model, p, gamma)
                cp = model.C @ p
                s = cp @ model.C.T + gamma * model.R
                if k == 1:
                    c_abs, p_abs = np.abs(model.C), np.abs(p)
                    e_s = gam(2 * m + 1) * (c_abs @ p_abs @ c_abs.T + gamma * model.R)[0, 0]
                    e_v = gam(2 * m) * (np.abs(a) @ p_abs @ c_abs.T)
                    e_gain = (1 + u) * (e_v + np.abs(gain) * e_s) / (s[0, 0] - e_s) + u * np.abs(gain)
                    e_cp = gam(m) * (c_abs @ p_abs).T
                    k_abs = np.abs(filter_gain)
                    e_filter = (1 + 2 * u) * (e_cp + k_abs * e_s) / (s[0, 0] - e_s) + 2 * u * k_abs
                    bound = 2.0 * np.linalg.norm(e_gain + np.abs(a) @ e_filter + gam(m) * (np.abs(a) @ k_abs))
                else:
                    _, l_s, u_s = scipy.linalg.lu(s)
                    ds = gam(3 * k) * np.linalg.norm(np.abs(l_s) @ np.abs(u_s))
                    inv = np.linalg.norm(np.linalg.inv(s), 2)
                    bound = 2.0 * (
                        inv * ds * (np.linalg.norm(gain) + np.linalg.norm(a, 2) * np.linalg.norm(filter_gain))
                        + inv * gam(m) * np.linalg.norm(np.abs(cp) @ np.abs(a.T))
                        + gam(m) * np.linalg.norm(np.abs(a) @ np.abs(filter_gain))
                    )
                assert gain.shape == (m, k)
                assert np.linalg.norm(gain - a @ filter_gain) <= bound
                # the bound resolves far less than the gain itself
                assert bound <= 1e-10 * np.linalg.norm(gain)

    def test_scalar_kernel_matches_matrix_solve(self):
        # a 1x1 model through innovation, the matrix path that subtracts the
        # correction from a p a + q, and through the scalar filter's steps,
        # the one-step form of sensing_kernel and the gain
        # c a / (c^2 + gamma r / p): the two forms round differently by
        # design, so each is held to the exact step of its float inputs.
        # Counting roundings (Higham's gamma_n): the scalar P' takes 8 of
        # nonnegative terms (TestExactStep in test_riccati) and the scalar
        # gain 5 (gamma r, / p, c^2, the sum, c a, the quotient); the
        # matrix gain 6 on its longest chain ((a p) c over c (p c) + gamma r:
        # two in the numerator, three in the denominator, the quotient) and
        # its P' 10, of terms a p a + q and |a p c L| that cancel.
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, c = rng.uniform(-2.0, 2.0, 2)
            q, r, p = rng.uniform(0.01, 5.0, 3)
            gamma = float(rng.choice([1.0, 2.5, 40.0]))
            model = GaussMarkovModel.scalar(a, c, q, r)
            gains = np.empty((1, 1, 1))
            _, p_next = filtering._ScalarSteps(model).segment(np.float64(p), [True], gamma, gains)
            gain = gains[0, 0, 0]
            exact_next = exact_reference.step(a, c, q, r, p, gamma, 1.0)
            exact_gain = exact_reference.gain(a, c, r, p, gamma)
            assert abs(Fraction(float(p_next)) - exact_next) <= exact_reference.unit_bound(8) * exact_next
            assert abs(Fraction(gain) - exact_gain) <= exact_reference.unit_bound(5) * abs(exact_gain)
            mat_gain, mat_next = innovation(model, np.array([[p]]), gamma)
            assert abs(Fraction(mat_gain[0, 0]) - exact_gain) <= exact_reference.unit_bound(6) * abs(exact_gain)
            scale = Fraction(a * a * p + q) + abs(Fraction(a * p * c) * exact_gain)
            assert abs(Fraction(mat_next[0, 0]) - exact_next) <= exact_reference.unit_bound(10) * scale
            # the gain is the predictor gain a K of the oracle's filter gain K
            assert abs(a * kalman_gain(model, [[p]], gamma)[0, 0] - gain) <= 4 * np.spacing(abs(gain))

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 1e4])
    def test_scalar_gains_within_rounding_of_exact(self, gamma):
        # L = c a / (c^2 + gamma r / p), 5 roundings (gamma r, / p, c^2, the
        # sum, c a, the quotient), needs no special case: 0 at p = 0 and
        # (c a) / c^2, within gamma_3 of a / c, at p = +inf; c = 0 senses
        # nothing, gain 0.  p runs over 0, 1e-300 .. 1e300 and +inf.
        p = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 61), [math.inf]])[:, None]
        for a, c in ((-1.15, 1.0), (-0.95, 1.0), (3.0, 1e3), (-1.15, 0.0)):
            steps = filtering._ScalarSteps(GaussMarkovModel.scalar(a, c, 0.2, 1.5))
            gains = np.empty((1,) + p.shape)
            with np.errstate(divide="ignore"):
                steps.segment(p, [True], gamma, gains)
            gains = gains[0, :, 0]
            assert gains[0] == 0.0 and not np.isnan(gains).any()
            if not c:
                assert (gains == 0.0).all()
                continue
            assert abs(gains[-1] - a / c) <= exact_reference.unit_bound(3) * abs(a / c)
            for value, gain in zip(p[1:-1, 0], gains[1:-1]):
                exact = exact_reference.gain(a, c, 1.5, value, gamma)
                assert abs(Fraction(gain) - exact) <= exact_reference.unit_bound(5) * abs(exact)


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
            seq = list(iterate_map(lambda p: lyapunov_step(model, p, 1.0), p0, 20))
            for i in range(21):
                assert np.array_equal(traj.covariances[i], seq[i])

    def test_bit_identical_reruns(self, unstable_model, matrix_model):
        for model in (unstable_model, matrix_model):
            a = run_filter(model, BeamPolicy.switching(0.6), 80, np.zeros(model.m), np.eye(model.m), seed=123)
            b = run_filter(model, BeamPolicy.switching(0.6), 80, np.zeros(model.m), np.eye(model.m), seed=123)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.gammas, b.gammas)

    def test_distortions_recompute_from_states_and_estimates(self, matrix_model, unstable_model):
        # d_i = |e_i|^2 of the simulated error; the written shat = s - e rounds,
        # so s - shat recomputed from the columns is e within
        # delta = u (|shat| + |s - shat|) per component, and the squares
        # within sum delta (2 |s - shat| + delta) plus the two sums' own
        # rounding; on the unstable model that slack grows with |s_i|
        u = np.finfo(float).epsneg
        for model in (matrix_model, unstable_model):
            traj = run_filter(model, BeamPolicy.switching(0.5), 60, np.zeros(model.m), np.eye(model.m), seed=17)
            diff = traj.states - traj.estimates
            recomputed = np.sum(diff ** 2, axis=1)
            delta = u * (np.abs(traj.estimates) + np.abs(diff))
            gamma = (model.m + 1) * u / (1 - (model.m + 1) * u)
            slack = np.sum(delta * (2 * np.abs(diff) + delta), axis=1)
            slack += gamma * (traj.per_letter_distortions + recomputed)
            assert np.all(np.abs(traj.per_letter_distortions - recomputed) <= slack)
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
        write_lines(path, trajectory_lines(traj, unstable_model, "unit test"))
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "i,s0,z_present,z0,gamma,shat0,d_i"
        assert len(lines) == 2 + 21
        first = lines[2].split(",")
        assert first[0] == "0" and first[2] == "0" and first[3] == ""
        assert first[4] == "inf"

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas_lab import riccati, statespace
from jcas_lab.errors import ConvergenceError, ParameterError
from jcas_lab.riccati import (
    BeamPolicy,
    critical_lambda,
    fixed_point,
    gamma_bs,
    gamma_max,
    gamma_mb,
    iterate_map,
    lambda_s,
    lambda_v,
    mb_fixed_point,
    mb_sweep,
    riccati_step,
    sbar,
    sbar_sweep,
    vbar,
    vbar_sweep,
)
from jcas_lab.statespace import CRITICAL_MARGIN, GaussMarkovModel, lyapunov_step, spectral_radius
from jcas_lab.tradeoff import ChannelSpec, bs_curve, mb_curve

import riccati_reference as ref
from conftest import quad_mb_root, random_psd, scaled_lyap_root

P1 = np.array([[1.0]])


class TestBeamPolicy:
    def test_switching_range(self):
        BeamPolicy.switching(0.0)
        BeamPolicy.switching(1.0)
        with pytest.raises(ParameterError):
            BeamPolicy.switching(-0.01)
        with pytest.raises(ParameterError):
            BeamPolicy.switching(1.01)

    def test_multibeam_range(self):
        BeamPolicy.multibeam(1.0)
        BeamPolicy.multibeam(math.inf)
        with pytest.raises(ParameterError):
            BeamPolicy.multibeam(0.99)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            BeamPolicy("sideways", 0.5)


class TestMaps:
    def test_bs_endpoints_take_exact_branches(self, unstable_model):
        open_loop = lyapunov_step(unstable_model, P1, 1.0)
        assert np.array_equal(gamma_bs(P1, 0.0, unstable_model), open_loop)
        full = riccati_step(unstable_model, P1, 1.0)
        assert np.array_equal(gamma_bs(P1, 1.0, unstable_model), full)

    def test_bs_scalar_value(self, unstable_model):
        # 1.5225 - 0.5 * 1.3225 / 2.5 = 1.258
        out = gamma_bs(P1, 0.5, unstable_model)
        assert out[0, 0] == pytest.approx(1.258, abs=1e-12)

    def test_mb_matches_bs_at_one(self, unstable_model):
        assert np.array_equal(
            gamma_mb(P1, 1.0, unstable_model), gamma_bs(P1, 1.0, unstable_model)
        )

    def test_mb_infinite_gain_is_open_loop(self, unstable_model):
        out = gamma_mb(P1, math.inf, unstable_model)
        assert np.array_equal(out, lyapunov_step(unstable_model, P1, 1.0))

    def test_mb_scalar_value(self, unstable_model):
        # 1.5225 - 1.3225 / (1 + 3) = 1.191875
        out = gamma_mb(P1, 2.0, unstable_model)
        assert out[0, 0] == pytest.approx(1.191875, abs=1e-12)

    @pytest.mark.parametrize("model_name", ("matrix_model", "correlated_model"))
    def test_stacked_steps_equal_single_steps(self, request, model_name):
        # the Monte Carlo engine steps (trials, m, m) stacks with one gain
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(5)
        ps = np.stack([random_psd(rng, 2) for _ in range(4)])
        for gamma in (1.0, 1.5, 10.0, 1e3, math.inf):
            stacked = riccati_step(model, ps, gamma)
            for i in range(4):
                assert np.array_equal(stacked[i], riccati_step(model, ps[i], gamma))

    def test_parameter_validation(self, unstable_model):
        with pytest.raises(ParameterError):
            gamma_bs(P1, 1.2, unstable_model)
        with pytest.raises(ParameterError):
            gamma_mb(P1, 0.5, unstable_model)

    def test_monotone_in_psd_order_scalar(self, unstable_model):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p_small = rng.uniform(0.01, 3.0)
            p_big = p_small + rng.uniform(0.0, 3.0)
            lam = rng.uniform(0.0, 1.0)
            lo = gamma_bs(np.array([[p_small]]), lam, unstable_model)[0, 0]
            hi = gamma_bs(np.array([[p_big]]), lam, unstable_model)[0, 0]
            assert lo <= hi + 1e-12

    def test_monotone_in_psd_order_matrix(self, matrix_model):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p1 = random_psd(rng, 2)
            p2 = p1 + random_psd(rng, 2)
            lam = rng.uniform(0.0, 1.0)
            diff = gamma_bs(p2, lam, matrix_model) - gamma_bs(p1, lam, matrix_model)
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-9
            assert np.trace(diff) >= -1e-9


class TestOverflowedCovariance:
    """The scalar kernels at an overflowed p = +inf take the limit as p -> inf."""

    def test_riccati_step_limit(self):
        # a^2 gamma r / c^2 + q, where the plain expression gives inf / inf
        for gamma in (1.0, 2.0):
            gain, p_next = riccati.innovation_kernel(1e30, 2.0, 0.2, 1.5, math.inf, gamma, 1.0)
            assert gain == 0.5
            assert p_next == pytest.approx(1e60 * gamma * 1.5 / 4.0 + 0.2, rel=1e-15)
        assert riccati.riccati_kernel(1e30, 1.0, 0.2, 1.5, math.inf, 1.0) == pytest.approx(1.5e60)

    def test_erasure_average_diverges(self):
        assert riccati.bs_kernel(1e30, 1.0, 0.2, 1.5, math.inf, 0.5) == math.inf
        assert riccati.bs_kernel(-1.15, 1.0, 0.2, 1.5, math.inf, 0.99) == math.inf

    def test_unobserved_model(self):
        assert riccati.innovation_kernel(-1.15, 0.0, 0.2, 1.5, math.inf, 1.0, 1.0) == (0.0, math.inf)

    def test_finite_entries_keep_their_bits(self):
        a, c, q, r = -1.15, 0.7, 0.2, 1.5
        finite = np.array([[0.0], [1e-3], [1.0], [37.5], [1e12]])
        for gamma, lam in ((1.0, 1.0), (2.5, 1.0), (1.0, 0.4)):
            alone = riccati.innovation_kernel(a, c, q, r, finite, gamma, lam)
            mixed = riccati.innovation_kernel(a, c, q, r, np.vstack([finite, [[math.inf]]]), gamma, lam)
            for got, want in zip(mixed, alone):
                assert np.array_equal(got[:-1], want)
            for i, p in enumerate(finite[:, 0]):
                cp, ap = c * float(p), a * float(p)
                s = cp * c + gamma * r
                plain = (cp / s, ap * a + q - lam * ((ap * c) * ((cp * a) / s)))
                assert riccati.innovation_kernel(a, c, q, r, float(p), gamma, lam) == plain
                assert (alone[0][i, 0], alone[1][i, 0]) == plain


class TestFixedPoints:
    def test_bs_full_measurement_unstable(self, unstable_model):
        root = quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0)  # 0.987536301...
        fp = fixed_point(lambda p: gamma_bs(p, 1.0, unstable_model), unstable_model.Q)
        assert abs(fp[0, 0] - root) <= 1e-10
        assert root == pytest.approx(0.987536, abs=1e-5)

    def test_bs_open_loop_unstable_diverges(self, unstable_model):
        assert fixed_point(lambda p: gamma_bs(p, 0.0, unstable_model), unstable_model.Q) is None

    def test_mb_stable_matches_quadratic(self, stable_model):
        root = quad_mb_root(-0.95, 1.0, 0.2, 1.5, 1.0)
        fp = mb_fixed_point(1.0, stable_model)
        assert abs(fp[0, 0] - root) <= 1e-10

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0])
    def test_scalar_fixed_points_match_quadratic_roots(self, gamma, unstable_model, stable_model):
        for model, a in ((unstable_model, -1.15), (stable_model, -0.95)):
            root = quad_mb_root(a, 1.0, 0.2, 1.5, gamma)
            assert abs(mb_fixed_point(gamma, model)[0, 0] - root) <= 1e-10

    def test_oscillating_map_raises_convergence_error(self):
        from jcas_lab.errors import ConvergenceError

        with pytest.raises(ConvergenceError) as exc:
            fixed_point(lambda p: -p, np.array([[1.0]]), max_iter=500)
        assert len(exc.value.trace_tail) > 0

    def test_wrapper_agrees_with_generic_fixed_point(self, stable_model):
        via_generic = fixed_point(lambda p: gamma_mb(p, 3.0, stable_model), stable_model.Q)
        via_wrapper = mb_fixed_point(3.0, stable_model)
        # the iteration stops at a step below tol = 1e-12; with the map's
        # slope rho at the fixed point, it is then within tol rho / (1 - rho)
        v, gr = via_wrapper[0, 0], 3.0 * 1.5
        rho = 0.95**2 * (gr / (v + gr)) ** 2
        assert abs(via_generic[0, 0] - v) <= 1e-12 * rho / (1.0 - rho)

    def test_matrix_fixed_point_residual(self, matrix_model):
        fp = fixed_point(lambda p: gamma_bs(p, 0.6, matrix_model), matrix_model.Q)
        assert np.max(np.abs(fp - gamma_bs(fp, 0.6, matrix_model))) <= 1e-10

    def test_mb_trace_nondecreasing_in_gamma(self, stable_model):
        traces = [
            float(np.trace(mb_fixed_point(g, stable_model)))
            for g in (1.0, 1.5, 2.0, 4.0, 10.0, 50.0)
        ]
        assert all(t1 <= t2 + 1e-10 for t1, t2 in zip(traces, traces[1:]))

    @given(
        a=st.floats(min_value=0.3, max_value=1.3),
        q=st.floats(min_value=0.05, max_value=1.0),
        r=st.floats(min_value=0.1, max_value=3.0),
        gamma=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_mb_fixed_point_property(self, a, q, r, gamma):
        model = GaussMarkovModel.scalar(a, 1.0, q, r)
        root = quad_mb_root(a, 1.0, q, r, gamma)
        assert abs(mb_fixed_point(gamma, model)[0, 0] - root) <= 1e-10


class TestBounds:
    def test_lambda_one_endpoints(self, unstable_model):
        s = sbar(1.0, unstable_model)
        np.testing.assert_allclose(s, unstable_model.Q, atol=1e-12)
        v = vbar(1.0, unstable_model)
        assert abs(v[0, 0] - quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0)) <= 1e-10

    def test_sbar_unstable_half(self, unstable_model):
        expected = scaled_lyap_root(-1.15, 0.2, 0.5)  # 0.590405904...
        assert np.trace(sbar(0.5, unstable_model)) == pytest.approx(expected, abs=1e-9)

    def test_sandwich_ordering(self, unstable_model, stable_model):
        for model, lams in (
            (unstable_model, (0.3, 0.5, 0.8, 1.0)),
            (stable_model, (0.0, 0.2, 0.6, 1.0)),
        ):
            for lam in lams:
                s = sbar(lam, model)
                v = vbar(lam, model)
                assert np.trace(s) <= np.trace(v) + 1e-10

    def test_traces_nonincreasing_in_lambda(self, stable_model):
        lams = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        s_traces = [float(np.trace(sbar(l, stable_model))) for l in lams]
        v_traces = [float(np.trace(vbar(l, stable_model))) for l in lams]
        assert all(t1 >= t2 - 1e-10 for t1, t2 in zip(s_traces, s_traces[1:]))
        assert all(t1 >= t2 - 1e-10 for t1, t2 in zip(v_traces, v_traces[1:]))

    def test_iterate_map_lengths(self, stable_model):
        seq = iterate_map(lambda p: gamma_bs(p, 0.5, stable_model), stable_model.Q, 7)
        assert len(seq) == 8


class TestThresholds:
    def test_critical_lambda_stable_is_zero(self, stable_model):
        assert critical_lambda(stable_model) == 0.0

    def test_critical_lambda_unstable_closed_form(self, unstable_model):
        closed = 1.0 - 1.0 / 1.15**2  # invertible-C threshold
        assert critical_lambda(unstable_model) == pytest.approx(closed, abs=1e-5)

    def test_critical_lambda_rho_15(self):
        model = GaussMarkovModel.scalar(-1.5, 1.0, 0.2, 1.5)
        assert critical_lambda(model) == pytest.approx(1.0 - 1.0 / 2.25, abs=1e-5)

    def test_lambda_s_unconstrained_on_stable(self, stable_model):
        open_loop_trace = float(np.trace(sbar(0.0, stable_model)))
        assert lambda_s(open_loop_trace + 0.1, stable_model) == 0.0

    def test_lambda_s_inverts_closed_form(self, unstable_model):
        d = scaled_lyap_root(-1.15, 0.2, 0.5)
        assert lambda_s(d, unstable_model) == pytest.approx(0.5, abs=1e-5)

    def test_budget_below_q_infeasible(self, unstable_model):
        assert lambda_s(0.19, unstable_model) is None
        assert lambda_v(0.19, unstable_model) is None

    def test_lambda_v_at_least_lambda_s(self, unstable_model):
        # budgets above tr(V-bar(1)) = 0.98754 so both thresholds exist
        for d in (1.0, 2.0, 5.0):
            ls = lambda_s(d, unstable_model)
            lv = lambda_v(d, unstable_model)
            assert ls is not None and lv is not None
            assert ls <= lv + 1e-6

    def test_lambda_v_infeasible_below_best_sensing(self, unstable_model):
        assert lambda_v(0.6, unstable_model) is None
        assert lambda_s(0.6, unstable_model) is not None

    def test_gamma_max_unbounded_for_stable(self, stable_model):
        open_loop = scaled_lyap_root(-0.95, 0.2, 1.0)
        assert gamma_max(open_loop + 1e-6, stable_model) == math.inf

    def test_gamma_max_infeasible_below_best_sensing(self, unstable_model):
        best = quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0)
        assert gamma_max(best - 1e-6, unstable_model) is None

    def test_gamma_max_at_best_sensing_boundary(self, unstable_model):
        best = quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0)
        g = gamma_max(best + 1e-8, unstable_model)
        assert g == pytest.approx(1.0, abs=1e-3)

    def test_gamma_max_monotone_in_budget(self, unstable_model):
        budgets = (1.2, 2.0, 4.0, 10.0)
        gammas = [gamma_max(d, unstable_model) for d in budgets]
        assert all(g is not None for g in gammas)
        assert all(g1 <= g2 + 1e-6 for g1, g2 in zip(gammas, gammas[1:]))

    def test_positive_budget_required(self, unstable_model):
        with pytest.raises(ParameterError):
            lambda_s(0.0, unstable_model)
        with pytest.raises(ParameterError):
            gamma_max(-1.0, unstable_model)


    def test_gamma_max_open_loop_stalls_near_unit_root(self):
        # the open-loop steady state q / (1 - a^2) ~ 1e7 (rho = 1 - 1e-8) is
        # far over budget, and the bisection still finds the finite answer
        a, q, r, d = 1.0 - 1e-8, 0.2, 1.5, 5.0
        model = GaussMarkovModel.scalar(a, 1.0, q, r)
        # gamma whose steady state is exactly d (root of the c = 1 quadratic)
        expected = (d * d - q * d) / (r * (q - d * (1.0 - a * a)))
        assert gamma_max(d, model, bisect_tol=1e-4) == pytest.approx(expected, rel=1e-4)


@pytest.fixture
def bench_model():
    """The benchmark's unstable 2x2 model, rho(A) = 1.05."""
    return GaussMarkovModel(
        A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=[[0.1, 0.0], [0.0, 0.1]], R=[[0.5]]
    )


@pytest.fixture
def seeded_model():
    """Seeded unstable 8x8 model with two outputs, rho(A) = 1.1."""
    rng = np.random.default_rng(20240601)
    a = rng.standard_normal((8, 8))
    a *= 1.1 / spectral_radius(a)
    lq = rng.standard_normal((8, 8)) / math.sqrt(8)
    lr = rng.standard_normal((2, 2))
    return GaussMarkovModel(
        A=a,
        C=rng.standard_normal((2, 8)),
        Q=lq @ lq.T + 0.1 * np.eye(8),
        R=lr @ lr.T + 0.5 * np.eye(2),
    )


SWEEP_MODELS = ("bench_model", "matrix_model", "correlated_model", "seeded_model")
#: every model of TestStackedSweep: the sweep models and both scalar presets
ORACLE_MODELS = SWEEP_MODELS + ("unstable_model", "stable_model")
#: the longer grid starts below 1 - 1/rho^2 of both unstable models
LAM_GRIDS = {"one": [0.6], "many": [0.0, 0.05, 0.3, 0.6, 0.95, 1.0]}
GAMMA_GRIDS = {"one": [2.0], "many": [1.0, 1.5, 10.0, 1e3, math.inf], "inf": [math.inf]}
#: relative agreement required of a direct solve and its oracle
ORACLE_RTOL = 1e-10


def assert_close_points(got, want):
    """Same None pattern; elsewhere within ORACLE_RTOL of the oracle, in max-abs norm."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g is not None
            assert np.max(np.abs(g - w)) <= ORACLE_RTOL * np.max(np.abs(w))


def sbar_oracle(model, lams) -> list:
    rho = spectral_radius(model.A)
    diverges = lambda lam: (1.0 - lam) * rho * rho >= 1.0 - CRITICAL_MARGIN
    return [None if diverges(lam) else ref.lyapunov(model, 1.0 - lam) for lam in lams]


def mb_oracle(model, gammas) -> list:
    return [sbar_oracle(model, [0.0])[0] if math.isinf(g) else ref.dare(model, g) for g in gammas]


class TestStackedSweep:
    """Sweeps and single solves against independent oracles: V-bar against the
    iterated map, S-bar against scipy's Lyapunov solver, the multi-beam
    steady state against scipy's DARE."""

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", LAM_GRIDS.values(), ids=LAM_GRIDS.keys())
    def test_vbar(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = ref.vbar_points(model, grid)
        assert_close_points(vbar_sweep(grid, model), want)
        assert_close_points([vbar(lam, model) for lam in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", LAM_GRIDS.values(), ids=LAM_GRIDS.keys())
    def test_sbar(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = sbar_oracle(model, grid)
        assert_close_points(sbar_sweep(grid, model), want)
        assert_close_points([sbar(lam, model) for lam in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", GAMMA_GRIDS.values(), ids=GAMMA_GRIDS.keys())
    def test_mb(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = mb_oracle(model, grid)
        assert_close_points(mb_sweep(grid, model), want)
        assert_close_points([mb_fixed_point(g, model) for g in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    def test_no_covariance_step(self, monkeypatch, request, model_name):
        # scalar, stable and certified models solve directly: every curve
        # and threshold returns with the covariance steps made to fail
        model = request.getfixturevalue(model_name)
        channel = ChannelSpec.gaussian(1.75)
        steps = (
            (riccati, "gamma_bs"), (riccati, "riccati_step"), (riccati, "bs_kernel"),
            (riccati, "riccati_kernel"), (statespace, "lyapunov_step"), (statespace, "lyap_kernel"),
        )
        for module, name in steps:
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("covariance step"))
        lams, gammas = LAM_GRIDS["many"], GAMMA_GRIDS["many"]
        assert len(vbar_sweep(lams, model)) == len(sbar_sweep(lams, model)) == len(lams)
        assert len(mb_sweep(gammas, model)) == len(gammas)
        inner, outer = bs_curve(model, channel, lams)
        assert len(inner) == len(outer) == len(lams)
        assert len(mb_curve(model, channel, gammas)) == len(gammas)
        for f in (lambda_s, lambda_v, gamma_max):
            f(3.0, model, bisect_tol=1e-4)

    def test_generic_fixed_point_matches_reference(self, matrix_model):
        step = lambda p: gamma_bs(p, 0.6, matrix_model)
        for max_iter in (5, 1_000_000):
            status, value, window = ref.classify_matrix(step, matrix_model.Q, 1e-12, max_iter)
            if status == ref.UNDECIDED:
                with pytest.raises(ConvergenceError) as exc:
                    fixed_point(step, matrix_model.Q, max_iter=max_iter)
                assert exc.value.trace_tail == list(window)
            else:
                assert np.array_equal(fixed_point(step, matrix_model.Q, max_iter=max_iter), value)


class TestPinnedOutputs:
    """Values computed before the sweep and the divergence short-circuit."""

    def test_critical_lambda_2x2(self, bench_model):
        assert critical_lambda(bench_model, bisect_tol=1e-3) == 0.09326171875

    @pytest.mark.parametrize(
        "a, expected", [(-1.15, 0.24385595321655273), (-1.5, 0.5555558204650879)]
    )
    def test_critical_lambda_scalar(self, a, expected):
        assert critical_lambda(GaussMarkovModel.scalar(a, 1.0, 0.2, 1.5)) == expected

    @pytest.mark.parametrize(
        "d, expected",
        [
            (1.0, (0.3950843811035156, 0.9877128601074219, 1.020730250413767)),
            (3.0, (0.2942695617675781, 0.4414024353027344, 4.796577127028612)),
        ],
    )
    def test_scalar_thresholds(self, unstable_model, d, expected):
        got = tuple(f(d, unstable_model, bisect_tol=1e-5) for f in (lambda_s, lambda_v, gamma_max))
        assert got == expected

    def test_matrix_thresholds(self, bench_model):
        got = tuple(f(3.0, bench_model, bisect_tol=1e-5) for f in (lambda_s, lambda_v, gamma_max))
        assert got == (0.15814590454101562, 0.21838760375976562, 22.59563720388376)

    @pytest.mark.parametrize(
        "model_name", ("unstable_model", "bench_model", "correlated_model", "seeded_model")
    )
    def test_vbar_diverges_wherever_sbar_does(self, request, model_name):
        model = request.getfixturevalue(model_name)
        for lam in np.linspace(0.0, 1.0, 41):
            if sbar(lam, model) is None:
                assert vbar(lam, model) is None


def observed_unstable_model(seed: int, m: int, pair: bool) -> GaussMarkovModel:
    """Seeded m x m model whose only unstable modes, one real eigenvalue or a
    complex pair of modulus 1.02..1.5, are seen by C (one or two outputs)."""
    rng = np.random.default_rng([seed, m, pair])
    k = 2 if pair else 1
    r = rng.uniform(1.02, 1.5)
    if pair:
        theta = rng.uniform(0.3, 2.8)
        block = r * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    else:
        block = np.array([[r * rng.choice([-1.0, 1.0])]])
    jordan = np.zeros((m, m))
    jordan[:k, :k] = block
    jordan[k:, k:] = np.diag(rng.uniform(-0.9, 0.9, m - k))
    basis = rng.standard_normal((m, m))
    lq = rng.standard_normal((m, m)) / math.sqrt(m)
    lr = rng.standard_normal((k, k))
    return GaussMarkovModel(
        A=basis @ jordan @ np.linalg.inv(basis),
        C=rng.standard_normal((k, m)),
        Q=lq @ lq.T + 0.1 * np.eye(m),
        R=lr @ lr.T + 0.5 * np.eye(k),
    )


#: the last puts (1 - lam) a^2 at lam = 1/2, a bisection midpoint, inside
#: CRITICAL_MARGIN below 1, where both routes must still call it divergent
SCALAR_A = (1.01, -1.01, 1.15, -1.15, -1.3, 1.5, 2.0, 3.0, math.sqrt(2.0 - 1e-9))
#: (seed, m, complex pair) of seeded models on which the iterative oracle is
#: wrong: V-bar's trace reaches 1e5..1e7 near the boundary, the oracle's
#: absolute step tolerance 1e-10 is below its rounding noise, and the stalled
#: probes' step-size trend calls convergent probes divergent (at bisect_tol
#: 1e-2 its answer is 0.008 to 0.023 too high); test_gain_bounds_vbar covers them
ORACLE_FAILS = [(0, 8, True), (1, 8, True), (2, 3, False)]
#: seeded models compared with the iterative oracle
SEEDED = [
    (seed, m, pair)
    for seed in (0, 1, 2)
    for m in (2, 3, 8)
    for pair in (False, True)
    if (seed, m, pair) not in ORACLE_FAILS
] + [(1, 5, False), (1, 5, True)]


def certified_equals_oracle(model, tol, monkeypatch):
    """critical_lambda equals the iterative oracle without a covariance step."""
    want = ref.critical_lambda_iterative(model, bisect_tol=tol)
    with monkeypatch.context() as patch:
        for name in ("bs_kernel", "gamma_bs"):
            patch.setattr(riccati, name, lambda *args: pytest.fail("covariance step"))
        assert critical_lambda(model, bisect_tol=tol) == want


class TestCertifiedCriticalLambda:
    """critical_lambda on certified models equals the iterative bisection bit
    for bit and runs no covariance step; refused models still iterate."""

    @pytest.mark.parametrize("tol", (1e-3, 1e-6))
    @pytest.mark.parametrize("a", SCALAR_A)
    def test_scalar(self, monkeypatch, a, tol):
        model = GaussMarkovModel.scalar(a, 1.0, 0.2, 1.5)
        assert riccati.unstable_modes_observed(model)
        certified_equals_oracle(model, tol, monkeypatch)

    def test_bench_model(self, monkeypatch, bench_model):
        assert riccati.unstable_modes_observed(bench_model)
        certified_equals_oracle(bench_model, 1e-3, monkeypatch)

    def test_stable_models(self, monkeypatch, correlated_model, matrix_model):
        # rho(A) < 1 returns 0 before the certificate is asked
        for model in (correlated_model, matrix_model):
            certified_equals_oracle(model, 1e-6, monkeypatch)
            assert critical_lambda(model) == 0.0

    @pytest.mark.parametrize("seed, m, pair", SEEDED)
    def test_seeded(self, monkeypatch, seed, m, pair):
        model = observed_unstable_model(seed, m, pair)
        assert riccati.unstable_modes_observed(model)
        certified_equals_oracle(model, 1e-2, monkeypatch)

    @pytest.mark.parametrize("seed, m, pair", SEEDED + ORACLE_FAILS)
    def test_gain_bounds_vbar(self, seed, m, pair):
        # the certificate's proof, checked directly: just above 1 - 1/rho^2
        # the gain K = -A V_u (C V_u)^+ makes phi_lam(K, .) contract at the
        # predicted rate, so its fixed point bounds every V-bar iterate
        model = observed_unstable_model(seed, m, pair)
        rho = spectral_radius(model.A)
        mu = np.abs(np.linalg.eigvals(model.A))
        rho_s = float(np.max(mu[mu < 1.0], initial=0.0))
        for lam in (1.0 - 1.0 / rho**2 + step for step in (1e-3, 0.05)):
            radius, bound, _ = ref.certificate_gain_bound(model, lam)
            predicted = max((1.0 - lam) * rho * rho, (1.0 - lam) * rho * rho_s, rho_s * rho_s)
            assert radius == pytest.approx(predicted, rel=1e-8)
            assert radius < 1.0
            p = model.Q
            for _ in range(300):
                p = gamma_bs(p, lam, model)
                assert np.min(np.linalg.eigvalsh(bound - p)) >= -1e-9 * np.trace(bound)

    @pytest.mark.parametrize(
        "a, c, tol, expected",
        [
            # two unstable modes, one output
            ([[1.2, 0.0], [0.0, 1.1]], [[1.0, 1.0]], 1e-3, 0.42626953125),
            # defective eigenbasis
            ([[1.1, 1.0], [0.0, 1.1]], [[1.0, 0.0]], 1e-2, 0.31640625),
            # unstable mode unseen by C (not detectable): the iteration raises
            ([[1.1, 0.0], [0.0, 0.5]], [[0.0, 1.0]], 1e-2, None),
        ],
    )
    def test_refused_models_iterate(self, monkeypatch, a, c, tol, expected):
        model = GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[1.0]])
        assert not riccati.unstable_modes_observed(model)
        steps = []
        step = riccati.gamma_bs
        monkeypatch.setattr(riccati, "gamma_bs", lambda *args: steps.append(1) or step(*args))
        if expected is None:
            with pytest.raises(ConvergenceError):
                critical_lambda(model, bisect_tol=tol)
        else:
            # the threshold lies well above 1 - 1/rho^2, so the closed form
            # would be wrong here
            assert critical_lambda(model, bisect_tol=tol) == expected
            assert expected > 1.0 - 1.0 / spectral_radius(model.A) ** 2 + 0.1
        assert steps

    def test_certificate_refusals(self):
        def refused(a, c):
            model = GaussMarkovModel(A=a, C=c, Q=np.eye(len(a)), R=np.eye(len(c)))
            return not riccati.unstable_modes_observed(model)

        assert refused([[0.9]], [[1.0]])
        assert refused([[1.1]], [[0.0]])
        assert refused([[1.1]], [[0.0], [0.0]])
        assert not refused([[-1.1]], [[0.0], [0.5]])

        assert refused([[0.9, 0.0], [0.0, 0.5]], [[1.0, 0.0]])  # no unstable mode
        assert refused([[1.2, 0.0], [0.0, 1.1]], [[1.0, 1.0]])  # more modes than outputs
        assert refused([[1.1, 1.0], [0.0, 1.1]], [[1.0, 0.0], [0.0, 1.0]])  # defective
        assert refused([[1.2, 0.0], [0.0, 1.1]], [[1.0, 1.0], [2.0, 2.0]])  # rank-deficient C V_u
        # nearly defective eigenbasis (cond ~ 1e10) with a well-conditioned C V_u
        assert refused([[1.2, 1.0], [0.0, 1.2 + 1e-10]], [[1.0, 0.0], [0.0, 1e10]])
        assert refused([[1.1, 0.0], [0.0, 0.5]], [[0.0, 1.0]])  # unstable mode unseen
        assert not refused([[1.2, 0.0], [0.0, 1.1]], [[1.0, 1.0], [1.0, 2.0]])


def assert_solved_near_critical(model):
    """Just above 1 - 1/rho^2, where iterating V-bar cannot finish, the direct
    solve satisfies the fixed-point equation and lies below the certificate's
    bound, up to the rounding of the bound's own ill-conditioned solve."""
    lam_c = max(0.0, 1.0 - 1.0 / spectral_radius(model.A) ** 2)
    for lam in (lam_c + 1e-5, lam_c + 1e-8):
        x = vbar(lam, model)
        assert np.linalg.norm(gamma_bs(x, lam, model) - x) <= 1e-12 * np.linalg.norm(x)
        _, bound, cond = ref.certificate_gain_bound(model, lam)
        slack = np.finfo(float).eps * cond * np.trace(bound)
        assert np.min(np.linalg.eigvalsh(bound - x)) >= -slack


class TestDirectSolves:
    """The direct solves on the seeded certified models: against the oracles
    away from the threshold, and against the fixed-point equation next to it."""

    @pytest.mark.parametrize("seed, m, pair", SEEDED)
    def test_seeded_oracles(self, seed, m, pair):
        model = observed_unstable_model(seed, m, pair)
        lam_c = 1.0 - 1.0 / spectral_radius(model.A) ** 2
        lams = [lam_c + 0.1, lam_c + 0.2, 1.0]
        assert_close_points(vbar_sweep(lams, model), ref.vbar_points(model, lams))
        assert_close_points(sbar_sweep(lams, model), sbar_oracle(model, lams))
        # at gamma = 1e3 scipy's DARE leaves residuals up to 1e-11 on these
        # models, against 1e-15 for the direct solve, so it stops at 10
        gammas = [1.0, 1.5, 10.0]
        assert_close_points(mb_sweep(gammas, model), mb_oracle(model, gammas))

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    def test_near_critical(self, request, model_name):
        assert_solved_near_critical(request.getfixturevalue(model_name))

    @pytest.mark.parametrize("seed, m, pair", SEEDED)
    def test_near_critical_seeded(self, seed, m, pair):
        assert_solved_near_critical(observed_unstable_model(seed, m, pair))

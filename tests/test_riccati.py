import dataclasses
import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas_lab import riccati, statespace
from jcas_lab.errors import NumericalError, ParameterError
from jcas_lab.riccati import (
    BeamPolicy,
    critical_lambda,
    gamma_bs,
    gamma_max,
    gamma_mb,
    iterate_map,
    lambda_s,
    lambda_v,
    mb_fixed_point,
    riccati_step,
    sbar,
    sbar_traces,
    vbar,
    vbar_traces,
)
from jcas_lab.statespace import (
    CRITICAL_MARGIN,
    GaussMarkovModel,
    grid_members,
    is_psd,
    lyapunov_step,
    scaled_lyapunov_grid,
    solve_scaled_lyapunov,
    spectral_radius,
)
from jcas_lab.tradeoff import ChannelSpec, bs_curve, mb_curve, mb_rate

import exact_reference
import riccati_reference as ref
from riccati_reference import trace_or_inf
from conftest import quad_mb_root, random_psd, record_solves, rounding_gamma, scaled_lyap_root, stein_error_bound

P1 = np.array([[1.0]])


def bits(x) -> bytes:
    """The float64 bytes of x, so +0 and -0 differ and nan equals itself."""
    return np.ascontiguousarray(x, dtype=float).tobytes()


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

    def test_refusals_share_the_domain_messages(self):
        # one check and one message per domain: the policy's value and
        # mb_rate's gamma0 are refused as gamma_bs and gamma_mb refuse them
        for value in (-0.01, 1.01, math.nan):
            with pytest.raises(ParameterError, match=r"^lam must lie in \[0, 1\], got"):
                BeamPolicy.switching(value)
        for value in (0.99, -math.inf, math.nan):
            with pytest.raises(ParameterError, match=r"^gamma must lie in \[1, inf\], got"):
                BeamPolicy.multibeam(value)
            with pytest.raises(ParameterError, match=r"^gamma must lie in \[1, inf\], got"):
                mb_rate(ChannelSpec.gaussian(1.75), value)


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


def step_model(m: int) -> GaussMarkovModel:
    """Seeded m x m model, one output below m = 4 and two from there on;
    m = 1 is a scalar model."""
    rng = np.random.default_rng([7, m])
    k = 1 if m < 4 else 2
    return GaussMarkovModel(
        A=rng.standard_normal((m, m)) / math.sqrt(m),
        C=rng.standard_normal((k, m)),
        Q=random_psd(rng, m),
        R=random_psd(rng, k),
    )


class TestStepDispatch:
    """Each public covariance step equals, bit for bit, the kernel of its
    branch: the open-loop ``lyapunov_step`` at lam = 0 or gamma = inf,
    ``sensing_kernel`` on a scalar model, ``innovation`` on a matrix one."""

    @staticmethod
    def branch_kernel(model, p, gamma, lam):
        if lam == 0.0 or math.isinf(gamma):
            return lyapunov_step(model, p, 1.0)
        if model.is_scalar:
            a, c, q, r = model.scalars()
            return np.array([[riccati.sensing_kernel(a, c, q, r, p[0, 0], gamma, lam)]])
        return riccati.innovation(model, p, gamma, lam)[1]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_public_steps_equal_branch_kernels(self, m):
        model = step_model(m)
        assert model.is_scalar == (m == 1)
        p = random_psd(np.random.default_rng([8, m]), m)
        for gamma in (1.0, 3.0, math.inf):
            want = bits(self.branch_kernel(model, p, gamma, 1.0))
            assert bits(riccati_step(model, p, gamma)) == want
            assert bits(gamma_mb(p, gamma, model)) == want
        for lam in (0.0, 0.4, 1.0):
            assert bits(gamma_bs(p, lam, model)) == bits(self.branch_kernel(model, p, 1.0, lam))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_scalar_step_at_zero_is_q(self, zero):
        # P = 0 steps to q, the kernel's bits, with no division by zero
        # (pytest turns every RuntimeWarning into an error)
        model = step_model(1)
        a, c, q, r = model.scalars()
        p = np.array([[zero]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = [riccati_step(model, p, 3.0), gamma_mb(p, 3.0, model)]
            steps += [gamma_bs(p, lam, model) for lam in (0.4, 1.0)]
        with np.errstate(divide="ignore"):
            kernels = [
                riccati.sensing_kernel(a, c, q, r, p[0, 0], gamma, lam)
                for gamma, lam in ((3.0, 1.0), (3.0, 1.0), (1.0, 0.4), (1.0, 1.0))
            ]
        for got, want in zip(steps, kernels):
            assert bits(got) == bits(np.array([[want]])) == bits(np.array([[q]]))


def arrival_caps(mask):
    """The kernel's arrival caps: 0 where the measurement arrived, +inf where erased."""
    return np.where(mask, 0.0, math.inf)


class TestOverflowedCovariance:
    """The scalar step at an overflowed p = +inf takes the limit as p -> inf."""

    def test_riccati_step_limit(self):
        # a^2 gamma r / c^2 + q, where a p a + q - (a p c)^2 / s gave inf / inf
        for gamma in (1.0, 2.0):
            p_next = riccati.sensing_kernel(1e30, 2.0, 0.2, 1.5, np.float64(math.inf), gamma, 1.0)
            assert p_next == pytest.approx(1e60 * gamma * 1.5 / 4.0 + 0.2, rel=1e-15)
        assert riccati.riccati_kernel(1e30, 1.0, 0.2, 1.5, math.inf, 1.0) == pytest.approx(1.5e60)

    def test_erasure_average_diverges(self):
        assert riccati.bs_kernel(1e30, 1.0, 0.2, 1.5, math.inf, 0.5) == math.inf
        assert riccati.bs_kernel(-1.15, 1.0, 0.2, 1.5, math.inf, 0.99) == math.inf

    def test_unobserved_model(self):
        # c = 0 senses nothing: c^2 + gamma r / p is 0 at p = +inf
        with np.errstate(divide="ignore"):
            for lam in (0.0, 0.5, 1.0):
                assert riccati.bs_kernel(-1.15, 0.0, 0.2, 1.5, math.inf, lam) == math.inf

    def test_finite_entries_keep_their_bits(self):
        a, c, q, r = -1.15, 0.7, 0.2, 1.5
        finite = np.array([[0.0], [1e-3], [1.0], [37.5], [1e12]])
        with np.errstate(divide="ignore"):
            for gamma, lam in ((1.0, 1.0), (2.5, 1.0), (1.0, 0.4)):
                alone = riccati.sensing_kernel(a, c, q, r, finite, gamma, lam)
                mixed = riccati.sensing_kernel(a, c, q, r, np.vstack([finite, [[math.inf]]]), gamma, lam)
                assert bits(mixed[:-1]) == bits(alone)
                for i, p in enumerate(finite[:, 0]):
                    gr = gamma * r
                    sensed = lam * ((a * a) * gr / (c * c + gr / p))
                    plain = sensed + ((1.0 - lam) * ((a * p) * a) + q) if lam < 1.0 else sensed + q
                    assert riccati.sensing_kernel(a, c, q, r, p, gamma, lam) == plain
                    assert alone[i, 0] == plain

    def test_overflowed_innovation_takes_the_limit(self):
        # with |c| > |a|, s = c p c + gamma r overflowed while a p a did not,
        # and the subtracted form gave nan, or 0 and a p a + q; the one-step
        # form stays near a^2 gamma r / c^2 + q without a special case
        a, c, q, r = 1.2, 3.0, 0.2, 1.5
        for p in (2e307, 1e308, 1.7e308, math.inf):
            p_next = riccati.riccati_kernel(a, c, q, r, p, 1.0)
            assert p_next == pytest.approx(a * a * r / (c * c) + q, rel=1e-15)
        # on a masked trial array a sensed entry takes the lam = 1 step's
        # bits and an erased one the open-loop step's
        p = np.repeat([1.0, 2e307, 5e307, 1e308, 1.7e308], 2)[:, None]
        mask = np.arange(p.size)[:, None] % 2 == 1
        with np.errstate(over="ignore"):
            p_next = riccati.sensing_kernel(a, c, q, r, p, 1.0, arrival_caps(mask))
            erased = statespace.lyap_kernel(a, q, p, 1.0)
        sensed = riccati.sensing_kernel(a, c, q, r, p, 1.0, 1.0)
        assert bits(p_next[mask]) == bits(sensed[mask])
        assert bits(p_next[~mask]) == bits(erased[~mask])

    @pytest.mark.parametrize("a, c", [(-1.15, 0.7), (1e30, 1.0), (1e30, 2.0), (-1.15, 0.0)])
    def test_arrival_mask_picks_entry_by_entry(self, a, c):
        # lam as arrival caps: a 0 cap has the sensing step's bits, a +inf
        # cap the open-loop step's, from p = 0 through overflow to +inf
        q, r = 0.2, 1.5
        values = np.array([0.0, 1e-3, 37.5, 1e12, 1e308, math.inf])
        p = np.repeat(values, 2)[:, None]
        alternating = np.arange(p.size)[:, None] % 2 == 1
        with np.errstate(over="ignore", divide="ignore"):
            for gamma in (1.0, 2.5):
                sensed = riccati.sensing_kernel(a, c, q, r, p, gamma, 1.0)
                erased = statespace.lyap_kernel(a, q, p, 1.0)
                for mask in (alternating, ~alternating, np.full(p.shape, True), np.full(p.shape, False)):
                    p_next = riccati.sensing_kernel(a, c, q, r, p, gamma, arrival_caps(mask))
                    assert bits(p_next) == bits(np.where(mask, sensed, erased))
                # a p shared by every trial broadcasts against the caps
                for i, value in enumerate(values):
                    p_next = riccati.sensing_kernel(a, c, q, r, value, gamma, arrival_caps(alternating))
                    pick = np.where(alternating, sensed[2 * i], erased[2 * i])
                    assert bits(p_next) == bits(pick)


class TestExactStep:
    """``sensing_kernel`` against the exact rational step of its float inputs
    (``exact_reference.step``) over p from 1e-300 to 1e300, 0 and +inf.

    Each P' is a chain of roundings of sums, products and quotients of
    nonnegative numbers: on a sensing trial gamma r (1), gamma r / p (2),
    c^2 (1) and their sum (3), a^2 gamma r (3), the quotient (7) and + q
    (8); a fractional lam adds one for lam * (.) and (1 - lam) (a p) a + q
    takes 5; so each P' is within gamma_9 of the exact one, relatively,
    with no subnormal on this grid.
    """

    MODELS = {
        "unstable": (-1.15, 1.0, 0.2, 1.5),
        "stable": (-0.95, 1.0, 0.2, 1.5),
        "wide-c": (3.0, 1e3, 0.2, 1.5),
        "unobserved": (-1.15, 0.0, 0.2, 1.5),
    }
    P = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 61), [math.inf]])

    @staticmethod
    def check(got, a, c, q, r, p, gamma, lam):
        got = float(got)
        assert not math.isnan(got) and got >= q
        exact = exact_reference.step(a, c, q, r, p, gamma, lam)
        if exact == math.inf:
            assert got == math.inf
        else:
            assert abs(Fraction(got) - exact) <= exact_reference.unit_bound(9) * exact

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 1e4])
    def test_grid_within_rounding_of_exact(self, name, gamma):
        a, c, q, r = self.MODELS[name]
        p = self.P[:, None]
        mask = np.arange(len(p))[:, None] % 3 != 0
        with np.errstate(divide="ignore"):
            for lam in (0.0, 0.3, 0.7, 1.0):
                for value, got in zip(p[:, 0], riccati.sensing_kernel(a, c, q, r, p, gamma, lam)[:, 0]):
                    self.check(got, a, c, q, r, value, gamma, lam)
            masked = riccati.sensing_kernel(a, c, q, r, p, gamma, arrival_caps(mask))
        for value, arrived, got in zip(p[:, 0], mask[:, 0], masked[:, 0]):
            self.check(got, a, c, q, r, value, gamma, 1.0 if arrived else 0.0)

    def test_erasure_run_then_sensing(self):
        # an open-loop run of n steps, then one sensing step: the subtracted
        # form gave 0 from p = 1e17 on and negative values on (3, 1e3)
        for a, c, q, r in (self.MODELS["unstable"], self.MODELS["wide-c"]):
            run = exact_reference.open_loop_run(a, q, q, 600)
            p = q
            for n in range(600):
                p = statespace.lyap_kernel(a, q, p, 1.0)
                if p == math.inf:
                    break
                assert abs(Fraction(p) - run[n + 1]) <= exact_reference.unit_bound(3 * (n + 1)) * run[n + 1]
                self.check(riccati.riccati_kernel(a, c, q, r, p, 1.0), a, c, q, r, p, 1.0, 1.0)


class TestFixedPoints:
    def test_bs_full_measurement_unstable(self, unstable_model):
        root = quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0)  # 0.987536301...
        fp = ref.iterated_fixed_point(lambda p: gamma_bs(p, 1.0, unstable_model), unstable_model.Q)
        assert abs(fp[0, 0] - root) <= 1e-10
        assert root == pytest.approx(0.987536, abs=1e-5)

    def test_bs_open_loop_unstable_diverges(self, unstable_model):
        step = lambda p: gamma_bs(p, 0.0, unstable_model)
        assert ref.iterated_fixed_point(step, unstable_model.Q) is None

    def test_mb_stable_matches_quadratic(self, stable_model):
        root = quad_mb_root(-0.95, 1.0, 0.2, 1.5, 1.0)
        fp = mb_fixed_point(1.0, stable_model)
        assert abs(fp[0, 0] - root) <= 1e-10

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0])
    def test_scalar_fixed_points_match_quadratic_roots(self, gamma, unstable_model, stable_model):
        for model, a in ((unstable_model, -1.15), (stable_model, -0.95)):
            root = quad_mb_root(a, 1.0, 0.2, 1.5, gamma)
            assert abs(mb_fixed_point(gamma, model)[0, 0] - root) <= 1e-10

    def test_wrapper_agrees_with_generic_fixed_point(self, stable_model):
        step = lambda p: gamma_mb(p, 3.0, stable_model)
        via_generic = ref.iterated_fixed_point(step, stable_model.Q)
        via_wrapper = mb_fixed_point(3.0, stable_model)
        # the iteration stops at a step below tol = 1e-12; with the map's
        # slope rho at the fixed point, it is then within tol rho / (1 - rho)
        v, gr = via_wrapper[0, 0], 3.0 * 1.5
        rho = 0.95**2 * (gr / (v + gr)) ** 2
        assert abs(via_generic[0, 0] - v) <= 1e-12 * rho / (1.0 - rho)

    def test_matrix_fixed_point_residual(self, matrix_model):
        fp = ref.iterated_fixed_point(lambda p: gamma_bs(p, 0.6, matrix_model), matrix_model.Q)
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
        seq = list(iterate_map(lambda p: gamma_bs(p, 0.5, stable_model), stable_model.Q, 7))
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

    @pytest.mark.parametrize("d", [math.nan, math.inf])
    def test_finite_budget_required(self, unstable_model, d):
        # a NaN budget compared as met nowhere and an infinite one everywhere,
        # even by the divergent open loop
        for f in (lambda_s, lambda_v, gamma_max):
            with pytest.raises(ParameterError):
                f(d, unstable_model)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_positive_finite_bisect_tol_required(self, stable_model, bench_model, tol):
        # a tol <= 0 is never reached; the stable model's critical lambda
        # checks it before it returns 0
        for model in (stable_model, bench_model):
            with pytest.raises(ParameterError):
                critical_lambda(model, bisect_tol=tol)
            for f in (lambda_s, lambda_v, gamma_max):
                with pytest.raises(ParameterError):
                    f(3.0, model, bisect_tol=tol)

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


def seeded_random_model(seed, rho: float, m: int = 8, k: int = 2) -> GaussMarkovModel:
    """Seeded m x m model with k outputs and rho(A) = rho."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    a *= rho / spectral_radius(a)
    lq = rng.standard_normal((m, m)) / math.sqrt(m)
    lr = rng.standard_normal((k, k))
    return GaussMarkovModel(
        A=a,
        C=rng.standard_normal((k, m)),
        Q=lq @ lq.T + 0.1 * np.eye(m),
        R=lr @ lr.T + 0.5 * np.eye(k),
    )


@pytest.mark.parametrize("m", range(1, 9))
def test_arrival_mask_picks_sensing_or_open_loop(m):
    # innovation with a (trials, 1, 1) 0/1 mask as lam equals, bit for bit,
    # the two-branch pick: the sensing step where 1, the open-loop step where 0
    for k in (1, 2):
        model = seeded_random_model([7, m, k], 1.1, m, k)
        rng = np.random.default_rng([8, m, k])
        stack = np.stack([random_psd(rng, m) for _ in range(6)])
        mask = (rng.random(6) < 0.5)[:, None, None]
        mask[:2, 0, 0] = True, False
        for p in (stack, stack[0]):
            for gamma in (1.0, 2.5):
                sensed_gain, sensed = riccati.innovation(model, p, gamma)
                gain, p_next = riccati.innovation(model, p, gamma, mask)
                assert bits(gain) == bits(sensed_gain)
                assert bits(p_next) == bits(np.where(mask, sensed, lyapunov_step(model, p, 1.0)))


@pytest.mark.parametrize("m", range(1, 9))
def test_stack_steps_round_as_member_steps(m):
    # a stack's products with a model matrix (A P and C P together,
    # (A P) A^T, (A P) C^T) are one 2-D product over all members, and a
    # one-output S sums its m terms in a fixed order; every member keeps the
    # bits of its own step, on stacks of every size from empty up to the
    # benchmark cells' 1000 members and over nine decades
    count = 1000
    for k in (1, 2, 3):
        model = seeded_random_model([9, m, k], 1.1, m, k)
        rng = np.random.default_rng([10, m, k])
        scales = 10.0 ** rng.uniform(-9.0, 9.0, (count, 1, 1))
        x = rng.standard_normal((count, m, m))
        stack = scales * (x @ x.swapaxes(1, 2) + 1e-3 * np.eye(m))
        mask = (rng.random(count) < 0.5)[:, None, None] * 1.0
        members = [riccati.innovation(model, p, 2.5, lam) for p, lam in zip(stack, mask)]
        one_gains = np.array([gain for gain, _ in members]).reshape(count, m, k)
        one_steps = np.array([p_next for _, p_next in members]).reshape(count, m, m)
        one_open = np.array([lyapunov_step(model, p, 0.7) for p in stack]).reshape(count, m, m)
        for n in (0, 1, 2, 3, 4, 5, 8, 61, 256, 999, count):
            p, lam = stack[:n], mask[:n]
            gain, p_next = riccati.innovation(model, p, 2.5, lam)
            open_loop = lyapunov_step(model, p, 0.7)
            assert gain.shape == (n, m, k)
            assert p_next.shape == open_loop.shape == (n, m, m)
            assert bits(gain) == bits(one_gains[:n])
            assert bits(p_next) == bits(one_steps[:n])
            assert bits(open_loop) == bits(one_open[:n])


class TestExactMatrixStep:
    """The one-output matrix step against the exact rational step of its
    float inputs (``exact_reference.matrix_step``), entry by entry.

    With u = 2^-53, Higham's gamma_n and |.| taken entrywise of exact
    values: a product of matrices computed as two rounded products is off
    by at most gamma_2m times the product of the absolute values, so
    A P C^T = v by e_v = gamma_2m |A||P||C^T| and A P A^T by
    e_a = gamma_2m |A||P||A^T|.  S, the fixed-order sum of the m products
    of C P (itself within gamma_m) with C^T plus gamma R, is off by
    e_S = gamma_{2m+1} (|C||P||C^T| + gamma R).  For S > e_S the rounded
    quotient L = v / S is then off by
        e_L = (1 + u) (e_v + |L| e_S) / (S - e_S) + u |L|,
    and each entry of the correction c = v L^T, one rounded product, by
        e_c = (1 + u) (e_v (|L| + e_L)^T + |v| e_L^T) + u |c|.
    Adding Q, scaling by lam, subtracting and symmetrizing round four more
    times (0.5 M is exact in the normal range), so P' is off by at most
        (1 + gamma_4) (e_a + lam e_c) + gamma_4 (|A||P||A^T| + |Q| + lam |c|).
    """

    @staticmethod
    def check(model, p, gamma, lam):
        m = model.m
        gain, p_next = riccati.innovation(model, p, gamma, lam)
        exact_gain, exact_next = exact_reference.matrix_step(model.A, model.C, model.Q, model.R, p, gamma, lam)
        u = Fraction(1, 2**53)
        g = lambda n: Fraction(rounding_gamma(n))
        exact = dict(zip("ACQRP", map(exact_reference.exact_matrix, (model.A, model.C, model.Q, model.R, p))))
        a, c, q, pa = (np.abs(exact[name]) for name in "ACQP")
        gr = Fraction(gamma) * exact["R"][0, 0]
        s = (exact["C"] @ exact["P"] @ exact["C"].T)[0, 0] + gr
        v = exact["A"] @ exact["P"] @ exact["C"].T
        e_v = g(2 * m) * (a @ pa @ c.T)
        e_a = g(2 * m) * (a @ pa @ a.T)
        e_s = g(2 * m + 1) * ((c @ pa @ c.T)[0, 0] + gr)
        assert s > e_s
        abs_gain = np.abs(exact_gain)
        e_gain = (1 + u) * (e_v + abs_gain * e_s) / (s - e_s) + u * abs_gain
        corr = v @ exact_gain.T
        e_c = (1 + u) * (e_v @ (abs_gain + e_gain).T + np.abs(v) @ e_gain.T) + u * np.abs(corr)
        lam = Fraction(lam)
        bound = (1 + g(4)) * (e_a + lam * e_c) + g(4) * (a @ pa @ a.T + q + lam * np.abs(corr))
        gain_error = np.abs(exact_reference.exact_matrix(gain) - exact_gain)
        step_error = np.abs(exact_reference.exact_matrix(p_next) - exact_next)
        assert (gain_error <= e_gain).all()
        assert (step_error <= bound).all()
        # the bound resolves far less than the step itself
        assert (bound <= Fraction(1e-12) * (a @ pa @ a.T + q + np.abs(corr))).all()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_within_rounding_of_exact(self, m):
        model = seeded_random_model([14, m, 1], 1.1, m, 1)
        rng = np.random.default_rng([15, m])
        for scale in 10.0 ** rng.uniform(-3.0, 3.0, 2):
            p = statespace.symmetrize(scale * random_psd(rng, m))
            for gamma in (1.0, 2.5):
                for lam in (1.0, 0.4):
                    self.check(model, p, gamma, lam)


@pytest.fixture
def seeded_model():
    """Seeded unstable 8x8 model with two outputs, rho(A) = 1.1."""
    return seeded_random_model(20240601, 1.1)


@pytest.fixture
def stable_seeded_model():
    """Seeded stable 8x8 model with two outputs, rho(A) = 0.9."""
    return seeded_random_model(20240602, 0.9)


SWEEP_MODELS = ("bench_model", "matrix_model", "correlated_model", "seeded_model")
#: every model of TestStackedSweep: the sweep models and both scalar presets
ORACLE_MODELS = SWEEP_MODELS + ("unstable_model", "stable_model")
#: the longer grid starts below 1 - 1/rho^2 of both unstable models
LAM_GRIDS = {"one": [0.6], "many": [0.0, 0.05, 0.3, 0.6, 0.95, 1.0]}
GAMMA_GRIDS = {"one": [2.0], "many": [1.0, 1.5, 10.0, 1e3, math.inf], "inf": [math.inf]}
#: relative agreement required of a direct solve and its oracle
ORACLE_RTOL = 1e-10


def assert_close_points(got, want, rtol=ORACLE_RTOL):
    """Same None pattern; elsewhere within rtol of the oracle, in max-abs norm."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g is not None
            assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


def sbar_oracle(model, lams) -> list:
    rho = spectral_radius(model.A)
    diverges = lambda lam: (1.0 - lam) * rho * rho >= 1.0 - CRITICAL_MARGIN
    return [None if diverges(lam) else ref.lyapunov(model, 1.0 - lam) for lam in lams]


def mb_oracle(model, gammas) -> list:
    return [sbar_oracle(model, [0.0])[0] if math.isinf(g) else ref.dare(model, g) for g in gammas]


class TestStackedSweep:
    """Grid solves and single solves against independent oracles: V-bar against the
    iterated map, S-bar against scipy's Lyapunov solver, the multi-beam
    steady state against scipy's DARE."""

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", LAM_GRIDS.values(), ids=LAM_GRIDS.keys())
    def test_vbar(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = ref.vbar_points(model, grid)
        assert_close_points(grid_members(riccati._vbar_grid(model, grid)), want)
        assert_close_points([vbar(lam, model) for lam in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", LAM_GRIDS.values(), ids=LAM_GRIDS.keys())
    def test_sbar(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = sbar_oracle(model, grid)
        assert_close_points(grid_members(scaled_lyapunov_grid(model, 1.0 - np.asarray(grid))), want)
        assert_close_points([sbar(lam, model) for lam in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    @pytest.mark.parametrize("grid", GAMMA_GRIDS.values(), ids=GAMMA_GRIDS.keys())
    def test_mb(self, request, model_name, grid):
        model = request.getfixturevalue(model_name)
        want = mb_oracle(model, grid)
        assert_close_points(grid_members(riccati._mb_grid(model, grid)), want)
        assert_close_points([mb_fixed_point(g, model) for g in grid], want)

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    def test_no_covariance_step(self, monkeypatch, request, model_name):
        # scalar, stable and certified models solve directly: every curve
        # and threshold returns with the covariance steps made to fail
        model = request.getfixturevalue(model_name)
        channel = ChannelSpec.gaussian(1.75)
        steps = (
            (riccati, "_step"), (riccati, "gamma_bs"), (riccati, "riccati_step"), (riccati, "bs_kernel"),
            (riccati, "riccati_kernel"), (statespace, "lyapunov_step"), (statespace, "lyap_kernel"),
        )
        for module, name in steps:
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("covariance step"))
        lams, gammas = LAM_GRIDS["many"], GAMMA_GRIDS["many"]
        assert len(grid_members(riccati._vbar_grid(model, lams))) == len(lams)
        assert len(grid_members(scaled_lyapunov_grid(model, 1.0 - np.asarray(lams)))) == len(lams)
        assert len(grid_members(riccati._mb_grid(model, gammas))) == len(gammas)
        inner, outer = bs_curve(model, channel, lams)
        assert len(inner) == len(outer) == len(lams)
        assert len(mb_curve(model, channel, gammas)) == len(gammas)
        for f in (lambda_s, lambda_v, gamma_max):
            f(3.0, model, bisect_tol=1e-4)


def assert_same_point(got, want):
    """Bit for bit, None included."""
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("model_name", ("bench_model", "stable_seeded_model"))
class TestOpenLoopLimit:
    """gamma = inf is the open-loop Lyapunov solve, bit for bit, on matrix
    models: None on the unstable 2x2 model, finite on the stable 8x8 one."""

    def test_fixed_point_and_sweep(self, request, model_name):
        model = request.getfixturevalue(model_name)
        open_loop = solve_scaled_lyapunov(model, 1.0)
        assert (open_loop is None) == (model_name == "bench_model")
        assert_same_point(mb_fixed_point(math.inf, model), open_loop)
        assert_same_point(grid_members(riccati._mb_grid(model, [1.0, 2.0, math.inf]))[2], open_loop)

    def test_gamma_max_open_loop_branch(self, request, model_name):
        # gamma_max is inf exactly when the budget covers the open-loop trace
        model = request.getfixturevalue(model_name)
        open_loop = trace_or_inf(solve_scaled_lyapunov(model, 1.0))
        if math.isinf(open_loop):
            assert gamma_max(sys.float_info.max, model) < math.inf
        else:
            assert gamma_max(open_loop, model) == math.inf
            assert gamma_max(np.nextafter(open_loop, 0.0), model, bisect_tol=1e-2) < math.inf


class TestPinnedOutputs:
    """Values computed before the sweep and the divergence short-circuit."""

    def test_critical_lambda_2x2(self, bench_model):
        assert critical_lambda(bench_model, bisect_tol=1e-3) == 0.09326171875

    def test_default_tolerance_thresholds(self, bench_model):
        # the scipy-free CI step asserts these same values
        assert lambda_v(1.0, bench_model) == 0.6754355430603027
        assert gamma_max(3.0, bench_model) == 22.595684342105447
        assert gamma_max(1000.0, two_modes_one_output()) == 103.48340592439696

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


#: models the certificate refuses, both with a V-bar threshold well above
#: 1 - 1/rho^2; Q = I and R = 1
REFUSED = {
    "two-modes-one-output": ([[1.2, 0.0], [0.0, 1.1]], [[1.0, 1.0]]),
    "defective": ([[1.1, 1.0], [0.0, 1.1]], [[1.0, 0.0]]),
}


def kron_radius(model, lam, gain) -> float:
    """rho((1 - lam) A (x) A + lam F (x) F) with F = A - L C."""
    f = model.A - gain @ model.C
    linear = (1.0 - lam) * np.kron(model.A, model.A) + lam * np.kron(f, f)
    return float(np.max(np.abs(np.linalg.eigvals(linear))))


def record_gain_searches(monkeypatch) -> list:
    """Every batched gain search, in call order, as the list of its members'
    (model, lam, gain)."""
    searches = []
    search = riccati._contracting_gains

    def recorded(model, lams):
        gains = search(model, lams)
        searches.append([(model, lam, gain) for lam, gain in zip(lams, gains)])
        return gains

    monkeypatch.setattr(riccati, "_contracting_gains", recorded)
    return searches


def members(searches) -> list:
    return [member for search in searches for member in search]


def assert_gains_contract(searches):
    for model, lam, gain in members(searches):
        if gain is not None:
            assert kron_radius(model, lam, gain) < 1.0


class TestCertifiedCriticalLambda:
    """critical_lambda on certified models equals the iterative bisection bit
    for bit and runs no covariance step; refused models search for a
    contracting gain."""

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
            # unstable mode unseen by C (not detectable): the doubling at
            # lam = 1 does not settle
            ([[1.1, 0.0], [0.0, 0.5]], [[0.0, 1.0]], 1e-2, None),
        ],
    )
    def test_refused_models_iterate(self, monkeypatch, a, c, tol, expected):
        model = GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[1.0]])
        assert not riccati.unstable_modes_observed(model)
        searches = record_gain_searches(monkeypatch)
        if expected is None:
            with pytest.raises(NumericalError):
                critical_lambda(model, bisect_tol=tol)
            assert searches == []
        else:
            # the threshold lies well above 1 - 1/rho^2, so the closed form
            # would be wrong here
            assert critical_lambda(model, bisect_tol=tol) == expected
            assert expected > 1.0 - 1.0 / spectral_radius(model.A) ** 2 + 0.1
            assert_gains_contract(searches)
            assert any(gain is not None for *_, gain in members(searches))
            assert any(gain is None for *_, gain in members(searches))
            # lam = 1 is the doubling's; each search holds the midpoints of
            # up to BISECT_LEVELS halvings that lie above 1 - 1/rho^2
            assert all(lam < 1.0 for _, lam, _ in members(searches))
            assert max(len(search) for search in searches) > 1
            assert all(len(search) <= 2**riccati.BISECT_LEVELS - 1 for search in searches)

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


def refused_family_model(seed: int, m: int, k: int) -> GaussMarkovModel:
    """Seeded m x m model with k outputs and more unstable modes than
    outputs: k + 1..m real eigenvalues of modulus 1.02..1.3 and either sign,
    the others in (-0.9, 0.9), in a random basis; Q = I and R = I."""
    rng = np.random.default_rng([seed, m, k])
    u = int(rng.integers(k + 1, m + 1))
    unstable = rng.uniform(1.02, 1.3, u) * rng.choice([-1.0, 1.0], u)
    mu = np.concatenate([unstable, rng.uniform(-0.9, 0.9, m - u)])
    basis = rng.standard_normal((m, m))
    return GaussMarkovModel(
        A=basis @ np.diag(mu) @ np.linalg.inv(basis),
        C=rng.standard_normal((k, m)),
        Q=np.eye(m),
        R=np.eye(k),
    )


#: (seed, m, k) of refused family models -> their V-bar threshold lam_V,
#: from critical_lambda at bisect_tol 1e-3.  One model per (m, k), taken
#: from a scan of seeds 0..23 among those whose tr V-bar(1) stays below 400
#: and whose lam_V lies 0.06 or more above 1 - 1/rho^2.  Most seeds have
#: V-bar traces of 1e4..1e7 near lam_V, where the iterated oracle's absolute
#: step tolerance 1e-12 lies below its rounding noise and it cannot decide.
REFUSED_FAMILY = {
    (7, 3, 1): 0.622,
    (3, 3, 2): 0.441,
    (5, 4, 1): 0.597,
    (13, 4, 2): 0.491,
    (1, 5, 1): 0.261,
    (1, 5, 2): 0.390,
}


def refused_family_grid(lam_v: float) -> list:
    """0 (below 1 - 1/rho^2), a point of the band between that and lam_V
    where the search fails, and two finite points; each lies 0.06 or more
    from lam_V, so no search runs to GAIN_SEARCH_STEPS.  The finite one
    below 1 sits 0.2 above lam_V, where the fixed point is conditioned well
    enough for the iterated oracle to agree within 1e-12."""
    return [0.0, lam_v - 0.06, lam_v + 0.2, 1.0]


class TestRefusedSweeps:
    """On refused models one batched gain search starts the one batched
    policy iteration of the lam < 1 points, and the doubling solves every
    lam = 1 point: V-bar against the iterated map, the multi-beam steady
    state against scipy's DARE, both within 1e-12.  Each member of the
    search equals the per-point search bit for bit."""

    @pytest.mark.parametrize("a, c", REFUSED.values(), ids=REFUSED.keys())
    def test_sweeps_match_oracles(self, monkeypatch, a, c):
        model = GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[1.0]])
        searches = record_gain_searches(monkeypatch)
        # 0.0 lies below 1 - 1/rho^2 of both models; on the defective one 0.2
        # lies between that and its V-bar threshold, where the search fails
        lams = [0.0, 0.2, 0.5, 0.6, 0.8, 0.95, 1.0]
        want = ref.vbar_points(model, lams)
        assert_close_points(grid_members(riccati._vbar_grid(model, lams)), want, rtol=1e-12)
        gammas = [1.0, 1.5, 10.0]
        dares = [ref.dare(model, g) for g in gammas]
        assert_close_points(grid_members(riccati._mb_grid(model, gammas)), dares, rtol=1e-12)
        assert_gains_contract(searches)
        found = sum(gain is not None for *_, gain in members(searches))
        assert found == sum(w is not None for w in want[:-1])
        # one search, over every point of the V-bar sweep above
        # 1 - 1/rho^2 but lam = 1; the multi-beam sweep searches nothing
        searched = sum((1.0 - lam) * spectral_radius(model.A) ** 2 < 1.0 for lam in lams[:-1])
        assert [len(search) for search in searches] == [searched]

    @pytest.mark.parametrize("seed, m, k", REFUSED_FAMILY)
    def test_family_searches_equal_per_point_search(self, seed, m, k):
        model = refused_family_model(seed, m, k)
        assert not riccati.unstable_modes_observed(model)
        lam_v = REFUSED_FAMILY[seed, m, k]
        # the grid's V-bar points below lam = 1 (the doubling's) and two more
        lams = [*refused_family_grid(lam_v)[:-1], lam_v + 0.1, 0.9]
        got = riccati._contracting_gains(model, lams)
        want = [ref.contracting_gain(model, lam, 1.0) for lam in lams]
        for g, w in zip(got, want):
            assert_same_point(g, w)
        # lam = 0 and the band point diverge; every other point finds a gain
        assert [w is None for w in want] == [True, True] + [False] * 3

    @pytest.mark.parametrize("seed, m, k", REFUSED_FAMILY)
    def test_family_sweeps_match_oracles(self, seed, m, k):
        model = refused_family_model(seed, m, k)
        lams = refused_family_grid(REFUSED_FAMILY[seed, m, k])
        want = ref.vbar_points(model, lams)
        assert_close_points(grid_members(riccati._vbar_grid(model, lams)), want, rtol=1e-12)
        gammas = [1.0, 1.5, 10.0]
        want = [ref.dare(model, g) for g in gammas]
        assert_close_points(grid_members(riccati._mb_grid(model, gammas)), want, rtol=1e-12)

    @pytest.mark.parametrize("seed, m, k", REFUSED_FAMILY)
    def test_family_thresholds_equal_sequential_oracle(self, seed, m, k):
        model = refused_family_model(seed, m, k)
        d = 2.0 * trace_or_inf(vbar(1.0, model))
        assert lambda_v(d, model, 1e-3) == ref.lambda_v(d, model, 1e-3)
        assert gamma_max(d, model, 1e-3) == ref.gamma_max(d, model, 1e-3)


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
        assert_close_points(grid_members(riccati._vbar_grid(model, lams)), ref.vbar_points(model, lams))
        sbars = grid_members(scaled_lyapunov_grid(model, 1.0 - np.asarray(lams)))
        assert_close_points(sbars, sbar_oracle(model, lams))
        # at gamma = 1e3 scipy's DARE leaves residuals up to 1e-11 on these
        # models, against 1e-15 for the direct solve, so it stops at 10
        gammas = [1.0, 1.5, 10.0]
        assert_close_points(grid_members(riccati._mb_grid(model, gammas)), mb_oracle(model, gammas))

    @pytest.mark.parametrize("model_name", ORACLE_MODELS)
    def test_near_critical(self, request, model_name):
        assert_solved_near_critical(request.getfixturevalue(model_name))

    @pytest.mark.parametrize("seed, m, pair", SEEDED)
    def test_near_critical_seeded(self, seed, m, pair):
        assert_solved_near_critical(observed_unstable_model(seed, m, pair))


class Recorded:
    """A predicate's verdict on x that records x when the bisection reads it."""

    def __init__(self, x: float, value: bool, reads: list):
        self.x, self.value, self.reads = x, value, reads

    def __bool__(self) -> bool:
        self.reads.append(self.x)
        return self.value


class TestBatchedBisection:
    """``_bisect`` deciding several halvings per predicate call walks exactly
    as the one-probe oracle, on any verdict table, monotone or not."""

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 20.0),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5, 30.0]),
        monotone=st.booleans(),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        levels=st.integers(1, 5),
    )
    def test_same_walk_as_one_probe(self, lo, width, tol, monotone, frac, seed, levels):
        hi = lo + width
        boundary = lo + frac * width
        if monotone:
            table = lambda x: x >= boundary
        else:
            # float hashes are not salted, so the table is a fixed function of x
            table = lambda x: hash((seed, x)) % 2 == 1
        visits = []
        want = ref.bisect(lo, hi, tol, lambda x: visits.append(x) or table(x))
        for depth in sorted({1, levels}):
            reads, calls = [], []

            def above(xs):
                calls.append(list(xs))
                return [Recorded(x, table(x), reads) for x in xs]

            got = riccati._bisect(lo, hi, tol, above, depth)
            assert got.hex() == want.hex()
            assert reads == visits
            assert len(calls) <= math.ceil(len(visits) / depth)
            assert all(len(xs) <= 2**depth - 1 for xs in calls)

    @pytest.mark.parametrize("levels", (1, 3))
    @pytest.mark.parametrize("tol", (0.0, -1.0, 1e-300))
    def test_stops_where_midpoints_round_to_an_end(self, tol, levels):
        # no bracket of floats around 1/3 is ever within these tols, so the
        # bisection must stop once the midpoint rounds to lo or hi, after 54
        # halvings in; the predicate fails the test instead of hanging it
        calls = []

        def above(xs):
            calls.append(xs)
            if len(calls) > 200:
                pytest.fail("bisection did not stop")
            return [x >= 1.0 / 3.0 for x in xs]

        got = riccati._bisect(0.0, 1.0, tol, above, levels)
        assert got in (1.0 / 3.0, np.nextafter(1.0 / 3.0, 0.0))
        assert len(calls) == math.ceil(54 / levels)

    def test_midpoints_stop_at_tol(self):
        # the fourth halving of [0, 1] starts from spans of 1/8; at tol 0.2
        # the bisection stops before it, so its midpoints are not asked for
        assert len([x for x in riccati._midpoints(0.0, 1.0, 1e-3, 4) if x is not None]) == 15
        assert len([x for x in riccati._midpoints(0.0, 1.0, 0.2, 4) if x is not None]) == 7


#: seeded stable and certified models, m = 2..8
BATCH_MODELS = {
    **{
        f"stable-m{m}-k{k}": (seeded_random_model, ([3, m, k], 0.8, m, k))
        for m in range(2, 9)
        for k in (1, 2)
    },
    **{
        f"certified-m{m}-pair{pair}": (observed_unstable_model, (1, m, pair))
        for m in (2, 3, 5, 8)
        for pair in (False, True)
    },
}


def two_modes_one_output() -> GaussMarkovModel:
    """The refused diag(1.2, 1.1), C = [1, 1] model of REFUSED."""
    a, c = REFUSED["two-modes-one-output"]
    return GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[1.0]])


def batch_model(name: str) -> GaussMarkovModel:
    make, args = BATCH_MODELS[name]
    return make(*args)


class TestBatchedProbes:
    """The thresholds' batched probes give each member's single solve bit for bit."""

    @pytest.mark.parametrize("name", BATCH_MODELS)
    def test_grid_members_equal_single_solves(self, name):
        model = batch_model(name)
        lam_c = max(0.0, 1.0 - 1.0 / spectral_radius(model.A) ** 2)
        lams = [*np.linspace(0.0, 1.0, 9), lam_c + 1e-3, lam_c + 1e-6]
        gammas = [*np.exp(np.linspace(0.0, riccati.GAMMA_LOG_RANGE, 9)), 1.5]
        for ls, gs in ((lams, [1.0] * len(lams)), ([1.0] * len(gammas), gammas)):
            for got, lam, gamma in zip(grid_members(riccati._solve_grid(model, ls, gs)), ls, gs):
                assert_same_point(got, grid_members(riccati._solve_grid(model, [lam], [gamma]))[0])
        sbars = grid_members(scaled_lyapunov_grid(model, 1.0 - np.asarray(lams)))
        for got, lam in zip(sbars, lams):
            assert_same_point(got, sbar(lam, model))

    @pytest.mark.parametrize("tol", (1e-3, 1e-6))
    @pytest.mark.parametrize("name", ("bench", "stable-m8-k2", "certified-m5-pairTrue"))
    def test_thresholds_equal_sequential_oracle(self, bench_model, name, tol):
        model = bench_model if name == "bench" else batch_model(name)
        assert riccati._bisect_levels(model) == riccati.BISECT_LEVELS
        v1 = trace_or_inf(vbar(1.0, model))
        for d in (0.9 * v1, 1.01 * v1, 1.3 * v1, 3.0 * v1, 30.0 * v1, 1e6 * v1):
            assert lambda_s(d, model, tol) == ref.lambda_s(d, model, tol)
            assert lambda_v(d, model, tol) == ref.lambda_v(d, model, tol)
            assert gamma_max(d, model, tol) == ref.gamma_max(d, model, tol)

    def test_only_scalar_models_probe_one_at_a_time(self, monkeypatch, unstable_model):
        assert riccati._bisect_levels(unstable_model) == 1
        # V-bar, multi-beam and S-bar probes of refused models batch alike
        refused = two_modes_one_output()
        assert riccati._bisect_levels(refused) == riccati.BISECT_LEVELS
        searches = record_gain_searches(monkeypatch)
        assert lambda_v(1000.0, refused) == 0.46207666397094727
        assert max(len(search) for search in searches) > 2
        assert all(len(search) <= 2**riccati.BISECT_LEVELS - 1 for search in searches)

    @pytest.mark.parametrize("d", (100.0, 250.0, 1000.0))
    def test_refused_thresholds_equal_sequential_oracle(self, d):
        # tr V-bar(1) = 200.5, so d = 100 leaves lambda_v and gamma_max None
        model = two_modes_one_output()
        assert lambda_s(d, model) == ref.lambda_s(d, model, 1e-6)
        assert lambda_v(d, model) == ref.lambda_v(d, model, 1e-6)
        assert gamma_max(d, model) == ref.gamma_max(d, model, 1e-6)

    def test_refused_gamma_max_searches_nothing(self, monkeypatch):
        # every endpoint is the doubling's or the open-loop Lyapunov solve's:
        # gamma = 1 is finite but fails the budget (tr V-bar(1) = 200.5),
        # e^GAMMA_LOG_RANGE is finite too, and gamma = inf diverges
        model = two_modes_one_output()
        searches = record_gain_searches(monkeypatch)
        assert gamma_max(100.0, model) is None
        top = math.exp(riccati.GAMMA_LOG_RANGE)
        assert riccati._mb_grid(model, [1.0, top, math.inf])[1].tolist() == [True, True, False]
        assert searches == []

    @pytest.mark.parametrize("d", (250.0, 300.0))
    def test_refused_gain_searches_unchanged(self, monkeypatch, d):
        # V-bar's trace is 200.5 at lam = 1 and 563 at lam = 0.5, so every
        # probe of the one-probe bisection lies above 0.5, clear of the
        # capped searches below lam_V; the batched one adds 0.375 (lam_V -
        # 0.05) to its first search
        model = two_modes_one_output()
        searches = record_gain_searches(monkeypatch)
        want = ref.lambda_v(d, model, 1e-6)
        # lam = 0 lies below 1 - 1/rho^2, so its search has no member
        assert all(len(search) <= 1 for search in searches)
        sequential = members(searches)
        searches.clear()
        assert lambda_v(d, model, 1e-6) == want
        batched = {lam: gain for _, lam, gain in members(searches)}
        for _, lam, gain in sequential:
            assert_same_point(batched[lam], gain)
        assert [lam for lam in batched if lam < 0.5] == [0.375]
        assert len(searches) < len(sequential)


def random_scalar_grid(rng):
    """A random scalar model and a (lam, gamma) grid on it.  One model in five
    has c = 0; |a| up to 3 puts b = gamma r (1 - a^2) - q c^2 on both sides of
    0; the grid holds lam = 0, 1, 1 - 1/a^2, its float neighbours and two
    points just past CRITICAL_MARGIN, and gamma from 1 to 1e4."""
    a = rng.uniform(-3.0, 3.0)
    c = 0.0 if rng.random() < 0.2 else rng.uniform(-2.0, 2.0)
    q, r = rng.uniform(0.01, 5.0, 2)
    lam_c = 1.0 - 1.0 / (a * a)
    edge = [lam_c, np.nextafter(lam_c, 0.0), np.nextafter(lam_c, 1.0), lam_c + 2e-9, lam_c + 1e-6]
    lams = np.array([0.0, 1.0, *[x for x in edge if 0.0 <= x <= 1.0], *rng.uniform(0.0, 1.0, 60)])
    gammas = np.exp(rng.uniform(0.0, math.log(1e4), len(lams)))
    gammas[:2] = (1.0, 1e4)
    return GaussMarkovModel.scalar(a, c, q, r), lams, gammas


class TestArrayRoots:
    """A scalar grid is one array expression, and a threshold's one-point
    probe stays on floats; both give the per-point oracle's bits."""

    def test_roots_equal_per_point_oracle(self):
        rng = np.random.default_rng(26)
        branches = set()
        # b = gamma r (1 - a^2) - q c^2 is exactly 0 at gamma = 1
        edge = GaussMarkovModel.scalar(0.5, 1.0, 0.75, 1.0), np.linspace(0.0, 1.0, 41), np.ones(41)
        for model, lams, gammas in [edge, *(random_scalar_grid(rng) for _ in range(1000))]:
            x, finite = riccati._solve_grid(model, lams, gammas)
            traces = statespace.grid_traces((x, finite))
            for i, (lam, gamma) in enumerate(zip(lams.tolist(), gammas.tolist())):
                want = ref.scalar_root(model, lam, gamma)
                assert finite[i] == (want is not None)
                want_trace = math.inf if want is None else want
                assert bits(traces[i]) == bits(want_trace)
                if want is not None:
                    assert bits(x[i, 0, 0]) == bits(want)
                    a, c, q, r = model.scalars()
                    branches.add((c == 0.0, gamma * r * (1.0 - a * a) - q * (c * c) > 0.0))
                assert bits(riccati._scalar_trace(model, lam, gamma)) == bits(want_trace)
            # the public one-point probes: V-bar at gamma = 1, multi-beam at lam = 1
            for lam, gamma in zip(lams.tolist()[:5], gammas.tolist()[:5]):
                for got, want in ((vbar_traces([lam], model), ref.scalar_root(model, lam, 1.0)),
                                  (riccati.mb_traces([gamma], model), ref.scalar_root(model, 1.0, gamma))):
                    assert bits(got) == bits([math.inf if want is None else want])
        # c = 0 takes only the b > 0 branch where it converges
        assert branches == {(True, True), (False, True), (False, False)}

    def test_probes_stay_on_floats(self, monkeypatch, unstable_model):
        # a one-point probe of a scalar model solves no grid
        monkeypatch.setattr(riccati, "_solve_grid", lambda *args: pytest.fail("grid solve"))
        monkeypatch.setattr(riccati, "scaled_lyapunov_grid", lambda *args: pytest.fail("grid solve"))
        assert vbar_traces([0.6], unstable_model)[0] == ref.scalar_root(unstable_model, 0.6, 1.0)
        assert riccati.mb_traces([2.0], unstable_model)[0] == ref.scalar_root(unstable_model, 1.0, 2.0)
        assert sbar_traces([0.6], unstable_model)[0] == ref.scalar_lyapunov(unstable_model, 0.4)
        assert vbar_traces([0.1], unstable_model)[0] == sbar_traces([0.1], unstable_model)[0] == math.inf

    def test_lyapunov_roots_equal_per_point_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            model, lams, _ = random_scalar_grid(rng)
            alphas = 1.0 - lams
            x, finite = statespace.scaled_lyapunov_grid(model, alphas)
            for i, alpha in enumerate(alphas.tolist()):
                want = ref.scalar_lyapunov(model, alpha)
                assert finite[i] == (want is not None)
                if want is not None:
                    assert bits(x[i, 0, 0]) == bits(want)
                probe = sbar_traces([1.0 - alpha], model)[0]
                assert bits(probe) == bits(math.inf if want is None else want)


@pytest.mark.parametrize("m", range(1, 9))
def test_stacked_trace_equals_member_traces(m):
    # m = 8 is where numpy's pairwise sum starts to unroll
    rng = np.random.default_rng(m)
    x = rng.standard_normal((50, m, m)) * np.exp(rng.uniform(-30.0, 30.0, (50, m, m)))
    finite = rng.random(50) < 0.8
    traces = statespace.grid_traces((x, finite))
    for member, ok, tr in zip(x, finite, traces):
        assert bits(tr) == bits(np.trace(member) if ok else math.inf)


def analysed_models() -> list:
    """Seeded m = 1..8 models with one or two outputs: stable, certified
    (every unstable mode seen by C) and refused (more unstable modes than
    outputs, or an unstable scalar state no output sees)."""
    models = [GaussMarkovModel(A=[[1.1]], C=[[0.0], [0.0]], Q=[[1.0]], R=np.eye(2))]
    for m in range(1, 9):
        for k in (1, 2):
            models.append(seeded_random_model([11, m, k], 0.8, m, k))
            if k <= m:
                models.append(observed_unstable_model(11, m, k == 2))
            if k < m:
                models.append(refused_family_model(11, m, k))
    return models


class TestModelAnalysis:
    """rho(A) and the certificate gain are computed once per model, and equal
    a fresh computation bit for bit."""

    def test_bench_model_analysed_once(self, monkeypatch, bench_model):
        calls = {"eig": 0, "spectral_radius": 0}
        eig, radius = np.linalg.eig, statespace.spectral_radius

        def counted_eig(a):
            calls["eig"] += 1
            return eig(a)

        def counted_radius(a):
            calls["spectral_radius"] += 1
            return radius(a)

        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        monkeypatch.setattr(statespace, "spectral_radius", counted_radius)
        critical_lambda(bench_model, bisect_tol=1e-3)
        for d in (1.0, 3.0):
            lambda_s(d, bench_model)
            lambda_v(d, bench_model)
            gamma_max(d, bench_model)
        channel = ChannelSpec.gaussian(1.75)
        bs_curve(bench_model, channel, np.linspace(0.0, 1.0, 21))
        mb_curve(bench_model, channel, np.geomspace(1.0, 1e4, 20))
        assert calls == {"eig": 1, "spectral_radius": 1}

    def test_replaced_model_has_its_own_analysis(self, bench_model):
        rho, gain = bench_model.rho, bench_model.certificate_gain
        stable = dataclasses.replace(bench_model, A=[[0.5, 0.2], [0.0, 0.9]])
        assert stable.rho == spectral_radius([[0.5, 0.2], [0.0, 0.9]]) < 1.0
        assert stable.certificate_gain is None
        assert critical_lambda(stable) == 0.0
        assert bench_model.rho == rho == spectral_radius(bench_model.A) > 1.0
        assert bench_model.certificate_gain is gain is not None

    def test_cached_analysis_equals_fresh(self):
        kinds = set()
        for model in analysed_models():
            want = ref.certificate_gain(model)
            kinds.add((model.rho < 1.0, want is None))
            for _ in range(2):
                assert bits(model.rho) == bits(spectral_radius(model.A))
                gain = model.certificate_gain
                assert (gain is None) == (want is None)
                if gain is not None:
                    assert bits(gain) == bits(want)
                    assert not gain.flags.writeable
        # stable, certified and refused models all occur
        assert kinds == {(True, True), (False, False), (False, True)}


ONE_FACTOR_MODELS = [
    (kind, m, k)
    for m in range(2, 9)
    for k in (1, 2)
    for kind in ("stable", "certified", "refused")
    if kind != "refused" or k < m
]


def one_factor_model(kind: str, m: int, k: int) -> GaussMarkovModel:
    if kind == "stable":
        return seeded_random_model([12, m, k], 0.8, m, k)
    if kind == "certified":
        return observed_unstable_model(12, m, k == 2)
    return refused_family_model(12, m, k)


def multibeam_error_bound(model: GaussMarkovModel, x: np.ndarray, gamma: float) -> float:
    """A first-order bound on ||x - X||_F, X the lam = 1 fixed point at gamma.

    With the predictor gain L read off x and F = A - L C, the policy step's
    residual r = F x F^T + Q + gamma L R L^T - x is the Riccati map's
    residual at x.  The map's derivative at its fixed point is
    D -> F D F^T (L minimizes the map, so the gain's first-order term
    vanishes), hence ||x - X||_F <= ||(I - F (x) F)^{-1}||_2 ||r||_F to first
    order: ``stein_error_bound``, with the rounding of F (k + 1 roundings
    per entry, entering F x F^T twice) and of the right-hand side (2 k + 2)
    as its slack.
    """
    k = model.k
    gain = riccati._solve_innovation(model, x[None], np.full((1, 1, 1), gamma))[0][0]
    f = model.A - gain @ model.C
    rhs = model.Q + gamma * (gain @ model.R @ gain.T)
    f_abs = np.abs(model.A) + np.abs(gain) @ np.abs(model.C)
    slack = np.linalg.norm(
        3.0 * rounding_gamma(k + 1) * (f_abs @ np.abs(x) @ f_abs.T)
        + rounding_gamma(2 * k + 2) * (np.abs(model.Q) + gamma * (np.abs(gain) @ np.abs(model.R) @ np.abs(gain).T))
    )
    return stein_error_bound(f, x, rhs, slack)


#: the grids of ``TestOneFactorPolicyStep``: (kind, lams or gammas)
ONE_FACTOR_GRIDS = (
    ("mb", [1.0, 1.5, 10.0, 1e3, math.inf]),
    ("vbar", [1.0]),
    # leaves lam = 1 alone on an unstable model, and mixes both lams on a
    # stable one
    ("vbar", [0.0, 1.0]),
)


def one_factor_grids(model: GaussMarkovModel) -> list:
    solve = {"mb": riccati._mb_grid, "vbar": riccati._vbar_grid}
    return [solve[kind](model, values) for kind, values in ONE_FACTOR_GRIDS]


def record_sda(monkeypatch) -> list:
    """The gamma grid of every ``riccati._sda`` call, in call order."""
    calls = []
    sda = riccati._sda

    def recorded(model, gammas):
        calls.append(list(gammas))
        return sda(model, gammas)

    monkeypatch.setattr(riccati, "_sda", recorded)
    return calls


class TestOneFactorPolicyStep:
    """Every lam = 1 point, whose policy step would have the one factor
    A - L C, comes from the doubling (``riccati._sda``).  Its fixed points
    are PSD and lie within ``multibeam_error_bound`` of scipy's DARE and of
    Hewer's two-factor iteration (``riccati_reference.multibeam_points``);
    every other point (lam < 1, and gamma = inf, the open-loop Lyapunov
    solve of both) keeps the bits of the two-factor oracle
    ``riccati_reference.policy_iteration``.  The models include the
    refused 8x8 ``refused_family_model(12, 8, 1)``."""

    @pytest.mark.parametrize("kind, m, k", ONE_FACTOR_MODELS)
    def test_equals_two_factor_oracle(self, monkeypatch, kind, m, k):
        model = one_factor_model(kind, m, k)
        assert riccati.unstable_modes_observed(model) == (kind == "certified")
        assert (model.rho < 1.0) == (kind == "stable")
        counts = []
        solve = riccati.solve_kronecker

        def counted(f, rhs, fixed=None):
            # Kronecker terms per system: F's, and a shared open-loop term
            counts.append(1 + (fixed is not None))
            return solve(f, rhs, fixed)

        with monkeypatch.context() as patch:
            patch.setattr(riccati, "solve_kronecker", counted)
            sda_calls = record_sda(patch)
            got = one_factor_grids(model)
        # every lam = 1 point is the doubling's, and the policy steps, on a
        # stable model's lam = 0 alone, have two factors
        assert sda_calls == [[1.0, 1.5, 10.0, 1e3], [1.0], [1.0]]
        assert set(counts) == ({2} if kind == "stable" else set())
        # every finite gamma and every lam = 1 has a fixed point
        assert got[0][1][:4].all() and got[1][1].all() and got[2][1][-1]
        for (grid, values), (x, _) in zip(ONE_FACTOR_GRIDS, got):
            for value, member in zip(values, x):
                lam, gamma = (1.0, value) if grid == "mb" else (value, 1.0)
                if lam < 1.0 or math.isinf(gamma):
                    continue
                assert is_psd(member)
                bound = multibeam_error_bound(model, member, gamma)
                for want in (ref.dare(model, gamma), ref.multibeam_points(model, [gamma])[0]):
                    assert np.linalg.norm(member - want) <= bound + multibeam_error_bound(model, want, gamma)
        def oracle(model, lams, gain):
            return ref.policy_iteration(model, lams, np.ones(len(lams)), gain)

        monkeypatch.setattr(riccati, "_policy_iteration", oracle)
        for (x, finite), (want_x, want_finite) in zip(got, one_factor_grids(model)):
            assert finite.tobytes() == want_finite.tobytes()
            assert bits(x) == bits(want_x)

    def test_small_models_never_double(self, monkeypatch, bench_model):
        # S-bar keeps the Kronecker LU up to m = 4, so on these models only
        # the lam = 1 points double, in ``riccati._sda``
        doublings = record_solves(monkeypatch)["doubling"]
        sda_calls = record_sda(monkeypatch)
        channel = ChannelSpec.gaussian(1.75)
        small = [seeded_random_model([13, m, 1], 0.8, m, 1) for m in (3, 4)]
        for model in (bench_model, *small, observed_unstable_model(13, 4, True)):
            v1 = trace_or_inf(vbar(1.0, model))
            bs_curve(model, channel, np.linspace(0.0, 1.0, 21))
            mb_curve(model, channel, np.geomspace(1.0, 1e4, 20))
            lambda_s(3.0 * v1, model)
            lambda_v(3.0 * v1, model)
            gamma_max(3.0 * v1, model)
        assert doublings == []
        assert sda_calls
        # a 5x5 S-bar curve doubles
        model = seeded_random_model([13, 5, 1], 0.8, 5, 1)
        bs_curve(model, channel, np.linspace(0.0, 1.0, 21))
        assert doublings


#: (A, C, tr P at e^GAMMA_LOG_RANGE) of models at the edges of the doubling,
#: Q = I and R = 1 unless the benchmark 2x2 model: a unit-circle mode and
#: an unstable mode that C does not see, where the doubling never settles,
#: and the benchmark model, whose 1.206e16 a trace cutoff would call divergent
DOUBLING_EDGES = {
    "unseen-unit-mode": ([[1.0, 0.0], [0.0, 0.5]], [[0.0, 1.0]], math.inf),
    "unseen-unstable-mode": ([[1.2, 0.0], [0.0, 0.5]], [[0.0, 1.0]], math.inf),
    "bench": ([[1.05, 0.2], [0.0, 0.9]], [[1.0, 0.0]], 1.206e16),
}


@pytest.mark.parametrize("name", DOUBLING_EDGES)
def test_doubling_edges(monkeypatch, bench_model, name):
    # no gain search runs: on the unit-circle mode the search ran its
    # GAIN_SEARCH_STEPS cap, about 6 s, where the doubling takes milliseconds
    a, c, want = DOUBLING_EDGES[name]
    model = bench_model if name == "bench" else GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[1.0]])
    searches = record_gain_searches(monkeypatch)
    start = time.perf_counter()
    traces = riccati.mb_traces([1.0, math.exp(riccati.GAMMA_LOG_RANGE)], model)
    assert time.perf_counter() - start < 1.0
    assert searches == []
    if math.isinf(want):
        assert traces.tolist() == [math.inf, math.inf]
        assert mb_fixed_point(1.0, model) is None
        with pytest.raises(NumericalError):
            critical_lambda(model)
    else:
        assert np.isfinite(traces[0])
        assert traces[1] == pytest.approx(want, rel=1e-3)

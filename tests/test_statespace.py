import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

from jcas_lab.errors import DimensionError, NumericalError, ParameterError
from jcas_lab import riccati, statespace
from jcas_lab.riccati import iterate_map
from jcas_lab.statespace import (
    CRITICAL_MARGIN,
    DOUBLING_CAP,
    DOUBLING_MIN_M,
    GaussMarkovModel,
    lyap_kernel,
    lyapunov_diverges,
    lyapunov_step,
    scaled_lyapunov_grid,
    solve_doubling,
    solve_kronecker,
    solve_scaled_lyapunov,
    spectral_radius,
    symmetrize,
    validate_model,
)

from conftest import random_psd, record_solves, scaled_lyap_root, stein_error_bound, stein_residual


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius([[-1.15]]) == 1.15

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_complex_pair_vs_characteristic_polynomial(self):
        # oracle: roots of mu^2 + 0.25 = 0 are +/- 0.5i
        a = np.array([[0.0, 1.0], [-0.25, 0.0]])
        roots = np.roots([1.0, 0.0, 0.25])
        assert np.max(np.abs(roots)) == pytest.approx(0.5, abs=1e-12)
        assert spectral_radius(a) == pytest.approx(0.5, abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.ones((2, 3)))


class TestScaledLyapunov:
    def test_alpha_zero_returns_q(self, matrix_model):
        s = solve_scaled_lyapunov(matrix_model, 0.0)
        np.testing.assert_allclose(s, matrix_model.Q, atol=1e-12)

    def test_stable_scalar_alpha_one(self, stable_model):
        s = solve_scaled_lyapunov(stable_model, 1.0)
        expected = scaled_lyap_root(-0.95, 0.2, 1.0)  # = 2.051282051...
        assert s[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_unstable_scalar_alpha_one_diverges(self, unstable_model):
        assert solve_scaled_lyapunov(unstable_model, 1.0) is None

    def test_near_critical_alpha_reported_divergent(self, unstable_model):
        # alpha * rho^2 == 1 exactly sits on the boundary
        alpha = 1.0 / 1.15**2
        assert solve_scaled_lyapunov(unstable_model, alpha) is None

    def test_invalid_alpha(self, stable_model):
        with pytest.raises(ParameterError):
            solve_scaled_lyapunov(stable_model, -0.1)
        with pytest.raises(ParameterError):
            solve_scaled_lyapunov(stable_model, 1.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_residual_and_psd(self, matrix_model, alpha):
        s = solve_scaled_lyapunov(matrix_model, alpha)
        step = alpha * (matrix_model.A @ s @ matrix_model.A.T) + matrix_model.Q
        assert np.max(np.abs(s - step)) <= 1e-10
        assert np.max(np.abs(s - s.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-10

    def test_trace_monotone_in_alpha(self, matrix_model, stable_model):
        rng = np.random.default_rng(5)
        for model in (matrix_model, stable_model):
            alphas = np.sort(rng.uniform(0.0, 1.0, 6))
            traces = [float(np.trace(solve_scaled_lyapunov(model, a))) for a in alphas]
            assert all(t1 <= t2 + 1e-10 for t1, t2 in zip(traces, traces[1:]))

    def test_divergence_iff_threshold_scalar(self):
        # scalar case: divergence exactly when alpha * a^2 >= 1
        for a in (-1.3, -0.9, 1.05, 0.6):
            model = GaussMarkovModel.scalar(a, 1.0, 0.3, 1.0)
            for alpha in (0.2, 0.5, 0.8, 0.99):
                result = solve_scaled_lyapunov(model, alpha)
                if alpha * a * a >= 1.0 - 1e-9:
                    assert result is None
                else:
                    assert result is not None

    def test_divergence_threshold_diagonalizable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            eigs = rng.uniform(0.3, 1.4, 2)
            v = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            a = v @ np.diag(eigs) @ np.linalg.inv(v)
            model = GaussMarkovModel(A=a, C=np.eye(2), Q=0.2 * np.eye(2), R=np.eye(2))
            rho2 = max(eigs) ** 2
            for alpha in (0.4, 0.9):
                result = solve_scaled_lyapunov(model, alpha)
                if alpha * rho2 >= 1.0 - 1e-9:
                    assert result is None
                else:
                    assert result is not None

    @given(
        a=st.floats(min_value=-0.99, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=5.0),
        alpha=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_fixed_point_matches_closed_form(self, a, q, alpha):
        model = GaussMarkovModel.scalar(a, 1.0, q, 1.0)
        s = solve_scaled_lyapunov(model, alpha)
        assert s[0, 0] == pytest.approx(scaled_lyap_root(a, q, alpha), rel=1e-9)

    def test_sequence_matches_manual_iterates(self, matrix_model):
        p0 = np.eye(2)
        seq = list(iterate_map(lambda p: lyapunov_step(matrix_model, p, 0.8), p0, 4))
        assert len(seq) == 5
        cur = p0
        for s in seq[1:]:
            cur = lyapunov_step(matrix_model, cur, 0.8)
            assert np.array_equal(s, cur)

    def test_scalar_sequence_matches_kernel_through_overflow(self):
        # the iterate grows by a^2 = 1.3225 a step: it passes half the float
        # range a few steps before it overflows, and symmetrizing must not
        # overflow first
        a, q, n = -1.15, 1.0, 2600
        model = GaussMarkovModel.scalar(a, 1.0, q, 1.0)
        with np.errstate(over="ignore"):
            seq = list(iterate_map(lambda p: lyapunov_step(model, p, 1.0), [[1.0]], n))
            seq = [float(s[0, 0]) for s in seq]
        expected = [1.0]
        for _ in range(n):
            expected.append(lyap_kernel(a, q, expected[-1], 1.0))
        assert 0 < expected.index(math.inf) < n
        assert seq == expected


class TestValidateModel:
    def test_reference_unstable_system_is_valid(self, unstable_model):
        report = validate_model(unstable_model)
        assert report.valid
        assert report.violations == []

    def test_zero_r_not_positive_definite(self):
        model = GaussMarkovModel.scalar(-1.15, 1.0, 0.2, 0.0)
        report = validate_model(model)
        assert any("R not positive definite" in v for v in report.violations)

    def test_detectability_violation_via_pbh(self):
        # eigenvalue 1 (twice); rank [A - I; C] = 1 < 2
        model = GaussMarkovModel(
            A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]]
        )
        report = validate_model(model)
        assert any("not detectable" in v for v in report.violations)
        assert any(rank < 2 for _, rank in report.detectability_ranks)

    def test_controllability_violation(self):
        model = GaussMarkovModel(
            A=np.eye(2), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2)
        )
        report = validate_model(model)
        assert any("not controllable" in v for v in report.violations)

    def test_asymmetric_q_reported(self):
        model = GaussMarkovModel(
            A=[[0.5, 0.0], [0.0, 0.5]],
            C=np.eye(2),
            Q=[[1.0, 0.2], [0.0, 1.0]],
            R=np.eye(2),
        )
        report = validate_model(model)
        assert report.symmetry_residual_q == pytest.approx(0.2)
        assert any("Q not symmetric" in v for v in report.violations)


class TestModelConstruction:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            GaussMarkovModel(A=[[1.0, 0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
        with pytest.raises(DimensionError):
            GaussMarkovModel(A=[[1.0]], C=[[1.0]], Q=[[1.0, 0.0], [0.0, 1.0]], R=[[1.0]])
        with pytest.raises(DimensionError):
            GaussMarkovModel(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=np.eye(2))

    @pytest.mark.parametrize("name", ("A", "C", "Q", "R"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_entry_rejected(self, name, value):
        # a NaN in A used to construct and then give critical_lambda 0.0
        # and nan V-bar traces with no error; the refusal names the matrix
        matrices = dict(A=np.array([[1.05, 0.2], [0.0, 0.9]]), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.array([[0.5]]))
        matrices[name][0, 0] = value
        with pytest.raises(ParameterError, match=f"^{name} entries must be finite"):
            GaussMarkovModel(**matrices)
        with pytest.raises(ParameterError, match=f"^{name} "):
            GaussMarkovModel.scalar(**{key.lower(): value if key == name else 1.0 for key in "ACQR"})

    def test_arrays_frozen(self, stable_model):
        with pytest.raises(ValueError):
            stable_model.A[0, 0] = 2.0

    def test_caller_array_stays_its_own(self):
        a = np.array([[1.05, 0.2], [0.0, 0.9]])
        model = GaussMarkovModel(A=a, C=[[1.0, 0.0]], Q=np.eye(2), R=[[0.5]])
        assert a.flags.writeable
        assert model.A is not a
        assert not model.A.flags.writeable
        a[0, 0] = 3.0
        assert model.A[0, 0] == 1.05

    def test_view_of_caller_array_is_copied(self):
        base = np.array([[1.05, 0.2], [0.0, 0.9]])
        model = GaussMarkovModel(A=base[:, :], C=[[1.0, 0.0]], Q=np.eye(2), R=[[0.5]])
        base[0, 0] = 3.0
        assert model.A[0, 0] == 1.05

    def test_analysis_ignores_later_writes(self):
        # rho(A) and the certificate gain belong to the matrices the model
        # was built with, whether they were read before the write or after
        a = np.array([[1.05, 0.2], [0.0, 0.9]])
        c = np.array([[1.0, 0.0]])
        early = GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[0.5]])
        late = GaussMarkovModel(A=a, C=c, Q=np.eye(2), R=[[0.5]])
        rho, gain = early.rho, early.certificate_gain
        a[0, 0], c[0, 0] = 0.5, 0.0
        for model in (early, late):
            assert model.rho == rho == spectral_radius([[1.05, 0.2], [0.0, 0.9]])
            assert model.certificate_gain.tobytes() == gain.tobytes()

    def test_identity_equality_and_hash(self):
        def make():
            return GaussMarkovModel(A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=np.eye(2), R=[[0.5]])

        one, twin = make(), make()
        assert one == one
        assert not one != one
        assert one != twin
        assert not one == twin
        assert hash(one) == hash(one)
        assert len({one, twin, one}) == 2

    def test_symmetrize(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        s = symmetrize(m)
        assert np.array_equal(s, s.T)


def seeded_factor(seed: int, m: int, rho: float) -> np.ndarray:
    """A seeded m x m Gaussian factor scaled to rho(F) = rho."""
    f = np.random.default_rng([seed, m]).standard_normal((m, m))
    return f * (rho / spectral_radius(f))


#: rho(F) of the seeded factors, from well inside the unit disc to 1e-6 off it
DOUBLING_RHOS = (0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6)


def assert_within_bounds(f, rhs, x, others):
    """x, a doubling's solution, has a small residual, and every solution in
    ``others`` lies within the sum of its own and x's ``stein_error_bound``
    of x.

    The bound holds for any x whatever its accuracy, so the residual check
    carries the claim: each of at most DOUBLING_CAP doublings rounds one
    sum X + F_j X F_j^T, of the size of the terms the residual's own
    rounding bound covers, so the residual stays within DOUBLING_CAP times
    that bound.
    """
    residual, rounding = stein_residual(f, x, rhs)
    assert residual <= DOUBLING_CAP * rounding
    bound = stein_error_bound(f, x, rhs)
    for y in others:
        assert np.linalg.norm(x - y) <= bound + stein_error_bound(f, y, rhs)


def doubled(fs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X = F X F^T + rhs for a stack by the G = 0 doubling (A_0 = F^T),
    which must settle on every member."""
    x, settled = solve_doubling(fs.swapaxes(1, 2), np.zeros_like(rhs), rhs)
    assert settled.all()
    return x


class TestDoublingSolve:
    """A Stein equation X = F X F^T + rhs with m >= DOUBLING_MIN_M is solved
    by ``solve_doubling`` with G = 0, A_0 = F^T.  It agrees with the
    Kronecker LU ``solve_kronecker`` and with scipy's
    ``solve_discrete_lyapunov`` within bounds derived from each solution's
    residual and ||(I - F (x) F)^{-1}||."""

    @pytest.mark.parametrize("m", range(DOUBLING_MIN_M, 9))
    def test_agrees_with_kronecker_and_scipy(self, m):
        rng = np.random.default_rng([30, m])
        fs = np.array([seeded_factor(i, m, rho) for i, rho in enumerate(DOUBLING_RHOS)])
        rhs = np.array([random_psd(rng, m) for _ in DOUBLING_RHOS])
        for f, b, x, y in zip(fs, rhs, doubled(fs, rhs), solve_kronecker(fs, rhs)):
            assert np.array_equal(x, x.T) and np.array_equal(y, y.T)
            assert_within_bounds(f, b, x, (y, solve_discrete_lyapunov(f, b)))

    @pytest.mark.parametrize("m", range(DOUBLING_MIN_M, 9))
    def test_sbar_at_critical_margin(self, monkeypatch, m):
        # alpha rho(A)^2 = 1 - 2 CRITICAL_MARGIN: the most ill-conditioned
        # S-bar the library still calls finite, and a doubling
        rng = np.random.default_rng([31, m])
        a = seeded_factor(31, m, 1.2)
        model = GaussMarkovModel(A=a, C=rng.standard_normal((1, m)), Q=random_psd(rng, m), R=[[1.0]])
        alpha = (1.0 - 2.0 * CRITICAL_MARGIN) / model.rho**2
        assert not lyapunov_diverges(alpha, model.rho)
        calls = record_solves(monkeypatch)
        (x,), finite = scaled_lyapunov_grid(model, [alpha])
        assert finite.all() and calls == {"doubling": [1], "kronecker": []}
        f = np.sqrt(alpha) * model.A
        lu = solve_kronecker(f[None], model.Q[None])[0]
        assert_within_bounds(f, model.Q, x, (lu, solve_discrete_lyapunov(f, model.Q)))

    @pytest.mark.parametrize("m", range(DOUBLING_MIN_M, 9))
    def test_members_keep_their_bits_in_any_stack(self, m):
        rng = np.random.default_rng([32, m])
        fs = np.array([seeded_factor(i, m, rng.uniform(0.1, 0.999)) for i in range(23)])
        rhs = np.array([random_psd(rng, m) for _ in fs])
        for solve in (doubled, solve_kronecker):
            whole = solve(fs, rhs)
            for i in range(len(fs)):
                assert whole[i].tobytes() == solve(fs[i : i + 1], rhs[i : i + 1])[0].tobytes()
            assert whole[1::2].tobytes() == solve(fs[1::2], rhs[1::2]).tobytes()

    @pytest.mark.parametrize("m", (DOUBLING_MIN_M, 8))
    @pytest.mark.parametrize("kind", ("identity", "cycle", 1.0 + 1e-6, 1.01, 2.0))
    def test_unbounded_sum_raises(self, monkeypatch, m, kind):
        # rho(F) >= 1: the sum over F^i rhs F^iT grows without bound, so the
        # member still moves at DOUBLING_CAP or turns inf or nan; the
        # identity and the cyclic shift have rho(F) = 1 exactly, in every
        # power.  The doubling reports the member unsettled, and
        # scaled_lyapunov_grid, past a divergence test patched to pass every
        # alpha, raises
        if kind == "identity":
            f = np.eye(m)
        elif kind == "cycle":
            f = np.roll(np.eye(m), 1, axis=0)
        else:
            f = seeded_factor(33, m, kind)
        rhs = np.stack([np.eye(m), np.eye(m)])
        fs = np.stack([f, seeded_factor(34, m, 0.5)])
        _, settled = solve_doubling(fs.swapaxes(1, 2), np.zeros_like(rhs), rhs)
        assert settled.tolist() == [False, True]
        monkeypatch.setattr(statespace, "lyapunov_diverges", lambda alpha, rho: np.zeros(np.shape(alpha), dtype=bool))
        model = GaussMarkovModel(A=f, C=np.ones((1, m)), Q=np.eye(m), R=[[1.0]])
        alpha = (0.5 / spectral_radius(f)) ** 2
        assert scaled_lyapunov_grid(model, [alpha])[1].all()
        with pytest.raises(NumericalError):
            scaled_lyapunov_grid(model, [1.0, alpha])

    def test_non_finite_member_leaves_on_its_doubling(self, monkeypatch):
        # A = 1e200 I overflows G and H on the first doubling; that member
        # leaves the stack there, and the other doubles alone until it settles
        sizes = []
        solve = statespace._solve_members
        monkeypatch.setattr(statespace, "_solve_members", lambda w, rhs: sizes.append(len(w)) or solve(w, rhs))
        a = np.stack([1e200 * np.eye(2), 0.5 * np.eye(2)])
        eye = np.broadcast_to(np.eye(2), (2, 2, 2))
        _, settled = solve_doubling(a, eye, eye)
        assert settled.tolist() == [False, True]
        assert sizes[0] == 2 and len(sizes) > 2 and set(sizes[1:]) == {1}

    def test_sbar_doubles_from_m5_and_policy_steps_never_double(self, monkeypatch):
        calls = record_solves(monkeypatch)
        for m in range(1, 9):
            model = GaussMarkovModel(A=seeded_factor(35, m, 0.9), C=np.ones((1, m)), Q=np.eye(m), R=[[1.0]])
            for n in (1, 7, 200):
                scaled_lyapunov_grid(model, np.linspace(0.2, 1.0, n))
        # S-bar doubles from DOUBLING_MIN_M = 5 on at every stack size and
        # takes the Kronecker LU for m = 2..4 (a 1x1 model, the closed form)
        assert DOUBLING_MIN_M == 5
        assert calls == {"doubling": [1, 7, 200] * 4, "kronecker": [1, 7, 200] * 3}
        calls["kronecker"].clear()
        for m in range(2, 9):
            model = GaussMarkovModel(A=seeded_factor(36, m, 0.9), C=np.ones((1, m)), Q=np.eye(m), R=[[1.0]])
            for n in (1, 7, 200):
                riccati._policy_iteration(model, np.linspace(0.0, 0.9, n), np.zeros((m, 1)))
                # each policy step is one Kronecker LU, the first on every member
                assert calls["kronecker"][0] == n and len(calls["kronecker"]) > 1
                calls["kronecker"].clear()
        assert calls["doubling"] == [1, 7, 200] * 4

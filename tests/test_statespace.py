import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas_lab.errors import DimensionError, ParameterError
from jcas_lab.statespace import (
    GaussMarkovModel,
    lyap_kernel,
    lyapunov_sequence,
    lyapunov_step,
    solve_scaled_lyapunov,
    spectral_radius,
    symmetrize,
    validate_model,
)

from conftest import scaled_lyap_root


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
        seq = lyapunov_sequence(matrix_model, 0.8, 4, p0)
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
            seq = [float(s[0, 0]) for s in lyapunov_sequence(model, 1.0, n, [[1.0]])]
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

    def test_arrays_frozen(self, stable_model):
        with pytest.raises(ValueError):
            stable_model.A[0, 0] = 2.0

    def test_symmetrize(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        s = symmetrize(m)
        assert np.array_equal(s, s.T)

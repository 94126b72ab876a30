"""Per-point reference loops for the stacked fixed-point sweeps.

Each function solves one grid point at a time with a single covariance,
the way the sweep results are defined: the matrix classifier steps one
m x m covariance through ``gamma_bs``/``riccati_step`` with a float lam or
gamma, keeps the last 64 step sizes, and at the cap lets their trend decide.
V-bar probes are iterated even where S-bar diverges, so the divergence
short-circuit is checked too.  Tests compare the sweeps with these loops by
exact equality.

``critical_lambda_iterative`` is the critical-lambda bisection on iterated
V-bar probes that ``critical_lambda`` runs for models its convergence
certificate refuses; applied to every model, it is the oracle for the
certified closed-form route.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from jcas_lab import riccati
from jcas_lab.errors import ConvergenceError
from jcas_lab.riccati import TRACE_DIVERGENCE, _tail_growing, gamma_bs, riccati_step
from jcas_lab.statespace import CRITICAL_MARGIN, solve_scaled_lyapunov, spectral_radius

CONVERGED = "converged"
DIVERGED = "diverged"
UNDECIDED = "undecided"


def classify_matrix(step, p0: np.ndarray, tol: float, max_iter: int):
    """(status, value, window) of one fixed-point iteration from p0."""
    p = p0
    window = deque(maxlen=64)
    for _ in range(max_iter):
        pn = step(p)
        tr = float(np.trace(pn))
        if not math.isfinite(tr) or tr > TRACE_DIVERGENCE:
            return DIVERGED, None, window
        d = float(np.max(np.abs(pn - p)))
        if d < tol:
            return CONVERGED, pn, window
        window.append(d)
        p = pn
    if _tail_growing(window):
        return DIVERGED, None, window
    return UNDECIDED, p, window


def _start(model, p0):
    return model.Q.copy() if p0 is None else np.atleast_2d(np.asarray(p0, dtype=float))


def classify_bs(model, lam: float, tol: float = 1e-12, max_iter: int = 1_000_000, p0=None):
    return classify_matrix(lambda p: gamma_bs(p, lam, model), _start(model, p0), tol, max_iter)


def classify_mb(model, gamma: float, tol: float = 1e-12, max_iter: int = 1_000_000, p0=None):
    return classify_matrix(lambda p: riccati_step(model, p, gamma), _start(model, p0), tol, max_iter)


def _converged(result):
    status, value, _ = result
    return value if status == CONVERGED else None


def vbar_points(model, lams, tol=1e-12, max_iter=1_000_000, p0=None) -> list:
    """V-bar per lam; None where it diverges or is undecided at the cap."""
    return [_converged(classify_bs(model, float(lam), tol, max_iter, p0)) for lam in lams]


def sbar_points(model, lams, tol=1e-12, max_iter=1_000_000) -> list:
    """S-bar per lam; None where it diverges or the solver raises at the cap."""
    out = []
    for lam in lams:
        try:
            out.append(solve_scaled_lyapunov(model, 1.0 - float(lam), tol=tol, max_iter=max_iter))
        except ConvergenceError:
            out.append(None)
    return out


def mb_points(model, gammas, tol=1e-12, max_iter=1_000_000) -> list:
    """Multi-beam fixed point per gamma; inf takes the open-loop Lyapunov route."""
    out = []
    for gamma in gammas:
        gamma = float(gamma)
        if math.isinf(gamma):
            try:
                out.append(solve_scaled_lyapunov(model, 1.0, tol=tol, max_iter=max_iter))
            except ConvergenceError:
                out.append(None)
        else:
            out.append(_converged(classify_mb(model, gamma, tol, max_iter)))
    return out


def critical_lambda_iterative(model, bisect_tol=1e-6, probe_tol=1e-10, probe_max_iter=200_000):
    """Critical lambda by bisection on iterated V-bar probes, for any model.

    A probe counts as convergent unless the library's classifier calls it
    divergent (probes at or below 1 - 1/rho^2 are divergent without
    iterating); the bisection keeps the midpoint of the last bracket.
    """
    rho = spectral_radius(model.A)
    if rho * rho < 1.0 - CRITICAL_MARGIN:
        return 0.0

    def converges(lam):
        return riccati._classify_bs(model, [lam], probe_tol, probe_max_iter)[0][0] != DIVERGED

    if not converges(1.0):
        raise ConvergenceError("expected covariance diverges even with every measurement")
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def certificate_gain_bound(model, lam: float):
    """(spectral radius, fixed point) of the affine map phi_lam(K, .) for the
    certificate's gain K = -A V_u (C V_u)^+.

    The linear part (1 - lam) A X A^T + lam F X F^T with F = A + K C is
    formed as a Kronecker matrix, and the fixed point X_K, which
    upper-bounds V-bar when the radius is below 1, is one dense solve.
    """
    mu, v = np.linalg.eig(model.A)
    vu = v[:, np.abs(mu) >= 1.0 - CRITICAL_MARGIN]
    gain = np.real(-model.A @ vu @ np.linalg.pinv(model.C @ vu))
    f = model.A + gain @ model.C
    linear = (1.0 - lam) * np.kron(model.A, model.A) + lam * np.kron(f, f)
    radius = float(np.max(np.abs(np.linalg.eigvals(linear))))
    rhs = (model.Q + lam * gain @ model.R @ gain.T).reshape(-1)
    fixed = np.linalg.solve(np.eye(model.m * model.m) - linear, rhs).reshape(model.m, model.m)
    return radius, fixed

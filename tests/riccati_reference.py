"""Independent oracles for the direct fixed-point solvers.

``vbar_points`` iterates the beam-switching map from Q one grid point at a
time, the way V-bar is defined: each m x m covariance steps through
``gamma_bs`` (a scalar one through the float kernel ``bs_kernel``) until
the max-abs change drops below ``tol``, keeps its last 64
step sizes, and at the cap lets their trend decide.  V-bar probes are
iterated even where S-bar diverges, so the divergence short-circuit is
checked too.  ``dare`` and ``lyapunov`` wrap scipy's solvers, which the
library must not import.

``critical_lambda_iterative`` is the critical-lambda bisection on iterated
V-bar probes: each probe iterates the map and lets the step-size trend
classify it.  It is the oracle for the closed form ``critical_lambda`` runs
on certified models, and it gives the same pins as the gain search that
decides refused ones.  ``iterated_fixed_point`` is the classifier as a
plain iteration helper.

``contracting_gain`` is the gain search of a refused model one point at a
time, the oracle for each member of the library's batched search.
``certificate_gain`` computes the certificate's gain afresh, the oracle of
the one each model caches.  ``policy_iteration`` is Hewer's policy
iteration with both factors of the affine map at every lam, so every step
is a Kronecker LU: the oracle of the library's V-bar iteration at lam < 1.
``multibeam_points`` runs it at lam = 1, from L = 0, the certificate's
gain or a per-point ``contracting_gain``: the oracle of the doubling that
solves every lam = 1 point of the library.

``scalar_root`` and ``scalar_lyapunov`` are the scalar closed forms one
grid point at a time on floats, the oracles of the library's array roots.
``trace_or_inf`` is the trace of one fixed point, +inf for a divergent one.

``bisect`` is the one-probe bisection: one predicate call per halving.
``lambda_s``, ``lambda_v`` and ``gamma_max`` run it on the library's
single-point solves (``sbar``, ``vbar``, ``mb_fixed_point``), each endpoint
in turn, as the thresholds did before their probes were batched.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from jcas_lab.errors import NumericalError
from jcas_lab.riccati import (
    GAIN_SEARCH_STEPS,
    GAMMA_LOG_RANGE,
    _corrected,
    _solve_innovation,
    bs_kernel,
    gamma_bs,
    mb_fixed_point,
    sbar,
    vbar,
)
from jcas_lab.statespace import (
    CERTIFICATE_COND,
    CRITICAL_MARGIN,
    kron_square,
    lyapunov_diverges,
    solve_kronecker,
    spectral_radius,
)

CONVERGED = "converged"
DIVERGED = "diverged"
UNDECIDED = "undecided"

#: a covariance trace beyond this is declared divergent
TRACE_DIVERGENCE = 1e12
#: step sizes kept for the trend test at the iteration cap
WINDOW = 64


def tail_growing(window) -> bool:
    """True when the later half of the step sizes averages above the earlier half."""
    if len(window) < 4:
        return True
    half = len(window) // 2
    steps = list(window)
    return sum(steps[half:]) / (len(steps) - half) > sum(steps[:half]) / half


def classify_matrix(step, p0: np.ndarray, tol: float, max_iter: int):
    """(status, value, window) of one fixed-point iteration from p0."""
    p = p0
    window = deque(maxlen=WINDOW)
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
    if tail_growing(window):
        return DIVERGED, None, window
    return UNDECIDED, p, window


def classify_scalar(step, p0: float, tol: float, max_iter: int):
    """classify_matrix on floats, for the scalar kernels: the same rule without
    the cost of stepping 1 x 1 arrays.  Values come back as 1 x 1 matrices."""
    p = p0
    window = deque(maxlen=WINDOW)
    for _ in range(max_iter):
        pn = step(p)
        if not math.isfinite(pn) or pn > TRACE_DIVERGENCE:
            return DIVERGED, None, window
        d = abs(pn - p)
        if d < tol:
            return CONVERGED, np.array([[pn]]), window
        window.append(d)
        p = pn
    if tail_growing(window):
        return DIVERGED, None, window
    return UNDECIDED, np.array([[p]]), window


def iterated_fixed_point(step, p0: np.ndarray, tol: float = 1e-12, max_iter: int = 1_000_000):
    """The matrix classify_matrix converges to from p0, None where it diverges;
    an iteration undecided at the cap fails the calling test."""
    status, value, _ = classify_matrix(step, p0, tol, max_iter)
    assert status != UNDECIDED, f"iteration undecided after {max_iter} steps"
    return value


def classify_bs(model, lam: float, tol: float = 1e-12, max_iter: int = 1_000_000):
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return classify_scalar(lambda p: bs_kernel(a, c, q, r, p, lam), q, tol, max_iter)
    return classify_matrix(lambda p: gamma_bs(p, lam, model), model.Q.copy(), tol, max_iter)


def vbar_points(model, lams, tol=1e-12, max_iter=1_000_000) -> list:
    """V-bar per lam; None where it diverges or is undecided at the cap."""
    out = []
    for lam in lams:
        status, value, _ = classify_bs(model, float(lam), tol, max_iter)
        out.append(value if status == CONVERGED else None)
    return out


def trace_or_inf(matrix) -> float:
    """Trace of one fixed point; infinite for the None of a divergent one."""
    return math.inf if matrix is None else float(np.trace(matrix))


def scalar_root(model, lam: float, gamma: float):
    """The scalar closed-form fixed point of min_L phi_{lam,gamma}(L, .) for
    one (lam, gamma) pair on floats, None where it diverges: the library's
    root one grid point at a time, with its operations in its order."""
    a, c, q, r = model.scalars()
    if lyapunov_diverges(1.0 - lam if c else 1.0, abs(a)):
        return None
    gr = gamma * r
    lead = c * c * (1.0 - (1.0 - lam) * (a * a))
    b = gr * (1.0 - a * a) - q * (c * c)
    root = math.sqrt(b * b + 4.0 * lead * gr * q)
    return 2.0 * gr * q / (b + root) if b > 0.0 else (root - b) / (2.0 * lead)


def scalar_lyapunov(model, alpha: float):
    """The scalar S = alpha a S a + q fixed point q / (1 - alpha a^2) for one
    alpha on floats, None where it diverges."""
    a, _, q, _ = model.scalars()
    if lyapunov_diverges(alpha, abs(a)):
        return None
    return q / (1.0 - alpha * (a * a))


def dare(model, gamma: float) -> np.ndarray:
    """Multi-beam steady state from scipy's DARE (the filter form, transposed)."""
    return solve_discrete_are(model.A.T, model.C.T, model.Q, gamma * model.R)


def lyapunov(model, alpha: float) -> np.ndarray:
    """S = alpha A S A^T + Q from scipy's discrete Lyapunov solver."""
    return solve_discrete_lyapunov(math.sqrt(alpha) * model.A, model.Q)


def critical_lambda_iterative(model, bisect_tol=1e-6, probe_tol=1e-10, probe_max_iter=200_000):
    """Critical lambda by bisection on iterated V-bar probes, for any model.

    A probe counts as convergent unless the classifier calls it divergent;
    probes at or below 1 - 1/rho^2 are divergent without iterating.  The
    bisection keeps the midpoint of the last bracket.
    """
    rho = spectral_radius(model.A)
    if rho * rho < 1.0 - CRITICAL_MARGIN:
        return 0.0

    def converges(lam):
        if lyapunov_diverges(1.0 - lam, rho):
            return False
        return classify_bs(model, lam, probe_tol, probe_max_iter)[0] != DIVERGED

    if not converges(1.0):
        raise NumericalError("expected covariance diverges even with every measurement")
    return bisect(0.0, 1.0, bisect_tol, converges)


def contracting_gain(model, lam: float, gamma: float):
    """A predictor gain L whose affine map phi_{lam,gamma}(L, .) contracts, or
    None when the search calls the point divergent, for one point.

    The min_L phi_{lam,gamma}(L, .) map is iterated from Q.  Each step's
    innovation solve gives both the step and the predictor gain L of that
    iterate, and at steps 1, 2, 4, 8, ... L is tested:
    rho((1 - lam) A (x) A + lam F (x) F) < 1 with F = A - L C.  The point is
    divergent once the trace is non-finite or above TRACE_DIVERGENCE, or when
    no gain passes within GAIN_SEARCH_STEPS steps.
    """
    a_kron = (1.0 - lam) * np.kron(model.A, model.A)
    p = model.Q
    for step in range(1, GAIN_SEARCH_STEPS + 1):
        solved = _solve_innovation(model, p, gamma)
        if step & (step - 1) == 0:
            gain = solved[0]
            f = model.A - gain @ model.C
            if np.max(np.abs(np.linalg.eigvals(a_kron + lam * np.kron(f, f)))) < 1.0:
                return gain
        p = _corrected(model, solved, lam)
        tr = float(np.trace(p))
        if not math.isfinite(tr) or tr > TRACE_DIVERGENCE:
            return None
    return None


def certificate_gain(model):
    """The gain A V_u (C V_u)^+ of ``unstable_modes_observed``, or None when
    the certificate refuses the model, computed afresh on every call."""
    if model.m == 1:
        a = float(model.A[0, 0])
        if abs(a) < 1.0 - CRITICAL_MARGIN or not np.any(model.C):
            return None
        return a * model.C.T / float(np.sum(model.C * model.C))
    mu, v = np.linalg.eig(model.A)
    unstable = np.abs(mu) >= 1.0 - CRITICAL_MARGIN
    if not 0 < np.count_nonzero(unstable) <= model.k or np.linalg.cond(v) > CERTIFICATE_COND:
        return None
    v_u = v[:, unstable]
    if np.linalg.cond(model.C @ v_u) > CERTIFICATE_COND:
        return None
    return np.real(model.A @ v_u @ np.linalg.pinv(model.C @ v_u))


def policy_iteration(model, lams, gammas, gain) -> np.ndarray:
    """Hewer's policy iteration for min_L phi_{lam,gamma}(L, .) with the two
    terms (1 - lam) A (x) A and F (x) F, F = sqrt(lam) (A - L C), at every
    (lam, gamma) pair, the first zero where lam = 1:
    ``riccati._policy_iteration`` at any gamma."""
    a, c, q, r = model.A, model.C, model.Q, model.R
    m = model.m
    lam = np.reshape(lams, (-1, 1, 1))
    gamma = np.reshape(gammas, (-1, 1, 1))
    n = len(lam)
    gains = np.broadcast_to(gain, (n, m, model.k))
    best = np.empty((n, m, m))
    best_trace = np.full(n, math.inf)
    live = np.arange(n)
    for _ in range(100):
        # the open-loop term afresh at every step, where the library builds it once
        open_loop = kron_square(np.sqrt(1.0 - lam) * a)
        f = np.sqrt(lam) * (a - gains @ c)
        x = solve_kronecker(f, q + lam * gamma * (gains @ r @ gains.swapaxes(1, 2)), open_loop)
        tr = x.trace(axis1=1, axis2=2)
        if not np.isfinite(tr).all():
            raise NumericalError("policy iteration produced a non-finite covariance")
        falling = tr < best_trace[live]
        live, x, lam, gamma = live[falling], x[falling], lam[falling], gamma[falling]
        best[live], best_trace[live] = x, tr[falling]
        if not live.size:
            return best
        gains = _solve_innovation(model, x, gamma)[0]
    raise NumericalError("policy iteration did not settle in 100 steps")


def multibeam_points(model, gammas) -> list:
    """The multi-beam fixed point at each finite gamma by Hewer's policy
    iteration at lam = 1, one point at a time, None where no start gain is
    found: L = 0 when A is stable, the certificate's gain, or else the
    point's ``contracting_gain``."""
    out = []
    for gamma in gammas:
        if not lyapunov_diverges(1.0, spectral_radius(model.A)):
            gain = np.zeros((model.m, model.k))
        else:
            gain = certificate_gain(model)
            if gain is None:
                gain = contracting_gain(model, 1.0, gamma)
        out.append(None if gain is None else policy_iteration(model, [1.0], [gamma], gain)[0])
    return out


def bisect(lo: float, hi: float, tol: float, above) -> float:
    """Halve [lo, hi] one probe at a time, keeping hi's side where above(mid);
    return the midpoint of the last bracket."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _lambda_threshold(d: float, solve, tol: float):
    def feasible(lam: float) -> bool:
        x = solve(lam)
        return x is not None and float(np.trace(x)) <= d

    if feasible(0.0):
        return 0.0
    if not feasible(1.0):
        return None
    return bisect(0.0, 1.0, tol, feasible)


def lambda_s(d: float, model, tol: float):
    """Least lam with tr(S-bar) <= d, one ``sbar`` solve per probe."""
    return _lambda_threshold(d, lambda lam: sbar(lam, model), tol)


def lambda_v(d: float, model, tol: float):
    """Least lam with tr(V-bar) <= d, one ``vbar`` solve per probe."""
    return _lambda_threshold(d, lambda lam: vbar(lam, model), tol)


def gamma_max(d: float, model, tol: float):
    """Largest gamma with tr(multi-beam fixed point) <= d, one
    ``mb_fixed_point`` solve per probe, bisected on log(gamma)."""

    def fits(gamma: float) -> bool:
        x = mb_fixed_point(gamma, model)
        return x is not None and float(np.trace(x)) <= d

    if not fits(1.0):
        return None
    if fits(math.inf):
        return math.inf
    if fits(math.exp(GAMMA_LOG_RANGE)):
        return math.exp(GAMMA_LOG_RANGE)
    return math.exp(bisect(0.0, GAMMA_LOG_RANGE, tol, lambda lg: not fits(math.exp(lg))))


def certificate_gain_bound(model, lam: float):
    """(spectral radius, fixed point, condition number) of the affine map
    phi_lam(K, .) for the certificate's gain K = -A V_u (C V_u)^+.

    The linear part (1 - lam) A X A^T + lam F X F^T with F = A + K C is
    formed as a Kronecker matrix, and the fixed point X_K, which
    upper-bounds V-bar when the radius is below 1, is one dense solve; the
    condition number of that solve comes back too.
    """
    mu, v = np.linalg.eig(model.A)
    vu = v[:, np.abs(mu) >= 1.0 - CRITICAL_MARGIN]
    gain = np.real(-model.A @ vu @ np.linalg.pinv(model.C @ vu))
    f = model.A + gain @ model.C
    linear = (1.0 - lam) * np.kron(model.A, model.A) + lam * np.kron(f, f)
    radius = float(np.max(np.abs(np.linalg.eigvals(linear))))
    rhs = (model.Q + lam * gain @ model.R @ gain.T).reshape(-1)
    system = np.eye(model.m * model.m) - linear
    fixed = np.linalg.solve(system, rhs).reshape(model.m, model.m)
    return radius, fixed, float(np.linalg.cond(system))

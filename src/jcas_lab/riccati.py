"""Modified Riccati maps for beam-switching and multi-beam sensing.

Two one-step covariance maps drive everything here:

* ``gamma_bs(P, lam)``: the erasure-averaged map A P A^T + Q - lam * corr(P),
  whose fixed point V-bar upper-bounds the expected covariance of the
  intermittent filter sensing with probability lam.
* ``gamma_mb(P, gamma)``: the gain-scaled map A P A^T + Q - corr(P; gamma R),
  whose fixed point is the steady-state covariance when every measurement
  arrives with noise inflated by gamma.

The matching lower bound S-bar solves the scaled Lyapunov equation in
:mod:`.statespace`.  Thresholds (critical sensing probability, feasible-lambda
and feasible-gamma boundaries for a distortion budget) are located by
bisection; the feasibility maps are monotone but not smooth at the divergence
boundary, so no derivative-based search is attempted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ParameterError
from .statespace import (
    CRITICAL_MARGIN,
    GaussMarkovModel,
    as_matrix,
    lyap_kernel,
    lyapunov_step,
    solve_scaled_lyapunov,
    spectral_radius,
    symmetrize,
)

#: a covariance trace beyond this is declared divergent
TRACE_DIVERGENCE = 1e12

_CONVERGED = "converged"
_DIVERGED = "diverged"
_UNDECIDED = "undecided"


@dataclass(frozen=True)
class BeamPolicy:
    """Transmit strategy: switching(lam) or multibeam(gamma0).

    switching: each step senses (gamma=1) with probability lam, otherwise
    communicates (gamma=infinity, measurement erased).
    multibeam: constant gain gamma0 >= 1 on every step; gamma0 = infinity is
    the all-communication limit.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "switching":
            if not (0.0 <= self.value <= 1.0):
                raise ParameterError(
                    f"switching probability must lie in [0, 1], got {self.value}"
                )
        elif self.kind == "multibeam":
            if math.isnan(self.value) or self.value < 1.0:
                raise ParameterError(
                    f"multibeam gain must lie in [1, inf], got {self.value}"
                )
        else:
            raise ParameterError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def switching(cls, lam: float) -> "BeamPolicy":
        return cls("switching", float(lam))

    @classmethod
    def multibeam(cls, gamma0: float) -> "BeamPolicy":
        return cls("multibeam", float(gamma0))


def riccati_kernel(a: float, c: float, q: float, r: float, p: float, gamma: float) -> float:
    """Scalar one-step covariance update with measurement gain gamma.

    Single shared expression; the vectorized Monte Carlo recursion and the
    boxed matrix path reuse it so their results agree bit for bit.
    """
    s = (c * p) * c + gamma * r
    return (a * p) * a + q - ((a * p) * c) * (((c * p) * a) / s)


def bs_kernel(a: float, c: float, q: float, r: float, p: float, lam: float) -> float:
    """Scalar erasure-averaged covariance step (sensing probability lam)."""
    s = (c * p) * c + r
    return (a * p) * a + q - lam * (((a * p) * c) * (((c * p) * a) / s))


def riccati_step(model: GaussMarkovModel, p: np.ndarray, gamma: float) -> np.ndarray:
    """A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized.

    gamma = infinity nullifies the correction and reduces to the open-loop
    step A P A^T + Q (bitwise identical to the alpha=1 Lyapunov step).
    For a matrix model, p may be a stack (..., m, m) of covariances.
    """
    if math.isinf(gamma):
        return lyapunov_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[riccati_kernel(a, c, q, r, float(p[0, 0]), gamma)]])
    innov = model.C @ p @ model.C.T + gamma * model.R
    try:
        x = np.linalg.solve(innov, model.C @ p @ model.A.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.max(np.linalg.cond(innov))),
        ) from exc
    corr = (model.A @ p @ model.C.T) @ x
    return symmetrize(model.A @ p @ model.A.T + model.Q - corr)


def gamma_bs(p: np.ndarray, lam: float, model: GaussMarkovModel) -> np.ndarray:
    """One application of the beam-switching expected-covariance map.

    lam = 0 takes the open-loop branch and lam = 1 the full-measurement
    Riccati branch, so the endpoints coincide exactly with those steps.
    """
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    p = as_matrix(p, "P")
    if lam == 0.0:
        return lyapunov_step(model, p, 1.0)
    if lam == 1.0:
        return riccati_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[bs_kernel(a, c, q, r, float(p[0, 0]), lam)]])
    innov = model.C @ p @ model.C.T + model.R
    try:
        x = np.linalg.solve(innov, model.C @ p @ model.A.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.linalg.cond(innov)),
        ) from exc
    corr = (model.A @ p @ model.C.T) @ x
    return symmetrize(model.A @ p @ model.A.T + model.Q - lam * corr)


def gamma_mb(p: np.ndarray, gamma: float, model: GaussMarkovModel) -> np.ndarray:
    """One application of the multi-beam map (gain-scaled measurement noise)."""
    if math.isnan(gamma) or gamma < 1.0:
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    return riccati_step(model, as_matrix(p, "P"), gamma)


def iterate_map(step, p0: np.ndarray, n: int) -> list:
    """[P0, step(P0), step^2(P0), ..., step^n(P0)]."""
    seq = [as_matrix(p0, "P0")]
    for _ in range(n):
        seq.append(step(seq[-1]))
    return seq


def _tail_growing(window) -> bool:
    if len(window) < 4:
        return True
    half = len(window) // 2
    first = sum(list(window)[:half]) / half
    second = sum(list(window)[half:]) / (len(window) - half)
    return second > first


def _classify_scalar(stepf, p0: float, tol: float, max_iter: int):
    """Tight float loop: converged / diverged / undecided at the cap.

    At the cap the recent delta trend decides: still-growing deltas mean the
    iterate is escaping (diverged), shrinking deltas mean slow contraction
    toward a finite fixed point (undecided -- callers near a threshold treat
    this as the convergent side).
    """
    p = p0
    window = deque(maxlen=64)
    for _ in range(max_iter):
        pn = stepf(p)
        if not math.isfinite(pn) or pn > TRACE_DIVERGENCE:
            return _DIVERGED, None, window
        d = abs(pn - p)
        if d < tol:
            return _CONVERGED, pn, window
        window.append(d)
        p = pn
    if _tail_growing(window):
        return _DIVERGED, None, window
    return _UNDECIDED, p, window


def _classify_matrix(step, p0: np.ndarray, tol: float, max_iter: int):
    p = p0
    window = deque(maxlen=64)
    for _ in range(max_iter):
        pn = step(p)
        tr = float(np.trace(pn))
        if not math.isfinite(tr) or tr > TRACE_DIVERGENCE:
            return _DIVERGED, None, window
        d = float(np.max(np.abs(pn - p)))
        if d < tol:
            return _CONVERGED, pn, window
        window.append(d)
        p = pn
    if _tail_growing(window):
        return _DIVERGED, None, window
    return _UNDECIDED, p, window


def fixed_point(step, p0, tol: float = 1e-12, max_iter: int = 1_000_000):
    """Iterate a covariance map to its fixed point.

    Returns the fixed point matrix, or None when the trace blows past
    ``TRACE_DIVERGENCE`` or the iterate is still growing at the cap.
    Hitting the cap with a shrinking step (oscillation or slow contraction)
    raises ConvergenceError carrying the tail of the step-size history.
    """
    status, value, window = _classify_matrix(step, as_matrix(p0, "P0"), tol, max_iter)
    if status == _CONVERGED:
        return value
    if status == _DIVERGED:
        return None
    raise ConvergenceError(
        f"fixed-point iteration cap {max_iter} hit without convergence or divergence",
        trace_tail=list(window),
    )


def _classify_bs(model: GaussMarkovModel, lam: float, tol: float, max_iter: int, p0=None):
    start = model.Q.copy() if p0 is None else as_matrix(p0, "P0")
    if model.is_scalar:
        a, c, q, r = model.scalars()
        if lam == 0.0:
            stepf = lambda p: lyap_kernel(a, q, p, 1.0)
        elif lam == 1.0:
            stepf = lambda p: riccati_kernel(a, c, q, r, p, 1.0)
        else:
            stepf = lambda p: bs_kernel(a, c, q, r, p, lam)
        status, val, window = _classify_scalar(stepf, float(start[0, 0]), tol, max_iter)
        value = None if val is None else np.array([[val]])
        return status, value, window
    return _classify_matrix(lambda p: gamma_bs(p, lam, model), start, tol, max_iter)


def _classify_mb(model: GaussMarkovModel, gamma: float, tol: float, max_iter: int, p0=None):
    if math.isinf(gamma):
        s = solve_scaled_lyapunov(model, 1.0, tol=tol, max_iter=max_iter)
        return (_DIVERGED, None, deque()) if s is None else (_CONVERGED, s, deque())
    start = model.Q.copy() if p0 is None else as_matrix(p0, "P0")
    if model.is_scalar:
        a, c, q, r = model.scalars()
        stepf = lambda p: riccati_kernel(a, c, q, r, p, gamma)
        status, val, window = _classify_scalar(stepf, float(start[0, 0]), tol, max_iter)
        value = None if val is None else np.array([[val]])
        return status, value, window
    return _classify_matrix(lambda p: riccati_step(model, p, gamma), start, tol, max_iter)


def vbar(
    lam: float,
    model: GaussMarkovModel,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    p0=None,
):
    """Fixed point of the beam-switching map, or None when it diverges.

    Iteration starts from p0 (default Q, a natural sub-solution that
    converges from below for these maps); expose p0 for sensitivity checks.
    """
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    status, value, window = _classify_bs(model, lam, tol, max_iter, p0)
    if status == _CONVERGED:
        return value
    if status == _DIVERGED:
        return None
    raise ConvergenceError(
        f"beam-switching fixed point undecided at cap {max_iter} (lam={lam})",
        trace_tail=list(window),
    )


def sbar(lam: float, model: GaussMarkovModel, tol: float = 1e-12, max_iter: int = 1_000_000):
    """Scaled-Lyapunov lower bound at alpha = 1 - lam, or None when divergent."""
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    return solve_scaled_lyapunov(model, 1.0 - lam, tol=tol, max_iter=max_iter)


def mb_fixed_point(
    gamma: float,
    model: GaussMarkovModel,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    p0=None,
):
    """Steady-state covariance of the multi-beam map, or None when divergent."""
    if math.isnan(gamma) or gamma < 1.0:
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    status, value, window = _classify_mb(model, gamma, tol, max_iter, p0)
    if status == _CONVERGED:
        return value
    if status == _DIVERGED:
        return None
    raise ConvergenceError(
        f"multi-beam fixed point undecided at cap {max_iter} (gamma={gamma})",
        trace_tail=list(window),
    )


def critical_lambda(
    model: GaussMarkovModel,
    bisect_tol: float = 1e-6,
    probe_tol: float = 1e-10,
    probe_max_iter: int = 200_000,
) -> float:
    """Sensing probability below which the expected covariance diverges.

    Stable dynamics (rho(A)^2 < 1) converge open loop, so the threshold is 0.
    Otherwise bisect on the convergence/divergence boundary of the
    beam-switching fixed point.  Probes that hit the iteration cap are
    classified by their step-size trend, which stays correct arbitrarily
    close to the boundary; undecided probes count as convergent.
    """
    rho = spectral_radius(model.A)
    if rho * rho < 1.0 - CRITICAL_MARGIN:
        return 0.0

    status, _, _ = _classify_bs(model, 1.0, probe_tol, probe_max_iter)
    if status == _DIVERGED:
        raise ConvergenceError(
            "expected covariance diverges even with every measurement; "
            "model is likely not detectable"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        status, _, _ = _classify_bs(model, mid, probe_tol, probe_max_iter)
        if status == _DIVERGED:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bound_trace(classify_result) -> float:
    status, value, _ = classify_result
    if status == _CONVERGED:
        return float(np.trace(value))
    return math.inf


def lambda_s(
    d: float,
    model: GaussMarkovModel,
    bisect_tol: float = 1e-6,
    probe_tol: float = 1e-12,
    probe_max_iter: int = 1_000_000,
):
    """Least lam with tr(S-bar(lam)) <= d, or None when even lam=1 violates it."""
    return _lambda_threshold(d, model, "s", bisect_tol, probe_tol, probe_max_iter)


def lambda_v(
    d: float,
    model: GaussMarkovModel,
    bisect_tol: float = 1e-6,
    probe_tol: float = 1e-12,
    probe_max_iter: int = 1_000_000,
):
    """Least lam with tr(V-bar(lam)) <= d, or None when even lam=1 violates it."""
    return _lambda_threshold(d, model, "v", bisect_tol, probe_tol, probe_max_iter)


def _lambda_threshold(d, model, which, bisect_tol, probe_tol, probe_max_iter):
    if d <= 0.0:
        raise ParameterError(f"distortion budget must be positive, got {d}")

    def trace_at(lam: float) -> float:
        if which == "s":
            try:
                s = sbar(lam, model, tol=probe_tol, max_iter=probe_max_iter)
            except ConvergenceError:
                return math.inf
            return math.inf if s is None else float(np.trace(s))
        return _bound_trace(_classify_bs(model, lam, probe_tol, probe_max_iter))

    if trace_at(0.0) <= d:
        return 0.0
    if trace_at(1.0) > d:
        return None
    lo, hi = 0.0, 1.0  # lo infeasible, hi feasible; trace is nonincreasing in lam
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if trace_at(mid) <= d:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


#: bisection range for the multi-beam gain, in nats of log(gamma)
GAMMA_LOG_RANGE = 40.0


def gamma_max(
    d: float,
    model: GaussMarkovModel,
    bisect_tol: float = 1e-6,
    probe_tol: float = 1e-12,
    probe_max_iter: int = 1_000_000,
):
    """Largest multi-beam gain whose steady-state trace stays within budget d.

    Returns math.inf when even the open-loop limit satisfies the budget
    (possible only for stable dynamics) and None when gamma = 1, the best
    sensing available, already violates it.  Otherwise bisects on log(gamma)
    over [0, GAMMA_LOG_RANGE].
    """
    if d <= 0.0:
        raise ParameterError(f"distortion budget must be positive, got {d}")

    def trace_at(gamma: float) -> float:
        try:
            return _bound_trace(_classify_mb(model, gamma, probe_tol, probe_max_iter))
        except ConvergenceError:
            return math.inf

    if trace_at(1.0) > d:
        return None
    open_loop = solve_scaled_lyapunov(model, 1.0)
    if open_loop is not None and float(np.trace(open_loop)) <= d:
        return math.inf
    lo, hi = 0.0, GAMMA_LOG_RANGE  # log-gamma; lo feasible, hi infeasible
    if trace_at(math.exp(hi)) <= d:
        return math.exp(hi)
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if trace_at(math.exp(mid)) <= d:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))

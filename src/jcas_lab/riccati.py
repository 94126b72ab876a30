"""Modified Riccati maps for beam-switching and multi-beam sensing.

Two one-step covariance maps drive everything here:

* ``gamma_bs(P, lam)``: the erasure-averaged map A P A^T + Q - lam * corr(P),
  whose fixed point V-bar upper-bounds the expected covariance of the
  intermittent filter sensing with probability lam.
* ``gamma_mb(P, gamma)``: the gain-scaled map A P A^T + Q - corr(P; gamma R),
  whose fixed point is the steady-state covariance when every measurement
  arrives with noise inflated by gamma.

Every gain and correction, here and in the Kalman filter, comes from one
solve of the innovation covariance S = C P C^T + gamma R:
``_solve_innovation`` (matrix models) or ``innovation_kernel`` (scalar).
The matrix solve takes the right-hand sides [C P, C P A^T] for a filter
gain and C P A^T alone where no gain is needed (``riccati_step``,
``gamma_bs``, the policy iteration); on m >= 2 both give the same bits.

Fixed points are solved, not iterated.  Once a gain K is fixed, the map
phi_{lam,gamma}(K, X) = (1 - lam) A X A^T + lam (A + K C) X (A + K C)^T
+ Q + lam gamma K R K^T is affine in X, and minimizing over K gives back
``gamma_bs`` (gamma = 1, fixed point V-bar) or ``gamma_mb`` (lam = 1, the
multi-beam steady state) (Sinopoli et al., "Kalman filtering with
intermittent observations", IEEE TAC 2004).  A scalar model takes the
positive root of the quadratic this fixed point solves.  A matrix model
runs Hewer's policy iteration, batched over a whole lam or gamma grid, from
K = 0 when A is stable or from the gain of the ``unstable_modes_observed``
certificate.  The matching lower bound S-bar is the scaled Lyapunov solve
of :mod:`.statespace`.  V-bar >= S-bar, and S-bar diverges whenever
(1 - lam) rho(A)^2 >= 1, so V-bar is None there; on scalar, stable and
certified models it is finite everywhere else.  Models the certificate
refuses keep one iterated classifier, point by point: converged, diverged,
or undecided at the iteration cap.

Thresholds (critical sensing probability, feasible-lambda and feasible-gamma
boundaries for a distortion budget) are located by one monotone bisection;
the feasibility maps are monotone but not smooth at the divergence boundary,
so no derivative-based search is attempted.  On certified models the
critical sensing probability bisects the closed-form test
(1 - lam) rho(A)^2 < 1 and needs no covariance step; on refused models it
bisects on iterated V-bar probes.
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
    lyapunov_diverges,
    lyapunov_step,
    scaled_lyapunov_sweep,
    solve_affine,
    solve_scaled_lyapunov,
    spectral_radius,
    symmetrize,
)

#: a covariance trace beyond this is declared divergent
TRACE_DIVERGENCE = 1e12

#: step sizes kept per solve for the trend test at the iteration cap
WINDOW = 64

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




def _check_lam(lam: float) -> float:
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    return lam


def _check_gamma(gamma: float) -> float:
    if math.isnan(gamma) or gamma < 1.0:
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    return gamma


def innovation_kernel(a: float, c: float, q: float, r: float, p: float, gamma: float, lam: float):
    """Scalar ``innovation``: (p c / s, a p a + q - lam (a p c)(c p a) / s).

    s = c p c + gamma r is computed once.  Every scalar step reads this one
    expression, so they agree bit for bit; p may be an array of trials.
    Where a p a overflows, as at an overflowed p = +inf, the expression
    would give inf - inf; ``_innovation_limit`` takes over.
    """
    cp, ap = c * p, a * p
    apa = ap * a
    if (apa.max() if isinstance(apa, np.ndarray) else apa) == math.inf:
        return _innovation_limit(a, c, q, r, p, gamma, lam)
    s = cp * c + gamma * r
    return cp / s, apa + q - lam * ((ap * c) * ((cp * a) / s))


def _innovation_limit(a: float, c: float, q: float, r: float, p, gamma: float, lam: float):
    """``innovation_kernel`` where a p a overflows to +inf.

    Those entries take the form that stays finite as p -> inf: with
    d = c^2 + gamma r / p, the gain c / d and the covariance
    a^2 lam gamma r / d + q + (1 - lam) a^2 p.  At p = +inf that is the gain
    1/c and a^2 gamma r / c^2 + q at lam = 1, +inf at lam < 1.  With c = 0
    nothing is sensed (gain 0, covariance +inf).  The other entries keep
    ``innovation_kernel``'s bits.
    """
    array = isinstance(p, np.ndarray)
    big = np.isposinf(a * p * a)
    gain, p_next = innovation_kernel(a, c, q, r, np.where(big, 1.0, p), gamma, lam)
    if c == 0.0:
        top_gain, top = 0.0, math.inf
    else:
        p = np.where(big, p, 1.0)
        d = c * c + gamma * r / p
        top_gain, top = c / d, (a * a) * (lam * (gamma * r) / d) + q
        if lam < 1.0:
            top = top + (1.0 - lam) * p * a * a
    gain = np.where(big, top_gain, gain)
    p_next = np.where(big, top, p_next)
    return (gain, p_next) if array else (float(gain), float(p_next))


def riccati_kernel(a: float, c: float, q: float, r: float, p: float, gamma: float) -> float:
    """Scalar one-step covariance update with measurement gain gamma."""
    return innovation_kernel(a, c, q, r, p, gamma, 1.0)[1]


def bs_kernel(a: float, c: float, q: float, r: float, p: float, lam: float) -> float:
    """Scalar erasure-averaged covariance step (sensing probability lam)."""
    return innovation_kernel(a, c, q, r, p, 1.0, lam)[1]


def _solve_innovation(model: GaussMarkovModel, p: np.ndarray, gamma, gain: bool):
    """S^{-1} [C P, C P A^T], or S^{-1} C P A^T alone when not ``gain``, from
    the one solve of S = C P C^T + gamma R.

    p may be a stack (n, m, m), gamma an array broadcasting against it.  A
    singular S raises NumericalError carrying its condition number.
    """
    cp = model.C @ p
    innov = cp @ model.C.T + gamma * model.R
    rhs = cp @ model.A.T
    if gain:
        rhs = np.concatenate((cp, rhs), axis=-1)
    try:
        return np.linalg.solve(innov, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.max(np.linalg.cond(innov))),
        ) from exc


def _corrected(model: GaussMarkovModel, p: np.ndarray, corr: np.ndarray, lam) -> np.ndarray:
    """P' = A P A^T + Q - lam A P C^T corr, re-symmetrized, for the solved
    corr = S^{-1} C P A^T."""
    ap = model.A @ p
    return symmetrize(ap @ model.A.T + model.Q - lam * ((ap @ model.C.T) @ corr))


def innovation(model: GaussMarkovModel, p: np.ndarray, gamma):
    """(K, P') of one ``_solve_innovation``: the filter gain K = P C^T S^{-1}
    and P' = A P A^T + Q - A P C^T S^{-1} C P A^T, re-symmetrized."""
    x = _solve_innovation(model, p, gamma, True)
    return x[..., : model.m].swapaxes(-1, -2), _corrected(model, p, x[..., model.m :], 1.0)


def riccati_step(model: GaussMarkovModel, p: np.ndarray, gamma) -> np.ndarray:
    """A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized.

    gamma = infinity nullifies the correction and reduces to the open-loop
    step A P A^T + Q (bitwise identical to the alpha=1 Lyapunov step).
    For a matrix model, p may be a stack (n, m, m) of covariances.
    """
    if math.isinf(gamma):
        return lyapunov_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[riccati_kernel(a, c, q, r, float(p[0, 0]), gamma)]])
    return _corrected(model, p, _solve_innovation(model, p, gamma, False), 1.0)


def gamma_bs(p: np.ndarray, lam, model: GaussMarkovModel) -> np.ndarray:
    """One application of the beam-switching expected-covariance map.

    lam = 0 takes the open-loop step, and at lam = 1 the factor 1.0 is exact,
    so the endpoints coincide bit for bit with the Lyapunov and Riccati steps.
    """
    _check_lam(lam)
    p = as_matrix(p, "P")
    if lam == 0.0:
        return lyapunov_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[bs_kernel(a, c, q, r, float(p[0, 0]), lam)]])
    return _corrected(model, p, _solve_innovation(model, p, 1.0, False), lam)


def gamma_mb(p: np.ndarray, gamma: float, model: GaussMarkovModel) -> np.ndarray:
    """One application of the multi-beam map (gain-scaled measurement noise)."""
    return riccati_step(model, as_matrix(p, "P"), _check_gamma(gamma))


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


def _classify(step, p0: np.ndarray, tol: float, max_iter: int):
    """(status, value, window) of iterating a covariance map from p0.

    Diverged once the trace is non-finite or above TRACE_DIVERGENCE,
    converged once the max-abs change drops below ``tol``.  At the cap the
    trend of the last WINDOW changes decides: still-growing changes mean the
    iterate is escaping (diverged), shrinking ones mean slow contraction
    toward a finite fixed point (undecided).
    """
    p = p0
    window = deque(maxlen=WINDOW)
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


def trace_or_inf(matrix) -> float:
    """Trace of a fixed point; infinite for the None of a divergent one."""
    return math.inf if matrix is None else float(np.trace(matrix))


def fixed_point(step, p0, tol: float = 1e-12, max_iter: int = 1_000_000):
    """Iterate a covariance map to its fixed point.

    Returns the fixed point matrix, or None when the trace blows past
    ``TRACE_DIVERGENCE`` or the iterate is still growing at the cap.
    Hitting the cap with a shrinking step (oscillation or slow contraction)
    raises ConvergenceError carrying the tail of the step-size history.
    """
    status, value, window = _classify(step, as_matrix(p0, "P0"), tol, max_iter)
    if status == _UNDECIDED:
        raise ConvergenceError(
            f"fixed-point iteration cap {max_iter} hit without convergence or divergence",
            trace_tail=list(window),
        )
    return value


#: an eigenbasis of A or a C V_u beyond this condition number is not certified
CERTIFICATE_COND = 1e8


def _certificate_gain(model: GaussMarkovModel):
    """The gain K = -A V_u (C V_u)^+ of ``unstable_modes_observed``, or None
    when the certificate refuses the model."""
    if model.m == 1:
        # eigenbasis [[1]], so C V_u is C; no LAPACK call (and its buffers)
        a = float(model.A[0, 0])
        if abs(a) < 1.0 - CRITICAL_MARGIN or not np.any(model.C):
            return None
        return -a * model.C.T / float(np.sum(model.C * model.C))
    mu, v = np.linalg.eig(model.A)
    unstable = np.abs(mu) >= 1.0 - CRITICAL_MARGIN
    if not 0 < np.count_nonzero(unstable) <= model.k or np.linalg.cond(v) > CERTIFICATE_COND:
        return None
    v_u = v[:, unstable]
    if np.linalg.cond(model.C @ v_u) > CERTIFICATE_COND:
        return None
    # conjugate eigenvector pairs give a real gain
    return np.real(-model.A @ v_u @ np.linalg.pinv(model.C @ v_u))


def unstable_modes_observed(model: GaussMarkovModel) -> bool:
    """Certify that V-bar is finite exactly where S-bar is, so lam_c = 1 - 1/rho(A)^2.

    Let the columns of V_u span the unstable invariant subspace U of A (the
    eigenvalues with |mu| >= 1 - CRITICAL_MARGIN) and V_s the stable one,
    whose spectral radius rho_s is below 1.  If C is injective on U, the
    gain K = -A V_u (C V_u)^+ cancels the unstable block: (A + K C) V_u = 0.
    In the basis [V_u, V_s], A and A + K C are then block upper triangular
    with diagonal blocks (Lambda_u, Lambda_s) and (0, Lambda_s), so the
    linear part of phi_lam(K, X) = (1 - lam) A X A^T + lam (A + K C) X
    (A + K C)^T + Q + lam K R K^T is block triangular as well, with spectral
    radius max((1 - lam) rho^2, (1 - lam) rho rho_s, rho_s^2) < 1 whenever
    (1 - lam) rho^2 < 1.  The beam-switching map is bounded by phi_lam(K, .)
    for every K (Sinopoli et al., IEEE TAC 2004), and its iterates from Q
    are nondecreasing, so they converge there; elsewhere S-bar, a lower
    bound, diverges.  The same K starts the policy iteration of every fixed
    point.  Conservative: False when A has no unstable mode or more of them
    than C has rows, or when its eigenbasis or C V_u is ill conditioned
    (which covers a defective A and a rank-deficient C V_u).
    """
    return _certificate_gain(model) is not None


def _scalar_root(model: GaussMarkovModel, lam: float, gamma: float):
    """Scalar fixed point of min_K phi_{lam,gamma}(K, .), or None when it diverges.

    Clearing the denominator of v = a^2 v + q - lam a^2 c^2 v^2 / (c^2 v + gamma r)
    gives c^2 (1 - (1 - lam) a^2) v^2 + (gamma r (1 - a^2) - q c^2) v - gamma q r = 0,
    whose positive root is taken in the form without cancellation.  With
    c = 0 nothing is sensed, so divergence follows the open-loop test.
    """
    a, c, q, r = model.scalars()
    if lyapunov_diverges(1.0 - lam if c else 1.0, abs(a)):
        return None
    gr = gamma * r
    lead = c * c * (1.0 - (1.0 - lam) * (a * a))
    b = gr * (1.0 - a * a) - q * (c * c)
    root = math.sqrt(b * b + 4.0 * lead * gr * q)
    v = 2.0 * gr * q / (b + root) if b > 0.0 else (root - b) / (2.0 * lead)
    return np.array([[v]])


def _policy_iteration(model: GaussMarkovModel, lams, gammas, gain) -> np.ndarray:
    """Fixed points of min_K phi_{lam,gamma}(K, .) for a grid of (lam, gamma) pairs.

    phi_{lam,gamma}(K, X) = (1 - lam) A X A^T + lam (A + K C) X (A + K C)^T
    + Q + lam gamma K R K^T is affine in X once K is fixed, and the
    predictor gain K = -A X C^T (C X C^T + gamma R)^{-1} minimizes it, where
    it equals the beam-switching map (gamma = 1) or the multi-beam map
    (lam = 1).  Hewer's policy iteration (IEEE TAC 1971) alternates the two
    steps: the affine fixed point for the current gains, one batched
    Kronecker solve over the grid, then the gain update, read from the
    innovation solve.  From a gain whose affine map contracts, the iterates
    decrease monotonically to the fixed point, quadratically near it, so a
    member stops at its first step whose trace fails to decrease and keeps
    the iterate before it.
    """
    a, c, q, r = model.A, model.C, model.Q, model.R
    m = model.m
    lam = np.reshape(lams, (-1, 1, 1))
    gamma = np.reshape(gammas, (-1, 1, 1))
    n = len(lam)
    gains = np.broadcast_to(gain, (n,) + gain.shape)
    best = np.empty((n, m, m))
    best_trace = np.full(n, math.inf)
    live = np.arange(n)
    # a strictly decreasing float sequence stops within a few steps of
    # rounding level; the bound only turns a defect into an error
    for _ in range(100):
        # (1 - lam) A X A^T + lam F X F^T with F = A + K C, as two factors
        factors = np.stack([np.sqrt(1.0 - lam) * a, np.sqrt(lam) * (a + gains @ c)], axis=1)
        x = solve_affine(factors, q + lam * gamma * (gains @ r @ gains.swapaxes(1, 2)))
        tr = x.trace(axis1=1, axis2=2)
        if not np.isfinite(tr).all():
            raise NumericalError("policy iteration produced a non-finite covariance")
        falling = tr < best_trace[live]
        live, x, lam, gamma = live[falling], x[falling], lam[falling], gamma[falling]
        best[live], best_trace[live] = x, tr[falling]
        if not live.size:
            return best
        gains = -_solve_innovation(model, x, gamma, False).swapaxes(1, 2)
    raise NumericalError("policy iteration did not settle in 100 steps")


def _solve_grid(model: GaussMarkovModel, lams, gammas, step, strict: bool) -> list:
    """min_K phi_{lam,gamma}(K, .) fixed point per (lam, gamma) pair, None where
    it diverges.

    A scalar model takes the closed-form root.  A matrix model is divergent
    where (1 - lam) rho(A)^2 >= 1 - CRITICAL_MARGIN (the fixed point
    dominates S-bar, which diverges there); every other point of a stable or
    certified model is finite and solved by one policy iteration, started
    from K = 0 or the certificate's gain.  A model the certificate refuses
    iterates ``step(p, lam, gamma)`` from Q point by point instead; a point
    left undecided at the cap is None, or raises ConvergenceError when
    ``strict``.
    """
    if model.is_scalar:
        return [_scalar_root(model, lam, gamma) for lam, gamma in zip(lams, gammas)]
    rho = spectral_radius(model.A)
    todo = [i for i, lam in enumerate(lams) if not lyapunov_diverges(1.0 - lam, rho)]
    out = [None] * len(lams)
    stable = not lyapunov_diverges(1.0, rho)
    gain = np.zeros((model.m, model.k)) if stable else _certificate_gain(model)
    if gain is None:
        for i in todo:
            try:
                out[i] = fixed_point(lambda p, i=i: step(p, lams[i], gammas[i]), model.Q)
            except ConvergenceError:
                if strict:
                    raise
    elif todo:
        solved = _policy_iteration(model, [lams[i] for i in todo], [gammas[i] for i in todo], gain)
        for i, x in zip(todo, solved):
            out[i] = x
    return out


def _vbar_points(model: GaussMarkovModel, lams, strict: bool = False) -> list:
    step = lambda p, lam, _: gamma_bs(p, lam, model)
    return _solve_grid(model, lams, [1.0] * len(lams), step, strict)


def _mb_points(model: GaussMarkovModel, gammas, strict: bool = False) -> list:
    step = lambda p, _, gamma: riccati_step(model, p, gamma)
    return _solve_grid(model, [1.0] * len(gammas), gammas, step, strict)


def vbar(lam: float, model: GaussMarkovModel):
    """Fixed point of the beam-switching map, or None when it diverges."""
    return _vbar_points(model, [_check_lam(lam)], strict=True)[0]


def vbar_sweep(lams, model: GaussMarkovModel) -> list:
    """V-bar at every lam of a grid, solved together.

    An entry is None where the fixed point diverges, or, on a model the
    certificate refuses, where ``vbar`` would raise ConvergenceError.
    """
    return _vbar_points(model, [_check_lam(float(lam)) for lam in lams])


def sbar(lam: float, model: GaussMarkovModel):
    """Scaled-Lyapunov lower bound at alpha = 1 - lam, or None when divergent."""
    return solve_scaled_lyapunov(model, 1.0 - _check_lam(lam))


def sbar_sweep(lams, model: GaussMarkovModel) -> list:
    """S-bar at every lam of a grid, solved together; None where divergent."""
    return scaled_lyapunov_sweep(model, [1.0 - _check_lam(float(lam)) for lam in lams])


def mb_fixed_point(gamma: float, model: GaussMarkovModel):
    """Steady-state covariance of the multi-beam map, or None when divergent."""
    if math.isinf(_check_gamma(gamma)):
        return solve_scaled_lyapunov(model, 1.0)
    return _mb_points(model, [gamma], strict=True)[0]


def mb_sweep(gammas, model: GaussMarkovModel) -> list:
    """Multi-beam fixed point at every gamma of a grid, solved together.

    gamma = inf takes the open-loop Lyapunov route.  An entry is None where
    the fixed point diverges or ``mb_fixed_point`` would raise.
    """
    gammas = [_check_gamma(float(g)) for g in gammas]
    finite = iter(_mb_points(model, [g for g in gammas if not math.isinf(g)]))
    open_loop = solve_scaled_lyapunov(model, 1.0) if math.inf in gammas else None
    return [open_loop if math.isinf(g) else next(finite) for g in gammas]


def _bisect(lo: float, hi: float, tol: float, above) -> float:
    """Shrink [lo, hi] onto the boundary of a monotone predicate; return its midpoint.

    ``above(x)`` tells whether x lies on hi's side of the boundary.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def critical_lambda(model: GaussMarkovModel, bisect_tol: float = 1e-6) -> float:
    """The V-bar finiteness threshold: the least lam at which V-bar is finite.

    This is the upper bound on the critical sensing probability lam_c of
    Sinopoli et al. (IEEE TAC 2004), the threshold the beam-switching
    guarantee needs.  Stable dynamics (rho(A)^2 < 1) converge open loop, so
    it is 0.  When ``unstable_modes_observed`` certifies the model it
    equals 1 - 1/rho(A)^2, and the bisection runs on that closed-form test,
    with no covariance step.  On a model the certificate refuses it can lie
    higher: 0.4263 against 1 - 1/rho(A)^2 = 0.3056 for A = diag(1.2, 1.1)
    with C = [1, 1].  There the bisection probes iterated V-bar: probes at
    or below 1 - 1/rho(A)^2 are divergent without iterating, the others
    iterate to a step below 1e-10 or to a cap of 200000 steps, where the
    step-size trend classifies them, and undecided probes count as
    convergent.
    """
    rho = spectral_radius(model.A)
    if rho * rho < 1.0 - CRITICAL_MARGIN:
        return 0.0
    if unstable_modes_observed(model):
        # lam_c = 1 - 1/rho^2: bisect the closed-form test for the same midpoints
        return _bisect(0.0, 1.0, bisect_tol, lambda lam: not lyapunov_diverges(1.0 - lam, rho))

    def converges(lam: float) -> bool:
        if lyapunov_diverges(1.0 - lam, rho):
            return False
        step = lambda p: gamma_bs(p, lam, model)
        return _classify(step, model.Q, 1e-10, 200_000)[0] != _DIVERGED

    if not converges(1.0):
        raise ConvergenceError(
            "expected covariance diverges even with every measurement; "
            "model is likely not detectable"
        )
    return _bisect(0.0, 1.0, bisect_tol, converges)


def _check_budget(d: float) -> None:
    if d <= 0.0:
        raise ParameterError(f"distortion budget must be positive, got {d}")


def lambda_s(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Least lam with tr(S-bar(lam)) <= d, or None when even lam=1 violates it."""
    return _lambda_threshold(d, lambda lam: sbar(lam, model), bisect_tol)


def lambda_v(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Least lam with tr(V-bar(lam)) <= d, or None when even lam=1 violates it."""
    return _lambda_threshold(d, lambda lam: _vbar_points(model, [lam])[0], bisect_tol)


def _lambda_threshold(d, solve, bisect_tol):
    _check_budget(d)

    def feasible(lam: float) -> bool:
        return trace_or_inf(solve(lam)) <= d

    if feasible(0.0):
        return 0.0
    if not feasible(1.0):
        return None
    # trace is nonincreasing in lam: lo = 0 infeasible, hi = 1 feasible
    return _bisect(0.0, 1.0, bisect_tol, feasible)


#: bisection range for the multi-beam gain, in nats of log(gamma)
GAMMA_LOG_RANGE = 40.0


def gamma_max(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Largest multi-beam gain whose steady-state trace stays within budget d.

    Returns math.inf when even the open-loop limit satisfies the budget
    (possible only for stable dynamics) and None when gamma = 1, the best
    sensing available, already violates it.  Otherwise bisects on log(gamma)
    over [0, GAMMA_LOG_RANGE].
    """
    _check_budget(d)

    def trace_at(gamma: float) -> float:
        if math.isinf(gamma):
            return trace_or_inf(solve_scaled_lyapunov(model, 1.0))
        return trace_or_inf(_mb_points(model, [gamma])[0])

    if trace_at(1.0) > d:
        return None
    if trace_at(math.inf) <= d:
        return math.inf
    # log-gamma: lo = 0 feasible, hi infeasible unless even e^hi meets d
    if trace_at(math.exp(GAMMA_LOG_RANGE)) <= d:
        return math.exp(GAMMA_LOG_RANGE)
    log_gamma = _bisect(
        0.0, GAMMA_LOG_RANGE, bisect_tol, lambda lg: not trace_at(math.exp(lg)) <= d
    )
    return math.exp(log_gamma)

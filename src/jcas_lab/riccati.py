"""Modified Riccati maps for beam-switching and multi-beam sensing.

Two one-step covariance maps drive everything here:

* ``gamma_bs(P, lam)``: the erasure-averaged map A P A^T + Q - lam * corr(P),
  whose fixed point V-bar upper-bounds the expected covariance of the
  intermittent filter sensing with probability lam.
* ``gamma_mb(P, gamma)``: the gain-scaled map A P A^T + Q - corr(P; gamma R),
  whose fixed point is the steady-state covariance when every measurement
  arrives with noise inflated by gamma.

Both share one innovation-correction helper, and for matrix models both
advance a stack (n, m, m) of covariances with a per-member lam or gamma.

The matching lower bound S-bar solves the scaled Lyapunov equation in
:mod:`.statespace`.  V-bar >= S-bar, and S-bar diverges whenever
(1 - lam) rho(A)^2 >= 1 (Sinopoli et al., "Kalman filtering with
intermittent observations", IEEE TAC 2004), so a V-bar probe there is
classified divergent at once, by the test S-bar uses, without iterating.

On matrix models a whole lam or gamma grid is solved as one stacked
recursion (``vbar_sweep``, ``sbar_sweep``, ``mb_sweep``): each grid point
is a member of the stack, stops at its own step with the same converged /
diverged / undecided rule as a single solve, and then leaves the stack.  A
single solve is a stack of one.  Scalar models iterate the float kernels
point by point instead.

Thresholds (critical sensing probability, feasible-lambda and feasible-gamma
boundaries for a distortion budget) are located by one monotone bisection;
the feasibility maps are monotone but not smooth at the divergence boundary,
so no derivative-based search is attempted.  The critical sensing
probability needs no covariance step when ``unstable_modes_observed``
certifies the model (C injective on the unstable invariant subspace of A):
V-bar is then finite exactly where S-bar is, and the bisection runs on the
closed-form test (1 - lam) rho(A)^2 < 1.  Models the certificate refuses
keep the bisection on iterated V-bar probes.
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
    check_initial_covariance,
    lyapunov_diverges,
    lyapunov_step,
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


def _corrected_step(model: GaussMarkovModel, p: np.ndarray, gamma, lam) -> np.ndarray:
    """A P A^T + Q - lam * A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized.

    The innovation correction shared by riccati_step (lam = 1) and gamma_bs
    (gamma = 1); multiplying by 1.0 is exact, so both keep their bits.  p
    may be a stack (n, m, m), with gamma and lam floats or (n, 1, 1) arrays.
    """
    ap = model.A @ p
    cp = model.C @ p
    innov = cp @ model.C.T + gamma * model.R
    try:
        x = np.linalg.solve(innov, cp @ model.A.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.max(np.linalg.cond(innov))),
        ) from exc
    return symmetrize(ap @ model.A.T + model.Q - lam * ((ap @ model.C.T) @ x))


def riccati_step(model: GaussMarkovModel, p: np.ndarray, gamma) -> np.ndarray:
    """A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized.

    gamma = infinity nullifies the correction and reduces to the open-loop
    step A P A^T + Q (bitwise identical to the alpha=1 Lyapunov step).
    For a matrix model, p may be a stack (n, m, m) of covariances, and gamma
    an (n, 1, 1) array of finite per-member gains.
    """
    if np.ndim(gamma) == 0 and math.isinf(gamma):
        return lyapunov_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[riccati_kernel(a, c, q, r, float(p[0, 0]), gamma)]])
    return _corrected_step(model, p, gamma, 1.0)


def gamma_bs(p: np.ndarray, lam, model: GaussMarkovModel) -> np.ndarray:
    """One application of the beam-switching expected-covariance map.

    lam = 0 takes the open-loop branch and lam = 1 the full-measurement
    Riccati branch, so the endpoints coincide exactly with those steps.
    For a matrix model, p may be a stack (n, m, m) and lam an (n, 1, 1)
    array of per-member probabilities; the shared formula then gives the
    endpoint branches' bits too, as long as the correction is finite.
    """
    if np.ndim(lam):
        if not ((lam >= 0.0) & (lam <= 1.0)).all():
            raise ParameterError(f"lam must lie in [0, 1], got {np.ravel(lam)}")
        return _corrected_step(model, p, 1.0, lam)
    _check_lam(lam)
    p = as_matrix(p, "P")
    if lam == 0.0:
        return lyapunov_step(model, p, 1.0)
    if lam == 1.0:
        return riccati_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return np.array([[bs_kernel(a, c, q, r, float(p[0, 0]), lam)]])
    return _corrected_step(model, p, 1.0, lam)


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


def _classify_scalar(stepf, p0: float, tol: float, max_iter: int):
    """Tight float loop: converged / diverged / undecided at the cap.

    At the cap the recent delta trend decides: still-growing deltas mean the
    iterate is escaping (diverged), shrinking deltas mean slow contraction
    toward a finite fixed point (undecided -- callers near a threshold treat
    this as the convergent side).  Values come back as 1x1 matrices.
    """
    p = p0
    window = deque(maxlen=WINDOW)
    for _ in range(max_iter):
        pn = stepf(p)
        if not math.isfinite(pn) or pn > TRACE_DIVERGENCE:
            return _DIVERGED, None, window
        d = abs(pn - p)
        if d < tol:
            return _CONVERGED, np.array([[pn]]), window
        window.append(d)
        p = pn
    if _tail_growing(window):
        return _DIVERGED, None, window
    return _UNDECIDED, np.array([[p]]), window


def _classify_stack(step, p0: np.ndarray, params, tol: float, max_iter: int,
                    limit: float = TRACE_DIVERGENCE) -> list:
    """Classify the fixed-point iteration at every parameter of a grid at once.

    ``step(p, params)`` advances an (n, m, m) stack whose member i uses
    ``params[i]``, passed with shape (n, 1, 1); every member starts at p0.
    Each member stops at its own step by the rule of _classify_scalar:
    diverged once its trace is non-finite or above ``limit``, converged
    once the max-abs change drops below ``tol``, and at the cap decided by
    the trend of its last WINDOW changes.  Finished members leave the
    stack.  Returns one (status, value, window) per parameter, in order.
    """
    params = np.asarray(params, dtype=float).reshape(-1, 1, 1)
    n = len(params)
    results = [None] * n
    if n == 0:
        return results
    live = np.arange(n)
    p = np.array(np.broadcast_to(p0, (n,) + p0.shape))
    deltas = np.empty((n, WINDOW))
    for it in range(max_iter):
        pn = step(p, params)
        tr = pn.trace(axis1=1, axis2=2)
        d = np.abs(pn - p).max(axis=(1, 2))
        # cheap superset test first: most steps finish no member
        if d.min() < tol or not np.abs(tr).max() < limit:
            diverged = ~np.isfinite(tr) | (tr > limit)
            done = diverged | (d < tol)
            for j in np.flatnonzero(done):
                converged = (_CONVERGED, pn[j].copy(), [])
                results[live[j]] = (_DIVERGED, None, []) if diverged[j] else converged
            keep = ~done
            live, pn, params, deltas, d = live[keep], pn[keep], params[keep], deltas[keep], d[keep]
            if not live.size:
                return results
        deltas[:, it % WINDOW] = d
        p = pn
    order = np.arange(max_iter - min(max_iter, WINDOW), max_iter) % WINDOW
    for j, i in enumerate(live):
        window = deltas[j, order].tolist()
        growing = _tail_growing(window)
        results[i] = (_DIVERGED, None, window) if growing else (_UNDECIDED, p[j].copy(), window)
    return results


def _fill(skip, solved, filler) -> list:
    """Grid-ordered results: filler where skip is set, else the next solved one."""
    solved = iter(solved)
    return [filler if s else next(solved) for s in skip]


def _value_or_raise(result, message: str):
    """The fixed point, or None when divergent; ConvergenceError when undecided."""
    status, value, window = result
    if status == _UNDECIDED:
        raise ConvergenceError(message, trace_tail=list(window))
    return value


def _converged(result):
    status, value, _ = result
    return value if status == _CONVERGED else None


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
    result = _classify_stack(
        lambda p, _: step(p[0])[np.newaxis], as_matrix(p0, "P0"), [0.0], tol, max_iter
    )[0]
    return _value_or_raise(
        result, f"fixed-point iteration cap {max_iter} hit without convergence or divergence"
    )


def _classify_grid(model: GaussMarkovModel, kernel, step, params, tol, max_iter, p0) -> list:
    """Classify a fixed point at every parameter: float kernel loops for a
    scalar model, one stacked recursion for a matrix model."""
    start = model.Q.copy() if p0 is None else check_initial_covariance(model, p0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        return [
            _classify_scalar(lambda p, x=x: kernel(a, c, q, r, p, x), float(start[0, 0]), tol, max_iter)
            for x in params
        ]
    return _classify_stack(step, start, params, tol, max_iter)


def _classify_bs(model: GaussMarkovModel, lams, tol: float, max_iter: int, p0=None) -> list:
    """Classify the beam-switching fixed point at every lam of a grid.

    A lam with (1 - lam) rho(A)^2 >= 1 - CRITICAL_MARGIN is divergent
    without iterating (V-bar >= S-bar, which diverges there).  The scalar
    kernel gives the lam = 0 and lam = 1 branches' bits (see gamma_bs).
    """
    rho = spectral_radius(model.A)
    skip = [lyapunov_diverges(1.0 - lam, rho) for lam in lams]
    todo = [lam for lam, s in zip(lams, skip) if not s]
    step = lambda ps, lam: gamma_bs(ps, lam, model)
    solved = _classify_grid(model, bs_kernel, step, todo, tol, max_iter, p0)
    return _fill(skip, solved, (_DIVERGED, None, []))


def _classify_mb(model: GaussMarkovModel, gammas, tol: float, max_iter: int, p0=None) -> list:
    """Classify the multi-beam fixed point at every finite gamma of a grid."""
    step = lambda ps, g: riccati_step(model, ps, g)
    return _classify_grid(model, riccati_kernel, step, gammas, tol, max_iter, p0)


def _lyapunov_or_none(model: GaussMarkovModel, alpha: float, tol: float, max_iter: int):
    """Scaled-Lyapunov fixed point, or None when it diverges or stalls at the cap."""
    try:
        return solve_scaled_lyapunov(model, alpha, tol=tol, max_iter=max_iter)
    except ConvergenceError:
        return None


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
    result = _classify_bs(model, [_check_lam(lam)], tol, max_iter, p0)[0]
    return _value_or_raise(
        result, f"beam-switching fixed point undecided at cap {max_iter} (lam={lam})"
    )


def vbar_sweep(lams, model: GaussMarkovModel, tol: float = 1e-12,
               max_iter: int = 1_000_000, p0=None) -> list:
    """V-bar at every lam of a grid, solved as one stacked recursion.

    An entry is None where the fixed point diverges or is still undecided
    at the cap (where ``vbar`` would raise ConvergenceError).
    """
    lams = [_check_lam(float(lam)) for lam in lams]
    return [_converged(r) for r in _classify_bs(model, lams, tol, max_iter, p0)]


def sbar(lam: float, model: GaussMarkovModel, tol: float = 1e-12, max_iter: int = 1_000_000):
    """Scaled-Lyapunov lower bound at alpha = 1 - lam, or None when divergent."""
    return solve_scaled_lyapunov(model, 1.0 - _check_lam(lam), tol=tol, max_iter=max_iter)


def sbar_sweep(lams, model: GaussMarkovModel, tol: float = 1e-12,
               max_iter: int = 1_000_000) -> list:
    """S-bar at every lam of a grid; matrix models run one stacked recursion.

    An entry is None where ``sbar`` returns None or raises ConvergenceError.
    """
    alphas = [1.0 - _check_lam(float(lam)) for lam in lams]
    if model.is_scalar:
        return [_lyapunov_or_none(model, alpha, tol, max_iter) for alpha in alphas]
    rho = spectral_radius(model.A)
    skip = [lyapunov_diverges(alpha, rho) for alpha in alphas]
    todo = [alpha for alpha, s in zip(alphas, skip) if not s]
    # below the rho test the iterates stay bounded, so only non-finite
    # traces count as divergence, as in solve_scaled_lyapunov
    solved = _classify_stack(
        lambda ps, alpha: lyapunov_step(model, ps, alpha), model.Q, todo, tol, max_iter,
        limit=math.inf,
    )
    return _fill(skip, [_converged(r) for r in solved], None)


def mb_fixed_point(
    gamma: float,
    model: GaussMarkovModel,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    p0=None,
):
    """Steady-state covariance of the multi-beam map, or None when divergent."""
    if math.isinf(_check_gamma(gamma)):
        return solve_scaled_lyapunov(model, 1.0, tol=tol, max_iter=max_iter)
    result = _classify_mb(model, [gamma], tol, max_iter, p0)[0]
    return _value_or_raise(
        result, f"multi-beam fixed point undecided at cap {max_iter} (gamma={gamma})"
    )


def mb_sweep(gammas, model: GaussMarkovModel, tol: float = 1e-12,
             max_iter: int = 1_000_000) -> list:
    """Multi-beam fixed point at every gamma of a grid, in one stacked recursion.

    gamma = inf takes the open-loop Lyapunov route.  An entry is None where
    the fixed point diverges or ``mb_fixed_point`` would raise.
    """
    gammas = [_check_gamma(float(g)) for g in gammas]
    skip = [math.isinf(g) for g in gammas]
    finite = _classify_mb(model, [g for g, s in zip(gammas, skip) if not s], tol, max_iter)
    open_loop = _lyapunov_or_none(model, 1.0, tol, max_iter) if any(skip) else None
    return _fill(skip, [_converged(r) for r in finite], open_loop)


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


#: an eigenbasis of A or a C V_u beyond this condition number is not certified
CERTIFICATE_COND = 1e8


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
    bound, diverges.  Conservative: False when A has no unstable mode or
    more of them than C has rows, or when its eigenbasis or C V_u is ill
    conditioned (which covers a defective A and a rank-deficient C V_u).
    """
    if model.m == 1:
        # eigenbasis [[1]], so C V_u is C; no LAPACK call (and its buffers)
        return abs(float(model.A[0, 0])) >= 1.0 - CRITICAL_MARGIN and bool(np.any(model.C))
    mu, v = np.linalg.eig(model.A)
    unstable = np.abs(mu) >= 1.0 - CRITICAL_MARGIN
    if not 0 < np.count_nonzero(unstable) <= model.k or np.linalg.cond(v) > CERTIFICATE_COND:
        return False
    return bool(np.linalg.cond(model.C @ v[:, unstable]) <= CERTIFICATE_COND)


def critical_lambda(
    model: GaussMarkovModel,
    bisect_tol: float = 1e-6,
    probe_tol: float = 1e-10,
    probe_max_iter: int = 200_000,
) -> float:
    """Sensing probability below which the expected covariance diverges.

    Stable dynamics (rho(A)^2 < 1) converge open loop, so the threshold is 0.
    When ``unstable_modes_observed`` certifies the model, the threshold is
    1 - 1/rho(A)^2 and the bisection runs on that closed-form test, with no
    covariance step.  Otherwise bisect on the convergence/divergence
    boundary of the beam-switching fixed point.  Probes at or below
    1 - 1/rho(A)^2 are divergent without iterating; probes that hit the
    iteration cap are classified by their step-size trend, and undecided
    probes count as convergent.  ``probe_tol`` and ``probe_max_iter`` apply
    to those probes; ``probe_tol`` is absolute, so a probe whose fixed
    point has a trace of 1e5 or more can stall in rounding noise and be
    called divergent.
    """
    rho = spectral_radius(model.A)
    if rho * rho < 1.0 - CRITICAL_MARGIN:
        return 0.0
    if unstable_modes_observed(model):
        # lam_c = 1 - 1/rho^2: bisect the closed-form test for the same midpoints
        return _bisect(0.0, 1.0, bisect_tol, lambda lam: not lyapunov_diverges(1.0 - lam, rho))

    def converges(lam: float) -> bool:
        return _classify_bs(model, [lam], probe_tol, probe_max_iter)[0][0] != _DIVERGED

    if not converges(1.0):
        raise ConvergenceError(
            "expected covariance diverges even with every measurement; "
            "model is likely not detectable"
        )
    return _bisect(0.0, 1.0, bisect_tol, converges)


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
            fit = _lyapunov_or_none(model, 1.0 - lam, probe_tol, probe_max_iter)
        else:
            fit = _converged(_classify_bs(model, [lam], probe_tol, probe_max_iter)[0])
        return trace_or_inf(fit)

    if trace_at(0.0) <= d:
        return 0.0
    if trace_at(1.0) > d:
        return None
    # trace is nonincreasing in lam: lo = 0 infeasible, hi = 1 feasible
    return _bisect(0.0, 1.0, bisect_tol, lambda lam: trace_at(lam) <= d)


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
    over [0, GAMMA_LOG_RANGE].  An open-loop solve that stalls at the cap
    counts as over budget, like any other undecided probe.
    """
    if d <= 0.0:
        raise ParameterError(f"distortion budget must be positive, got {d}")

    def trace_at(gamma: float) -> float:
        if math.isinf(gamma):
            return trace_or_inf(_lyapunov_or_none(model, 1.0, probe_tol, probe_max_iter))
        return trace_or_inf(_converged(_classify_mb(model, [gamma], probe_tol, probe_max_iter)[0]))

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

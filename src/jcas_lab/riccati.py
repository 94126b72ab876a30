"""Modified Riccati maps for beam-switching and multi-beam sensing.

Two one-step covariance maps drive everything here:

* ``gamma_bs(P, lam)``: the erasure-averaged map A P A^T + Q - lam * corr(P),
  whose fixed point V-bar upper-bounds the expected covariance of the
  intermittent filter sensing with probability lam.
* ``gamma_mb(P, gamma)``: the gain-scaled map A P A^T + Q - corr(P; gamma R),
  whose fixed point is the steady-state covariance when every measurement
  arrives with noise inflated by gamma.

On a matrix model every gain and correction, here and in the Kalman
filter, comes from one solve of the innovation covariance
S = C P C^T + gamma R, ``_solve_innovation``.  Its predictor gain
L = A P C^T S^{-1} is the only gain; the filter, the policy iteration and
the gain search use F = A - L C.  A scalar step is ``sensing_kernel``,
the map's one-step form with no subtraction, and the scalar filter takes
L = c a / (c^2 + gamma r / p) on its own (``filtering``).  On a stack of
covariances, each product with a model matrix (A P and C P together,
A P A^T, A P C^T) is one 2-D product over every member.  With one output
S adds the m terms of (C P) C^T in a fixed order, L is A P C^T / S and
the correction (A P C^T) L^T one broadcast product, so a one-output step
makes no BLAS or LAPACK call per member; with k > 1, S, C P A^T and the
LAPACK solve stay per member.  Either way each member keeps the bits of
its own step.

Fixed points are solved, not iterated.  Once a gain L is fixed, the map
phi_{lam,gamma}(L, X) = (1 - lam) A X A^T + lam (A - L C) X (A - L C)^T
+ Q + lam gamma L R L^T is affine in X, and minimizing over L gives back
``gamma_bs`` (gamma = 1, fixed point V-bar) or ``gamma_mb`` (lam = 1, the
multi-beam steady state) (Sinopoli et al., "Kalman filtering with
intermittent observations", IEEE TAC 2004).  A scalar model takes the
positive root of the quadratic this fixed point solves, as one array
expression over a whole grid.  On a matrix model every lam = 1 point
(multi-beam points, V-bar at lam = 1, ``gamma_max`` probes) is one
structure-preserving doubling over its gamma grid (``_sda``), which needs
no starting gain and calls a point divergent where it does not settle.
V-bar at lam < 1 runs Hewer's policy iteration over the lam grid from a
gain L whose affine map contracts: L = 0 when A is stable, the gain of the
``unstable_modes_observed`` certificate, or, on a model the certificate
refuses, a gain found by iterating the map itself from Q
(``_contracting_gains``).  Any such L proves V-bar finite, since phi(L, .)
bounds the map.  V-bar >= S-bar, the scaled Lyapunov solve of
:mod:`.statespace`, which diverges whenever (1 - lam) rho(A)^2 >= 1, so
V-bar is None there; on scalar, stable and certified models it is finite
everywhere else, and on refused models wherever the search finds a gain.

Thresholds (critical sensing probability, feasible-lambda and feasible-gamma
boundaries for a distortion budget) are located by one monotone bisection,
``_bisect``; the feasibility maps are monotone but not smooth at the
divergence boundary, so no derivative-based search is attempted.  A
threshold solves its endpoints in one call of its feasibility test, and on
a matrix model each further call solves, in one batch, every midpoint the
next BISECT_LEVELS halvings can visit; the bisection reads the verdicts of
the midpoints it visits, so it returns what a one-probe bisection returns.
Scalar models probe one closed form at a time, on float arithmetic.  Every
grid solve comes back as a stack and a finite mask (read by
``statespace.grid_traces`` and ``grid_members``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .statespace import (
    GaussMarkovModel,
    as_matrix,
    check_grid,
    check_range,
    grid_members,
    grid_traces,
    kron_square,
    lyapunov_diverges,
    lyapunov_root,
    lyapunov_step,
    matrix_times,
    scaled_lyapunov_grid,
    solve_doubling,
    solve_kronecker,
    solve_scaled_lyapunov,
    symmetrize,
    times_matrix,
)

#: a covariance trace beyond this is declared divergent
TRACE_DIVERGENCE = 1e12

#: covariance steps the gain search of a refused model takes before it
#: calls the point divergent
GAIN_SEARCH_STEPS = 200_000


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
            check_range("lam", self.value, 0, 1)
        elif self.kind == "multibeam":
            check_range("gamma", self.value, 1, math.inf)
        else:
            raise ParameterError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def switching(cls, lam: float) -> "BeamPolicy":
        return cls("switching", float(lam))

    @classmethod
    def multibeam(cls, gamma0: float) -> "BeamPolicy":
        return cls("multibeam", float(gamma0))


def sensing_kernel(a: float, c: float, q: float, r: float, p, gamma: float, lam):
    """Scalar covariance step P' = lam a^2 gamma r / (c^2 + gamma r / p) + (1 - lam) a^2 p + q.

    The intermittent-observation map (Sinopoli et al., IEEE TAC 2004) in
    its nonnegative one-step form: no term is subtracted, so nothing
    cancels once c^2 p >> gamma r.  At p = 0 it gives q (gamma r / p is
    +inf, a division by zero the caller silences, as numpy does on
    np.float64 and arrays, so p is one of those).  At p = +inf it
    gives a^2 gamma r / c^2 + q when c != 0 and lam = 1, and +inf when
    c = 0 or lam < 1 (c = 0 divides by zero there too).  The open-loop
    term is (a p) a, the bits of ``statespace.lyap_kernel``, and a term
    whose weight is 0 is left out.

    lam is the sensing probability, a float in [0, 1], or per trial an
    arrival cap, an array broadcasting against p: 0 where the measurement
    arrived and +inf where it was erased.  The cap raises gamma r / p to
    +inf on an erased trial and lowers p to 0 on a sensing one, so each
    trial keeps one term, bit for bit a lam = 1 step or an open-loop step.
    """
    gr = gamma * r
    if isinstance(lam, np.ndarray):
        sensed = np.maximum(gr / p, lam)
        sensed += c * c
        np.divide((a * a) * gr, sensed, out=sensed)
        erased = np.minimum(p, lam)
        erased *= a
        erased *= a
        sensed += erased
        sensed += q
        return sensed
    p_next = q
    if lam < 1.0:
        p_next = (1.0 - lam) * ((a * p) * a) + p_next
    if lam > 0.0:
        p_next = lam * ((a * a) * gr / (c * c + gr / p)) + p_next
    return p_next


def riccati_kernel(a: float, c: float, q: float, r: float, p: float, gamma: float) -> float:
    """Scalar one-step covariance update with measurement gain gamma."""
    return sensing_kernel(a, c, q, r, np.float64(p), gamma, 1.0)


def bs_kernel(a: float, c: float, q: float, r: float, p: float, lam: float) -> float:
    """Scalar erasure-averaged covariance step (sensing probability lam)."""
    return sensing_kernel(a, c, q, r, np.float64(p), 1.0, lam)


def _solve_innovation(model: GaussMarkovModel, p: np.ndarray, gamma):
    """(L, A P, A P C^T): the predictor gain L = A P C^T S^{-1} for
    S = C P C^T + gamma R, and the two products of P it is built from.

    p may be a stack (n, m, m), gamma an array broadcasting against it.  A
    singular S raises NumericalError carrying its condition number, here
    and nowhere else.  Over a stack, A P and C P are the rows of one 2-D
    product with ``model.stacked_ac`` = [A; C], and A P C^T is another.
    With one output S = (C P) C^T + gamma R adds its m terms in a fixed
    order and L = A P C^T / S, so the step makes no BLAS call per member.
    With k > 1, L^T is the LAPACK solve of S against C P A^T, both formed
    per member.
    """
    # [A; C] P as one 2-D product keeps each member's bits, which a lone
    # one-row 2-D C P would not
    rows = matrix_times(model.stacked_ac, p)
    ap, cp = rows[..., :model.m, :], rows[..., model.m:, :]
    apc = times_matrix(ap, model.C.T)
    if model.k > 1:
        innov = cp @ model.C.T + gamma * model.R
        try:
            return np.linalg.solve(innov, cp @ model.A.T).swapaxes(-1, -2), ap, apc
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"innovation covariance is singular: {exc}",
                condition=float(np.max(np.linalg.cond(innov))),
            ) from exc
    # S adds its m terms in the same order at any stack size
    terms = model.C * cp
    innov = terms[..., :1]
    for j in range(1, model.m):
        innov = innov + terms[..., j:j + 1]
    innov = innov + gamma * model.R[0, 0]
    if not innov.all():
        raise NumericalError("innovation covariance is singular: Singular matrix", condition=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        return apc / innov, ap, apc


def _corrected(model: GaussMarkovModel, solved, lam) -> np.ndarray:
    """P' = A P A^T + Q - lam (A P C^T) L^T, re-symmetrized, from
    ``solved = _solve_innovation(...)``.  With one output the correction is
    one broadcast product of the columns A P C^T and L."""
    gain, ap, apc = solved
    corr = apc * gain.swapaxes(-1, -2) if model.k == 1 else apc @ gain.swapaxes(-1, -2)
    return symmetrize(times_matrix(ap, model.A.T) + model.Q - lam * corr)


def innovation(model: GaussMarkovModel, p: np.ndarray, gamma, lam=1.0):
    """(L, P') of one ``_solve_innovation``: the predictor gain L = A P C^T S^{-1}
    and P' = A P A^T + Q - lam A P C^T L^T, re-symmetrized.  At a 0 entry of
    an arrival mask lam, P' is ``lyapunov_step(model, p, 1.0)`` bit for bit."""
    solved = _solve_innovation(model, p, gamma)
    return solved[0], _corrected(model, solved, lam)


def _step(model: GaussMarkovModel, p: np.ndarray, gamma, lam) -> np.ndarray:
    """A P A^T + Q - lam A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized:
    the one covariance step behind ``riccati_step``, ``gamma_bs`` and
    ``gamma_mb``.

    lam = 0 or gamma = infinity takes the open-loop step A P A^T + Q
    (``lyapunov_step`` at alpha = 1), a scalar model ``sensing_kernel`` on
    the np.float64 entry of its 1x1 P, and a matrix model, whose p may be a
    stack (n, m, m), one ``_solve_innovation``.  A scalar P = 0 steps to
    q, the kernel's bits, without its division by zero.
    """
    if lam == 0.0 or math.isinf(gamma):
        return lyapunov_step(model, p, 1.0)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        p = p[0, 0]
        return np.array([[sensing_kernel(a, c, q, r, p, gamma, lam) if p else q]])
    return _corrected(model, _solve_innovation(model, p, gamma), lam)


def riccati_step(model: GaussMarkovModel, p: np.ndarray, gamma) -> np.ndarray:
    """A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T, re-symmetrized.

    gamma = infinity nullifies the correction and reduces to the open-loop
    step A P A^T + Q (bitwise identical to the alpha=1 Lyapunov step).
    For a matrix model, p may be a stack (n, m, m) of covariances.
    """
    return _step(model, p, gamma, 1.0)


def gamma_bs(p: np.ndarray, lam, model: GaussMarkovModel) -> np.ndarray:
    """One application of the beam-switching expected-covariance map.

    lam = 0 takes the open-loop step, and at lam = 1 the factor 1.0 is exact,
    so the endpoints coincide bit for bit with the Lyapunov and Riccati steps.
    """
    check_range("lam", lam, 0, 1)
    return _step(model, as_matrix(p, "P"), 1.0, lam)


def gamma_mb(p: np.ndarray, gamma: float, model: GaussMarkovModel) -> np.ndarray:
    """One application of the multi-beam map (gain-scaled measurement noise)."""
    return _step(model, as_matrix(p, "P"), check_range("gamma", gamma, 1, math.inf), 1.0)


def iterate_map(step, p0: np.ndarray, n: int):
    """Yield P0, step(P0), step^2(P0), ..., step^n(P0), holding only the current one."""
    p = as_matrix(p0, "P0")
    yield p
    for _ in range(n):
        p = step(p)
        yield p


def unstable_modes_observed(model: GaussMarkovModel) -> bool:
    """Certify that V-bar is finite exactly where S-bar is, so lam_c = 1 - 1/rho(A)^2.

    Let the columns of V_u span the unstable invariant subspace U of A (the
    eigenvalues with |mu| >= 1 - CRITICAL_MARGIN) and V_s the stable one,
    whose spectral radius rho_s is below 1.  If C is injective on U, the
    gain L = A V_u (C V_u)^+ cancels the unstable block: (A - L C) V_u = 0.
    In the basis [V_u, V_s], A and A - L C are then block upper triangular
    with diagonal blocks (Lambda_u, Lambda_s) and (0, Lambda_s), so the
    linear part of phi_lam(L, X) = (1 - lam) A X A^T + lam (A - L C) X
    (A - L C)^T + Q + lam L R L^T is block triangular as well, with spectral
    radius max((1 - lam) rho^2, (1 - lam) rho rho_s, rho_s^2) < 1 whenever
    (1 - lam) rho^2 < 1.  The beam-switching map is bounded by phi_lam(L, .)
    for every L (Sinopoli et al., IEEE TAC 2004), and its iterates from Q
    are nondecreasing, so they converge there; elsewhere S-bar, a lower
    bound, diverges.  The same L starts the policy iteration of every V-bar
    point below lam = 1.  Conservative: False when A has no unstable mode
    or more of them than C has rows, or when its eigenbasis or C V_u is ill
    conditioned (which covers a defective A and a rank-deficient C V_u).
    The model computes its gain, ``model.certificate_gain``, once.
    """
    return model.certificate_gain is not None


def _contracting_gains(model: GaussMarkovModel, lams) -> list:
    """Per lam < 1 a predictor gain L whose affine map phi_{lam,1}(L, .)
    contracts, or None where the search calls the point divergent.

    Every point iterates the beam-switching map from Q, all of them as one
    (n, m, m) stack.  Each step's innovation solve gives the step and the
    predictor gain L of that iterate, and at steps 1, 2, 4, 8, ... one
    batched ``eigvals`` tests every member's L: rho((1 - lam) A (x) A +
    lam F (x) F) < 1 with F = A - L C, its open-loop term built once per
    call.  Every live member takes the step; then a member leaves the
    stack once its gain passes, or as divergent once its trace is
    non-finite or above TRACE_DIVERGENCE or after GAIN_SEARCH_STEPS steps.
    """
    lam = np.reshape(lams, (-1, 1, 1))
    p = np.broadcast_to(model.Q, (len(lam), model.m, model.m))
    found = [None] * len(lam)
    live = np.arange(len(lam))
    open_loop = kron_square(np.sqrt(1.0 - lam) * model.A)
    for step in range(1, GAIN_SEARCH_STEPS + 1):
        solved = _solve_innovation(model, p, 1.0)
        p = _corrected(model, solved, lam)
        rest = p.trace(axis1=1, axis2=2) <= TRACE_DIVERGENCE  # False for NaN and +inf
        if step & (step - 1) == 0:
            gains = solved[0]
            linear = open_loop + kron_square(np.sqrt(lam) * (model.A - gains @ model.C))
            passed = np.max(np.abs(np.linalg.eigvals(linear)), axis=1) < 1.0
            for i, gain in zip(live[passed], gains[passed]):
                found[i] = gain
            rest &= ~passed
        if not rest.all():
            live, p, lam, open_loop = (x[rest] for x in (live, p, lam, open_loop))
        if not live.size:
            break
    return found


def _where(cond, x, y):
    """np.where on arrays, a conditional expression on floats."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _scalar_root(a: float, c: float, q: float, r: float, lam, gamma):
    """Scalar fixed point of min_L phi_{lam,gamma}(L, .) where it does not
    diverge (``_scalar_diverges``).

    Clearing the denominator of v = a^2 v + q - lam a^2 c^2 v^2 / (c^2 v + gamma r)
    gives c^2 (1 - (1 - lam) a^2) v^2 + (gamma r (1 - a^2) - q c^2) v - gamma q r = 0,
    whose positive root is taken in the form without cancellation.  lam and
    gamma are floats, or arrays of a grid: one
    expression serves a threshold's one-point probe on float arithmetic and
    a whole grid, with the same operations in the same order.  A divergent
    entry of an array comes out as nan or inf (the caller silences numpy).
    """
    gr = gamma * r
    lead = c * c * (1.0 - (1.0 - lam) * (a * a))
    b = gr * (1.0 - a * a) - q * (c * c)
    disc = b * b + 4.0 * lead * gr * q
    root = np.sqrt(disc) if isinstance(disc, np.ndarray) else math.sqrt(disc)
    big = b > 0.0
    return _where(big, 2.0 * gr * q, root - b) / _where(big, b + root, 2.0 * lead)


def _scalar_diverges(a: float, c: float, lam):
    """Where the scalar fixed point diverges, on a float lam or an array:
    (1 - lam) a^2 >= 1 - CRITICAL_MARGIN, and with c = 0 nothing is sensed,
    so the open-loop test (0.0 * lam keeps an array's shape)."""
    return lyapunov_diverges(1.0 - (lam if c else 0.0 * lam), abs(a))


def _scalar_trace(model: GaussMarkovModel, lam: float, gamma: float) -> float:
    """One scalar fixed point (its own trace) on floats, +inf where it diverges."""
    a, c, q, r = model.scalars()
    return math.inf if _scalar_diverges(a, c, lam) else _scalar_root(a, c, q, r, lam, gamma)


def _policy_iteration(model: GaussMarkovModel, lams, gain) -> np.ndarray:
    """V-bar, the fixed point of min_L phi_{lam,1}(L, .), at every lam < 1 of a
    grid, by Hewer's policy iteration (IEEE TAC 1971): the affine fixed
    point for the current gains (one batched ``solve_kronecker`` with F =
    sqrt(lam) (A - L C), whose open-loop term (1 - lam) A (x) A is built
    once per call), then the gain update read off the innovation solve.
    ``gain`` starts every member, or is a stack of one gain per member.
    From a contracting gain the iterates decrease monotonically,
    quadratically near the fixed point, so a member stops at its first
    step whose trace fails to decrease and keeps the iterate before it."""
    a, c, q, r = model.A, model.C, model.Q, model.R
    m = model.m
    lam = np.reshape(lams, (-1, 1, 1))
    n = len(lam)
    gains = np.broadcast_to(gain, (n, m, model.k))
    best = np.empty((n, m, m))
    best_trace = np.full(n, math.inf)
    live = np.arange(n)
    open_loop = kron_square(np.sqrt(1.0 - lam) * a)
    # a strictly decreasing float sequence stops within a few steps of
    # rounding level; the bound only turns a defect into an error
    for _ in range(100):
        x = solve_kronecker(np.sqrt(lam) * (a - gains @ c), q + lam * (gains @ r @ gains.swapaxes(1, 2)), open_loop)
        tr = x.trace(axis1=1, axis2=2)
        if not np.isfinite(tr).all():
            raise NumericalError("policy iteration produced a non-finite covariance")
        falling = tr < best_trace[live]
        live, x, lam, open_loop = live[falling], x[falling], lam[falling], open_loop[falling]
        best[live], best_trace[live] = x, tr[falling]
        if not live.size:
            return best
        gains = _solve_innovation(model, x, 1.0)[0]
    raise NumericalError("policy iteration did not settle in 100 steps")


def _sda(model: GaussMarkovModel, gammas):
    """(P, finite): the filter DARE P = A P A^T + Q - A P C^T (C P C^T +
    gamma R)^{-1} C P A^T at every finite gamma of a grid, by one
    ``solve_doubling`` from A_0 = A^T, G_0 = C^T (gamma R)^{-1} C and
    H_0 = Q; a point is divergent exactly where it does not settle."""
    g = model.C.T @ np.linalg.solve(model.R, model.C) / np.reshape(gammas, (-1, 1, 1))
    return solve_doubling(np.broadcast_to(model.A.T, g.shape), g, np.broadcast_to(model.Q, g.shape))


def _solve_grid(model: GaussMarkovModel, lams, gammas):
    """(X, finite): the min_L phi_{lam,gamma}(L, .) fixed point per (lam, gamma)
    pair as an (n, m, m) stack, and the mask of the pairs where it does not
    diverge; the other members of X are meaningless.  A pair with lam < 1
    is a V-bar point, with gamma = 1.

    A scalar model takes the closed-form root on the whole grid.  On a
    matrix model the lam = 1 points are one ``_sda``.  A point with lam < 1
    is divergent where S-bar is, (1 - lam) rho(A)^2 >= 1 - CRITICAL_MARGIN;
    the others start from L = 0, the certificate's gain or, on a refused
    model, one ``_contracting_gains`` search (divergent where it finds no
    gain), and are solved by one policy iteration.
    """
    lams = np.asarray(lams, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        with np.errstate(divide="ignore", invalid="ignore"):
            v = _scalar_root(a, c, q, r, lams, gammas)
        return v.reshape(-1, 1, 1), ~_scalar_diverges(a, c, lams)
    x = np.zeros((len(lams), model.m, model.m))
    finite = np.zeros(len(lams), dtype=bool)
    sensed = lams == 1.0
    if sensed.any():
        x[sensed], finite[sensed] = _sda(model, gammas[sensed])
    todo = np.flatnonzero(~sensed & ~lyapunov_diverges(1.0 - lams, model.rho))
    stable = not lyapunov_diverges(1.0, model.rho)
    gain = np.zeros((model.m, model.k)) if stable else model.certificate_gain
    if gain is None and todo.size:
        gains = _contracting_gains(model, lams[todo])
        todo = todo[np.array([g is not None for g in gains], dtype=bool)]
        gain = np.array([g for g in gains if g is not None])
    if todo.size:
        x[todo] = _policy_iteration(model, lams[todo], gain)
        finite[todo] = True
    return x, finite


def _vbar_grid(model: GaussMarkovModel, lams):
    return _solve_grid(model, lams, np.ones(len(lams)))


def _mb_grid(model: GaussMarkovModel, gammas):
    """``_solve_grid`` at lam = 1 over a gamma grid; gamma = inf is the
    open-loop Lyapunov solve."""
    gammas = np.asarray(gammas, dtype=float)
    open_loop = np.isinf(gammas)
    if not open_loop.any():
        return _solve_grid(model, np.ones(len(gammas)), gammas)
    x = np.zeros((len(gammas), model.m, model.m))
    finite = np.zeros(len(gammas), dtype=bool)
    sensed = ~open_loop
    x[sensed], finite[sensed] = _solve_grid(model, np.ones(np.count_nonzero(sensed)), gammas[sensed])
    x[open_loop], finite[open_loop] = scaled_lyapunov_grid(model, [1.0])
    return x, finite


def vbar(lam: float, model: GaussMarkovModel):
    """Fixed point of the beam-switching map, or None when it diverges (on a
    refused model, also where the gain search finds no contracting gain
    within GAIN_SEARCH_STEPS steps).  At lam = 1 it is ``mb_fixed_point``
    at gamma = 1, bit for bit."""
    return grid_members(_vbar_grid(model, check_grid("lam", [lam], 0, 1)))[0]


def vbar_traces(lams, model: GaussMarkovModel) -> np.ndarray:
    """tr V-bar at every lam of a grid, +inf where it diverges, from one solve
    of the whole grid.  On a scalar model a one-lam call stays on float
    arithmetic."""
    if model.is_scalar and len(lams) == 1:
        return np.array([_scalar_trace(model, check_range("lam", float(lams[0]), 0, 1), 1.0)])
    return grid_traces(_vbar_grid(model, check_grid("lam", lams, 0, 1)))


def sbar(lam: float, model: GaussMarkovModel):
    """Scaled-Lyapunov lower bound at alpha = 1 - lam, or None when divergent."""
    return solve_scaled_lyapunov(model, 1.0 - check_range("lam", lam, 0, 1))


def sbar_traces(lams, model: GaussMarkovModel) -> np.ndarray:
    """tr S-bar at every lam of a grid, +inf where it diverges; on a scalar
    model a one-lam call stays on float arithmetic."""
    if model.is_scalar and len(lams) == 1:
        a, _, q, _ = model.scalars()
        alpha = 1.0 - check_range("lam", float(lams[0]), 0, 1)
        return np.array([math.inf if lyapunov_diverges(alpha, abs(a)) else lyapunov_root(a, q, alpha)])
    return grid_traces(scaled_lyapunov_grid(model, 1.0 - check_grid("lam", lams, 0, 1)))


def mb_fixed_point(gamma: float, model: GaussMarkovModel):
    """Steady-state covariance of the multi-beam map, or None when divergent:
    on a matrix model where the doubling does not settle.  gamma = inf
    takes the open-loop Lyapunov route."""
    return grid_members(_mb_grid(model, check_grid("gamma", [gamma], 1, math.inf)))[0]


def mb_traces(gammas, model: GaussMarkovModel) -> np.ndarray:
    """tr of the multi-beam fixed point at every gamma of a grid, +inf where
    it diverges; on a scalar model a one-gamma call (gamma < inf) stays on
    float arithmetic."""
    if model.is_scalar and len(gammas) == 1 and float(gammas[0]) < math.inf:
        return np.array([_scalar_trace(model, 1.0, check_range("gamma", float(gammas[0]), 1, math.inf))])
    return grid_traces(_mb_grid(model, check_grid("gamma", gammas, 1, math.inf)))


#: halvings one batched threshold probe decides on matrix models; scalar
#: models solve each probe in closed form, so they probe one at a time
BISECT_LEVELS = 3


def _bisect_levels(model: GaussMarkovModel) -> int:
    return 1 if model.is_scalar else BISECT_LEVELS


def _check_tol(bisect_tol: float) -> None:
    if not 0.0 < bisect_tol < math.inf:
        raise ParameterError(f"bisect_tol must be positive and finite, got {bisect_tol}")


def _midpoints(lo: float, hi: float, tol: float, levels: int) -> list:
    """Every midpoint the next ``levels`` halvings of [lo, hi] can visit.

    Heap order: node j halves its span, and its children 2j + 1 and 2j + 2
    hold the lower and the upper half.  A node whose span is already within
    tol is None, as is one whose midpoint rounds to an end of its span, and
    so are the nodes below it.
    """
    spans = [(lo, hi)]
    mids = []
    for j in range(2**levels - 1):
        span = spans[j]
        mid = None if span is None else 0.5 * (span[0] + span[1])
        if mid is not None and span[1] - span[0] > tol and span[0] < mid < span[1]:
            mids.append(mid)
            spans += [(span[0], mid), (mid, span[1])]
        else:
            mids.append(None)
            spans += [None, None]
    return mids


def _bisect(lo: float, hi: float, tol: float, above, levels: int = 1) -> float:
    """Shrink [lo, hi] onto the boundary of a monotone predicate; return its midpoint.

    ``above(xs)`` tells, for each x of a list, whether x lies on hi's side
    of the boundary.  One call decides up to ``levels`` halvings: it gets
    every midpoint those halvings can visit, at most 2^levels - 1 of them,
    so a batched solver prices them together.  The walk then halves as a
    one-probe bisection would, reading the verdicts of the midpoints it
    visits, so the visited points and the result do not depend on
    ``levels``, even for a predicate that is not monotone.  It stops once
    [lo, hi] is within tol or its midpoint rounds to lo or hi.
    """
    while (mids := _midpoints(lo, hi, tol, levels))[0] is not None:
        verdicts = iter(above([mid for mid in mids if mid is not None]))
        verdict = [None if mid is None else next(verdicts) for mid in mids]
        j = 0
        while j < len(mids) and mids[j] is not None:
            if verdict[j]:
                hi, j = mids[j], 2 * j + 1
            else:
                lo, j = mids[j], 2 * j + 2
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
    with C = [1, 1].  There the bisection asks whether V-bar is finite, as
    ``vbar`` does, BISECT_LEVELS halvings per call: midpoints at or below
    1 - 1/rho(A)^2 are divergent, and the others share one gain search.
    NumericalError when the doubling finds V-bar divergent at lam = 1 (not
    detectable); ParameterError unless bisect_tol is positive and finite.
    """
    _check_tol(bisect_tol)
    rho = model.rho
    if not lyapunov_diverges(1.0, rho):
        return 0.0
    if unstable_modes_observed(model):
        # lam_c = 1 - 1/rho^2: bisect the closed-form test for the same midpoints
        return _bisect(0.0, 1.0, bisect_tol, lambda lams: [not lyapunov_diverges(1.0 - lams[0], rho)])
    if not _vbar_grid(model, [1.0])[1][0]:
        raise NumericalError("V-bar diverges even with every measurement; model is likely not detectable")

    def finite(lams) -> list:
        return _vbar_grid(model, lams)[1].tolist()

    return _bisect(0.0, 1.0, bisect_tol, finite, _bisect_levels(model))


def _check_budget(d: float) -> None:
    if not 0.0 < d < math.inf:
        raise ParameterError(f"distortion budget must be positive and finite, got {d}")


def lambda_s(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Least lam with tr(S-bar(lam)) <= d, or None when even lam=1 violates it.

    On every matrix model one S-bar sweep solves the endpoints lam = 0
    and 1, and each further sweep decides BISECT_LEVELS halvings of the
    bisection; scalar models probe one lam at a time.
    """
    levels = _bisect_levels(model)
    return _lambda_threshold(d, lambda lams: sbar_traces(lams, model), bisect_tol, levels)


def lambda_v(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Least lam with tr(V-bar(lam)) <= d, or None when even lam=1 violates it.

    The endpoints lam = 0 and 1 are solved together, lam = 1 by the
    doubling.  On every matrix model each further call of ``vbar_traces``
    then decides BISECT_LEVELS halvings of the bisection: one batched
    policy iteration solves all its midpoints, after one gain search over
    all of them on a model the certificate refuses.  Scalar models
    (closed-form roots) bisect one probe at a time.
    """
    levels = _bisect_levels(model)
    return _lambda_threshold(d, lambda lams: vbar_traces(lams, model), bisect_tol, levels)


def _lambda_threshold(d, traces, bisect_tol, levels):
    _check_budget(d)
    _check_tol(bisect_tol)

    def feasible(lams) -> list:
        return (traces(lams) <= d).tolist()

    at_zero, at_one = feasible([0.0, 1.0])
    if at_zero:
        return 0.0
    if not at_one:
        return None
    # trace is nonincreasing in lam: lo = 0 infeasible, hi = 1 feasible
    return _bisect(0.0, 1.0, bisect_tol, feasible, levels)


#: bisection range for the multi-beam gain, in nats of log(gamma)
GAMMA_LOG_RANGE = 40.0


def gamma_max(d: float, model: GaussMarkovModel, bisect_tol: float = 1e-6):
    """Largest multi-beam gain whose steady-state trace stays within budget d.

    Returns math.inf when even the open-loop limit satisfies the budget
    (possible only for stable dynamics) and None when gamma = 1, the best
    sensing available, already violates it.  Otherwise bisects on log(gamma)
    over [0, GAMMA_LOG_RANGE].  The endpoints gamma = 1, inf and
    e^GAMMA_LOG_RANGE are solved together.  Every matrix model then decides
    BISECT_LEVELS halvings per doubling over the midpoints, with no gain
    search even on refused models, and scalar models probe one gamma at a
    time.
    """
    _check_budget(d)
    _check_tol(bisect_tol)

    def fits(gammas) -> list:
        return (mb_traces(gammas, model) <= d).tolist()

    top = math.exp(GAMMA_LOG_RANGE)
    at_one, open_loop, at_top = fits([1.0, math.inf, top])
    if not at_one:
        return None
    if open_loop:
        return math.inf
    # log-gamma: lo = 0 feasible, hi infeasible unless even e^hi meets d
    if at_top:
        return top
    log_gamma = _bisect(
        0.0,
        GAMMA_LOG_RANGE,
        bisect_tol,
        lambda lgs: [not ok for ok in fits([math.exp(lg) for lg in lgs])],
        _bisect_levels(model),
    )
    return math.exp(log_gamma)

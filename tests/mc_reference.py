"""Per-trial reference loops for the filter recursion and the Monte Carlo engine.

Each function runs one trial at a time, the way the engine's results are
defined.  The covariance cell steps a single covariance through
``riccati_kernel``/``lyap_kernel`` or ``riccati_step``/``lyapunov_step``.
Draws come from the generators of ``filtering.draw_generators``, one per
block.  Each block is drawn whole, in one shot and time-major as (steps,
trials[, width]), and transformed whole; trial t then reads column t.  (A
single trial's (steps, m) column transformed on its own rounds
differently.)  A filter run's blocks are the initial state, the switching
uniforms, the process noise and the measurement noise.

A filter trial runs two loops on those draws.  The per-step loop steps the
truth, the measurements, the covariances and the estimate recursion
shat_{i+1} = A shat_i + L_i (z_i - C shat_i), with the predictor gain L_i
and P_{i+1} as the engine takes them: one ``riccati.innovation`` on
matrix models, and on scalar models L_i = c a / (c^2 + g r / P_i) beside
``riccati_kernel``'s one-step form.  The error loop then steps
e_{i+1} = alpha_i e_i + u_i with alpha_i = A - L_i C and
u_i = w_i - L_i sqrt(g) v_i, L_i zero where z_i did not arrive, in the
engine's expressions; the estimate is s_i - e_i and the distortion
|e_i|^2.  Block distortion averages such runs.  Means use the centered
accumulation over a list of per-trial results in trial order.  Tests
compare ``run_filter`` and the batched engine with these loops by exact
equality.

The per-step loop's own estimates carry the raw state, whose rounding
grows with |s_i|; ``truth_estimate`` runs the same recursion in any dtype
(``np.longdouble`` for unstable matrix models), and ``rounding_bound``
bounds how far the error loop and such a recursion may drift apart.
Scalar models are checked against the exact recursion of ``exact_reference``.

The per-step filter API (``FilterState``, ``kalman_gain``,
``measurement_update``, ``kalman_step``) lives here: only the tests use it.
It solves for the filter gain K = P C^T S^{-1} itself, apart from the
engine's predictor gain L = A K, and takes P_{i+1} from ``riccati_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jcas_lab.errors import DimensionError, NumericalError, ParameterError
from jcas_lab.filtering import Trajectory, draw_generators
from jcas_lab.riccati import innovation, riccati_kernel, riccati_step
from jcas_lab.statespace import (
    GaussMarkovModel,
    as_matrix,
    lyap_kernel,
    lyapunov_step,
    psd_sqrt,
    symmetrize,
)

PREDICTED = "predicted"
UPDATED = "updated"


@dataclass(frozen=True)
class FilterState:
    """Estimate plus covariance at one time index.

    phase 'predicted' means (estimate, covariance) condition on measurements
    strictly before time_index; 'updated' means the measurement at
    time_index has been absorbed.
    """

    estimate: np.ndarray
    covariance: np.ndarray
    time_index: int
    phase: str = PREDICTED

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=float).reshape(-1)
        cov = as_matrix(self.covariance, "covariance")
        if cov.shape != (est.size, est.size):
            raise DimensionError(
                f"covariance {cov.shape} does not match estimate length {est.size}"
            )
        if self.phase not in (PREDICTED, UPDATED):
            raise ParameterError(f"unknown phase {self.phase!r}")
        if self.time_index < 0:
            raise ParameterError("time_index must be nonnegative")
        est.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "covariance", cov)


def kalman_gain(model: GaussMarkovModel, p, gamma: float) -> np.ndarray:
    """Gain K = P C^T (C P C^T + gamma R)^{-1}; the zero matrix at gamma=inf.

    p may also be a stack (..., m, m) of covariances, giving a stack of gains.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape[-2:] != (model.m, model.m):
        raise DimensionError(f"P must be {model.m}x{model.m}, got {p.shape}")
    if math.isinf(gamma):
        return np.zeros(p.shape[:-2] + (model.m, model.k))
    cp = model.C @ p
    innov = cp @ model.C.T + gamma * model.R
    try:
        return np.linalg.solve(innov, cp).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.max(np.linalg.cond(innov))),
        ) from exc


def _checked_measurement(model: GaussMarkovModel, state: FilterState, z, gamma: float, name: str):
    """z as a length-k vector, or None for an erasure; checks the state phase."""
    if state.phase != PREDICTED:
        raise ParameterError(f"{name} expects a predicted-phase state")
    if (z is None) != math.isinf(gamma):
        raise ParameterError("measurement must be absent exactly when gamma is infinite")
    if z is None:
        return None
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != model.k:
        raise DimensionError(f"z must have length {model.k}, got {z.size}")
    return z


def measurement_update(model: GaussMarkovModel, state: FilterState, z, gamma: float) -> FilterState:
    """Absorb the measurement at state.time_index (identity when erased)."""
    z = _checked_measurement(model, state, z, gamma, "measurement_update")
    if z is None:
        return FilterState(state.estimate, state.covariance, state.time_index, UPDATED)
    gain = kalman_gain(model, state.covariance, gamma)
    innovation = z - model.C @ state.estimate
    est = state.estimate + gain @ innovation
    cov = symmetrize(state.covariance - gain @ (model.C @ state.covariance))
    return FilterState(est, cov, state.time_index, UPDATED)


def kalman_step(model: GaussMarkovModel, state: FilterState, z, gamma: float) -> FilterState:
    """Measurement update at time i followed by prediction to i+1.

    The estimate takes the gain of ``kalman_gain``; the next covariance is
    ``riccati_step``'s P' = A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1}
    C P A^T (open-loop A P A^T + Q when erased), so iterating this step
    reproduces the Riccati map path exactly.
    """
    if not math.isinf(gamma) and (math.isnan(gamma) or gamma < 1.0):
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    z = _checked_measurement(model, state, z, gamma, "kalman_step")
    p, est, t_next = state.covariance, state.estimate, state.time_index + 1
    if z is None:
        return FilterState(model.A @ est, lyapunov_step(model, p, 1.0), t_next, PREDICTED)
    est = est + kalman_gain(model, p, gamma) @ (z - model.C @ est)
    return FilterState(model.A @ est, riccati_step(model, p, gamma), t_next, PREDICTED)


def centered_mean(values: list):
    ref = values[0]
    acc = np.zeros_like(ref)
    for v in values:
        acc = acc + (v - ref)
    return ref + acc / len(values)


def _std_error(values, trials: int) -> float:
    if trials == 1:
        return math.inf
    if np.min(values) == np.max(values):
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(trials))


def covariance_trial(model, arrivals, p0):
    """Final covariance and per-step traces of one trial of the MC cell,
    sensing at the steps where ``arrivals`` holds."""
    horizon = len(arrivals)
    track = np.empty(horizon + 1)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        p = p0[0, 0]
        track[0] = p
        with np.errstate(divide="ignore"):
            for j in range(horizon):
                p = riccati_kernel(a, c, q, r, p, 1.0) if arrivals[j] else lyap_kernel(a, q, p, 1.0)
                track[j + 1] = p
        return np.array([[p]]), track
    p = p0
    track[0] = float(np.trace(p))
    for j in range(horizon):
        p = riccati_step(model, p, 1.0) if arrivals[j] else lyapunov_step(model, p, 1.0)
        track[j + 1] = float(np.trace(p))
    return p, track


def covariance_mc(model, lam, horizon, trials, seed, p0=None):
    """(mean trace, std error, per-step mean trace) over per-trial runs."""
    p0 = model.Q.copy() if p0 is None else np.atleast_2d(np.asarray(p0, dtype=float))
    (rng,) = draw_generators(seed, cell=True)
    arrivals = rng.random((horizon, trials)) < lam
    results = [covariance_trial(model, arrivals[:, t], p0) for t in range(trials)]
    finals = [res[0] for res in results]
    traces = np.array([float(np.trace(p)) for p in finals])
    mean_trace = float(np.trace(centered_mean(finals)))
    return mean_trace, _std_error(traces, trials), centered_mean([res[1] for res in results])


@dataclass
class ReferenceTrial:
    """One trial of a filter run: both loops and the inputs of the error loop."""

    trajectory: Trajectory      # truth, measurements, covariances; shat_i = s_i - e_i
    errors: np.ndarray          # (n+1, m) e_i of the error loop
    loop_estimates: np.ndarray  # (n+1, m) the per-step loop's estimate recursion
    gains: np.ndarray           # (n, m, k) L_i: the predictor gain of P_i where z_i arrived, else 0
    alphas: np.ndarray          # (n, m, m) A - L_i C
    drive: np.ndarray           # (n+1, m): s_0, then w_0..w_{n-1}
    noise: np.ndarray           # (n+1, k): sqrt(g) v_i where z_i arrived, else 0


def filter_trials(model, policy, horizon, trials, s0_estimate, p0, seed) -> list:
    """Every trial of the filter run of seed ``seed``, as ``ReferenceTrial``s."""
    n = horizon
    s0_estimate = np.asarray(s0_estimate, dtype=float).reshape(-1)
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    initial, arrival, process, measurement = draw_generators(seed)
    x0 = initial.standard_normal((trials, model.m))
    switching = policy.kind == "switching"
    g = 1.0 if switching else policy.value
    if switching:
        gam = np.where(arrival.random((n, trials)) < policy.value, 1.0, math.inf)
    else:
        gam = np.full((n, trials), g)
    w = process.standard_normal((n, trials, model.m)) @ psd_sqrt(model.Q).T
    v = measurement.standard_normal((n, trials, model.k)) @ psd_sqrt(model.R).T
    runs = []
    for t in range(trials):
        s_true0 = s0_estimate + psd_sqrt(p0) @ x0[t]
        states, measurements, estimates, covariances, gains = _per_step_filter(
            model, s_true0, gam[:, t], w[:, t], v[:, t], s0_estimate, p0
        )
        present = np.array([z is not None for z in measurements])
        drive = np.concatenate([states[:1], w[:, t]])
        noise = np.zeros((n + 1, model.k))
        noise[1:][present[1:]] = math.sqrt(g) * v[:, t][present[1:]]
        errors, alphas = error_loop(model, states[0] - s0_estimate, gains, drive[1:], noise[:n])
        gammas = np.concatenate([[math.inf], gam[:, t]])
        dists = np.sum(errors ** 2, axis=1)
        traj = Trajectory(states, measurements, gammas, states - errors, dists, covariances)
        runs.append(ReferenceTrial(traj, errors, estimates, gains, alphas, drive, noise))
    return runs


def filter_trial(model, policy, horizon, s0_estimate, p0, seed) -> Trajectory:
    """The one trial of a one-trial run, as ``run_filter`` runs it."""
    return filter_trials(model, policy, horizon, 1, s0_estimate, p0, seed)[0].trajectory


def _sense(model, p, g):
    """(L, P') of one sensing step as the engine takes them, as (m, k) and
    (m, m) matrices: on a scalar model L = c a / (c^2 + g r / P), 0 when
    c = 0, and ``riccati_kernel``; on a matrix model one ``innovation``."""
    if model.is_scalar:
        a, c, q, r = model.scalars()
        p = p[0, 0]
        with np.errstate(divide="ignore"):
            gain = 0.0 if c == 0.0 else c * a / (c * c + g * r / p)
            return np.array([[gain]]), np.array([[riccati_kernel(a, c, q, r, p, g)]])
    return innovation(model, p, g)


def _open_loop(model, p):
    """A P A^T + Q; scalar models through ``lyap_kernel``, as the engine steps them."""
    if model.is_scalar:
        a, _, q, _ = model.scalars()
        return np.array([[lyap_kernel(a, q, float(p[0, 0]), 1.0)]])
    return lyapunov_step(model, p, 1.0)


def _per_step_filter(model, s_true0, gam, w, v, s0_estimate, p0):
    """States, measurements, estimates, covariances and gains of one trial.

    s_i = A s_{i-1} + w_{i-1}, z_i = C s_i + sqrt(g_i) v_{i-1} where it
    arrived (never at i = 0); step i absorbs z_i and predicts i+1.
    """
    n = gam.size
    states = np.empty((n + 1, model.m))
    states[0] = s_true0
    measurements: list = [None]
    for i in range(1, n + 1):
        states[i] = model.A @ states[i - 1] + w[i - 1]
        g = gam[i - 1]
        measurements.append(None if math.isinf(g) else model.C @ states[i] + math.sqrt(g) * v[i - 1])

    estimates = np.empty((n + 1, model.m))
    covariances = np.empty((n + 1, model.m, model.m))
    gains = np.zeros((n, model.m, model.k))
    estimates[0], covariances[0] = s0_estimate, p0
    for i, z in enumerate(measurements[:n]):
        est, p = estimates[i], covariances[i]
        if z is None:
            estimates[i + 1], covariances[i + 1] = model.A @ est, _open_loop(model, p)
        else:
            gains[i], covariances[i + 1] = _sense(model, p, gam[i - 1])
            estimates[i + 1] = model.A @ est + gains[i] @ (z - model.C @ est)
    return states, measurements, estimates, covariances, gains


def error_loop(model, e0, gains, w, noise):
    """e_0 = e0, e_{i+1} = alpha_i e_i + u_i; returns the (n+1, m) errors and the alphas.

    Scalar models use alpha = a - L c and u = w - L noise on floats, matrix
    models alpha = A - L C and u = w - L noise on (m, 1) columns, as the
    engine does.
    """
    n, m = len(gains), model.m
    errors = np.empty((n + 1, m))
    alphas = np.empty((n, m, m))
    errors[0] = e0
    if model.is_scalar:
        a, c = model.scalars()[:2]
        e = float(e0[0])
        for i in range(n):
            gain = float(gains[i, 0, 0])
            alpha = a - gain * c
            e = alpha * e + (float(w[i, 0]) - gain * float(noise[i, 0]))
            errors[i + 1], alphas[i] = e, alpha
        return errors, alphas
    e = errors[0][:, None]
    for i in range(n):
        alphas[i] = model.A - gains[i] @ model.C
        u = w[i][:, None] - gains[i] @ noise[i][:, None]
        e = alphas[i] @ e + u
        errors[i + 1] = e[:, 0]
    return errors, alphas


def truth_estimate(model, run: ReferenceTrial, s0_estimate, dtype=np.longdouble):
    """The truth and the estimate recursion of ``run``'s draws and gains in ``dtype``.

    s_{i+1} = A s_i + w_i, z_i = C s_i + sqrt(g) v_i and
    shat_{i+1} = A shat_i + L_i (z_i - C shat_i); returns (s, shat, z).
    """
    a, c = model.A.astype(dtype), model.C.astype(dtype)
    gains, drive, noise = (x.astype(dtype) for x in (run.gains, run.drive, run.noise))
    n = len(gains)
    s = np.empty((n + 1, model.m), dtype)
    est = np.empty_like(s)
    z = np.empty((n + 1, model.k), dtype)
    s[0], est[0] = drive[0], np.asarray(s0_estimate, dtype=dtype)
    for i in range(n + 1):
        z[i] = c @ s[i] + noise[i]
        if i < n:
            s[i + 1] = a @ s[i] + drive[i + 1]
            est[i + 1] = a @ est[i] + gains[i] @ (z[i] - c @ est[i])
    return s, est, z


def _gamma(count: int, unit: float) -> float:
    """gamma_n = n u / (1 - n u): the relative error bound of n roundings of unit u."""
    return count * unit / (1.0 - count * unit)


def rounding_bound(model, run: ReferenceTrial, s, est, z, unit: float) -> np.ndarray:
    """Componentwise bound on |e_i - (s_i - shat_i)|, for a truth s and estimate
    shat computed with unit roundoff ``unit`` from ``run``'s draws and gains.

    Both are roundings of one exact recursion E_{i+1} = alpha_i E_i + u_i, so
    their distance obeys D_{i+1} = |alpha_i| D_i + r_i, where r_i bounds the
    two local errors of step i to first order (Higham's gamma_n, counting
    the roundings of each expression):
    the error loop's gamma_{2m+k+2} ((|A| + |L| |C|) |e_i| + |w_i| + |L| |noise_i|),
    and the recursion's gamma_{2m+k+2}(unit) (|A| |s_i| + |w_i| + |L| (|C| |s_i| + |noise_i|)
    + |A| |shat_i| + |L| (|z_i| + |C| |shat_i|)).  The final subtraction
    s_i - shat_i adds unit |s_i - shat_i|.  The largest terms are the
    spacing of |s_i| and |shat_i|, which is where the raw-state recursion
    loses the error's digits.
    """
    m, k = model.m, model.k
    gam_e = _gamma(2 * m + k + 2, np.finfo(float).epsneg)
    gam_r = _gamma(2 * m + k + 2, unit)
    abs_a, abs_c = np.abs(model.A), np.abs(model.C)
    s, est, z = (np.abs(x).astype(float) for x in (s, est, z))
    e = np.abs(run.errors)
    diff = np.abs(s - est)
    bound = np.empty_like(e)
    drift = np.finfo(float).epsneg * diff[0]
    bound[0] = drift + unit * diff[0]
    for i, (gain, alpha) in enumerate(zip(np.abs(run.gains), np.abs(run.alphas))):
        w, nv = np.abs(run.drive[i + 1]), np.abs(run.noise[i])
        local = gam_e * ((abs_a + gain @ abs_c) @ e[i] + w + gain @ nv)
        local += gam_r * (
            abs_a @ s[i] + w + gain @ (abs_c @ s[i] + nv)
            + abs_a @ est[i] + gain @ (z[i] + abs_c @ est[i])
        )
        drift = alpha @ drift + local
        bound[i + 1] = drift + unit * diff[i + 1]
    return bound


def block_distortion(model, policy, horizon, trials, seed, s0_mean, s0_cov):
    """(mean, std error, per-index mean) over the runs of ``filter_trials``."""
    runs = filter_trials(model, policy, horizon, trials, s0_mean, s0_cov, seed)
    trajs = [run.trajectory for run in runs]
    blocks = np.array([traj.block_distortion() for traj in trajs])
    mean = float(centered_mean([np.array(b) for b in blocks]))
    per_index = centered_mean([traj.per_letter_distortions for traj in trajs])
    return mean, _std_error(blocks, trials), per_index

"""Per-trial reference loops for the filter recursion and the Monte Carlo engine.

Each function runs one trial at a time, the way the engine's results are
defined.  The covariance cell steps a single covariance through
``riccati_kernel``/``lyap_kernel`` or ``riccati_step``/``lyapunov_step``.
A filter run draws its whole stream at once (initial state, switching
uniforms, process noise, measurement noise) and then steps the matrix
filter through ``kalman_step``, which takes its gain and its covariance
from two separate innovation solves, or the scalar filter through
``riccati_kernel``/``lyap_kernel`` and its own gain p c / (c p c + g r);
the engine computes each step's innovation once.  Block distortion
averages such runs.  Means use the centered accumulation over a list of
per-trial results in trial order.  Tests compare ``run_filter`` and the
batched engine with these loops by exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from jcas_lab.filtering import (
    PREDICTED,
    FilterState,
    Trajectory,
    derive_trial_seed,
    kalman_step,
    make_rng,
)
from jcas_lab.riccati import riccati_kernel, riccati_step
from jcas_lab.statespace import lyap_kernel, lyapunov_step, psd_sqrt


def centered_mean(values: list):
    ref = values[0]
    acc = np.zeros_like(ref)
    for v in values:
        acc = acc + (v - ref)
    return ref + acc / len(values)


def _std_error(values, trials: int) -> float:
    if trials == 1:
        return math.inf
    return float(np.std(values, ddof=1) / math.sqrt(trials))


def covariance_trial(model, lam, horizon, seed, t, p0):
    """Final covariance and per-step traces of one trial of the MC cell."""
    rng = make_rng(derive_trial_seed(seed, t))
    arrivals = rng.random(horizon) < lam
    track = np.empty(horizon + 1)
    if model.is_scalar:
        a, c, q, r = model.scalars()
        p = float(p0[0, 0])
        track[0] = p
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
    results = [covariance_trial(model, lam, horizon, seed, t, p0) for t in range(trials)]
    finals = [res[0] for res in results]
    traces = np.array([float(np.trace(p)) for p in finals])
    mean_trace = float(np.trace(centered_mean(finals)))
    return mean_trace, _std_error(traces, trials), centered_mean([res[1] for res in results])


def filter_trial(model, policy, horizon, s0_estimate, p0, seed) -> Trajectory:
    """One filter run of seed ``seed``, drawn in one shot and stepped per time index."""
    n = horizon
    s0_estimate = np.asarray(s0_estimate, dtype=float).reshape(-1)
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    rng = make_rng(seed)
    s_true0 = s0_estimate + psd_sqrt(p0) @ rng.standard_normal(model.m)
    if policy.kind == "switching":
        gam = np.where(rng.random(n) < policy.value, 1.0, math.inf)
    else:
        gam = np.full(n, policy.value)
    w = rng.standard_normal((n, model.m)) @ psd_sqrt(model.Q).T
    v = rng.standard_normal((n, model.k)) @ psd_sqrt(model.R).T
    loop = _scalar_filter if model.is_scalar else _matrix_filter
    states, measurements, estimates, covariances = loop(model, s_true0, gam, w, v, s0_estimate, p0)
    dists = np.sum((states - estimates) ** 2, axis=1)
    gammas = np.concatenate([[math.inf], gam])
    return Trajectory(states, measurements, gammas, estimates, dists, covariances)


def _matrix_filter(model, s_true0, gam, w, v, s0_estimate, p0):
    n = gam.size
    states = np.empty((n + 1, model.m))
    states[0] = s_true0
    measurements: list = [None]
    for i in range(1, n + 1):
        states[i] = model.A @ states[i - 1] + w[i - 1]
        g = gam[i - 1]
        if math.isinf(g):
            measurements.append(None)
        else:
            measurements.append(model.C @ states[i] + math.sqrt(g) * v[i - 1])

    estimates = np.empty((n + 1, model.m))
    covariances = np.empty((n + 1, model.m, model.m))
    state = FilterState(s0_estimate, p0, 0, PREDICTED)
    estimates[0] = state.estimate
    covariances[0] = state.covariance
    # step i absorbs the measurement at time i (none at i=0) and predicts i+1
    for i in range(n):
        g_i = math.inf if i == 0 else gam[i - 1]
        state = kalman_step(model, state, measurements[i], g_i)
        estimates[i + 1] = state.estimate
        covariances[i + 1] = state.covariance
    return states, measurements, estimates, covariances


def _scalar_filter(model, s_true0, gam, w, v, s0_estimate, p0):
    a, c, q, r = model.scalars()
    n = gam.size
    w1 = w[:, 0]
    v1 = v[:, 0]

    states = np.empty(n + 1)
    states[0] = float(s_true0[0])
    zs = np.zeros(n + 1)
    present = np.zeros(n + 1, dtype=bool)
    estimates = np.empty(n + 1)
    covs = np.empty(n + 1)
    est = float(s0_estimate[0])
    cov = float(p0[0, 0])
    estimates[0] = est
    covs[0] = cov
    for i in range(1, n + 1):
        s_new = a * states[i - 1] + w1[i - 1]
        states[i] = s_new
        # advance the filter from time i-1 to i using the measurement at i-1
        g_prev = gam[i - 2] if i >= 2 else math.inf
        if math.isinf(g_prev):
            upd = est
            cov = lyap_kernel(a, q, cov, 1.0)
        else:
            gain = (cov * c) / ((c * cov) * c + g_prev * r)
            upd = est + gain * (zs[i - 1] - c * est)
            cov = riccati_kernel(a, c, q, r, cov, g_prev)
        est = a * upd
        estimates[i] = est
        covs[i] = cov
        g = gam[i - 1]
        if not math.isinf(g):
            zs[i] = c * s_new + math.sqrt(g) * v1[i - 1]
            present[i] = True

    measurements: list = [np.array([zs[i]]) if present[i] else None for i in range(n + 1)]
    return states.reshape(-1, 1), measurements, estimates.reshape(-1, 1), covs.reshape(-1, 1, 1)


def block_distortion(model, policy, horizon, trials, seed, s0_mean, s0_cov):
    """(mean, std error, per-index mean) over ``filter_trial`` per trial."""
    trajs = [
        filter_trial(model, policy, horizon, s0_mean, s0_cov, derive_trial_seed(seed, t))
        for t in range(trials)
    ]
    blocks = np.array([traj.block_distortion() for traj in trajs])
    mean = float(centered_mean([np.array(b) for b in blocks]))
    per_index = centered_mean([traj.per_letter_distortions for traj in trajs])
    return mean, _std_error(blocks, trials), per_index

"""Per-trial reference loops for the batched Monte Carlo engine.

Each function runs one trial at a time, the way the engine's results are
defined: the covariance cell steps a single covariance through the scalar
kernels or ``riccati_step``/``lyapunov_step``, and block distortion runs
``run_filter`` per trial.  Means use the centered accumulation over a list
of per-trial results in trial order.  Tests compare the engine with these
loops by exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from jcas_lab.filtering import derive_trial_seed, make_rng, run_filter
from jcas_lab.riccati import riccati_kernel, riccati_step
from jcas_lab.statespace import lyap_kernel, lyapunov_step


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


def block_distortion(model, policy, horizon, trials, seed, s0_mean, s0_cov):
    """(mean, std error, per-index mean) over ``run_filter`` per trial."""
    trajs = [
        run_filter(model, policy, horizon, s0_mean, s0_cov, derive_trial_seed(seed, t))
        for t in range(trials)
    ]
    blocks = np.array([traj.block_distortion() for traj in trajs])
    mean = float(centered_mean([np.array(b) for b in blocks]))
    per_index = centered_mean([traj.per_letter_distortions for traj in trajs])
    return mean, _std_error(blocks, trials), per_index

"""Gauss-Markov trajectory simulation and the gain-scaled Kalman filter.

The filter treats the measurement-noise gain gamma as a per-step input:
gamma = 1 is a full-quality measurement, larger gamma inflates the noise,
and gamma = infinity is an explicit erasure (no measurement; the covariance
follows the open-loop recursion A P A^T + Q).

Conventions
-----------
* Stored covariances are one-step-ahead: the FilterState at time i carries
  P_i = Cov(s_i | z^{i-1}); a step updates with the measurement at time i
  and then predicts to i+1.
* Trajectory estimates and per-letter distortions follow the same causal
  bookkeeping: the recorded estimate for time i uses measurements through
  i-1 only, so E[d_i] equals tr(P_i) and long-run averages match the
  Riccati/Lyapunov steady states.  (The post-measurement estimate exists
  inside each step and drives the next prediction; it is just not the one
  whose error the distortion accounting tracks.)
* Randomness comes from numpy's PCG64 generator seeded directly with the
  given 64-bit seed, so runs are reproducible bit for bit.  Per-trial seeds
  for Monte Carlo work are derived as ``seed XOR trial_index`` (masked to
  64 bits).  Draw order per run: initial state, then the gamma choices,
  then the whole process-noise block, then the whole measurement-noise
  block (measurement noise is drawn even for erased steps so the stream
  layout does not depend on the arrival pattern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .riccati import BeamPolicy, riccati_kernel, riccati_step
from .statespace import (
    GaussMarkovModel,
    as_matrix,
    check_initial_covariance,
    lyap_kernel,
    lyapunov_step,
    psd_sqrt,
    symmetrize,
)

PREDICTED = "predicted"
UPDATED = "updated"

_MASK64 = (1 << 64) - 1


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Per-trial seed: seed XOR trial_index on 64 bits.

    PCG64 hashes the value through a SeedSequence, so nearby trial indices
    still give decorrelated streams.
    """
    return (int(seed) ^ int(trial_index)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


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


@dataclass
class Trajectory:
    """Joint record of truth, measurements, filter output and distortions.

    All sequences run over time indices 0..n inclusive.  measurements[0] is
    always None (no measurement at time 0) and gammas[0] is infinity.
    covariances[i] is the one-step-ahead error covariance P_i.
    """

    states: np.ndarray                 # (n+1, m)
    measurements: list                 # length n+1 of None | (k,) arrays
    gammas: np.ndarray                 # (n+1,)
    estimates: np.ndarray              # (n+1, m)
    per_letter_distortions: np.ndarray # (n+1,)
    covariances: np.ndarray            # (n+1, m, m)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def block_distortion(self) -> float:
        """Average of the n+1 per-letter distortions."""
        return float(np.mean(self.per_letter_distortions))


def _validate_gammas(gammas) -> np.ndarray:
    arr = np.asarray(gammas, dtype=float).reshape(-1)
    if arr.size and (np.isnan(arr).any() or (arr < 1.0).any()):
        raise ParameterError("every gamma must lie in [1, inf]")
    return arr


def simulate_trajectory(model: GaussMarkovModel, s0, gammas, seed: int):
    """Sample the truth s_1..s_n and measurements z_i = C s_i + v_i.

    gammas has one entry per step i = 1..n; gamma = infinity records the
    measurement as absent.  Returns (states, measurements, gammas_full)
    with sequences aligned on indices 0..n (index 0 carries the given s0,
    no measurement, gamma = infinity).
    """
    gam = _validate_gammas(gammas)
    n = gam.size
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.size != model.m:
        raise DimensionError(f"s0 must have length {model.m}, got {s0.size}")

    rng = make_rng(seed)
    lq = psd_sqrt(model.Q)
    lr = psd_sqrt(model.R)
    w = rng.standard_normal((n, model.m)) @ lq.T
    v = rng.standard_normal((n, model.k)) @ lr.T

    states = np.empty((n + 1, model.m))
    states[0] = s0
    measurements: list = [None]
    for i in range(1, n + 1):
        states[i] = model.A @ states[i - 1] + w[i - 1]
        g = gam[i - 1]
        if math.isinf(g):
            measurements.append(None)
        else:
            measurements.append(model.C @ states[i] + math.sqrt(g) * v[i - 1])
    gammas_full = np.concatenate([[math.inf], gam])
    return states, measurements, gammas_full


def kalman_gain(model: GaussMarkovModel, p, gamma: float) -> np.ndarray:
    """Gain K = P C^T (C P C^T + gamma R)^{-1}; the zero matrix at gamma=inf.

    p may also be a stack (..., m, m) of covariances, giving a stack of gains.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape[-2:] != (model.m, model.m):
        raise DimensionError(f"P must be {model.m}x{model.m}, got {p.shape}")
    if math.isinf(gamma):
        return np.zeros(p.shape[:-2] + (model.m, model.k))
    innov = model.C @ p @ model.C.T + gamma * model.R
    try:
        return np.linalg.solve(innov, model.C @ p).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular: {exc}",
            condition=float(np.max(np.linalg.cond(innov))),
        ) from exc


def gain_kernel(c: float, r: float, p: float, gamma: float) -> float:
    """Scalar gain p c / (c p c + gamma r); the shared float kernel of the
    scalar filter loop and the batched Monte Carlo filter."""
    return (p * c) / ((c * p) * c + gamma * r)


def _check_erasure(z, gamma):
    if (z is None) != math.isinf(gamma):
        raise ParameterError(
            "measurement must be absent exactly when gamma is infinite"
        )


def measurement_update(model: GaussMarkovModel, state: FilterState, z, gamma: float) -> FilterState:
    """Absorb the measurement at state.time_index (identity when erased)."""
    if state.phase != PREDICTED:
        raise ParameterError("measurement_update expects a predicted-phase state")
    _check_erasure(z, gamma)
    if z is None:
        return FilterState(state.estimate, state.covariance, state.time_index, UPDATED)
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != model.k:
        raise DimensionError(f"z must have length {model.k}, got {z.size}")
    gain = kalman_gain(model, state.covariance, gamma)
    innovation = z - model.C @ state.estimate
    est = state.estimate + gain @ innovation
    cov = symmetrize(state.covariance - gain @ (model.C @ state.covariance))
    return FilterState(est, cov, state.time_index, UPDATED)


def kalman_step(model: GaussMarkovModel, state: FilterState, z, gamma: float) -> FilterState:
    """Measurement update at time i followed by prediction to i+1.

    The next covariance is computed by the one-shot recursion
    P' = A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T (open-loop
    A P A^T + Q when erased), so iterating this step reproduces the Riccati
    map path exactly.
    """
    if state.phase != PREDICTED:
        raise ParameterError("kalman_step expects a predicted-phase state")
    if not math.isinf(gamma) and (math.isnan(gamma) or gamma < 1.0):
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    updated = measurement_update(model, state, z, gamma)
    est_next = model.A @ updated.estimate
    if z is None:
        cov_next = lyapunov_step(model, state.covariance, 1.0)
    else:
        cov_next = riccati_step(model, state.covariance, gamma)
    return FilterState(est_next, cov_next, state.time_index + 1, PREDICTED)


def draw_blocks(model: GaussMarkovModel, policy: BeamPolicy) -> list:
    """The draws of a filter run after its initial state, in stream order.

    Each entry ``draw(rng, rows)`` returns the next ``rows`` time steps of
    its block: the switching arrivals (switching policies only), then the
    process noise w ~ N(0, Q), then the measurement noise v ~ N(0, R).  A
    run draws each whole block before the next one.
    """
    lq = psd_sqrt(model.Q)
    lr = psd_sqrt(model.R)
    blocks = [
        lambda rng, rows: rng.standard_normal((rows, model.m)) @ lq.T,
        lambda rng, rows: rng.standard_normal((rows, model.k)) @ lr.T,
    ]
    if policy.kind == "switching":
        blocks.insert(0, lambda rng, rows: rng.random(rows) < policy.value)
    return blocks


def run_filter(
    model: GaussMarkovModel,
    policy: BeamPolicy,
    horizon: int,
    s0_estimate,
    p0,
    seed: int,
) -> Trajectory:
    """Simulate truth and filter jointly under a beam policy.

    The true initial state is drawn from N(s0_estimate, P0), so the filter
    initialization is consistent by construction.  Per-letter distortion at
    time i is the squared Euclidean error of the causal estimate (which
    uses measurements through i-1; see the module docstring).
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    s0_estimate = np.asarray(s0_estimate, dtype=float).reshape(-1)
    if s0_estimate.size != model.m:
        raise DimensionError(
            f"s0_estimate must have length {model.m}, got {s0_estimate.size}"
        )
    p0 = check_initial_covariance(model, p0)

    n = horizon
    rng = make_rng(seed)
    s_true0 = s0_estimate + psd_sqrt(p0) @ rng.standard_normal(model.m)
    *arrivals, w, v = [draw(rng, n) for draw in draw_blocks(model, policy)]
    gam = np.where(arrivals[0], 1.0, math.inf) if arrivals else np.full(n, policy.value)

    if model.is_scalar:
        return _run_filter_scalar(model, s_true0, gam, w, v, s0_estimate, p0)

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

    dists = np.sum((states - estimates) ** 2, axis=1)
    gammas_full = np.concatenate([[math.inf], gam])
    return Trajectory(states, measurements, gammas_full, estimates, dists, covariances)


def _run_filter_scalar(model, s_true0, gam, w, v, s0_estimate, p0) -> Trajectory:
    """Tight float loop for m = k = 1; same kernels as the matrix path."""
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
            gain = gain_kernel(c, r, cov, g_prev)
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
    dists = (states - estimates) ** 2
    gammas_full = np.concatenate([[math.inf], gam])
    return Trajectory(
        states.reshape(-1, 1),
        measurements,
        gammas_full,
        estimates.reshape(-1, 1),
        dists,
        covs.reshape(-1, 1, 1),
    )


def write_trajectory_csv(traj: Trajectory, path, comment: str | None = None) -> None:
    """Columns: i, s[0..m), z_present, z[0..k), gamma, shat[0..m), d_i."""
    m = traj.states.shape[1]
    k = 0
    for z in traj.measurements:
        if z is not None:
            k = len(z)
            break
    header = (
        ["i"]
        + [f"s{j}" for j in range(m)]
        + ["z_present"]
        + [f"z{j}" for j in range(k)]
        + ["gamma"]
        + [f"shat{j}" for j in range(m)]
        + ["d_i"]
    )
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for i in range(traj.states.shape[0]):
        z = traj.measurements[i]
        row = [str(i)]
        row += [repr(float(x)) for x in traj.states[i]]
        row.append("1" if z is not None else "0")
        if z is not None:
            row += [repr(float(x)) for x in z]
        else:
            row += [""] * k
        row.append(repr(float(traj.gammas[i])))
        row += [repr(float(x)) for x in traj.estimates[i]]
        row.append(repr(float(traj.per_letter_distortions[i])))
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

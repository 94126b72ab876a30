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
* Randomness: every draw block of a run reads its own numpy PCG64
  generator, spawned in draw order from ``SeedSequence(seed)``
  (``draw_generators``).  A filter run has four blocks: the initial state,
  the switching arrivals (read by switching policies only), the process
  noise and the measurement noise (drawn even for erased steps, so no block
  depends on the arrival pattern).  A covariance-only run
  (``covariance_trials``) has one, its arrival uniforms.  Every block is
  drawn time-major, (steps, trials[, width]), so trial t is column t of
  each block, and a segment reads the next contiguous chunk of its block's
  stream: chunked draws equal one-shot draws.  Runs are reproducible bit
  for bit, different seeds give independent runs, and a trial's draws
  depend on the run's trial count.

One recursion
-------------
``filter_trials`` is the only filter loop.  It advances every trial of a
run together and yields one block of time steps per draw segment;
``run_filter`` is that recursion with one trial and copies the blocks, and
``montecarlo.empirical_block_distortion`` keeps only the per-letter
distortions.  A segment runs in passes: the truth recursion alone, its
measurements C s + sqrt(g) v in one vectorized expression, then the
covariance/gain and estimate recursion step by step.
``covariance_trials`` steps the covariances alone through the same step
classes (``montecarlo``'s covariance cells).  Covariances are held as
floats or ``(trials, 1)`` arrays for scalar models or as ``(m, m)``
matrices or ``(trials, m, m)`` stacks, a step's states and estimates as
``(trials, m)``; ``np.where`` picks each trial's arrival branch.  A
filter's sensing step takes its gain and next covariance from one
``riccati.innovation_kernel`` or ``riccati.innovation`` call; a covariance
cell's takes the covariance alone (``riccati_kernel`` or
``riccati_step``).  Under a multi-beam policy every trial follows the same
covariance and gain path, so that path is computed once.  Each trial
equals, bit for bit, the per-trial loops in ``tests/mc_reference.py``
(whole blocks drawn one-shot and transformed, then column t stepped
through ``kalman_step`` or the scalar kernels).  The noise transform is
one matrix product per time step, so it rounds alike in any chunking.

Memory: a filter run holds its four generators and time-major buffers of
``SEGMENT`` + 1 steps for the states, the estimates (which share the
buffer of the raw draws) and the measurements; each segment overwrites
them.  A covariance run holds one generator and draws ``trials`` uniforms
a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .riccati import BeamPolicy, innovation, innovation_kernel, riccati_kernel, riccati_step
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

#: significant digits below which ``Trajectory.precision_loss_index`` calls
#: a written error s_i - shat_i imprecise
PRECISION_DIGITS = 6


def draw_generators(seed: int, cell: bool = False) -> list:
    """One generator per draw block of a run, spawned in draw order.

    The blocks' PCG64 generators are the children of ``SeedSequence(seed)``
    (the seed taken on 64 bits).  A filter run has four blocks: the initial
    state, the switching arrivals (read by switching policies only), the
    process noise and the measurement noise.  A covariance cell (``cell``)
    has one, its arrivals.
    """
    children = np.random.SeedSequence(int(seed) & _MASK64).spawn(1 if cell else 4)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


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

    def precision_loss_index(self):
        """First time index whose error s_i - shat_i has lost precision, else None.

        States and estimates are stored raw.  On an unstable model both grow
        without bound while their difference stays near sqrt(tr P_i), so once
        the float spacing at max(|s_i|, |shat_i|) exceeds
        10^-PRECISION_DIGITS * sqrt(tr P_i) the written error keeps fewer
        than about PRECISION_DIGITS digits (and soon rounds to 0).  A step
        with P_i = 0 has an exact zero error.
        """
        scale = np.maximum(np.abs(self.states), np.abs(self.estimates)).max(axis=1)
        spread = np.sqrt(np.trace(self.covariances, axis1=1, axis2=2))
        rel = 10.0 ** -PRECISION_DIGITS
        lost = np.flatnonzero((spread > 0) & (np.spacing(scale) > rel * spread))
        return int(lost[0]) if lost.size else None


def kalman_gain(model: GaussMarkovModel, p, gamma: float) -> np.ndarray:
    """Gain K = P C^T (C P C^T + gamma R)^{-1}; the zero matrix at gamma=inf.

    p may also be a stack (..., m, m) of covariances, giving a stack of gains.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape[-2:] != (model.m, model.m):
        raise DimensionError(f"P must be {model.m}x{model.m}, got {p.shape}")
    if math.isinf(gamma):
        return np.zeros(p.shape[:-2] + (model.m, model.k))
    return innovation(model, p, gamma)[0]


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

    The next covariance is computed by the one-shot recursion
    P' = A P A^T + Q - A P C^T (C P C^T + gamma R)^{-1} C P A^T (open-loop
    A P A^T + Q when erased), so iterating this step reproduces the Riccati
    map path exactly.  The gain and P' come from one innovation computation:
    ``riccati.innovation`` on matrix models, ``innovation_kernel`` on scalar
    ones.
    """
    if not math.isinf(gamma) and (math.isnan(gamma) or gamma < 1.0):
        raise ParameterError(f"gamma must lie in [1, inf], got {gamma}")
    z = _checked_measurement(model, state, z, gamma, "kalman_step")
    p, est, t_next = state.covariance, state.estimate, state.time_index + 1
    if z is None:
        return FilterState(model.A @ est, lyapunov_step(model, p, 1.0), t_next, PREDICTED)
    if model.is_scalar:
        gain, p_next = innovation_kernel(*model.scalars(), float(p[0, 0]), gamma, 1.0)
        gain, p_next = np.array([[gain]]), np.array([[p_next]])
    else:
        gain, p_next = innovation(model, p, gamma)
    est = est + gain @ (z - model.C @ est)
    return FilterState(model.A @ est, p_next, t_next, PREDICTED)


#: time steps per draw segment
SEGMENT = 250


def _pick(mask: np.ndarray, x, y, core: int):
    """Per-trial branch: x where mask, else y (``core`` trailing axes per trial)."""
    return np.where(mask.reshape((-1,) + (1,) * core), x, y)


class _ScalarSteps:
    """Steps of a scalar model on trial arrays, through the shared kernels.

    A covariance is a length-1 vector per trial, like a state, or a float
    while every trial shares it.  ``sense`` returns the gain and the next
    covariance of one innovation computation, in both step classes, and
    ``correct`` the next covariance of a sensing step alone (gamma = 1).
    """

    core = 1

    def __init__(self, model: GaussMarkovModel):
        self.a, self.c, self.q, self.r = model.scalars()

    def initial(self, p0: np.ndarray) -> float:
        return float(p0[0, 0])

    def predict(self, x):
        return self.a * x

    def observe(self, x):
        return self.c * x

    def open_loop(self, p):
        return lyap_kernel(self.a, self.q, p, 1.0)

    def sense(self, p, g: float):
        return innovation_kernel(self.a, self.c, self.q, self.r, p, g, 1.0)

    def correct(self, p):
        return riccati_kernel(self.a, self.c, self.q, self.r, p, 1.0)

    def apply(self, gain, residual):
        return gain * residual


class _MatrixSteps:
    """Steps of a matrix model on (trials, m, m) stacks, as in ``kalman_step``."""

    core = 2

    def __init__(self, model: GaussMarkovModel):
        self.model = model

    def initial(self, p0: np.ndarray) -> np.ndarray:
        return p0

    def predict(self, x):
        return (self.model.A @ x[..., None])[..., 0]

    def observe(self, x):
        return (self.model.C @ x[..., None])[..., 0]

    def open_loop(self, p):
        return lyapunov_step(self.model, p, 1.0)

    def sense(self, p, g: float):
        return innovation(self.model, p, g)

    def correct(self, p):
        return riccati_step(self.model, p, 1.0)

    def apply(self, gain, residual):
        return (gain @ residual[..., None])[..., 0]


def _steps(model: GaussMarkovModel):
    return _ScalarSteps(model) if model.is_scalar else _MatrixSteps(model)


def _filter_step(steps, arrived, est, z, p, g: float):
    """Absorb the measurement z taken with gain g, then predict one step.

    ``arrived`` is a bool shared by every trial or a per-trial mask; an
    erased measurement leaves the estimate and takes the open-loop
    covariance step.  Returns the next (estimate, covariance).
    """
    if arrived is False:
        return steps.predict(est), steps.open_loop(p)
    gain, p_next = steps.sense(p, g)
    updated = est + steps.apply(gain, z - steps.observe(est))
    if arrived is not True:
        updated = _pick(arrived, updated, est, 1)
        p_next = _pick(arrived, p_next, steps.open_loop(p), steps.core)
    return steps.predict(updated), p_next


def filter_trials(model, policy, horizon: int, trials: int, seed: int, s0, p0):
    """Run ``trials`` filtered trajectories together; yield one block per segment.

    Trial t reads column t of the run's draw blocks (``draw_generators``):
    its true initial state is drawn from N(s0, P0) and the filter starts
    from (s0, P0).  Each block covers consecutive time indices from
    ``start`` (together 0..horizon) and is ``(start, states, estimates,
    covariances, present, z)``: time-major (rows, trials, m) arrays of s_i
    and of the causal estimate, a list of the covariances P_i (one value
    while every trial shares it, else per trial), a (rows, trials) mask of
    the measurements z_i that arrived (none at time 0) and the (rows,
    trials, k) measurements, valid where the mask holds.  The arrays are
    buffers that the next block overwrites.  The arguments are checked
    before this returns.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.size != model.m:
        raise DimensionError(f"initial estimate must have length {model.m}, got {s0.size}")
    p0 = check_initial_covariance(model, p0)
    return _recursion(model, policy, horizon, trials, seed, s0, p0)


def _recursion(model, policy, horizon: int, trials: int, seed: int, s0, p0):
    switching = policy.kind == "switching"
    initial, arrival, process, measurement = draw_generators(seed)
    lq, lr = psd_sqrt(model.Q).T, psd_sqrt(model.R).T
    g = 1.0 if switching else policy.value
    sensed = switching or not math.isinf(g)
    noise_gain = math.sqrt(g)

    steps = _steps(model)
    size = min(SEGMENT, horizon) + 1
    # row 0 of each segment buffer holds the time index before the segment
    states = np.empty((size, trials, model.m))
    # one buffer holds a segment's raw draws, then its estimates
    shared = np.empty(size * trials * max(model.m, model.k))
    estimates = shared[:states.size].reshape(states.shape)
    z = np.empty((size, trials, model.k))
    present = np.full((size, trials), sensed and not switching)
    head = initial.standard_normal((trials, model.m))
    states[0] = s0 + (psd_sqrt(p0) @ head[..., None])[..., 0]
    present[0] = False
    est, p = s0, steps.initial(p0)
    for start in range(0, horizon, SEGMENT):
        rows = min(SEGMENT, horizon - start)
        # a segment draws the next rows of each block raw into the shared buffer
        if switching:
            uniforms = arrival.random(out=shared[:rows * trials].reshape(rows, trials))
            np.less(uniforms, policy.value, out=present[1:rows + 1])
        # the truth pass overwrites each w_i with s_{i+1} = A s_i + w_i
        ws = states[1:rows + 1]
        raw = process.standard_normal(out=shared[:ws.size].reshape(ws.shape))
        np.matmul(raw, lq, out=ws)
        for j in range(rows):
            np.add(steps.predict(states[j]), states[j + 1], out=states[j + 1])
        if sensed:
            zs = z[1:rows + 1]
            raw = measurement.standard_normal(out=shared[:zs.size].reshape(zs.shape))
            np.matmul(raw, lr, out=zs)
            np.add(steps.observe(ws), np.multiply(noise_gain, zs, out=zs), out=zs)
        if not switching:
            arrivals = [sensed] * rows
        elif trials == 1:
            # a lone trial shares its arrival, which keeps P unbatched
            arrivals = present[:rows, 0].tolist()
        else:
            arrivals = list(present[:rows])
        if start == 0:
            arrivals[0] = False
        estimates[0] = est
        covariances = [p]
        for j, arrived in enumerate(arrivals):
            est, p = _filter_step(steps, arrived, est, z[j], p, g)
            estimates[j + 1] = est
            covariances.append(p)
        first = 0 if start == 0 else 1
        yield (
            start + first, states[first:rows + 1], estimates[first:rows + 1],
            covariances[first:], present[first:rows + 1], z[first:rows + 1],
        )
        for buffer in (states, present, z):
            buffer[0] = buffer[rows]


def covariance_trials(model, lam: float, horizon: int, trials: int, seed: int, p0):
    """Every trial's P_i, i = 0..horizon, as (trials, m, m) arrays, from the checked P_0 = p0.

    The cell's one arrival generator (``draw_generators``) gives each step
    ``trials`` uniforms, trial t's in column t; step i senses where that
    uniform is below lam and takes the open-loop step otherwise.  At lam = 0
    (1) every trial shares the open-loop (sensing) path, and the other
    branch is never computed.
    """
    steps = _steps(model)
    p = steps.initial(p0)
    yield np.broadcast_to(p0, (trials, model.m, model.m))
    if lam in (0.0, 1.0):
        step = steps.correct if lam == 1.0 else steps.open_loop
        for _ in range(horizon):
            p = step(p)
            yield np.broadcast_to(np.reshape(p, (model.m, model.m)), (trials, model.m, model.m))
        return
    (arrivals,) = draw_generators(seed, cell=True)
    for _ in range(horizon):
        p = _pick(arrivals.random(trials) < lam, steps.correct(p), steps.open_loop(p), steps.core)
        yield p.reshape(trials, model.m, model.m)


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
    uses measurements through i-1; see the module docstring).  This is
    ``filter_trials`` with one trial.
    """
    run = filter_trials(model, policy, horizon, 1, seed, s0_estimate, p0)
    states = np.empty((horizon + 1, model.m))
    estimates = np.empty_like(states)
    covariances = np.empty((horizon + 1, model.m, model.m))
    measurements = []
    for start, s, est, covs, present, z in run:
        stop = start + len(covs)
        states[start:stop], estimates[start:stop] = s[:, 0], est[:, 0]
        covariances[start:stop] = np.reshape(covs, (-1, model.m, model.m))
        measurements += [zj.copy() if on else None for zj, on in zip(z[:, 0], present[:, 0])]

    gamma = 1.0 if policy.kind == "switching" else policy.value
    gammas = np.where([z is not None for z in measurements], gamma, math.inf)
    dists = np.sum((states - estimates) ** 2, axis=1)
    return Trajectory(states, measurements, gammas, estimates, dists, covariances)


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

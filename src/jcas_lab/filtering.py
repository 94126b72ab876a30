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
  layout does not depend on the arrival pattern).  A covariance-only run
  (``covariance_trials``) draws just its ``horizon`` arrival uniforms.

One recursion
-------------
``filter_trials`` is the only filter loop.  It advances every trial of a
run together, one time step at a time, and yields each step; ``run_filter``
is that recursion with one trial (trial 0 reads seed XOR 0 = seed) and
records it, and ``montecarlo.empirical_block_distortion`` keeps only the
per-letter distortions.  ``covariance_trials`` steps the covariances alone
on the same draw segments and step classes (``montecarlo``'s covariance
cells).  Covariances are held as floats or ``(trials, 1)`` arrays for
scalar models or as ``(m, m)`` matrices or ``(trials, m, m)`` stacks,
states and estimates as ``(trials, m)``; ``np.where`` picks each trial's
arrival branch.  A sensing step takes its gain and next covariance from one
``riccati.innovation_kernel`` or ``riccati.innovation`` call.  Under a
multi-beam policy every trial follows the same covariance and gain path,
so that path is computed once.  Each trial equals, bit for bit, the
per-trial loops in ``tests/mc_reference.py`` (one-shot draws, then
``kalman_step`` or the scalar kernels step by step).

Memory: every draw block is read in time segments of ``SEGMENT`` steps,
from one saved generator state per block and trial; chunked ``random`` and
``standard_normal`` calls reproduce the one-shot stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .riccati import BeamPolicy, innovation, innovation_kernel, riccati_step
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


def measurement_update(model: GaussMarkovModel, state: FilterState, z, gamma: float) -> FilterState:
    """Absorb the measurement at state.time_index (identity when erased)."""
    if state.phase != PREDICTED:
        raise ParameterError("measurement_update expects a predicted-phase state")
    if (z is None) != math.isinf(gamma):
        raise ParameterError("measurement must be absent exactly when gamma is infinite")
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


#: time steps per draw segment
SEGMENT = 500


def _segments(steps: int) -> list:
    """(start, stop) runs of SEGMENT time steps covering 0..steps-1.

    A one-step tail joins the run before it: a one-row noise segment would
    be transformed by BLAS gemv instead of the gemm of a one-shot draw, and
    the two round differently.
    """
    bounds = list(range(0, steps, SEGMENT)) + [steps]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


class _TrialDraws:
    """Every trial's draw blocks, served one time segment at a time.

    Trial t reads ``make_rng(seed XOR t)``: ``head`` standard normals, then
    one block per entry of ``blocks``; ``draw(rng, rows)`` returns ``rows``
    consecutive time steps of its block.  The constructor walks each
    trial's stream once, keeping the first segment of every block and the
    generator state where its second segment starts; ``segments`` reads the
    later segments from those states into the same buffers, one shared
    generator swapping them.
    """

    def __init__(self, seed: int, trials: int, head: int, steps: int, blocks: list):
        self.spans = _segments(steps)
        self.blocks = blocks
        self.head = np.empty((trials, head))
        self.drawn = [None] * len(blocks)
        self.states = [[None] * trials for _ in blocks]
        last = len(blocks) - 1
        for t in range(trials):
            rng = make_rng(derive_trial_seed(seed, t))
            if head:
                self.head[t] = rng.standard_normal(head)
            for b, draw in enumerate(blocks):
                for s, (start, stop) in enumerate(self.spans):
                    if s == 1:
                        self.states[b][t] = rng.bit_generator.state
                        if b == last:
                            break
                    values = draw(rng, stop - start)
                    if s == 0:
                        self.drawn[b] = _store(self.drawn[b], t, values, trials)
        self.rng = rng

    def segments(self):
        """Yield ((start, stop), [per-block (trials, stop - start, ...) draws]).

        The draw arrays are buffers that the next segment overwrites.
        """
        drawn = self.drawn
        yield self.spans[0], drawn
        bit_generator = self.rng.bit_generator
        for start, stop in self.spans[1:]:
            for b, (draw, states) in enumerate(zip(self.blocks, self.states)):
                for t, state in enumerate(states):
                    bit_generator.state = state
                    drawn[b] = _store(drawn[b], t, draw(self.rng, stop - start), len(states))
                    states[t] = bit_generator.state
            yield (start, stop), drawn


def _store(out, t: int, values: np.ndarray, trials: int) -> np.ndarray:
    """Put trial t's values into the segment buffer, reallocating on a new shape."""
    if out is None or out.shape[1:] != values.shape:
        out = np.empty((trials,) + values.shape, values.dtype)
    out[t] = values
    return out


def _pick(mask: np.ndarray, x, y, core: int):
    """Per-trial branch: x where mask, else y (``core`` trailing axes per trial)."""
    return np.where(mask.reshape((-1,) + (1,) * core), x, y)


class _ScalarSteps:
    """Steps of a scalar model on trial arrays, through the shared kernels.

    A covariance is a length-1 vector per trial, like a state, or a float
    while every trial shares it.  ``sense`` returns the gain and the next
    covariance of one innovation computation, in both step classes.
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
    """Run ``trials`` filtered trajectories together; yield each time step.

    Trial t is the run of seed ``seed XOR t``: its true initial state is
    drawn from N(s0, P0) and the filter starts from (s0, P0).  At time
    i = 0..horizon this yields ``(states, estimates, p, arrived, z)``:
    (trials, m) arrays of s_i and of the causal estimate, the covariance P_i
    (one value while every trial shares it, else per trial), and the
    measurement z_i, present where ``arrived`` holds (a bool for every trial
    or a per-trial mask; False at time 0).  Yielded arrays are never
    modified afterwards.  The arguments are checked before this returns.
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
    draws = _TrialDraws(seed, trials, model.m, horizon, draw_blocks(model, policy))
    g = 1.0 if switching else policy.value
    noise_gain = math.sqrt(g)

    steps = _steps(model)
    state = s0 + (psd_sqrt(p0) @ draws.head[..., None])[..., 0]
    est = s0
    p = steps.initial(p0)
    # the measurement of the current time index; none at time 0
    z, arrived = None, False
    yield state, est, p, arrived, z
    for (start, stop), drawn in draws.segments():
        w, v = drawn[-2:]
        for j in range(stop - start):
            est, p = _filter_step(steps, arrived, est, z, p, g)
            state = steps.predict(state) + w[:, j]
            if not switching:
                arrived = not math.isinf(g)
            elif trials == 1:
                # a lone trial shares its arrival, which keeps P unbatched
                arrived = bool(drawn[0][0, j])
            else:
                # a copy: the next step reads it after the buffer may be refilled
                arrived = drawn[0][:, j].copy()
            if arrived is not False:
                z = steps.observe(state) + noise_gain * v[:, j]
            yield state, est, p, arrived, z


def covariance_trials(model, lam: float, horizon: int, trials: int, seed: int, p0):
    """Every trial's P_i, i = 0..horizon, as (trials, m, m) arrays, from the checked P_0 = p0.

    Trial t (seed XOR t) draws ``horizon`` arrival uniforms; step i senses
    where its uniform is below lam and takes the open-loop step otherwise.
    """
    steps = _steps(model)
    p = steps.initial(p0)
    yield np.broadcast_to(p0, (trials, model.m, model.m))
    draws = _TrialDraws(seed, trials, 0, horizon, [lambda rng, rows: rng.random(rows) < lam])
    for (start, stop), (arrivals,) in draws.segments():
        for j in range(stop - start):
            p = _pick(arrivals[:, j], steps.sense(p, 1.0)[1], steps.open_loop(p), steps.core)
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
    trial 0 of ``filter_trials``, whose seed is ``seed`` itself.
    """
    run = filter_trials(model, policy, horizon, 1, seed, s0_estimate, p0)
    states = np.empty((horizon + 1, model.m))
    estimates = np.empty_like(states)
    covariances = np.empty((horizon + 1, model.m, model.m))
    measurements = []
    for i, (state, est, p, arrived, z) in enumerate(run):
        states[i], estimates[i], covariances[i] = state, est, p
        measurements.append(z[0] if arrived else None)

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

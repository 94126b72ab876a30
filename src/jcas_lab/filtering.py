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
  layout does not depend on the arrival pattern).  A filter run reads each
  block from its own generator per trial, positioned once where the block
  starts: arrival uniforms take one 64-bit output each, so
  ``PCG64.advance`` skips their block, and a process-noise block is passed
  over by drawing it once untransformed.  A covariance-only run
  (``covariance_trials``) draws just its ``horizon`` arrival uniforms, for
  every trial at once, from ``_trial_uniforms``: a numpy copy of PCG64 and
  its SeedSequence seeding on uint64 arrays, which gives bit for bit what
  ``make_rng(seed XOR t).random()`` gives.

One recursion
-------------
``filter_trials`` is the only filter loop.  It advances every trial of a
run together and yields one block of time steps per draw segment;
``run_filter`` is that recursion with one trial (trial 0 reads seed XOR 0
= seed) and copies the blocks, and
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
(one-shot draws, then ``kalman_step`` or the scalar kernels step by step).

Memory: a filter run holds one generator per draw block and trial and
time-major buffers of ``SEGMENT`` + 1 steps for the states, the estimates
(which share the buffer of the raw draws) and the measurements; each
segment overwrites them, and chunked ``random`` and ``standard_normal``
calls reproduce the one-shot stream.  A covariance run holds every
trial's 128-bit generator increment and one block of its states, at most
``max(trials, UNIFORM_BLOCK)`` states in all, as uint64 (high, low) words.
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


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Per-trial seed: seed XOR trial_index on 64 bits.

    PCG64 hashes the value through a SeedSequence, so nearby trial indices
    still give decorrelated streams.
    """
    return (int(seed) ^ int(trial_index)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: draws (trials x steps) per block of a covariance run's arrival uniforms;
#: a block spans at least one step
UNIFORM_BLOCK = 1 << 12


def _seed_hash(init: int, mult: int):
    """numpy's SeedSequence hash on uint32 arrays, with its running constant.

    Each call xors the constant in, advances it by ``mult`` (mod 2^32),
    multiplies by the new constant and xor-shifts right by 16.
    """
    const = init

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _seed_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return value ^ (value >> np.uint32(16))


def _lcg_jump(steps: int) -> tuple:
    """(M^steps, 1 + M + ... + M^(steps-1)) mod 2^128: ``steps`` LCG steps
    take a state s to M^steps s + (1 + ... + M^(steps-1)) inc."""
    mult, incr = 1, 0
    for _ in range(steps):
        mult, incr = mult * _PCG_MULT & _MASK128, (incr * _PCG_MULT + 1) & _MASK128
    return mult, incr


def _mul128(hi: np.ndarray, lo: np.ndarray, const: int) -> tuple:
    """(hi, lo) * const mod 2^128 on uint64 word arrays, the low words'
    64 x 64 -> 128 bit product taken in 32-bit limbs."""
    half, low32 = np.uint64(32), np.uint64(0xFFFFFFFF)
    c_hi, c_lo = np.uint64(const >> 64), np.uint64(const & _MASK64)
    c0, c1 = c_lo & low32, c_lo >> half
    lo0, lo1 = lo & low32, lo >> half
    p00, p01, p10 = lo0 * c0, lo0 * c1, lo1 * c0
    mid = (p00 >> half) + (p01 & low32) + (p10 & low32)
    carry = lo1 * c1 + (p01 >> half) + (p10 >> half) + (mid >> half)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _pcg64_seeds(seed: int, trials: int) -> tuple:
    """The PCG64 (state, inc) of ``make_rng(seed XOR t)`` for every trial t,
    each as (trials, 1) uint64 (high, low) words, seeded as numpy seeds one
    generator: the SeedSequence pool hash of the seed's 32-bit words,
    ``generate_state(4, uint64)``, then ``srandom`` (step, add the seed,
    step)."""
    seeds = np.uint64(int(seed) & _MASK64) ^ np.arange(trials, dtype=np.uint64)
    zero = np.zeros(trials, np.uint32)
    low, high = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    # SeedSequence.mix_entropy: a pool of 4 words, each mixed into the others
    hash_ = _seed_hash(0x43B0D7E5, 0x931E8875)
    pool = [hash_(w) for w in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _seed_mix(pool[dst], hash_(pool[src]))
    # generate_state(4, uint64): 8 hashed pool words, paired low word first
    hash_ = _seed_hash(0x8B51F9DD, 0x58F38DED)
    out = [hash_(pool[i % 4]).astype(np.uint64)[:, None] for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = (
        out[i] | (out[i + 1] << np.uint64(32)) for i in range(0, 8, 2)
    )
    # srandom: inc = 2 seq + 1; state 0 steps to inc, adds the seed, steps
    one = np.uint64(1)
    inc = (seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one
    return _add128(_mul128(*_add128(inc, (state_hi, state_lo)), _PCG_MULT), inc), inc


def _trial_uniforms(seed: int, trials: int, width: int):
    """Yield every trial's ``make_rng(seed XOR t).random()`` stream as
    (trials, width) blocks, the next ``width`` draws of each trial per block.

    PCG64 (O'Neill 2014, XSL-RR 128/64) keeps a 128-bit LCG state and
    increment, held here for all trials as uint64 (high, low) word arrays
    (``_pcg64_seeds``).  A block holds the next ``width`` LCG states of
    every trial, and each draw is (xsl_rr(state) >> 11) * 2^-53.  The first
    block is widened by doubling jumps; each later one jumps ``width`` steps
    at once.  Every operand is a uint32 or uint64 array or scalar, whose
    array arithmetic wraps silently.
    """
    state, inc = _pcg64_seeds(seed, trials)
    block, filled = _add128(_mul128(*state, _PCG_MULT), inc), 1
    while filled < width:
        mult, incr = _lcg_jump(filled)
        ahead = _add128(_mul128(*block, mult), _mul128(*inc, incr))
        block = tuple(np.concatenate(pair, axis=1) for pair in zip(block, ahead))
        filled *= 2
    block = tuple(words[:, :width] for words in block)
    mult, incr = _lcg_jump(width)
    incr = _mul128(*inc, incr)
    while True:
        hi, lo = block
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        yield (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
        block = _add128(_mul128(hi, lo, mult), incr)


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


def draw_blocks(model: GaussMarkovModel, policy: BeamPolicy) -> list:
    """The draw blocks of a filter run after its initial state, in stream order.

    Each entry is ``(width, finish)``: a time step reads ``width`` standard
    normals, or one uniform where ``width`` is None, and ``finish(raw, out)``
    turns a (trials, rows[, width]) array of raw draws into the block's
    values in ``out``.  The blocks are the switching arrivals (switching
    policies only), then the process noise w ~ N(0, Q), then the
    measurement noise v ~ N(0, R).  A run draws each whole block before the
    next one.
    """
    lq = psd_sqrt(model.Q)
    lr = psd_sqrt(model.R)
    blocks = [
        (model.m, lambda raw, out: np.matmul(raw, lq.T, out=out)),
        (model.k, lambda raw, out: np.matmul(raw, lr.T, out=out)),
    ]
    if policy.kind == "switching":
        blocks.insert(0, (None, lambda raw, out: np.less(raw, policy.value, out=out)))
    return blocks


#: time steps per draw segment
SEGMENT = 250


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
    """Every trial's draw blocks, read one time segment at a time.

    Trial t reads ``make_rng(seed XOR t)``: ``head`` standard normals, then
    one block of ``steps`` time steps per entry of ``blocks``.  The
    constructor positions one generator per block and trial where its block
    starts: every block but the last gets a copy of the trial's generator,
    which then passes over the block once, by ``PCG64.advance`` for arrival
    uniforms (one 64-bit output each) or by drawing the normals
    untransformed into scratch.  ``draw`` reads each trial's next rows of a
    block into a raw buffer and finishes the whole buffer in one call.
    """

    def __init__(self, seed: int, trials: int, head: int, steps: int, blocks: list):
        self.spans = _segments(steps)
        self.rows = max(stop - start for start, stop in self.spans)
        self.blocks = blocks
        self.head = np.empty((trials, head))
        self.rngs = [[None] * trials for _ in blocks]
        scratch = np.empty(steps * max(width or 1 for width, _ in blocks[:-1]))
        *passed, last = self.rngs
        for t in range(trials):
            rng = make_rng(derive_trial_seed(seed, t))
            rng.standard_normal(out=self.head[t])
            for rngs, (width, _) in zip(passed, blocks):
                # a copy of the trial's generator where the block starts
                rngs[t] = make_rng(0)
                rngs[t].bit_generator.state = rng.bit_generator.state
                if width is None:
                    rng.bit_generator.advance(steps)
                else:
                    rng.standard_normal(out=scratch[:steps * width])
            last[t] = rng

    def draw(self, block: int, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write the next rows of every trial's block into ``out``, a
        time-major (rows, trials[, width]) array, drawing into the flat
        float ``scratch`` of at least ``out.size`` values."""
        width, finish = self.blocks[block]
        rows, trials = out.shape[:2]
        raw = scratch[:out.size].reshape((trials, rows) + out.shape[2:])
        fill = "random" if width is None else "standard_normal"
        for rng, row in zip(self.rngs[block], raw):
            getattr(rng, fill)(out=row)
        finish(raw, out.swapaxes(0, 1))


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

    Trial t is the run of seed ``seed XOR t``: its true initial state is
    drawn from N(s0, P0) and the filter starts from (s0, P0).  Each block
    covers consecutive time indices from ``start`` (together 0..horizon)
    and is ``(start, states, estimates, covariances, present, z)``:
    time-major (rows, trials, m) arrays of s_i and of the causal estimate,
    a list of the covariances P_i (one value while every trial shares it,
    else per trial), a (rows, trials) mask of the measurements z_i that
    arrived (none at time 0) and the (rows, trials, k) measurements, valid
    where the mask holds.  The arrays are buffers that the next block
    overwrites.  The arguments are checked before this returns.
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
    sensed = switching or not math.isinf(g)
    noise_gain = math.sqrt(g)

    steps = _steps(model)
    # row 0 of each segment buffer holds the time index before the segment
    states = np.empty((draws.rows + 1, trials, model.m))
    # one buffer holds a segment's raw draws, then its estimates
    shared = np.empty((draws.rows + 1) * trials * max(model.m, model.k))
    estimates = shared[:states.size].reshape(states.shape)
    z = np.empty((draws.rows + 1, trials, model.k))
    present = np.full((draws.rows + 1, trials), sensed and not switching)
    states[0] = s0 + (psd_sqrt(p0) @ draws.head[..., None])[..., 0]
    present[0] = False
    est, p = s0, steps.initial(p0)
    for start, stop in draws.spans:
        rows = stop - start
        if switching:
            draws.draw(0, present[1:rows + 1], shared)
        # the truth pass overwrites each w_i with s_{i+1} = A s_i + w_i
        draws.draw(-2, states[1:rows + 1], shared)
        for j in range(rows):
            np.add(steps.predict(states[j]), states[j + 1], out=states[j + 1])
        if sensed:
            zs = z[1:rows + 1]
            draws.draw(-1, zs, shared)
            np.add(steps.observe(states[1:rows + 1]), np.multiply(noise_gain, zs, out=zs), out=zs)
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

    Trial t (seed XOR t) draws one arrival uniform per step, through
    ``_trial_uniforms`` in blocks of at most ``UNIFORM_BLOCK`` draws (and
    at least one step); step i senses where its uniform is below lam and
    takes the open-loop step otherwise.  At lam = 0 (1) every trial shares
    the open-loop (sensing) path, and the other branch is never computed.
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
    width = max(1, min(horizon, UNIFORM_BLOCK // trials))
    blocks = _trial_uniforms(seed, trials, width)
    for i in range(horizon):
        if i % width == 0:
            arrivals = next(blocks) < lam
        p = _pick(arrivals[:, i % width], steps.correct(p), steps.open_loop(p), steps.core)
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

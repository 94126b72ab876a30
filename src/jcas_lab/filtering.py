"""Gauss-Markov trajectory simulation and the gain-scaled Kalman filter.

The filter treats the measurement-noise gain gamma as a per-step input:
gamma = 1 is a full-quality measurement, larger gamma inflates the noise,
and gamma = infinity is an explicit erasure (no measurement; the covariance
follows the open-loop recursion A P A^T + Q).

Conventions
-----------
* Stored covariances are one-step-ahead: P_i = Cov(s_i | z^{i-1}); a step
  updates with the measurement at time i and then predicts to i+1.
* Trajectory estimates and per-letter distortions follow the same causal
  bookkeeping: the recorded estimate for time i uses measurements through
  i-1 only, so E[d_i] equals tr(P_i) and long-run averages match the
  Riccati/Lyapunov steady states.  (The post-measurement estimate exists
  inside each step and drives the next prediction; it is just not the one
  whose error the distortion accounting tracks.)
* Randomness: every draw block of a run reads its own numpy PCG64
  generator (``draw_generators``).  Every block is drawn time-major,
  (steps, trials[, width]), so trial t is column t of each block, and a
  run reads the next contiguous chunk of a block's stream: chunked draws
  equal one-shot draws.  The measurement noise is drawn even for erased
  steps, so no block depends on the arrival pattern.  Runs are
  reproducible bit for bit, different seeds give independent runs, and a
  trial's draws depend on the run's trial count.

One recursion
-------------
``filter_trials`` is the only filter loop.  It advances every trial of a
run together and yields one block of time steps per draw segment.  It
carries the estimation error e_i = s_i - shat_i, never the state or the
estimate: with the arrival bit m_i, the predictor gain
L_i = A P_i C^T S_i^{-1} and the process and measurement noise rows w_i
and v_i,

    e_{i+1} = alpha_i e_i + u_i,  alpha_i = A - m_i L_i C,
    u_i = w_i - m_i L_i sqrt(g) v_i

(the intermittent-observation recursion of Sinopoli et al., IEEE TAC
2004).  e_i stays near sqrt(tr P_i) however large s_i grows, so |e_i|^2
keeps its digits on unstable models.  A segment runs a covariance pass
with the arrival bits as lam.  On a scalar model each step is one
``riccati.sensing_kernel`` call, the nonnegative one-step form of
P_{i+1}, and the gains L_i = c a / (c^2 + g r / P_i) of the whole
segment follow in three array operations on the stored covariances; on a
matrix model each step takes L_i and P_{i+1} = A P_i A^T + Q - m_i L_i C
P_i A^T from one ``riccati.innovation`` call.  The segment then
multiplies each gain by its arrival bit, forms alpha_i and u_i as
whole-segment arrays, and runs the error pass.
Under a multi-beam policy every trial shares one covariance and gain path.
``montecarlo.empirical_block_distortion`` keeps only |e_i|^2;
``run_filter`` is the recursion with one trial, rebuilds the truth
s_{i+1} = A s_i + w_i and the measurements z_i = C s_i + sqrt(g) v_i from
the yielded noise rows and writes shat_i = s_i - e_i.
``covariance_trials`` (``montecarlo``'s covariance cells) keeps only the
covariances of the same pass.  Covariances are np.float64 or ``(trials, 1)``
arrays for scalar models, ``(m, m)`` matrices or ``(trials, m, m)``
stacks otherwise.  Each trial equals, bit for bit, the per-trial loops in
``tests/mc_reference.py``.  The noise transform is one product per time
step (on scalar models a multiply by the scalar root), so it rounds alike
in any chunking.

Memory: a filter run holds its four generators and time-major buffers of
``SEGMENT`` + 1 steps for the errors, the noise, the gains and the raw
draws (which hold a scalar run's arrival caps during the covariance pass,
then u_i).  A covariance run holds one generator and, for at most 2^15
covariance entries, their arrival uniforms, caps and covariances at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .riccati import BeamPolicy, innovation, sensing_kernel
from .statespace import (
    GaussMarkovModel,
    check_initial_covariance,
    check_range,
    lyap_kernel,
    lyapunov_step,
    psd_sqrt,
)

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


@dataclass
class Trajectory:
    """Joint record of truth, measurements, filter output and distortions.

    All sequences run over time indices 0..n inclusive.  measurements[0] is
    always None (no measurement at time 0) and gammas[0] is infinity.
    covariances[i] is the one-step-ahead error covariance P_i.  The
    distortion d_i is |e_i|^2 of the simulated error e_i, and the estimate
    is written as shat_i = s_i - e_i.
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
        """First time index whose recomputed s_i - shat_i has lost precision, else None.

        States and estimates are stored raw.  On an unstable model both grow
        without bound while their difference stays near sqrt(tr P_i), so once
        the float spacing at max(|s_i|, |shat_i|) exceeds
        10^-PRECISION_DIGITS * sqrt(tr P_i) the difference of the two
        columns keeps fewer than about PRECISION_DIGITS digits (and soon
        rounds to 0).  The distortions d_i come from the simulated error
        itself and keep theirs.  A step with P_i = 0 has an exact zero error.
        """
        scale = np.maximum(np.abs(self.states), np.abs(self.estimates)).max(axis=1)
        spread = np.sqrt(np.trace(self.covariances, axis1=1, axis2=2))
        rel = 10.0 ** -PRECISION_DIGITS
        lost = np.flatnonzero((spread > 0) & (np.spacing(scale) > rel * spread))
        return int(lost[0]) if lost.size else None


#: time steps per draw segment
SEGMENT = 250


class _ScalarSteps:
    """Steps of a scalar model on trial arrays, through the shared kernels.

    A covariance is a length-1 vector per trial, like a state or an error,
    or an np.float64 while every trial shares it (so P = 0 divides as
    numpy does).  ``sense`` is ``riccati.sensing_kernel``, lam 1 or an
    arrival cap of ``masks``; it computes no gain.  ``segment`` runs a
    segment's covariance pass and then takes every step's predictor gain
    L_i = c a / (c^2 + g r / P_i) from the stored covariances at once.
    ``coefficients`` gives a segment's alpha_i = a - L_i c, over its masked
    gains L_i, and u_i = w_i - L_i sqrt(g) v_i, into the buffer ``u``;
    ``product`` applies alpha_i to an error, whose trailing ``column`` axes
    it sets, and a noise root to raw draws: a multiply here, a matrix
    product on matrix models.
    """

    column = ()
    gain_shape = (1,)
    product = np.multiply

    def __init__(self, model: GaussMarkovModel):
        self.a, self.c, self.q, self.r = model.scalars()

    def initial(self, p0: np.ndarray):
        return p0[0, 0]

    @staticmethod
    def masks(arrived: np.ndarray, out=None) -> np.ndarray:
        """Arrival caps of a (rows, trials) mask, into ``out`` if given: 0
        where z_i arrived, +inf where erased, as 1 / arrived - 1 (np.where
        branches on a random mask and takes about twice as long)."""
        caps = np.empty(arrived.shape) if out is None else out
        np.copyto(caps, arrived)
        with np.errstate(divide="ignore"):
            np.divide(1.0, caps, out=caps)
        caps -= 1.0
        return caps[..., None]

    def open_loop(self, p):
        return lyap_kernel(self.a, self.q, p, 1.0)

    def sense(self, p, g: float, lam):
        return sensing_kernel(self.a, self.c, self.q, self.r, p, g, lam)

    def segment(self, p, arrivals, g: float, gains):
        """[P_i, .., P_{i+rows}] from P_i = p, and each L_i into ``gains``."""
        covariances = [p, *_covariance_pass(self, p, arrivals, g)]
        if self.c == 0.0 or math.isinf(g):
            # nothing is sensed: gain 0, where the form would read 0 / 0 at P = +inf
            gains.fill(0.0)
            return covariances
        for gain, p_i in zip(gains, covariances):
            gain[...] = p_i
        np.divide(g * self.r, gains, out=gains)
        np.add(gains, self.c * self.c, out=gains)
        np.divide(self.c * self.a, gains, out=gains)
        return covariances

    def coefficients(self, gains, w, noise, u):
        np.subtract(w, np.multiply(gains, noise, out=u), out=u)
        np.subtract(self.a, np.multiply(gains, self.c, out=gains), out=gains)
        return gains, u


class _MatrixSteps:
    """Steps of a matrix model on (trials, m, m) stacks; errors are (m, 1) columns.

    ``segment`` takes each step's gain and covariance from one
    ``riccati.innovation``; ``coefficients`` returns alpha_i = A - L_i C as
    a new array.
    """

    column = (1,)
    product = np.matmul

    def __init__(self, model: GaussMarkovModel):
        self.model = model
        self.gain_shape = (model.m, model.k)

    def initial(self, p0: np.ndarray) -> np.ndarray:
        return p0

    @staticmethod
    def masks(arrived: np.ndarray, out=None) -> np.ndarray:
        return arrived[..., None, None]

    def open_loop(self, p):
        return lyapunov_step(self.model, p, 1.0)

    def sense(self, p, g: float, lam):
        return innovation(self.model, p, g, lam)[1]

    def segment(self, p, arrivals, g: float, gains):
        covariances = [p]
        for gain, arrived in zip(gains, arrivals):
            if arrived is False:
                gain[...], p = 0.0, self.open_loop(p)
            else:
                gain[...], p = innovation(self.model, p, g, 1.0 if arrived is True else arrived)
            covariances.append(p)
        return covariances

    def coefficients(self, gains, w, noise, u):
        np.subtract(w[..., None], gains @ noise[..., None], out=u)
        return self.model.A - gains @ self.model.C, u


def _steps(model: GaussMarkovModel):
    return _ScalarSteps(model) if model.is_scalar else _MatrixSteps(model)


def _covariance_pass(steps, p, arrivals, g: float):
    """Yield P_{i+1} per arrival from P_i = p: ``False`` takes the open-loop
    step, ``True`` the sensing step with noise gain g, and a row of
    ``steps.masks`` one sensing step with the mask as lam, in which an
    erased trial's P_{i+1} is its open-loop step's.  The caller silences
    numpy's division by zero at P = 0."""
    for arrived in arrivals:
        p = steps.open_loop(p) if arrived is False else steps.sense(p, g, 1.0 if arrived is True else arrived)
        yield p


def filter_trials(model, policy, horizon: int, trials: int, seed: int, s0, p0):
    """Run ``trials`` filtered trajectories together; yield one block per segment.

    Trial t reads column t of the run's draw blocks (``draw_generators``):
    its true initial state s_0 is drawn from N(s0, P0) and the filter
    starts from (s0, P0).  Each block covers consecutive time indices from
    ``start`` (together 0..horizon) and is ``(start, errors, covariances,
    present, drive, noise)``: a time-major (rows, trials, m) array of the
    errors e_i = s_i - shat_i of the causal estimate, a list of the
    covariances P_i (one value while every trial shares it, else per
    trial), a (rows, trials) mask of the measurements z_i that arrived
    (none at time 0), the (rows, trials, m) truth inputs (s_0 at time 0,
    then w_{i-1}, so s_i = A s_{i-1} + w_{i-1}) and the (rows, trials, k)
    measurement noise sqrt(g) v_i of z_i = C s_i + sqrt(g) v_i, valid where
    the mask holds.  The arrays are buffers that the next block overwrites.
    The arguments are checked before this returns.
    """
    _check_counts(horizon, trials)
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.size != model.m:
        raise DimensionError(f"initial estimate must have length {model.m}, got {s0.size}")
    if not np.isfinite(s0).all():
        raise ParameterError(f"initial estimate must be finite, got {s0.tolist()}")
    p0 = check_initial_covariance(model, p0)
    return _recursion(model, policy, horizon, trials, seed, s0, p0)


def _recursion(model, policy, horizon: int, trials: int, seed: int, s0, p0):
    switching = policy.kind == "switching"
    initial, arrival, process, measurement = draw_generators(seed)
    lq, lr = psd_sqrt(model.Q).T, psd_sqrt(model.R).T
    g = 1.0 if switching else policy.value
    sensed = switching or not math.isinf(g)
    noise_gain = math.sqrt(g)
    # multi-beam trials, or a lone trial, share one covariance and gain path
    width = trials if switching and trials > 1 else 1

    steps = _steps(model)
    size = min(SEGMENT, horizon) + 1
    # row 0 of each segment buffer holds the time index before the segment
    drive = np.empty((size, trials, model.m))
    # never-sensed rows stay 0, so a zero gain times its noise is 0
    noise = np.zeros((size, trials, model.k))
    present = np.full((size, trials), sensed and not switching)
    errors = np.empty((size, trials, model.m) + steps.column)
    flat = errors.reshape(size, trials, model.m)
    raw = np.empty(size * trials * max(model.m, model.k))
    gains = np.empty((size - 1, width) + steps.gain_shape)
    head = initial.standard_normal((trials, model.m))
    drive[0] = s0 + (psd_sqrt(p0) @ head[..., None])[..., 0]
    np.subtract(drive[0], s0, out=flat[0])
    present[0] = False
    p = steps.initial(p0)
    for start in range(0, horizon, SEGMENT):
        rows = min(SEGMENT, horizon - start)
        # a segment draws the next rows of each block raw, then transforms them
        if switching:
            uniforms = arrival.random(out=raw[:rows * trials].reshape(rows, trials))
            np.less(uniforms, policy.value, out=present[1:rows + 1])
        ws = drive[1:rows + 1]
        steps.product(process.standard_normal(out=raw[:ws.size].reshape(ws.shape)), lq, out=ws)
        if sensed:
            vs = noise[1:rows + 1]
            steps.product(measurement.standard_normal(out=raw[:vs.size].reshape(vs.shape)), lr, out=vs)
            np.multiply(noise_gain, vs, out=vs)
        if not switching:
            arrivals = [sensed] * rows
        elif trials == 1:
            # a lone trial shares its arrival, which keeps P unbatched
            arrivals = present[:rows, 0].tolist()
        else:
            # the raw draws' buffer holds the arrivals until u_i overwrites it
            arrivals = list(steps.masks(present[:rows], raw[:rows * trials].reshape(rows, trials)))
        if start == 0:
            arrivals[0] = False
        with np.errstate(divide="ignore"):
            covariances = steps.segment(p, arrivals, g, gains[:rows])
        p = covariances[-1]
        # m_i L_i as a multiply: a masked write branches on a random mask and
        # is several times slower
        arrived = present[:rows, :width].reshape((rows, width) + (1,) * len(steps.gain_shape))
        np.multiply(gains[:rows], arrived, out=gains[:rows])
        # the error pass e_{i+1} = alpha_i e_i + u_i; u_i reuses the raw draws' buffer
        u = raw[:ws.size].reshape((rows, trials, model.m) + steps.column)
        alpha, u = steps.coefficients(gains[:rows], ws, noise[:rows], u)
        for alpha_j, u_j, e_j, e_next in zip(alpha, u, errors[:rows], errors[1:rows + 1]):
            steps.product(alpha_j, e_j, out=e_next)
            np.add(e_next, u_j, out=e_next)
        first = 0 if start == 0 else 1
        yield (
            start + first, flat[first:rows + 1], covariances[first:],
            present[first:rows + 1], drive[first:rows + 1], noise[first:rows + 1],
        )
        for buffer in (errors, present, noise):
            buffer[0] = buffer[rows]


def _check_counts(horizon: int, trials: int) -> None:
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")


def covariance_trials(model, lam: float, horizon: int, trials: int, seed: int, p0):
    """Every trial's P_i, i = 0..horizon, as (trials, m, m) arrays, from P_0 = p0.

    The cell's one arrival generator (``draw_generators``) gives each step
    ``trials`` uniforms, trial t's in column t, drawn in row chunks of at
    most ``SEGMENT`` rows and 2^15 covariance entries; step i senses where that
    uniform is below lam and takes the open-loop step otherwise.  At lam = 0
    (1) every trial shares the open-loop (sensing) path, and the other
    branch is never computed.  A chunk's steps are computed before any of
    them is yielded.  The arguments are checked before this returns.
    """
    check_range("lam", lam, 0, 1)
    _check_counts(horizon, trials)
    return _covariance_run(model, lam, horizon, trials, seed, check_initial_covariance(model, p0))


def _covariance_run(model, lam: float, horizon: int, trials: int, seed: int, p0):
    steps = _steps(model)
    shape = (trials, model.m, model.m)
    yield np.broadcast_to(p0, shape)
    chunk = min(SEGMENT, max(1, (1 << 15) // (trials * model.m * model.m)))
    rows = (min(chunk, horizon - start) for start in range(0, horizon, chunk))
    if lam in (0.0, 1.0):
        blocks = ([lam == 1.0] * n for n in rows)
    else:
        (rng,) = draw_generators(seed, cell=True)
        blocks = (steps.masks(rng.random((n, trials)) < lam) for n in rows)
    p = steps.initial(p0)
    for arrivals in blocks:
        # a block's steps run under one numpy error state, outside the yields
        with np.errstate(divide="ignore"):
            covariances = list(_covariance_pass(steps, p, arrivals, 1.0))
        for p in covariances:
            yield np.broadcast_to(np.reshape(p, (-1, model.m, model.m)), shape)


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
    ``filter_trials`` with one trial: the truth and the measurements are
    rebuilt from its noise rows, and the estimate is written as s_i - e_i.
    """
    run = filter_trials(model, policy, horizon, 1, seed, s0_estimate, p0)
    # the truth inputs, then (stepped in place) the states
    states = np.empty((horizon + 1, 1, model.m))
    errors = np.empty_like(states)
    noise = np.empty((horizon + 1, 1, model.k))
    present = np.empty(horizon + 1, dtype=bool)
    covariances = np.empty((horizon + 1, model.m, model.m))
    for start, e, covs, arrived, drive, nv in run:
        stop = start + len(covs)
        states[start:stop], errors[start:stop], noise[start:stop] = drive, e, nv
        present[start:stop] = arrived[:, 0]
        covariances[start:stop] = np.reshape(covs, (-1, model.m, model.m))
    # s_{i+1} = A s_i + w_i, z_i = C s_i + sqrt(g) v_i; a 1x1 product is one rounded multiply
    for i in range(horizon):
        np.add((model.A @ states[i][..., None])[..., 0], states[i + 1], out=states[i + 1])
    z = np.add((model.C @ states[..., None])[..., 0], noise, out=noise)[:, 0]
    measurements = [zi.copy() if on else None for zi, on in zip(z, present)]

    gamma = 1.0 if policy.kind == "switching" else policy.value
    gammas = np.where(present, gamma, math.inf)
    states, errors = states[:, 0], errors[:, 0]
    dists = np.sum(errors ** 2, axis=1)
    return Trajectory(states, measurements, gammas, states - errors, dists, covariances)

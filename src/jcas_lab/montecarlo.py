"""Monte Carlo validation of the covariance bounds and distortion accounting.

``expected_covariance_mc`` runs the stochastic covariance recursion with
Bernoulli measurement arrivals (covariance only -- the expected covariance
does not depend on the measurement values, which makes the check sharp and
fast) and compares the empirical mean at the horizon against the
finite-horizon lower/upper iterates S_n and V_n started from the same P0.

``empirical_block_distortion`` runs the full state/filter simulation and
averages the per-block distortion, the quantity the steady-state traces are
supposed to predict.

Both advance every trial together, one time step at a time.  Covariances
are held as ``(trials, 1)`` arrays for scalar models (stepped by the shared
``riccati_kernel``/``lyap_kernel``) or ``(trials, m, m)`` stacks (stepped by
``riccati_step``/``lyapunov_step``), states and estimates as
``(trials, m)``; ``np.where`` picks each trial's arrival branch.  Under a
multi-beam policy every trial follows the same covariance and gain path, so
that path is computed once.

Each result equals, bit for bit, running every trial on its own through the
same steps (for block distortion: ``run_filter`` per trial), because the
engine keeps these invariants:

* Seeds and draw order: trial t reads ``make_rng(seed XOR t)``.  A
  covariance cell draws ``horizon`` arrival uniforms; a filter run draws
  the initial state, then the switching uniforms, then the process-noise
  block, then the measurement-noise block, as ``run_filter`` does.
* Reductions over trials are centered and in fixed order: deviations from
  trial 0 are added sequentially in trial-index order (never in the
  pairwise order of ``np.sum``), so reruns are bit-identical and
  zero-variance cases reproduce the deterministic iterate exactly.
* A trial's block distortion is the mean of its contiguous row of
  per-letter distortions.

Memory: every draw block is read in time segments of ``SEGMENT`` steps,
from one saved generator state per block and trial; chunked ``random`` and
``standard_normal`` calls reproduce the one-shot stream.  The block engine
holds one ``trials x (horizon+1)`` float64 distortion matrix (a covariance
cell holds the same with ``per_step=True``) plus O(trials x SEGMENT) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .filtering import (
    derive_trial_seed,
    draw_blocks,
    gain_kernel,
    kalman_gain,
    make_rng,
)
from .riccati import BeamPolicy, critical_lambda, gamma_bs, riccati_kernel, riccati_step
from .statespace import (
    GaussMarkovModel,
    check_initial_covariance,
    lyap_kernel,
    lyapunov_step,
    psd_sqrt,
)

VERDICT_WITHIN = "within"
VERDICT_VIOLATED = "violated"

#: lam closer than this to the critical sensing probability gets flagged
NEAR_CRITICAL_BAND = 0.05


@dataclass
class McReport:
    """Sandwich check of the empirical mean covariance trace at one lam."""

    lam: float
    trials: int
    horizon: int
    empirical_mean_trace: float
    std_error: float
    s_bound_trace: float
    v_bound_trace: float
    verdict: str
    near_critical: bool = False
    infinite_band: bool = False
    per_step_mean: np.ndarray | None = None
    per_step_s: np.ndarray | None = None
    per_step_v: np.ndarray | None = None

    def band(self) -> tuple:
        return (
            self.s_bound_trace - 3.0 * self.std_error,
            self.v_bound_trace + 3.0 * self.std_error,
        )

    def to_text(self) -> str:
        lo, hi = self.band()
        lines = [
            f"lam={self.lam!r} trials={self.trials} horizon={self.horizon}",
            f"  empirical mean trace : {self.empirical_mean_trace!r}",
            f"  std error            : {self.std_error!r}",
            f"  lower bound tr(S_n)  : {self.s_bound_trace!r}",
            f"  upper bound tr(V_n)  : {self.v_bound_trace!r}",
            f"  3-sigma band         : [{lo!r}, {hi!r}]",
            f"  verdict              : {self.verdict}",
        ]
        if self.infinite_band:
            lines.append("  note: single trial, no variance estimate (infinite band)")
        if self.near_critical:
            lines.append("  note: near-critical sensing probability, interpret with care")
        return "\n".join(lines)


CSV_HEADER = (
    "lam,trials,horizon,empirical_mean_trace,std_error,"
    "s_bound_trace,v_bound_trace,verdict,near_critical,infinite_band"
)


def mc_report_csv_row(report: McReport) -> str:
    return (
        f"{report.lam!r},{report.trials},{report.horizon},"
        f"{report.empirical_mean_trace!r},{report.std_error!r},"
        f"{report.s_bound_trace!r},{report.v_bound_trace!r},"
        f"{report.verdict},{1 if report.near_critical else 0},"
        f"{1 if report.infinite_band else 0}"
    )


def write_per_step_csv(report: McReport, path, comment: str | None = None) -> None:
    """Long-format per-step traces: i, mean_trace, s_bound, v_bound."""
    if report.per_step_mean is None:
        raise ParameterError("report was built without per-step traces")
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("i,mean_trace,s_bound,v_bound")
    for i in range(len(report.per_step_mean)):
        lines.append(
            f"{i},{float(report.per_step_mean[i])!r},"
            f"{float(report.per_step_s[i])!r},{float(report.per_step_v[i])!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


#: time steps per draw segment
SEGMENT = 500

#: values per chunk of the centered trial accumulation
_ACCUMULATE_CHUNK = 1 << 14


def _centered_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the leading trial axis by fixed-order accumulation.

    Deviations from trial 0 are added in trial order (``np.add.accumulate``
    over row chunks, sequential by definition).  Identical trials give back
    trial 0 bit for bit, which keeps the zero-variance sanity cases exact.
    """
    ref = values[0]
    acc = np.zeros_like(ref)
    rows = max(1, _ACCUMULATE_CHUNK // ref.size)
    for start in range(0, len(values), rows):
        chunk = np.concatenate([acc[None], values[start:start + rows] - ref])
        acc = np.add.accumulate(chunk, axis=0)[-1]
    return ref + acc / len(values)


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
    while every trial shares it.
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
        return riccati_kernel(self.a, self.c, self.q, self.r, p, g)

    def gain(self, p, g: float):
        return gain_kernel(self.c, self.r, p, g)

    def apply(self, gain, innovation):
        return gain * innovation

    def trace(self, p):
        return p[..., 0]


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
        return riccati_step(self.model, p, g)

    def gain(self, p, g: float):
        return kalman_gain(self.model, p, g)

    def apply(self, gain, innovation):
        return (gain @ innovation[..., None])[..., 0]

    def trace(self, p):
        return np.trace(p, axis1=-2, axis2=-1)


def _steps(model: GaussMarkovModel):
    return _ScalarSteps(model) if model.is_scalar else _MatrixSteps(model)


def expected_covariance_mc(
    model: GaussMarkovModel,
    lam: float,
    horizon: int,
    trials: int,
    seed: int,
    p0=None,
    per_step: bool = False,
    critical: float | None = None,
) -> McReport:
    """Empirical E[P_n] under Bernoulli(lam) arrivals vs the S_n/V_n iterates.

    Each trial iterates the covariance recursion for ``horizon`` steps,
    taking the full-measurement step on arrival and the open-loop step
    otherwise.  The verdict checks
    tr(S_n) - 3 SE <= tr(mean P_n) <= tr(V_n) + 3 SE.
    ``p0`` (default Q) must be m x m and PSD.
    ``critical`` may pass a precomputed critical sensing probability for the
    near-critical flag; None computes it (coarsely), math.nan disables it.
    """
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    p0 = model.Q.copy() if p0 is None else check_initial_covariance(model, p0)

    # deterministic finite-horizon bounds from the same starting covariance
    s_seq = [p0]
    v_seq = [p0]
    for _ in range(horizon):
        s_seq.append(lyapunov_step(model, s_seq[-1], 1.0 - lam))
        v_seq.append(gamma_bs(v_seq[-1], lam, model))

    steps = _steps(model)
    p = steps.initial(p0)
    track = np.empty((trials, horizon + 1)) if per_step else None
    if per_step:
        track[:, 0] = float(np.trace(p0))
    draws = _TrialDraws(seed, trials, 0, horizon, [lambda rng, rows: rng.random(rows) < lam])
    for (start, stop), (arrivals,) in draws.segments():
        for j in range(stop - start):
            p = _pick(arrivals[:, j], steps.sense(p, 1.0), steps.open_loop(p), steps.core)
            if per_step:
                track[:, start + j + 1] = steps.trace(p)

    traces = steps.trace(p)
    if trials > 1:
        std_error = float(np.std(traces, ddof=1) / math.sqrt(trials))
        infinite_band = False
    else:
        std_error = math.inf
        infinite_band = True

    emp = float(steps.trace(_centered_mean(p)))
    s_trace = float(np.trace(s_seq[-1]))
    v_trace = float(np.trace(v_seq[-1]))
    within = (s_trace - 3.0 * std_error) <= emp <= (v_trace + 3.0 * std_error)

    if critical is None:
        critical = critical_lambda(model, bisect_tol=1e-3)
    near = (not math.isnan(critical)) and abs(lam - critical) < NEAR_CRITICAL_BAND

    per_mean = per_s = per_v = None
    if per_step:
        per_mean = _centered_mean(track)
        per_s = np.array([float(np.trace(s)) for s in s_seq])
        per_v = np.array([float(np.trace(v)) for v in v_seq])

    return McReport(
        lam=lam,
        trials=trials,
        horizon=horizon,
        empirical_mean_trace=emp,
        std_error=std_error,
        s_bound_trace=s_trace,
        v_bound_trace=v_trace,
        verdict=VERDICT_WITHIN if within else VERDICT_VIOLATED,
        near_critical=near,
        infinite_band=infinite_band,
        per_step_mean=per_mean,
        per_step_s=per_s,
        per_step_v=per_v,
    )


@dataclass
class BlockDistortionReport:
    """Trial-averaged per-block distortion with a 3-sigma band."""

    trials: int
    horizon: int
    mean: float
    std_error: float
    per_index_mean: np.ndarray = field(repr=False, default=None)

    def ci3(self) -> tuple:
        return (self.mean - 3.0 * self.std_error, self.mean + 3.0 * self.std_error)


def _filter_step(steps, arrived, est, z, p, g: float):
    """Absorb the measurement z taken with gain g, then predict one step.

    ``arrived`` is a bool shared by every trial or a per-trial mask; an
    erased measurement leaves the estimate and takes the open-loop
    covariance step.  Returns the next (estimate, covariance).
    """
    if arrived is False:
        return steps.predict(est), steps.open_loop(p)
    updated = est + steps.apply(steps.gain(p, g), z - steps.observe(est))
    p_next = steps.sense(p, g)
    if arrived is not True:
        updated = _pick(arrived, updated, est, 1)
        p_next = _pick(arrived, p_next, steps.open_loop(p), steps.core)
    return steps.predict(updated), p_next


def empirical_block_distortion(
    model: GaussMarkovModel,
    policy: BeamPolicy,
    horizon: int,
    trials: int,
    seed: int,
    s0_mean,
    s0_cov,
) -> BlockDistortionReport:
    """Average block distortion over independent filtered trajectories.

    The initial true state is drawn from N(s0_mean, s0_cov) and the filter
    starts from the matching estimate/covariance pair; each trial is the
    trajectory ``run_filter`` gives for seed ``seed XOR t``.  Also returns
    the per-index mean distortion sequence for tracking-loss monitoring.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    s0 = np.asarray(s0_mean, dtype=float).reshape(-1)
    if s0.size != model.m:
        raise DimensionError(f"s0_mean must have length {model.m}, got {s0.size}")
    p0 = check_initial_covariance(model, s0_cov)

    switching = policy.kind == "switching"
    draws = _TrialDraws(seed, trials, model.m, horizon, draw_blocks(model, policy))
    g = 1.0 if switching else policy.value
    noise_gain = math.sqrt(g)

    steps = _steps(model)
    state = s0 + (psd_sqrt(p0) @ draws.head[..., None])[..., 0]
    est = s0
    p = steps.initial(p0)
    dist = np.empty((trials, horizon + 1))
    dist[:, 0] = np.sum((state - est) ** 2, axis=1)
    # the measurement of the previous time index; none at time 0
    z, arrived = None, False
    for (start, stop), drawn in draws.segments():
        w, v = drawn[-2:]
        for j in range(stop - start):
            est, p = _filter_step(steps, arrived, est, z, p, g)
            state = steps.predict(state) + w[:, j]
            # a copy: the next step reads it after the buffer may be refilled
            arrived = drawn[0][:, j].copy() if switching else not math.isinf(g)
            if arrived is not False:
                z = steps.observe(state) + noise_gain * v[:, j]
            dist[:, start + j + 1] = np.sum((state - est) ** 2, axis=1)

    blocks = np.array([np.mean(row) for row in dist])
    mean = float(_centered_mean(blocks))
    if trials > 1:
        std_error = float(np.std(blocks, ddof=1) / math.sqrt(trials))
    else:
        std_error = math.inf
    return BlockDistortionReport(trials, horizon, mean, std_error, _centered_mean(dist))


def tracking_loss_monitor(per_index_distortion, threshold: float):
    """First index whose mean distortion exceeds the loss threshold, else None."""
    if not (threshold > 0.0):
        raise ParameterError(f"loss threshold must be positive, got {threshold}")
    for i, value in enumerate(per_index_distortion):
        if value > threshold:
            return i
    return None

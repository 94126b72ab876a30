"""Monte Carlo validation of the covariance bounds and distortion accounting.

``expected_covariance_mc`` runs the stochastic covariance recursion with
Bernoulli measurement arrivals (covariance only -- the expected covariance
does not depend on the measurement values, which makes the check sharp and
fast) and compares the empirical mean at the horizon against the
finite-horizon lower/upper iterates S_n and V_n started from the same P0;
the caller passes the critical probability of its near-critical flag.

``empirical_block_distortion`` runs the filter and averages the per-block
distortion, the quantity the steady-state traces are supposed to predict.
The filter recursion ``filtering.filter_trials`` simulates the estimation
error e_i = s_i - shat_i itself, never the raw state, so the per-letter
distortion |e_i|^2 keeps its digits on unstable models, where s_i grows
like |a|^i.

Both advance every trial together through ``filtering``, which owns the
draws: a covariance cell runs ``filtering.covariance_trials`` one time step
at a time, and block distortion runs ``filtering.filter_trials`` in segment
passes.  Each result equals, bit for bit, the per-trial loops in
``tests/mc_reference.py``, because:

* Seeds and draw order: every draw block of a run has one generator, drawn
  time-major, and trial t reads column t of each block, in the order the
  ``filtering`` module docstring gives.  Different seeds give independent
  runs; a trial's draws depend on the run's trial count.
* Reductions over trials are centered and in fixed order: deviations from
  trial 0 are added sequentially in trial-index order (never in the
  pairwise order of ``np.sum``), so reruns are bit-identical and
  zero-variance cases reproduce the deterministic iterate exactly.
* A trial's block distortion is the mean of its contiguous row of
  per-letter distortions.

Memory: the block engine holds one ``trials x (horizon+1)`` float64
distortion matrix, into which each segment of ``filtering.filter_trials``
writes |e_i|^2 in one expression, plus one generator per draw block and
O(trials x SEGMENT) segment buffers.  A covariance cell holds the same
matrix with ``per_step=True``, one generator and, for at most 2^15
covariance entries, their arrival uniforms, caps and covariances
(``filtering``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filtering import covariance_trials, filter_trials
from .riccati import BeamPolicy, gamma_bs, iterate_map
from .statespace import GaussMarkovModel, lyapunov_step

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
        return _band(self.s_bound_trace, self.v_bound_trace, self.std_error)


def _band(s_trace: float, v_trace: float, std_error: float) -> tuple:
    """[tr(S_n) - 3 SE, tr(V_n) + 3 SE]; the whole line when SE is infinite."""
    if math.isinf(std_error):
        return (-math.inf, math.inf)
    return (s_trace - 3.0 * std_error, v_trace + 3.0 * std_error)


#: values per chunk of the centered trial accumulation
_ACCUMULATE_CHUNK = 1 << 14

#: trials with at least this many values are added one row at a time
_WIDE_ROW = 256


def _centered_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the leading trial axis by fixed-order accumulation.

    Deviations from trial 0 are added in trial order: wide trials one
    vectorized row add each, narrow ones by ``np.add.accumulate`` over row
    chunks, sequential by definition, whose inner loop runs down a chunk's
    rows.  Identical trials give back trial 0 bit for bit, which keeps the
    zero-variance sanity cases exact.  An entry with a +inf trial and no
    nan one has mean +inf (a +inf trial 0 would make the deviations
    inf - inf).
    """
    ref = values[0]
    acc = np.zeros_like(ref)
    with np.errstate(invalid="ignore"):
        if ref.size >= _WIDE_ROW:
            for row in values:
                acc += row - ref
        else:
            rows = _ACCUMULATE_CHUNK // ref.size
            for start in range(0, len(values), rows):
                chunk = np.concatenate([acc[None], values[start:start + rows] - ref])
                acc = np.add.accumulate(chunk, axis=0)[-1]
    mean = ref + acc / len(values)
    if np.isnan(mean).any():
        overflow = np.isposinf(values).any(axis=0) & ~np.isnan(values).any(axis=0)
        mean = np.where(overflow, math.inf, mean)
    return mean


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean over trials: inf for a single trial or
    any non-finite value, whose spread is unknown, and 0 for identical
    trials (``np.std`` rounds their mean and can leave about 1e-17)."""
    if len(values) == 1 or not np.isfinite(values).all():
        return math.inf
    if values.min() == values.max():
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def expected_covariance_mc(
    model: GaussMarkovModel,
    lam: float,
    horizon: int,
    trials: int,
    seed: int,
    p0=None,
    per_step: bool = False,
    critical: float = math.nan,
) -> McReport:
    """Empirical E[P_n] under Bernoulli(lam) arrivals vs the S_n/V_n iterates.

    Each trial iterates the covariance recursion for ``horizon`` steps,
    taking the full-measurement step on arrival and the open-loop step
    otherwise.  The verdict checks
    tr(S_n) - 3 SE <= tr(mean P_n) <= tr(V_n) + 3 SE.
    ``p0`` (default Q) must be m x m and PSD; ``covariance_trials``
    checks every argument before any work.
    ``critical``, the critical sensing probability, turns on the near-critical
    flag; the default math.nan leaves it off.
    """
    p0 = model.Q if p0 is None else p0
    cells = covariance_trials(model, lam, horizon, trials, seed, p0)

    # traces of the deterministic finite-horizon bounds S_i and V_i from the
    # same starting covariance, one running iterate each
    s_iterates = iterate_map(lambda p: lyapunov_step(model, p, 1.0 - lam), p0, horizon)
    v_iterates = iterate_map(lambda p: gamma_bs(p, lam, model), p0, horizon)
    s_traces = np.fromiter(map(np.trace, s_iterates), float, horizon + 1)
    v_traces = np.fromiter(map(np.trace, v_iterates), float, horizon + 1)

    track = np.empty((trials, horizon + 1)) if per_step else None
    for i, p in enumerate(cells):
        if per_step:
            track[:, i] = np.trace(p, axis1=1, axis2=2)

    std_error = _std_error(np.trace(p, axis1=1, axis2=2))
    emp = float(np.trace(_centered_mean(p)))
    s_trace, v_trace = float(s_traces[-1]), float(v_traces[-1])
    lo, hi = _band(s_trace, v_trace, std_error)

    per_mean = per_s = per_v = None
    if per_step:
        per_mean, per_s, per_v = _centered_mean(track), s_traces, v_traces

    return McReport(
        lam=lam,
        trials=trials,
        horizon=horizon,
        empirical_mean_trace=emp,
        std_error=std_error,
        s_bound_trace=s_trace,
        v_bound_trace=v_trace,
        verdict=VERDICT_WITHIN if lo <= emp <= hi else VERDICT_VIOLATED,
        near_critical=abs(lam - critical) < NEAR_CRITICAL_BAND,
        infinite_band=trials == 1,
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
        return _band(self.mean, self.mean, self.std_error)


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
    starts from the matching estimate/covariance pair; trial t is column t
    of the run's draw blocks (``filtering.filter_trials``).  Also returns
    the per-index mean distortion sequence.
    """
    run = filter_trials(model, policy, horizon, trials, seed, s0_mean, s0_cov)
    dist = np.empty((trials, horizon + 1))
    for start, errors, *_ in run:
        np.sum(errors ** 2, axis=2, out=dist[:, start:start + len(errors)].T)

    blocks = dist.mean(axis=1)
    mean = float(_centered_mean(blocks))
    return BlockDistortionReport(trials, horizon, mean, _std_error(blocks), _centered_mean(dist))


"""Monte Carlo validation of the covariance bounds and distortion accounting.

``expected_covariance_mc`` runs the stochastic covariance recursion with
Bernoulli measurement arrivals (covariance only -- the expected covariance
does not depend on the measurement values, which makes the check sharp and
fast) and compares the empirical mean at the horizon against the
finite-horizon lower/upper iterates S_n and V_n started from the same P0.

``empirical_block_distortion`` runs the full state/filter simulation and
averages the per-block distortion, the quantity the steady-state traces are
supposed to predict.

Both advance every trial together through ``filtering``, which owns the
draws: a covariance cell runs ``filtering.covariance_trials`` one time step
at a time, and block distortion runs the filter recursion
``filtering.filter_trials`` in segment passes.  Each result equals, bit for
bit, the per-trial loops in ``tests/mc_reference.py``, because:

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
writes its distortions in one expression, plus one generator per draw
block and O(trials x SEGMENT) segment buffers.  A covariance cell holds
the same matrix with ``per_step=True``, one generator and one step's
``trials`` uniforms (``filtering``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .filtering import covariance_trials, filter_trials
from .riccati import BeamPolicy, critical_lambda, gamma_bs, iterate_map
from .statespace import GaussMarkovModel, check_initial_covariance, lyapunov_sequence

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


def _band(s_trace: float, v_trace: float, std_error: float) -> tuple:
    """[tr(S_n) - 3 SE, tr(V_n) + 3 SE]; the whole line when SE is infinite."""
    if math.isinf(std_error):
        return (-math.inf, math.inf)
    return (s_trace - 3.0 * std_error, v_trace + 3.0 * std_error)


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


#: values per chunk of the centered trial accumulation
_ACCUMULATE_CHUNK = 1 << 14


def _centered_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the leading trial axis by fixed-order accumulation.

    Deviations from trial 0 are added in trial order (``np.add.accumulate``
    over row chunks, sequential by definition).  Identical trials give back
    trial 0 bit for bit, which keeps the zero-variance sanity cases exact.
    An entry with a +inf trial and no nan one has mean +inf (a +inf trial 0
    would make the deviations inf - inf).
    """
    ref = values[0]
    acc = np.zeros_like(ref)
    rows = max(1, _ACCUMULATE_CHUNK // ref.size)
    with np.errstate(invalid="ignore"):
        for start in range(0, len(values), rows):
            chunk = np.concatenate([acc[None], values[start:start + rows] - ref])
            acc = np.add.accumulate(chunk, axis=0)[-1]
    mean = ref + acc / len(values)
    if np.isnan(mean).any():
        overflow = np.isposinf(values).any(axis=0) & ~np.isnan(values).any(axis=0)
        mean = np.where(overflow, math.inf, mean)
    return mean


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
    s_seq = lyapunov_sequence(model, 1.0 - lam, horizon, p0)
    v_seq = iterate_map(lambda p: gamma_bs(p, lam, model), p0, horizon)

    track = np.empty((trials, horizon + 1)) if per_step else None
    for i, p in enumerate(covariance_trials(model, lam, horizon, trials, seed, p0)):
        if per_step:
            track[:, i] = np.trace(p, axis1=1, axis2=2)

    traces = np.trace(p, axis1=1, axis2=2)
    infinite_band = trials == 1
    if infinite_band or not np.isfinite(traces).all():
        std_error = math.inf
    else:
        std_error = float(np.std(traces, ddof=1) / math.sqrt(trials))

    emp = float(np.trace(_centered_mean(p)))
    s_trace = float(np.trace(s_seq[-1]))
    v_trace = float(np.trace(v_seq[-1]))
    lo, hi = _band(s_trace, v_trace, std_error)

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
        verdict=VERDICT_WITHIN if lo <= emp <= hi else VERDICT_VIOLATED,
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
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    run = filter_trials(model, policy, horizon, trials, seed, s0_mean, s0_cov)
    dist = np.empty((trials, horizon + 1))
    for start, states, estimates, *_ in run:
        np.sum((states - estimates) ** 2, axis=2, out=dist[:, start:start + len(states)].T)

    blocks = np.array([np.mean(row) for row in dist])
    mean = float(_centered_mean(blocks))
    if trials > 1:
        std_error = float(np.std(blocks, ddof=1) / math.sqrt(trials))
    else:
        std_error = math.inf
    return BlockDistortionReport(trials, horizon, mean, std_error, _centered_mean(dist))


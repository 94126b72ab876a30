"""Rate-distortion curve construction for the two beam strategies.

Beam switching spends a fraction lam of channel uses sensing, so its rate is
(1 - lam) times the channel's full rate and its distortion is bracketed by
the traces of the S-bar (lower/outer) and V-bar (upper/inner) steady states.
Multi-beam senses every step with gain gamma0 and communicates with the
complementary power fraction, giving an exact curve.

A curve is solved, traced and ordered as arrays and stays arrays: the fixed
points of a whole grid come from one solve (``riccati.vbar_traces``,
``sbar_traces``, ``mb_traces``), their traces from one stacked trace with
+inf where they diverge, and the order from one stable sort by distortion,
ties by param.  ``bs_arrays`` and ``mb_arrays`` return each curve as its
sorted columns (a ``Curve``), which ``dominance_report`` and the CLI read;
``bs_curve`` and ``mb_curve`` are their point-list view.  Beam-switching
rates are one array product; multi-beam rates stay one point at a time
through ``math.log1p``, since numpy's vectorized log1p can round
differently and would move output bits.

Rates are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ParameterError
from .riccati import mb_traces, sbar_traces, vbar_traces
from .statespace import GaussMarkovModel, check_range


@dataclass(frozen=True)
class ChannelSpec:
    """Communication channel: noiseless with per-use rate c0, or Gaussian.

    The noiseless default c0 = ln 2 is one bit per use; presets that
    normalize the full rate to 1 pass c0 = 1.0 explicitly.
    """

    kind: str
    c0: float = math.log(2.0)
    snr_db: float = 0.0

    def __post_init__(self):
        if self.kind == "noiseless":
            if not (self.c0 > 0.0) or not math.isfinite(self.c0):
                raise ParameterError(f"noiseless rate c0 must be positive, got {self.c0}")
        elif self.kind == "gaussian":
            if not math.isfinite(self.snr_db):
                raise ParameterError(f"snr_db must be finite, got {self.snr_db}")
            try:
                snr_linear(self.snr_db)
            except OverflowError:
                raise ParameterError(f"snr_db must keep 10^(snr_db / 10) finite, got {self.snr_db}") from None
        else:
            raise ParameterError(f"unknown channel kind {self.kind!r}")

    @classmethod
    def noiseless(cls, c0: float = math.log(2.0)) -> "ChannelSpec":
        return cls(kind="noiseless", c0=float(c0))

    @classmethod
    def gaussian(cls, snr_db: float) -> "ChannelSpec":
        return cls(kind="gaussian", snr_db=float(snr_db))

    def describe(self) -> str:
        if self.kind == "noiseless":
            return f"noiseless(c0={self.c0!r})"
        return f"gaussian(snr_db={self.snr_db!r})"


@dataclass(frozen=True)
class RateDistortionPoint:
    """One (rate, distortion) sample of a curve.

    bound_kind is 'inner' (achievable side), 'outer' (converse side) or
    'exact'; param records the lam or gamma0 that generated the point.
    Divergent operating points keep their grid slot with infinite distortion
    so the divergence region stays visible.
    """

    rate: float
    distortion: float
    bound_kind: str
    param: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.distortion)


def snr_linear(snr_db: float) -> float:
    """Decibels to linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


def full_rate(channel: ChannelSpec) -> float:
    """Rate with every channel use communicating (lam=0 / gamma0=inf)."""
    if channel.kind == "noiseless":
        return channel.c0
    return 0.5 * math.log1p(snr_linear(channel.snr_db))


def bs_rate(channel: ChannelSpec, lam: float) -> float:
    """Beam-switching rate (1 - lam) * full rate, in nats."""
    return (1.0 - check_range("lam", lam, 0, 1)) * full_rate(channel)


def mb_rate(channel: ChannelSpec, gamma0: float) -> float:
    """Multi-beam Gaussian rate 0.5 * ln(1 + ((gamma0-1)/gamma0) * snr), nats.

    Defined for the Gaussian channel only; gamma0 = 1 puts all power into
    sensing (rate 0) and gamma0 = infinity recovers the full rate.
    """
    if channel.kind != "gaussian":
        raise ParameterError("multi-beam rate is defined for the gaussian channel only")
    if math.isinf(check_range("gamma", gamma0, 1, math.inf)):
        return full_rate(channel)
    return 0.5 * math.log1p(((gamma0 - 1.0) / gamma0) * snr_linear(channel.snr_db))


@dataclass(frozen=True, eq=False)
class Curve:
    """A curve as columns, one entry per grid point, in one stable order: by
    distortion, ties by param.  Divergent points keep their slot with
    distortion +inf.  bound_kind is shared by every point (see
    ``RateDistortionPoint``)."""

    params: np.ndarray
    rates: np.ndarray
    distortions: np.ndarray
    bound_kind: str


def _sorted(rates: np.ndarray, dists: np.ndarray, kind: str, params: np.ndarray) -> Curve:
    """The columns of a curve in its order: by distortion, ties by param."""
    order = np.lexsort((params, dists))
    return Curve(params[order], rates[order], dists[order], kind)


def _points(curve: Curve) -> list:
    """A curve's points, in its order; the only place a point is made."""
    columns = curve.rates.tolist(), curve.distortions.tolist(), repeat(curve.bound_kind), curve.params.tolist()
    return list(map(RateDistortionPoint, *columns))


def bs_arrays(model: GaussMarkovModel, channel: ChannelSpec, lambda_grid):
    """Inner (V-bar) and outer (S-bar) beam-switching curves over a lam grid,
    as a pair of ``Curve``.  Grid values whose steady state diverges -- or
    sits too close to the divergence boundary to resolve -- are flagged with
    infinite distortion.  Each bound solves and traces the whole grid as
    arrays."""
    lams = np.asarray(lambda_grid, dtype=float)
    rates = (1.0 - lams) * full_rate(channel)
    inner = _sorted(rates, vbar_traces(lams, model), "inner", lams)
    return inner, _sorted(rates, sbar_traces(lams, model), "outer", lams)


def mb_arrays(model: GaussMarkovModel, channel: ChannelSpec, gamma_grid) -> Curve:
    """Exact multi-beam curve over a gamma grid as a ``Curve``.  Rates are
    taken per point by ``mb_rate``."""
    gammas = np.asarray(gamma_grid, dtype=float)
    rates = np.array([mb_rate(channel, gamma) for gamma in gammas.tolist()])
    return _sorted(rates, mb_traces(gammas, model), "exact", gammas)


def bs_curve(model: GaussMarkovModel, channel: ChannelSpec, lambda_grid):
    """``bs_arrays`` as (inner_points, outer_points), each a list of
    ``RateDistortionPoint`` sorted by distortion, ties by lam."""
    return tuple(map(_points, bs_arrays(model, channel, lambda_grid)))


def mb_curve(model: GaussMarkovModel, channel: ChannelSpec, gamma_grid) -> list:
    """``mb_arrays`` as a list of ``RateDistortionPoint`` sorted by
    distortion, ties by gamma."""
    return _points(mb_arrays(model, channel, gamma_grid))


@dataclass
class DominanceReport:
    """Piecewise-linear rate comparison of two curves on a distortion grid."""

    distortions: np.ndarray
    rates_a: np.ndarray
    rates_b: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.rates_a - self.rates_b

    @property
    def n_a_ge_b(self) -> int:
        return int(np.sum(self.gaps >= -1e-12))

    @property
    def n_b_gt_a(self) -> int:
        return int(np.sum(self.gaps < -1e-12))

    @property
    def empty(self) -> bool:
        return self.distortions.size == 0


def _interp_arrays(curve: Curve):
    """(distortions, rates) of a curve's finite points, sorted by distortion;
    a run of equal distortions keeps its largest rate."""
    d, r = curve.distortions, curve.rates
    finite = np.isfinite(d)
    d, r = d[finite], r[finite]
    order = np.lexsort((r, d))
    d, r = d[order], r[order]
    if not d.size:
        return d, r
    starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    return d[starts], np.maximum.reduceat(r, starts)


def dominance_report(curve_a: Curve, curve_b: Curve, n_points: int) -> DominanceReport:
    """rate_a(d) - rate_b(d) at n_points distortions, by linear interpolation
    between the finite points of two ``Curve``.

    The distortions span [lo, hi], the finite distortions both curves reach,
    log-spaced when lo > 0 and linear otherwise; rounding can push an
    interior point of a span a few ulps wide out of it, and such a point is
    dropped.  The report is empty unless lo < hi and each curve has at least
    two distinct finite distortions.
    """
    da, ra = _interp_arrays(curve_a)
    db, rb = _interp_arrays(curve_b)
    lo, hi = (max(da[0], db[0]), min(da[-1], db[-1])) if da.size > 1 and db.size > 1 else (0.0, 0.0)
    if not lo < hi:
        return DominanceReport(np.array([]), np.array([]), np.array([]))
    grid = (np.geomspace if lo > 0 else np.linspace)(lo, hi, n_points)
    grid = grid[(grid >= lo) & (grid <= hi)]
    return DominanceReport(grid, np.interp(grid, da, ra), np.interp(grid, db, rb))

"""Rate-distortion curve construction for the two beam strategies.

Beam switching spends a fraction lam of channel uses sensing, so its rate is
(1 - lam) times the channel's full rate and its distortion is bracketed by
the traces of the S-bar (lower/outer) and V-bar (upper/inner) steady states.
Multi-beam senses every step with gain gamma0 and communicates with the
complementary power fraction, giving an exact curve.

Rates are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .riccati import mb_sweep, sbar_sweep, trace_or_inf, vbar_sweep
from .statespace import GaussMarkovModel


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
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    return (1.0 - lam) * full_rate(channel)


def mb_rate(channel: ChannelSpec, gamma0: float) -> float:
    """Multi-beam Gaussian rate 0.5 * ln(1 + ((gamma0-1)/gamma0) * snr), nats.

    Defined for the Gaussian channel only; gamma0 = 1 puts all power into
    sensing (rate 0) and gamma0 = infinity recovers the full rate.
    """
    if channel.kind != "gaussian":
        raise ParameterError("multi-beam rate is defined for the gaussian channel only")
    if math.isnan(gamma0) or gamma0 < 1.0:
        raise ParameterError(f"gamma0 must lie in [1, inf], got {gamma0}")
    snr = snr_linear(channel.snr_db)
    if math.isinf(gamma0):
        return 0.5 * math.log1p(snr)
    return 0.5 * math.log1p(((gamma0 - 1.0) / gamma0) * snr)


def _sorted_points(points):
    return sorted(points, key=lambda p: (p.distortion, p.param))


def bs_curve(model: GaussMarkovModel, channel: ChannelSpec, lambda_grid):
    """Inner (V-bar) and outer (S-bar) beam-switching curves over a lam grid.

    Returns (inner_points, outer_points), each sorted by distortion.  Grid
    values whose steady state diverges -- or sits too close to the
    divergence boundary to resolve -- are flagged with infinite distortion.
    Each bound solves the whole grid in one sweep.
    """
    lams = [float(lam) for lam in lambda_grid]
    rates = [bs_rate(channel, lam) for lam in lams]
    inner = [
        RateDistortionPoint(rate, trace_or_inf(v), "inner", lam)
        for rate, v, lam in zip(rates, vbar_sweep(lams, model), lams)
    ]
    outer = [
        RateDistortionPoint(rate, trace_or_inf(s), "outer", lam)
        for rate, s, lam in zip(rates, sbar_sweep(lams, model), lams)
    ]
    return _sorted_points(inner), _sorted_points(outer)


def mb_curve(model: GaussMarkovModel, channel: ChannelSpec, gamma_grid):
    """Exact multi-beam curve over a gamma grid, sorted by distortion."""
    gammas = [float(gamma) for gamma in gamma_grid]
    rates = [mb_rate(channel, gamma) for gamma in gammas]
    return _sorted_points(
        RateDistortionPoint(rate, trace_or_inf(fp), "exact", gamma)
        for rate, fp, gamma in zip(rates, mb_sweep(gammas, model), gammas)
    )


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


def _interp_arrays(points):
    finite = [(p.distortion, p.rate) for p in points if p.finite]
    finite.sort()
    dist = []
    rate = []
    for d, r in finite:
        if dist and d == dist[-1]:
            rate[-1] = max(rate[-1], r)
            continue
        dist.append(d)
        rate.append(r)
    return np.array(dist), np.array(rate)


def _overlap(da: np.ndarray, db: np.ndarray):
    """(lo, hi), lo <= hi, the span of two sorted distortion arrays of at
    least two points each; None when there is no such span."""
    if da.size < 2 or db.size < 2:
        return None
    lo, hi = max(da[0], db[0]), min(da[-1], db[-1])
    return (lo, hi) if lo <= hi else None


def distortion_overlap(curve_a, curve_b):
    """(lo, hi), the finite distortions both curves reach, or None when
    they share none (or either has fewer than two distinct ones)."""
    return _overlap(_interp_arrays(curve_a)[0], _interp_arrays(curve_b)[0])


def dominance_report(curve_a, curve_b, distortion_grid) -> DominanceReport:
    """rate_a(d) - rate_b(d) on shared grid points, linear interpolation.

    Grid points outside the finite-distortion overlap of the two curves
    (``distortion_overlap``) are dropped; with no overlap the report is empty.
    """
    da, ra = _interp_arrays(curve_a)
    db, rb = _interp_arrays(curve_b)
    span = _overlap(da, db)
    grid = np.asarray(list(distortion_grid), dtype=float)
    sel = grid[(grid >= span[0]) & (grid <= span[1])] if span else grid[:0]
    if sel.size == 0:
        return DominanceReport(np.array([]), np.array([]), np.array([]))
    return DominanceReport(sel, np.interp(sel, da, ra), np.interp(sel, db, rb))

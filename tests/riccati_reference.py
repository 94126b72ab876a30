"""Per-point reference loops for the stacked fixed-point sweeps.

Each function solves one grid point at a time with a single covariance,
the way the sweep results are defined: the matrix classifier steps one
m x m covariance through ``gamma_bs``/``riccati_step`` with a float lam or
gamma, keeps the last 64 step sizes, and at the cap lets their trend decide.
V-bar probes are iterated even where S-bar diverges, so the divergence
short-circuit is checked too.  Tests compare the sweeps with these loops by
exact equality.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from jcas_lab.errors import ConvergenceError
from jcas_lab.riccati import TRACE_DIVERGENCE, _tail_growing, gamma_bs, riccati_step
from jcas_lab.statespace import solve_scaled_lyapunov

CONVERGED = "converged"
DIVERGED = "diverged"
UNDECIDED = "undecided"


def classify_matrix(step, p0: np.ndarray, tol: float, max_iter: int):
    """(status, value, window) of one fixed-point iteration from p0."""
    p = p0
    window = deque(maxlen=64)
    for _ in range(max_iter):
        pn = step(p)
        tr = float(np.trace(pn))
        if not math.isfinite(tr) or tr > TRACE_DIVERGENCE:
            return DIVERGED, None, window
        d = float(np.max(np.abs(pn - p)))
        if d < tol:
            return CONVERGED, pn, window
        window.append(d)
        p = pn
    if _tail_growing(window):
        return DIVERGED, None, window
    return UNDECIDED, p, window


def _start(model, p0):
    return model.Q.copy() if p0 is None else np.atleast_2d(np.asarray(p0, dtype=float))


def classify_bs(model, lam: float, tol: float = 1e-12, max_iter: int = 1_000_000, p0=None):
    return classify_matrix(lambda p: gamma_bs(p, lam, model), _start(model, p0), tol, max_iter)


def classify_mb(model, gamma: float, tol: float = 1e-12, max_iter: int = 1_000_000, p0=None):
    return classify_matrix(lambda p: riccati_step(model, p, gamma), _start(model, p0), tol, max_iter)


def _converged(result):
    status, value, _ = result
    return value if status == CONVERGED else None


def vbar_points(model, lams, tol=1e-12, max_iter=1_000_000, p0=None) -> list:
    """V-bar per lam; None where it diverges or is undecided at the cap."""
    return [_converged(classify_bs(model, float(lam), tol, max_iter, p0)) for lam in lams]


def sbar_points(model, lams, tol=1e-12, max_iter=1_000_000) -> list:
    """S-bar per lam; None where it diverges or the solver raises at the cap."""
    out = []
    for lam in lams:
        try:
            out.append(solve_scaled_lyapunov(model, 1.0 - float(lam), tol=tol, max_iter=max_iter))
        except ConvergenceError:
            out.append(None)
    return out


def mb_points(model, gammas, tol=1e-12, max_iter=1_000_000) -> list:
    """Multi-beam fixed point per gamma; inf takes the open-loop Lyapunov route."""
    out = []
    for gamma in gammas:
        gamma = float(gamma)
        if math.isinf(gamma):
            try:
                out.append(solve_scaled_lyapunov(model, 1.0, tol=tol, max_iter=max_iter))
            except ConvergenceError:
                out.append(None)
        else:
            out.append(_converged(classify_mb(model, gamma, tol, max_iter)))
    return out

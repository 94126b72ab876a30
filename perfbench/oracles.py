"""Independent oracles for the benchmark's correctness gate.

Every function here recomputes a reference value without calling the
jcas_lab code path it checks: closed-form scalar roots, scipy's DARE and
discrete Lyapunov solvers, a plain numpy iteration of the beam-switching
map, and a forward-message sum for the finite-alphabet sensing cost.
scipy is imported inside the functions that need it, so it loads only
after the timed work and never becomes a dependency of the program.

Checks return a list of failure messages; an empty list means the value
passed.
"""

from __future__ import annotations

import math

import numpy as np

#: iteration cap and divergence trace of the numpy V-bar oracle
VBAR_MAX_ITER = 1_000_000
VBAR_DIVERGENCE = 1e12


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def quad_mb_root(a: float, q: float, r: float, gamma: float) -> float:
    """Scalar (c = 1) multi-beam steady state: positive root of
    v^2 + v (gamma r (1 - a^2) - q) - q gamma r = 0; gamma = inf is the
    open-loop limit q / (1 - a^2), or inf for unstable a."""
    if math.isinf(gamma):
        return q / (1.0 - a * a) if a * a < 1.0 else math.inf
    b = gamma * r * (1.0 - a * a) - q
    return (-b + math.sqrt(b * b + 4.0 * q * gamma * r)) / 2.0


def scalar_sbar(a: float, q: float, lam: float) -> float:
    """Scalar fixed point of s = (1 - lam) a^2 s + q, or inf when divergent."""
    alpha = (1.0 - lam) * a * a
    return q / (1.0 - alpha) if alpha < 1.0 else math.inf


def scalar_vbar(a: float, q: float, r: float, lam: float) -> float:
    """Scalar (c = 1) beam-switching fixed point: positive root of
    (1 - a^2 + lam a^2) v^2 + (r - a^2 r - q) v - q r = 0, or inf below
    the critical probability 1 - 1/a^2."""
    lead = 1.0 - a * a + lam * a * a
    if lead <= 0.0:
        return math.inf
    b = r - a * a * r - q
    return (-b + math.sqrt(b * b + 4.0 * lead * q * r)) / (2.0 * lead)


def critical_bound(a_matrix) -> float:
    """1 - 1/rho(A)^2, the exact critical sensing probability of a
    non-degenerate system (0 for stable dynamics)."""
    rho = float(np.max(np.abs(np.linalg.eigvals(np.asarray(a_matrix, dtype=float)))))
    return max(0.0, 1.0 - 1.0 / (rho * rho))


def dare_covariance(A, C, Q, R, gamma: float) -> np.ndarray:
    """Steady-state predicted covariance with measurement noise gamma R."""
    from scipy.linalg import solve_discrete_are

    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    return solve_discrete_are(A.T, C.T, np.asarray(Q, dtype=float), gamma * np.asarray(R, dtype=float))


def lyapunov_covariance(A, Q, lam: float):
    """S-bar: solution of S = (1 - lam) A S A^T + Q, or None when divergent."""
    from scipy.linalg import solve_discrete_lyapunov

    A = np.asarray(A, dtype=float)
    alpha = 1.0 - lam
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if alpha * rho * rho >= 1.0:
        return None
    return solve_discrete_lyapunov(math.sqrt(alpha) * A, np.asarray(Q, dtype=float))


def switching_iterates(A, C, Q, R, lam: float, p0, n: int):
    """S_n and V_n: n steps of the scaled Lyapunov and beam-switching maps."""
    A, C, Q, R = (np.asarray(x, dtype=float) for x in (A, C, Q, R))
    s = v = np.asarray(p0, dtype=float)
    for _ in range(n):
        s = (1.0 - lam) * A @ s @ A.T + Q
        v = _bs_map(A, C, Q, R, v, lam)
    return s, v


def _bs_map(A, C, Q, R, p, lam):
    innov = C @ p @ C.T + R
    corr = A @ p @ C.T @ np.linalg.solve(innov, C @ p @ A.T)
    out = A @ p @ A.T + Q - lam * corr
    return (out + out.T) / 2.0


def vbar_covariance(A, C, Q, R, lam: float):
    """V-bar by plain iteration of the beam-switching map from Q.

    Returns None when the trace passes VBAR_DIVERGENCE; convergence is a
    relative trace change below 1e-14.
    """
    A, C, Q, R = (np.asarray(x, dtype=float) for x in (A, C, Q, R))
    p = Q.copy()
    for _ in range(VBAR_MAX_ITER):
        nxt = _bs_map(A, C, Q, R, p, lam)
        tr = float(np.trace(nxt))
        if not math.isfinite(tr) or tr > VBAR_DIVERGENCE:
            return None
        if float(np.max(np.abs(nxt - p))) <= 1e-14 * max(1.0, tr):
            return nxt
        p = nxt
    raise RuntimeError(f"V-bar oracle did not settle at lam={lam}")


def trace_or_inf(matrix) -> float:
    return math.inf if matrix is None else float(np.trace(matrix))


def sensing_cost_forward(x_seq, channel, markov, initial, distortion) -> float:
    """Expected block distortion of the Bayes estimator by forward messages.

    alpha_j(z^j, s) = P(s_j = s, z^j) is pushed through the kernel and the
    measurement likelihood one step at a time; the optimal estimate at
    index j contributes min_shat sum_s alpha_j(z^j, s) d(s, shat) for each
    prefix z^j.  Independent of the path enumeration in jcas_lab.bayes.
    """
    pz = np.asarray(channel, dtype=float).sum(axis=2)  # (x, s, z)
    markov = np.asarray(markov, dtype=float)
    dist = np.asarray(distortion, dtype=float)
    msgs = np.asarray(initial, dtype=float)[None, :]
    total = float(np.min(msgs @ dist, axis=1).sum())
    for x in x_seq:
        pred = msgs @ markov  # (prefixes, s)
        msgs = (pred[:, None, :] * pz[int(x)].T[None, :, :]).reshape(-1, markov.shape[0])
        total += float(np.min(msgs @ dist, axis=1).sum())
    return total / (len(x_seq) + 1)


def relative_gap(value: float, reference: float) -> float:
    if math.isinf(reference) or math.isinf(value):
        return 0.0 if value == reference else math.inf
    return abs(value - reference) / max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(label: str, value: float, reference: float, rel: float) -> list:
    gap = relative_gap(value, reference)
    if not gap <= rel:
        return [f"{label}: {value!r} vs oracle {reference!r} (relative gap {gap:.3e} > {rel:g})"]
    return []


def check_interval(label: str, value: float, lo: float, hi: float) -> list:
    if not (lo <= value <= hi):
        return [f"{label}: {value!r} outside [{lo!r}, {hi!r}]"]
    return []


def check_monotone_threshold(label, value, tol, feasible_at, lo_edge, hi_edge, increasing_ok):
    """A bisection result meets its budget one tolerance on the feasible side
    and misses it one tolerance on the other side.

    ``feasible_at(x)`` is the oracle's verdict at parameter x.  When
    ``increasing_ok`` the feasible side lies above the threshold (lam
    thresholds); otherwise below it (log-gamma thresholds).  Results on the
    range edges only need the feasible-side test.
    """
    good = value + tol if increasing_ok else value - tol
    bad = value - tol if increasing_ok else value + tol
    out = []
    if not feasible_at(min(max(good, lo_edge), hi_edge)):
        out.append(f"{label}: budget missed one tolerance on the feasible side of {value!r}")
    if lo_edge < bad < hi_edge and feasible_at(bad):
        out.append(f"{label}: budget still met one tolerance past {value!r}")
    return out

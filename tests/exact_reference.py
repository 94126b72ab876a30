"""Exact rational oracles for the scalar covariance step and filter runs.

Every input is a float, and ``fractions.Fraction`` holds each float
exactly, so these functions compute, with no rounding at all, what the
float code rounds:

* ``step`` is the scalar covariance step
  P' = lam a^2 gamma r p / (c^2 p + gamma r) + (1 - lam) a^2 p + q, and
  ``gain`` the predictor gain L = c a p / (c^2 p + gamma r), both at a
  float p; p = +inf takes the limit (a^2 gamma r / c^2 + q and a / c when
  c != 0 and lam = 1, else +inf and 0).
* ``matrix_step`` is the one-output matrix step: S = C P C^T + gamma R,
  the predictor gain L = A P C^T / S and
  P' = A P A^T + Q - lam (A P C^T) L^T, at float matrices.
* ``open_loop_run`` iterates P <- a^2 P + q, the erasure run that leaves
  a huge P before a sensing step.
* ``truth_estimate`` runs a scalar filter trial's truth and estimate
  recursion s_{i+1} = a s_i + w_i, z_i = c s_i + noise_i,
  shat_{i+1} = a shat_i + L_i (z_i - c shat_i) on the trial's float draws
  and gains, so s_i - shat_i is the exact error the float error loop
  rounds.

``np.longdouble`` is plain double on some platforms, so an extended
precision oracle checks nothing there; these do everywhere.

``unit_bound`` is Higham's gamma_n = n u / (1 - n u) for the double unit
roundoff u = 2^-53: a value computed from exact inputs by a chain of n
roundings of sums, products and quotients of nonnegative numbers is within
gamma_n of the exact value, relatively, since nothing cancels.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

UNIT = Fraction(1, 2**53)


def unit_bound(count: int) -> float:
    """gamma_count = count u / (1 - count u) for double precision."""
    return float(count * UNIT / (1 - count * UNIT))


def step(a: float, c: float, q: float, r: float, p: float, gamma: float, lam: float):
    """Exact P' of the scalar step at the float inputs; +inf or a Fraction."""
    a, c, q, r, gamma, lam = map(Fraction, (a, c, q, r, gamma, lam))
    if math.isinf(p):
        return a * a * gamma * r / (c * c) + q if c and lam == 1 else math.inf
    p = Fraction(p)
    gr = gamma * r
    return lam * a * a * gr * p / (c * c * p + gr) + (1 - lam) * a * a * p + q


def gain(a: float, c: float, r: float, p: float, gamma: float):
    """Exact predictor gain c a p / (c^2 p + gamma r) at a float p; a / c at p = +inf."""
    a, c, r, gamma = map(Fraction, (a, c, r, gamma))
    if math.isinf(p):
        return a / c if c else Fraction(0)
    p = Fraction(p)
    return c * a * p / (c * c * p + gamma * r)


def exact_matrix(x) -> np.ndarray:
    """The float matrix x as an object array of Fractions."""
    x = np.asarray(x, dtype=float)
    return np.array([Fraction(float(e)) for e in x.ravel()], dtype=object).reshape(x.shape)


def matrix_step(a, c, q, r, p, gamma: float, lam: float):
    """Exact (L, P') of the one-output matrix step at the float matrices,
    as object arrays of Fractions."""
    a, c, q, r, p = map(exact_matrix, (a, c, q, r, p))
    assert c.shape[0] == 1
    apc = a @ p @ c.T
    gain = apc / ((c @ p @ c.T)[0, 0] + Fraction(gamma) * r[0, 0])
    return gain, a @ p @ a.T + q - Fraction(lam) * (apc @ gain.T)


def open_loop_run(a: float, q: float, p0: float, steps: int) -> list:
    """[P_0, .., P_steps] of P <- a^2 P + q from the float p0, exactly."""
    a, q = Fraction(a), Fraction(q)
    run = [Fraction(p0)]
    for _ in range(steps):
        run.append(a * a * run[-1] + q)
    return run


def truth_estimate(a: float, c: float, gains, drive, noise, s0_estimate: float):
    """Exact (s, shat) of a scalar trial's draws and gains, as float arrays
    of the rounded exact values.

    ``gains`` holds L_0..L_{n-1} (0 where z_i did not arrive), ``drive``
    s_0 then w_0..w_{n-1}, ``noise`` sqrt(g) v_i where z_i arrived, else 0.
    """
    a, c = Fraction(a), Fraction(c)
    gains, drive, noise = ([Fraction(float(x)) for x in np.ravel(v)] for v in (gains, drive, noise))
    s, est = [drive[0]], [Fraction(s0_estimate)]
    for i, gain_i in enumerate(gains):
        z = c * s[i] + noise[i]
        s.append(a * s[i] + drive[i + 1])
        est.append(a * est[i] + gain_i * (z - c * est[i]))
    return np.array([float(x) for x in s]), np.array([float(x) for x in est]), [x - y for x, y in zip(s, est)]

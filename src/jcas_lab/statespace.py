"""Gauss-Markov state-space primitives.

Holds the (A, C, Q, R) model container with validity checks, the spectral
radius, and the scaled Lyapunov solver S = alpha * A S A^T + Q whose fixed
point lower-bounds the error covariance of an intermittently updated filter.
The solver iterates nothing: a scalar model takes the closed form
q / (1 - alpha a^2), and a matrix model solves the Kronecker system
(I - alpha A (x) A) vec S = vec Q, batched over a grid of alphas by
``solve_affine``, which the Riccati fixed points reuse.

All matrices are dense float64 numpy arrays; the design envelope is small
state dimension (m, k <= ~8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

#: eigenvalue tolerance for PSD/PD checks, relative to the largest magnitude
EIG_TOL = 1e-10

#: alpha * rho(A)^2 within this distance of 1 is reported as divergent
CRITICAL_MARGIN = 1e-9


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce scalars / nested lists to a 2-D float64 array."""
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 -- used after every covariance step to control drift.

    Computed as 0.5 M + 0.5 M^T, which rounds the same for normal-range
    entries but stays finite up to the largest float, where the sum would
    overflow above half of it.  Transposes the last two axes, so a stack of
    matrices works too.
    """
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


def spectral_radius(a) -> float:
    """Largest absolute eigenvalue of a square matrix."""
    arr = as_matrix(a, "A")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"spectral radius needs a square matrix, got {arr.shape}")
    if arr.shape[0] == 1:
        return abs(float(arr[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def min_sym_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(np.min(np.linalg.eigvalsh(symmetrize(m))))


def is_psd(m: np.ndarray, tol: float = EIG_TOL) -> bool:
    eigs = np.linalg.eigvalsh(symmetrize(m))
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return bool(np.min(eigs) >= -tol * max(scale, 1.0))


def is_pd(m: np.ndarray, tol: float = EIG_TOL) -> bool:
    eigs = np.linalg.eigvalsh(symmetrize(m))
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return bool(np.min(eigs) > tol * scale)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negative dust clipped)."""
    w, u = np.linalg.eigh(symmetrize(m))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


@dataclass(frozen=True)
class GaussMarkovModel:
    """Linear state-space model s' = A s + w, z = C s + v.

    w ~ N(0, Q) is the process noise, v ~ N(0, gamma * R) the measurement
    noise; the scalar gain gamma >= 1 (infinity meaning "no measurement")
    is supplied per use, not stored here.

    The constructor enforces shape consistency only.  Numeric validity
    (Q PSD, R PD, detectability / controllability) is reported by
    :func:`validate_model` so that deliberately broken models can still be
    constructed and inspected.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        c = as_matrix(self.C, "C")
        q = as_matrix(self.Q, "Q")
        r = as_matrix(self.R, "R")
        m = a.shape[0]
        if a.shape != (m, m):
            raise DimensionError(f"A must be square, got {a.shape}")
        if c.shape[1] != m:
            raise DimensionError(f"C must have {m} columns, got {c.shape}")
        k = c.shape[0]
        if q.shape != (m, m):
            raise DimensionError(f"Q must be {m}x{m}, got {q.shape}")
        if r.shape != (k, k):
            raise DimensionError(f"R must be {k}x{k}, got {r.shape}")
        for name, arr in (("A", a), ("C", c), ("Q", q), ("R", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def scalar(cls, a: float, c: float, q: float, r: float) -> "GaussMarkovModel":
        return cls(A=[[a]], C=[[c]], Q=[[q]], R=[[r]])

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.C.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.m == 1 and self.k == 1

    def scalars(self) -> tuple[float, float, float, float]:
        """(a, c, q, r) floats; only valid when is_scalar."""
        return (
            float(self.A[0, 0]),
            float(self.C[0, 0]),
            float(self.Q[0, 0]),
            float(self.R[0, 0]),
        )

    def describe(self) -> str:
        return (
            f"m={self.m} k={self.k} A={self.A.tolist()} C={self.C.tolist()} "
            f"Q={self.Q.tolist()} R={self.R.tolist()}"
        )


@dataclass
class ModelValidation:
    """Outcome of validate_model: violated invariants plus raw diagnostics."""

    violations: list = field(default_factory=list)
    symmetry_residual_q: float = 0.0
    symmetry_residual_r: float = 0.0
    detectability_ranks: list = field(default_factory=list)   # (eigenvalue, rank)
    controllability_ranks: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_model(model: GaussMarkovModel) -> ModelValidation:
    """Check the model invariants and report every violation.

    Checks: Q symmetric PSD, R symmetric PD, (A, C) detectable and
    (A, Q^{1/2}) controllable via PBH rank tests.  Never raises; returns a
    report whose ``violations`` list is empty iff the model is valid.
    """
    rep = ModelValidation()
    m = model.m

    rep.symmetry_residual_q = float(np.max(np.abs(model.Q - model.Q.T)))
    rep.symmetry_residual_r = float(np.max(np.abs(model.R - model.R.T)))
    q_scale = max(1.0, float(np.max(np.abs(model.Q))))
    r_scale = max(1.0, float(np.max(np.abs(model.R))))
    if rep.symmetry_residual_q > EIG_TOL * q_scale:
        rep.violations.append("Q not symmetric")
    if rep.symmetry_residual_r > EIG_TOL * r_scale:
        rep.violations.append("R not symmetric")
    if not is_psd(model.Q):
        rep.violations.append("Q not positive semidefinite")
    if not is_pd(model.R):
        rep.violations.append("R not positive definite")

    eigs = np.linalg.eigvals(model.A)
    eye = np.eye(m)

    # PBH detectability: every eigenvalue on or outside the unit circle must
    # be observable through C.
    for mu in eigs:
        if abs(mu) < 1.0 - 1e-9:
            continue
        stacked = np.vstack([model.A - mu * eye, model.C.astype(complex)])
        rank = int(np.linalg.matrix_rank(stacked))
        rep.detectability_ranks.append((complex(mu), rank))
        if rank < m:
            rep.violations.append(f"(A, C) not detectable at eigenvalue {mu:.6g}")

    # PBH controllability of (A, Q^{1/2}): every mode must be excitable by
    # the process noise.
    q_sqrt = psd_sqrt(model.Q)
    for mu in eigs:
        wide = np.hstack([model.A - mu * eye, q_sqrt.astype(complex)])
        rank = int(np.linalg.matrix_rank(wide))
        rep.controllability_ranks.append((complex(mu), rank))
        if rank < m:
            rep.violations.append(
                f"(A, Q^1/2) not controllable at eigenvalue {mu:.6g}"
            )

    return rep


def check_initial_covariance(model: GaussMarkovModel, p0) -> np.ndarray:
    """P0 as an m x m float array; DimensionError / ParameterError unless PSD."""
    p0 = as_matrix(p0, "P0")
    if p0.shape != (model.m, model.m):
        raise DimensionError(f"P0 must be {model.m}x{model.m}, got {p0.shape}")
    if min_sym_eig(p0) < -EIG_TOL * max(1.0, float(np.max(np.abs(p0)))):
        raise ParameterError("P0 must be positive semidefinite")
    return p0


def lyap_kernel(a: float, q: float, s: float, alpha: float) -> float:
    """Scalar step of the scaled Lyapunov recursion (shared float kernel).

    The open-loop step of the scalar trial engine, on floats or trial
    arrays; ``lyapunov_step`` rounds the same on a 1x1 model.
    """
    return alpha * ((a * s) * a) + q


def lyapunov_diverges(alpha: float, rho: float) -> bool:
    """True when alpha * rho(A)^2 is within CRITICAL_MARGIN of 1 or beyond.

    The scaled Lyapunov recursion then has no usable fixed point.
    """
    return alpha * rho * rho >= 1.0 - CRITICAL_MARGIN


def lyapunov_step(model: GaussMarkovModel, s: np.ndarray, alpha) -> np.ndarray:
    """One application of S -> alpha * A S A^T + Q, re-symmetrized.

    s may be a stack (n, m, m) of covariances.  A 1x1 model rounds exactly
    as ``lyap_kernel`` on normal-range values, up to and past overflow.
    """
    return symmetrize(alpha * (model.A @ s @ model.A.T) + model.Q)


def solve_affine(factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve X = sum_t F_t X F_t^T + rhs for every member of a stack.

    ``factors`` (n, T, m, m) holds each member's F_1..F_T and ``rhs`` is
    (n, m, m).  On the row-major vec(X), F X F^T is kron(F, F) vec(X), so a
    member is one dense (m^2, m^2) system (I - sum_t kron(F_t, F_t)) vec(X)
    = vec(rhs).  The systems are built in place in one array and solved in
    one batched call; the solutions come back re-symmetrized.
    """
    n, _, m, _ = factors.shape
    size = m * m
    system = np.einsum("ntij,ntkl->nikjl", factors, factors).reshape(n, size, size)
    np.negative(system, out=system)
    diagonal = np.arange(size)
    system[:, diagonal, diagonal] += 1.0
    x = np.linalg.solve(system, np.reshape(rhs, (n, size, 1)))
    return symmetrize(x.reshape(n, m, m))


def scaled_lyapunov_sweep(model: GaussMarkovModel, alphas) -> list:
    """Fixed point of S = alpha * A S A^T + Q at every alpha of a grid.

    An entry is None where alpha * rho(A)^2 >= 1 (within CRITICAL_MARGIN),
    which has no usable fixed point.  A scalar model takes the closed form
    q / (1 - alpha a^2); a matrix model solves the Kronecker system
    (I - alpha A (x) A) vec S = vec Q for every finite entry at once, with
    sqrt(alpha) A as the factor of ``solve_affine``.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not (0.0 <= alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    rho = spectral_radius(model.A)
    skip = [lyapunov_diverges(alpha, rho) for alpha in alphas]
    finite = [alpha for alpha, s in zip(alphas, skip) if not s]
    if model.is_scalar:
        a, _, q, _ = model.scalars()
        solved = iter([np.array([[q / (1.0 - alpha * (a * a))]]) for alpha in finite])
    elif finite:
        factors = np.sqrt(np.reshape(finite, (-1, 1, 1, 1))) * model.A
        rhs = np.broadcast_to(model.Q, (len(finite), model.m, model.m))
        solved = iter(solve_affine(factors, rhs))
    return [None if s else next(solved) for s in skip]


def solve_scaled_lyapunov(model: GaussMarkovModel, alpha: float):
    """Fixed point of S = alpha * A S A^T + Q, or None when it diverges.

    A direct solve (see ``scaled_lyapunov_sweep``); alpha * rho(A)^2 >= 1
    (within CRITICAL_MARGIN) has no usable fixed point and returns None.
    """
    return scaled_lyapunov_sweep(model, [alpha])[0]


def lyapunov_sequence(
    model: GaussMarkovModel, alpha: float, n: int, p0: np.ndarray
) -> list:
    """Finite-horizon iterates [S_0=P0, S_1, ..., S_n] of the scaled recursion."""
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    seq = [as_matrix(p0, "P0")]
    for _ in range(n):
        seq.append(lyapunov_step(model, seq[-1], alpha))
    return seq

"""Gauss-Markov state-space primitives.

Holds the (A, C, Q, R) model container with validity checks, the spectral
radius (which a model computes once for itself, as it does the gain of the
Riccati certificate), and the scaled Lyapunov solver S = alpha * A S A^T + Q
whose fixed point lower-bounds the error covariance of an intermittently
updated filter.
The solver iterates no covariance map: a scalar model takes the closed
form q / (1 - alpha a^2) (one array expression per grid), and a matrix
model solves S = (sqrt(alpha) A) S (sqrt(alpha) A)^T + Q, batched over a
grid of alphas, on m alone: from m = DOUBLING_MIN_M (5) on it is the G = 0
case of ``solve_doubling``, which also solves every sensed-only Riccati
fixed point, and below it one dense Kronecker LU, ``solve_kronecker``,
which V-bar's policy iteration calls with its open-loop term.

All matrices are dense float64 numpy arrays; the design envelope is small
state dimension (m, k <= ~8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError

#: eigenvalue and symmetry tolerance of ``covariance_violations``, relative
#: to the largest magnitude
EIG_TOL = 1e-10

#: alpha * rho(A)^2 within this distance of 1 is reported as divergent, and
#: an eigenvalue of A with |mu| within it of 1 counts as unstable
CRITICAL_MARGIN = 1e-9

#: an eigenbasis of A or a C V_u beyond this condition number is not certified
CERTIFICATE_COND = 1e8

#: ``scaled_lyapunov_grid`` solves a model of this state dimension or more
#: by doubling; below it the Kronecker LU is cheaper
DOUBLING_MIN_M = 5

#: doublings after which a member still moving has not settled
DOUBLING_CAP = 64


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


def times_matrix(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """x @ matrix, a stack (n, a, b) of two or more members as one 2-D
    product over its rows in row-major order, the layout ``matrix_times``
    returns (any other layout is copied into it by the reshape), not a BLAS
    call per member.  Each entry is the same dot product, so it rounds as
    the stacked product: so far seen only for the (n m)-row products of the
    covariance steps on the pinned numpy 2.4.6 / OpenBLAS build
    (``test_stack_steps_round_as_member_steps``); an (n 9, 8) @ (8, 1)
    product did not."""
    if x.ndim != 3 or len(x) < 2:
        return x @ matrix
    n, a, b = x.shape
    rows = x.transpose(1, 0, 2).reshape(a * n, b)
    return (rows @ matrix).reshape(a, n, matrix.shape[1]).transpose(1, 0, 2)


def matrix_times(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x, a stack (n, a, b) of two or more members as one 2-D
    product with the members side by side in its columns; see
    ``times_matrix``."""
    if x.ndim != 3 or len(x) < 2:
        return matrix @ x
    n, a, b = x.shape
    cols = x.transpose(1, 0, 2).reshape(a, n * b)
    return (matrix @ cols).reshape(len(matrix), n, b).transpose(1, 0, 2)


def spectral_radius(a) -> float:
    """Largest absolute eigenvalue of a square matrix."""
    arr = as_matrix(a, "A")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"spectral radius needs a square matrix, got {arr.shape}")
    if arr.shape[0] == 1:
        return abs(float(arr[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def check_range(name: str, value, lo, hi):
    """value, or ParameterError naming it unless lo <= value <= hi (nan
    never is); the one range rule of every lam, alpha and gamma."""
    if not lo <= value <= hi:
        raise ParameterError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def check_grid(name: str, values, lo, hi) -> np.ndarray:
    """values as a float array, refused as ``check_range`` refuses its
    first entry outside [lo, hi]."""
    values = np.asarray(values, dtype=float)
    bad = ~((lo <= values) & (values <= hi))
    if bad.any():
        check_range(name, values[bad][0], lo, hi)
    return values


def covariance_violations(name: str, x: np.ndarray, definite: bool = False) -> list:
    """Each broken part of the covariance x, one message each: entries not
    finite (then nothing else is checked), asymmetry above EIG_TOL times
    max(1, largest |entry|), and a least eigenvalue of (x + x^T) / 2 below
    -EIG_TOL times max(1, largest |eigenvalue|) or, when ``definite``, not
    above EIG_TOL times the largest |eigenvalue|.  The one covariance rule
    of Q, R and P0."""
    if not np.isfinite(x).all():
        return [f"{name} entries must be finite"]
    violations = []
    with np.errstate(all="ignore"):
        if float(np.max(np.abs(x - x.T))) > EIG_TOL * max(1.0, float(np.max(np.abs(x)))):
            violations.append(f"{name} not symmetric")
        eigs = np.linalg.eigvalsh(symmetrize(x))
        least, scale = float(np.min(eigs)), float(np.max(np.abs(eigs)))
    if not (least > EIG_TOL * scale if definite else least >= -EIG_TOL * max(scale, 1.0)):
        violations.append(f"{name} not positive {'definite' if definite else 'semidefinite'}")
    return violations


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negative dust clipped)."""
    w, u = np.linalg.eigh(symmetrize(m))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


@dataclass(frozen=True, eq=False)
class GaussMarkovModel:
    """Linear state-space model s' = A s + w, z = C s + v.

    w ~ N(0, Q) is the process noise, v ~ N(0, gamma * R) the measurement
    noise; the scalar gain gamma >= 1 (infinity meaning "no measurement")
    is supplied per use, not stored here.

    The constructor enforces shape consistency and finite entries only.
    Numeric validity (Q PSD, R PD, detectability / controllability) is
    reported by :func:`validate_model` so that deliberately broken models
    can still be constructed and inspected.

    The model keeps read-only copies of its matrices, so nothing the caller
    writes later reaches it, and ``rho`` and ``certificate_gain`` are
    computed once per model.  Models compare and hash by identity.
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
            if not np.isfinite(arr).all():
                raise ParameterError(f"{name} entries must be finite")
            arr = np.array(arr)
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

    @cached_property
    def stacked_ac(self) -> np.ndarray:
        """[A; C], read-only: ``matrix_times(stacked_ac, P)`` gives A P and
        C P as the rows of one product."""
        ac = np.vstack([self.A, self.C])
        ac.setflags(write=False)
        return ac

    @cached_property
    def rho(self) -> float:
        """rho(A), the spectral radius of A."""
        return spectral_radius(self.A)

    @cached_property
    def certificate_gain(self):
        """The gain L = A V_u (C V_u)^+ of ``riccati.unstable_modes_observed``,
        read-only, or None when the certificate refuses the model.

        The columns of V_u are the eigenvectors of A with |mu| >= 1 -
        CRITICAL_MARGIN.  None when there is none or more of them than C has
        rows, or when the eigenbasis or C V_u has a condition number above
        CERTIFICATE_COND.
        """
        if self.m == 1:
            # eigenbasis [[1]], so C V_u is C; no LAPACK call (and its buffers)
            a = float(self.A[0, 0])
            if abs(a) < 1.0 - CRITICAL_MARGIN or not np.any(self.C):
                return None
            gain = a * self.C.T / float(np.sum(self.C * self.C))
        else:
            mu, v = np.linalg.eig(self.A)
            unstable = np.abs(mu) >= 1.0 - CRITICAL_MARGIN
            if not 0 < np.count_nonzero(unstable) <= self.k or np.linalg.cond(v) > CERTIFICATE_COND:
                return None
            v_u = v[:, unstable]
            if np.linalg.cond(self.C @ v_u) > CERTIFICATE_COND:
                return None
            # conjugate eigenvector pairs give a real gain
            gain = np.real(self.A @ v_u @ np.linalg.pinv(self.C @ v_u))
        gain.setflags(write=False)
        return gain

    def describe(self) -> str:
        return (
            f"m={self.m} k={self.k} A={self.A.tolist()} C={self.C.tolist()} "
            f"Q={self.Q.tolist()} R={self.R.tolist()}"
        )


@dataclass
class ModelValidation:
    """Outcome of validate_model: each violated invariant, listed once."""

    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_model(model: GaussMarkovModel) -> ModelValidation:
    """Check the model invariants and report every violation, each message once.

    Checks: Q symmetric PSD, R symmetric PD, (A, C) detectable and
    (A, Q^{1/2}) controllable via PBH rank tests.  Where a rank test's
    matrix is not finite (the eigenvalues of A or the entries of Q^{1/2}
    overflow), no rank test runs and that is the violation.  Never raises
    or warns; returns a report whose ``violations`` list is empty iff the
    model is valid.
    """
    m = model.m
    violations = covariance_violations("Q", model.Q) + covariance_violations("R", model.R, definite=True)
    with np.errstate(all="ignore"):
        # PBH: detectable if every eigenvalue on or outside the unit circle is
        # observable through C, controllable if the process noise excites
        # every mode
        eigs = np.linalg.eigvals(model.A)
        shifted = [model.A - mu * np.eye(m) for mu in eigs]
        tests = [(np.vstack([a_mu, model.C.astype(complex)]), f"(A, C) not detectable at eigenvalue {mu:.6g}")
                 for mu, a_mu in zip(eigs, shifted) if abs(mu) >= 1.0 - CRITICAL_MARGIN]
        q_sqrt = psd_sqrt(model.Q).astype(complex)
        tests += [(np.hstack([a_mu, q_sqrt]), f"(A, Q^1/2) not controllable at eigenvalue {mu:.6g}")
                  for mu, a_mu in zip(eigs, shifted)]
        if all(np.isfinite(block).all() for block, _ in tests):
            violations += [message for block, message in tests if np.linalg.matrix_rank(block) < m]
        else:
            violations.append("A or Q too large for the PBH rank tests (not finite)")
    return ModelValidation(list(dict.fromkeys(violations)))


def check_initial_covariance(model: GaussMarkovModel, p0) -> np.ndarray:
    """P0 as an m x m float array; DimensionError unless m x m, ParameterError
    listing its ``covariance_violations`` unless a finite, symmetric PSD matrix."""
    p0 = as_matrix(p0, "P0")
    if p0.shape != (model.m, model.m):
        raise DimensionError(f"P0 must be {model.m}x{model.m}, got {p0.shape}")
    violations = covariance_violations("P0", p0)
    if violations:
        raise ParameterError("; ".join(violations))
    return p0


def lyap_kernel(a: float, q: float, s: float, alpha: float) -> float:
    """Scalar step of the scaled Lyapunov recursion (shared float kernel).

    The scalar trial engine's step when no trial senses (erased trials of a
    masked ``riccati.sensing_kernel`` step get its bits), on floats or
    trial arrays; ``lyapunov_step`` rounds the same on 1x1.
    """
    return alpha * ((a * s) * a) + q


def lyapunov_diverges(alpha: float, rho: float) -> bool:
    """True when alpha * rho(A)^2 is within CRITICAL_MARGIN of 1 or beyond.

    The scaled Lyapunov recursion then has no usable fixed point.
    """
    return alpha * rho * rho >= 1.0 - CRITICAL_MARGIN


def lyapunov_step(model: GaussMarkovModel, s: np.ndarray, alpha) -> np.ndarray:
    """One application of S -> alpha * A S A^T + Q, re-symmetrized.

    s may be a stack (n, m, m) of covariances, whose products with A are
    one 2-D product each.  A 1x1 model rounds exactly as ``lyap_kernel`` on
    normal-range values, up to and past overflow.
    """
    return symmetrize(alpha * times_matrix(matrix_times(model.A, s), model.A.T) + model.Q)


def kron_square(f: np.ndarray) -> np.ndarray:
    """kron(F, F) for every member of a stack (n, m, m), as one
    (n, m^2, m^2) array.  On the row-major vec(X), F X F^T is kron(F, F)
    vec(X).  One einsum over a summed axis of length 1, which adds each
    product to 0, so no entry is -0 (a plain outer product can leave -0)."""
    n, m, _ = f.shape
    return np.einsum("ntij,ntkl->nikjl", f[:, None], f[:, None]).reshape(n, m * m, m * m)


def solve_kronecker(f: np.ndarray, rhs: np.ndarray, fixed: np.ndarray | None = None) -> np.ndarray:
    """X = F X F^T + rhs for every member of a stack (n, m, m),
    re-symmetrized: per member one dense (m^2, m^2) system (I - fixed -
    kron(F, F)) vec(X) = vec(rhs), O(m^6), all in one batched LU call, so
    no member's bits depend on the others.  ``fixed`` (n, m^2, m^2), such
    as an open-loop term a loop of solves shares, is added to kron(F, F)."""
    n, m, _ = f.shape
    size = m * m
    system = kron_square(f)
    if fixed is not None:
        system += fixed
    np.negative(system, out=system)
    diagonal = np.arange(size)
    system[:, diagonal, diagonal] += 1.0
    x = np.linalg.solve(system, np.reshape(rhs, (n, size, 1)))
    return symmetrize(x.reshape(n, m, m))


def solve_doubling(a: np.ndarray, g: np.ndarray, h: np.ndarray):
    """(X, settled): X = A^T X (I + G X)^{-1} A + H for every member of a
    stack (n, m, m) of (A, G, H), G and H symmetric PSD, by the
    structure-preserving doubling algorithm (SDA; Chu, Fan & Lin, Linear
    Algebra Appl. 2005; Lin & Xu, SIAM J. Matrix Anal. Appl. 2006).

    From A_0 = a, G_0 = g and H_0 = h, each doubling solves W = I + G H
    once against [A, G] and sets A <- A W^-1 A, G <- G + A W^-1 G A^T and
    H <- H + A^T H W^-1 A, so H_k is the map iterated 2^k times from 0.
    With G = 0 (W = I, whose LU would return [A, G] bit for bit, so the
    solve is skipped) it is Smith's doubling of X = A^T X A + H (SIAM J.
    Appl. Math. 1968).  A member is settled at its first doubling that
    leaves H unchanged bit for bit; where H or G turns non-finite, or H
    still moves after DOUBLING_CAP doublings, it is not, and its X is
    meaningless.  Each product and solve is one call per member, so a
    member's bits do not depend on the other members.  X comes back
    re-symmetrized.
    """
    m = h.shape[1]
    out = np.zeros_like(h)
    settled = np.zeros(len(h), dtype=bool)
    live = np.arange(len(h))
    stein = not g.any()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DOUBLING_CAP):
            w_a = a
            if not stein:
                solved = _solve_members(np.eye(m) + g @ h, np.concatenate([a, g], axis=2))
                w_a = solved[:, :, :m]
                g = g + a @ solved[:, :, m:] @ a.swapaxes(1, 2)
            nxt = h + a.swapaxes(1, 2) @ h @ w_a
            a = a @ w_a
            moved = (nxt != h).any(axis=(1, 2))
            # a sum is finite only if every term is: the members are sorted
            # out only on a doubling where one settled or turned non-finite
            if moved.all() and np.isfinite(nxt.sum() + g.sum()):
                h = nxt
                continue
            finite = np.isfinite(nxt).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
            done = finite & ~moved
            out[live[done]] = nxt[done]
            settled[live[done]] = True
            keep = finite & moved
            if not keep.all():
                live, a, g, nxt = live[keep], a[keep], g[keep], nxt[keep]
                if not live.size:
                    break
            h = nxt
    return symmetrize(out), settled


def _solve_members(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """W^-1 rhs for a stack of finite W = I + G H.  Where G H outgrows 1 / eps
    (gamma near e^40 on an unstable model) the identity is lost to rounding
    and the LU can meet a zero pivot; that member alone takes the pinv."""
    try:
        return np.linalg.solve(w, rhs)
    except np.linalg.LinAlgError:
        if len(w) == 1:
            return np.linalg.pinv(w) @ rhs
        return np.concatenate([_solve_members(w[i : i + 1], rhs[i : i + 1]) for i in range(len(w))])


def lyapunov_root(a: float, q: float, alpha):
    """q / (1 - alpha a^2), the scalar fixed point of S = alpha a S a + q, on a
    float alpha or an array of them: one expression serves a grid and a
    threshold's one-alpha probe.  It tests nothing; where
    ``lyapunov_diverges`` holds it is no fixed point."""
    return q / (1.0 - alpha * (a * a))


def grid_traces(grid) -> np.ndarray:
    """The trace of every member of a solved grid (S, finite), +inf where
    ``finite`` is False: one stacked trace."""
    x, finite = grid
    return np.where(finite, x.trace(axis1=1, axis2=2), np.inf)


def grid_members(grid) -> list:
    """A solved grid (S, finite) as one m x m fixed point per entry, None
    where ``finite`` is False."""
    x, finite = grid
    return [member if ok else None for member, ok in zip(x, finite.tolist())]


def scaled_lyapunov_grid(model: GaussMarkovModel, alphas):
    """(S, finite): the fixed point of S = alpha * A S A^T + Q at every alpha
    of a grid, as an (n, m, m) stack, and the mask of the alphas that have
    one.

    finite is False where alpha * rho(A)^2 >= 1 (within CRITICAL_MARGIN),
    and those members of S are meaningless.  A scalar model takes
    ``lyapunov_root`` on the whole grid; a matrix model solves every finite
    entry at once, F = sqrt(alpha) A, on m alone: from DOUBLING_MIN_M on by
    the G = 0 ``solve_doubling`` (NumericalError where a member does not
    settle), below it by the cheaper ``solve_kronecker``.
    """
    alphas = check_grid("alpha", alphas, 0, 1)
    finite = ~lyapunov_diverges(alphas, model.rho)
    if model.is_scalar:
        a, _, q, _ = model.scalars()
        with np.errstate(divide="ignore", invalid="ignore"):
            return lyapunov_root(a, q, alphas).reshape(-1, 1, 1), finite
    x = np.zeros((len(alphas), model.m, model.m))
    kept = alphas[finite]
    if kept.size:
        f = np.sqrt(kept.reshape(-1, 1, 1)) * model.A
        q = np.broadcast_to(model.Q, f.shape)
        if model.m < DOUBLING_MIN_M:
            x[finite] = solve_kronecker(f, q)
        else:
            x[finite], settled = solve_doubling(f.swapaxes(1, 2), np.zeros_like(q), q)
            if not settled.all():
                raise NumericalError(f"doubling did not settle in {DOUBLING_CAP} doublings (rho(F) >= 1)")
    return x, finite


def solve_scaled_lyapunov(model: GaussMarkovModel, alpha: float):
    """Fixed point of S = alpha * A S A^T + Q, or None when it diverges.

    A direct solve (see ``scaled_lyapunov_grid``); alpha * rho(A)^2 >= 1
    (within CRITICAL_MARGIN) has no usable fixed point and returns None.
    """
    return grid_members(scaled_lyapunov_grid(model, [alpha]))[0]

import math

import numpy as np
import pytest

from jcas_lab import riccati, statespace
from jcas_lab.statespace import GaussMarkovModel

# the two scalar reference systems used throughout
UNSTABLE = dict(a=-1.15, c=1.0, q=0.2, r=1.5)
STABLE = dict(a=-0.95, c=1.0, q=0.2, r=1.5)

#: the benchmark 2x2 model (unstable, one output)
BENCH_2X2 = GaussMarkovModel(A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=0.1 * np.eye(2), R=[[0.5]])


@pytest.fixture
def unstable_model():
    return GaussMarkovModel.scalar(**UNSTABLE)


@pytest.fixture
def stable_model():
    return GaussMarkovModel.scalar(**STABLE)


@pytest.fixture
def matrix_model():
    """Small well-behaved 2x2 model (stable, detectable, controllable)."""
    return GaussMarkovModel(
        A=[[0.9, 0.2], [0.0, 0.7]],
        C=[[1.0, 0.0]],
        Q=[[0.1, 0.0], [0.0, 0.1]],
        R=[[0.5]],
    )


@pytest.fixture
def correlated_model():
    """2x2 model with two outputs and correlated noises, so that the noise
    transforms mix components and their rounding depends on the BLAS path."""
    return GaussMarkovModel(
        A=[[1.05, 0.2], [-0.1, 0.9]],
        C=[[1.0, 0.3], [0.2, 1.0]],
        Q=[[0.2, 0.07], [0.07, 0.1]],
        R=[[0.5, 0.1], [0.1, 0.4]],
    )


@pytest.fixture
def wide_model():
    """3x3 model with two outputs (m = 3, k = 2), so the process- and
    measurement-noise draw blocks have different widths."""
    return GaussMarkovModel(
        A=[[1.02, 0.1, 0.0], [0.0, 0.85, 0.2], [0.1, -0.1, 0.7]],
        C=[[1.0, 0.0, 0.5], [0.0, 1.0, -0.3]],
        Q=[[0.2, 0.05, 0.0], [0.05, 0.1, 0.02], [0.0, 0.02, 0.15]],
        R=[[0.5, 0.1], [0.1, 0.3]],
    )


def quad_mb_root(a: float, c: float, q: float, r: float, gamma: float) -> float:
    """Independent steady-state oracle for scalar models with c = 1.

    Positive root of v^2 + v*(gamma*r*(1-a^2) - q) - q*gamma*r = 0, obtained
    by clearing denominators in v = a^2 v + q - a^2 v^2 / (v + gamma*r).
    """
    assert c == 1.0
    b = gamma * r * (1.0 - a * a) - q
    return (-b + math.sqrt(b * b + 4.0 * q * gamma * r)) / 2.0


def scaled_lyap_root(a: float, q: float, alpha: float) -> float:
    """Closed-form scalar fixed point of s = alpha * a^2 * s + q."""
    return q / (1.0 - alpha * a * a)


def rounding_gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: |fl(x) - x| <= gamma_n |x|
    bounds n successive roundings, in any order of summation."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def stein_inverse_norm(f: np.ndarray) -> float:
    """||(I - F (x) F)^{-1}||_2, the Frobenius-norm condition of X = F X F^T + rhs."""
    size = f.shape[0] ** 2
    return 1.0 / np.linalg.svd(np.eye(size) - np.kron(f, f), compute_uv=False)[-1]


def stein_residual(f: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> tuple:
    """(||F x F^T + rhs - x||_F as computed, the Frobenius norm of its
    rounding bound gamma_{2m+2} (|F| |x| |F|^T + |rhs| + |x|))."""
    m = f.shape[0]
    r = f @ x @ f.T + rhs - x
    rounding = rounding_gamma(2 * m + 2) * np.linalg.norm(np.abs(f) @ np.abs(x) @ np.abs(f).T + np.abs(rhs) + np.abs(x))
    return float(np.linalg.norm(r)), float(rounding)


def stein_error_bound(f: np.ndarray, x: np.ndarray, rhs: np.ndarray, slack: float = 0.0) -> float:
    """A bound on ||x - X||_F, X the exact solution of X = F X F^T + rhs.

    With the exact residual r = F x F^T + rhs - x, (I - F (x) F) vec(x - X) =
    -vec(r), so ||x - X||_F <= ||(I - F (x) F)^{-1}||_2 ||r||_F.  The residual
    computed here is within gamma_{2m+2} (|F| |x| |F|^T + |rhs| + |x|) of r
    entry by entry (two m-term products, then two sums); ``slack`` adds the
    rounding of F and rhs themselves where the caller computed them.
    """
    residual, rounding = stein_residual(f, x, rhs)
    return stein_inverse_norm(f) * (residual + rounding + slack)


def record_solves(patch) -> dict:
    """Stack sizes of every G = 0 doubling that ``scaled_lyapunov_grid``
    runs (``statespace.solve_doubling``) and of every ``solve_kronecker``
    call, S-bar's and the policy iteration's, from now on; ``patch`` is a
    monkeypatch.  ``riccati._sda`` calls the doubling under the name it
    imported, so its calls are not recorded."""
    calls = {"doubling": [], "kronecker": []}
    for module, path, name in (
        (statespace, "doubling", "solve_doubling"),
        (statespace, "kronecker", "solve_kronecker"),
        (riccati, "kronecker", "solve_kronecker"),
    ):
        real = getattr(module, name)

        def spy(*args, real=real, path=path):
            calls[path].append(len(args[0]))
            return real(*args)

        patch.setattr(module, name, spy)
    return calls


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal((dim, dim))
    return x @ x.T + 1e-3 * np.eye(dim)


def toy_model_path() -> str:
    from importlib.resources import files

    return str(files("jcas_lab").joinpath("data/toy_model.txt"))


def random_discrete_model(rng: np.random.Generator, max_size: int = 3):
    """Random strictly-positive model with |X|,|S|,|Z| <= max_size, |Y| = 2."""
    from jcas_lab.bayes import DiscreteJcasModel

    nx = int(rng.integers(2, max_size + 1))
    ns = int(rng.integers(2, max_size + 1))
    nz = int(rng.integers(2, max_size + 1))
    ny = 2
    channel = rng.random((nx, ns, ny, nz)) + 0.05
    channel /= channel.sum(axis=(2, 3), keepdims=True)
    markov = rng.random((ns, ns)) + 0.05
    markov /= markov.sum(axis=1, keepdims=True)
    initial = rng.random(ns) + 0.05
    initial /= initial.sum()
    distortion = rng.random((ns, ns))
    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=distortion
    )

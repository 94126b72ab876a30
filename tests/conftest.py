import math

import numpy as np
import pytest

from jcas_lab.statespace import GaussMarkovModel

# the two scalar reference systems used throughout
UNSTABLE = dict(a=-1.15, c=1.0, q=0.2, r=1.5)
STABLE = dict(a=-0.95, c=1.0, q=0.2, r=1.5)


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

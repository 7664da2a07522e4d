"""Shared helpers for the test suite: random transforms, small scenes and the
``hypothesis`` settings profile."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from cloudchange import Sim3Transform

# Property tests stay bounded, and a loaded machine must not turn a slow
# example into a failure.
settings.register_profile("cloudchange", max_examples=60, deadline=None)
settings.load_profile("cloudchange")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def identity_sim3() -> Sim3Transform:
    return Sim3Transform(1.0, np.eye(3), np.zeros(3))


def random_sim3(rng: np.random.Generator, scale_range=(0.2, 5.0)) -> Sim3Transform:
    lo, hi = scale_range
    scale = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return Sim3Transform(scale, random_rotation(rng), rng.uniform(-5.0, 5.0, 3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

import os
from pathlib import Path

import numpy as np
import pytest

import orderfield
from orderfield import FourierCoefficients


@pytest.fixture(scope="session")
def cosine_field():
    """The field 0.5 + 0.5*cos(2*pi*t): bandwidth 1, coefficients (1/4, 1/2, 1/4)."""
    return FourierCoefficients(np.array([0.25, 0.5, 0.25], dtype=np.complex128))


@pytest.fixture(scope="session")
def complex_random_field():
    """``draw(b, rng)``: a random bounded field without conjugate symmetry, from 2b+1
    uniform magnitudes and 2b+1 uniform phases, rescaled to magnitude sum one."""

    def draw(b, rng):
        mags = rng.random(2 * b + 1)
        phases = 2.0 * np.pi * rng.random(2 * b + 1)
        c = mags * np.exp(1j * phases)
        return FourierCoefficients(c / np.abs(c).sum())

    return draw


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cli_env():
    """Environment for `python -m orderfield` child processes.

    The directory holding the imported package goes first on PYTHONPATH, so
    a child started from any working directory runs the same code as the
    in-process tests, whether that is a source checkout or an install.
    """
    env = dict(os.environ)
    package_root = str(Path(orderfield.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + rest if rest else "")
    return env

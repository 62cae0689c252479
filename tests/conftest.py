"""Fixtures shared by several test modules."""

import os

# Every matrix is at most 10 x 10 complex, and OpenBLAS's default thread pool
# stalls such small operations for 50-90 ms on a two-core machine; one thread,
# set before numpy loads, keeps test wall times steady.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from qhyp.linalg import HMatrix


def _cayley_member(sp, rng):
    """(I + Y)(I - Y)^-1 for a complex Y with Y* H + H Y = 0: a U(n,1) member."""
    X = 0.3 * (rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(size=(sp.dim, sp.dim)))
    H = np.eye(sp.dim)[sp.perm[:sp.dim]]  # the form, one block of its embedding's permutation
    Y = np.linalg.inv(H) @ (X - X.conj().T)
    eye = np.eye(sp.dim)
    C = (eye + Y) @ np.linalg.inv(eye - Y)
    return HMatrix(np.block([[C, np.zeros_like(C)], [np.zeros_like(C), C.conj()]]))


@pytest.fixture
def cayley_member():
    """The complex-member factory ``cayley_member(space, rng)``."""
    return _cayley_member

"""Shared fixtures."""
import numpy as np
import pytest

from symsplit.hamiltonian import MassMatrix, PhasePoint, Quartic


@pytest.fixture
def quartic():
    return Quartic()


@pytest.fixture
def opaque_quartic():
    """The quartic hiding its coefficients, which forces the generic engine."""

    class Opaque(Quartic):
        def poly1d_coefficients(self):
            return None

    return Opaque()


@pytest.fixture
def mass1():
    return MassMatrix.identity(1)


@pytest.fixture
def x_unit(quartic):
    """The quartic experiment's initial state (q, p) = (0, 1), energy 1/2."""
    return PhasePoint(np.array([0.0]), np.array([1.0]))

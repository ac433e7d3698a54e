"""Shared fixtures."""
import numpy as np
import pytest

from symsplit.hamiltonian import MassMatrix, PhasePoint, Potential, Quartic


class HenonHeiles(Potential):
    """V = (x^2 + y^2) / 2 + x^2 y - y^3 / 3, exact contractions only."""

    def value(self, q):
        x, y = q
        return 0.5 * (x * x + y * y) + x * x * y - y**3 / 3.0

    def gradient(self, q):
        x, y = q
        return np.array([x + 2.0 * x * y, y + x * x - y * y])

    def _contract(self, q, dirs):
        x, y = q
        if len(dirs) == 1:
            return float(dirs[0] @ self.gradient(q))
        if len(dirs) == 2:
            u, v = dirs
            return ((1.0 + 2.0 * y) * u[0] * v[0] + 2.0 * x * (u[0] * v[1] + u[1] * v[0])
                    + (1.0 - 2.0 * y) * u[1] * v[1])
        if len(dirs) == 3:
            u, v, w = dirs
            return (2.0 * (u[0] * v[0] * w[1] + u[0] * v[1] * w[0] + u[1] * v[0] * w[0])
                    - 2.0 * u[1] * v[1] * w[1])
        return 0.0


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

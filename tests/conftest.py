"""Shared fixtures."""
from unittest import mock

import mpmath
import numpy as np
import pytest

from symsplit import fastpath
from symsplit.hamiltonian import MassMatrix, PhasePoint, Potential, Quartic

# for tests of the C library itself, and for runs of millions of steps,
# which take seconds on the C loop and far longer on the Python loop
needs_c = pytest.mark.skipif(fastpath._c_lib is None,
                             reason=f"no C kernel: {fastpath.BACKEND_REASON}")


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


def quartic_exact(x0, mass, t):
    """The exact state at time t of H = lam p^2 / 2 + q^4 / 4 from x0, for a
    1x1 mass [[lam]], in Jacobi elliptic functions at parameter 1/2
    (Abramowitz and Stegun ch. 16), evaluated to 30 digits.

    q = a cn(u0 + a sqrt(lam) t | 1/2) and p = -a^2 sn dn / sqrt(lam), with
    a = (4H)^(1/4) the turning point and u0 = -+F(arccos(q0 / a) | 1/2),
    its sign opposite to p0's.
    """
    with mpmath.workdps(30):
        lam = mpmath.mpf(float(mass.mat[0, 0]))
        q0, p0 = mpmath.mpf(float(x0.q[0])), mpmath.mpf(float(x0.p[0]))
        a = (2 * lam * p0**2 + q0**4) ** mpmath.mpf(0.25)
        half = mpmath.mpf(0.5)
        u0 = mpmath.ellipf(mpmath.acos(max(-1, min(1, q0 / a))), half)
        u = (-u0 if p0 > 0 else u0) + a * mpmath.sqrt(lam) * mpmath.mpf(t)
        cn, sn, dn = (mpmath.ellipfun(kind, u, m=half) for kind in ("cn", "sn", "dn"))
        q, p = a * cn, -a**2 * sn * dn / mpmath.sqrt(lam)
        return PhasePoint([float(q)], [float(p)])


def never_agreeing(x0, cfg, potential, mass, n_steps, **_):
    """A stand-in for ``fastpath.simulate`` whose final state moves by
    1e-6 per step, so no two refinements of a reference solution agree."""
    run = mock.Mock(final=PhasePoint([1e-6 * n_steps], [0.0]))
    run.raise_if_failed.return_value = run
    return run


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

"""Phase-space state, mass matrices and potentials for separable Hamiltonians.

Everything downstream works with Hamiltonians of the form

    H(q, p) = (1/2) p^T M p + V(q)

where ``M`` is a constant symmetric positive semi-definite matrix (an
inverse-mass tensor: ``dq/dt = M p``) and ``V`` depends on position only.
Potentials expose exact directional derivatives up to order eight; the
operator engine is built entirely on that contract, so no finite
differencing enters any integrator path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Highest derivative tensor any correction generator ever contracts.
MAX_DERIVATIVE_ORDER = 8


def _check_finite(arr, name):
    # on a short vector count_nonzero takes about half the time of .all(),
    # which sets up a ufunc reduce; a kick-move-kick step checks six
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} contains non-finite entries")


def _as_vector(x, name="array"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {arr.shape}")
    _check_finite(arr, name)
    return arr


def _symmetrized(m, name):
    """(m + m^T) / 2 of a finite square m, refused unless m is symmetric to
    1e-12 of its largest entry.  The entries are halved before they are
    added, so the sum cannot overflow; halving is exact, so this gives the
    bits of halving the sum for every entry whose half is a normal double."""
    scale = max(1.0, float(np.abs(m).max()))
    with np.errstate(over="ignore"):
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError(f"{name} must be symmetric")
    return 0.5 * m + 0.5 * m.T, scale


@cache
def _basis(dim: int) -> np.ndarray:
    """The read-only identity of size dim, whose rows are the basis vectors."""
    basis = np.eye(dim)
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True)
class PhasePoint:
    """Immutable phase-space state (q, p), both shape (N,)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _as_vector(self.q, "q")
        p = _as_vector(self.p, "p")
        if q.shape != p.shape:
            raise ValueError(f"q and p must match, got {q.shape} vs {p.shape}")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.size

    def as_array(self) -> np.ndarray:
        """Concatenated (q, p) vector, length 2N."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_array(cls, z: np.ndarray) -> "PhasePoint":
        z = _as_vector(z, "z")
        if z.size % 2:
            raise ValueError("phase vector length must be even")
        n = z.size // 2
        return cls(z[:n], z[n:])


class MassMatrix:
    """Constant symmetric positive semi-definite index-raising matrix."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mass matrix must be square, got shape {m.shape}")
        _check_finite(m, "mass matrix")
        m, scale = _symmetrized(m, "mass matrix")
        if np.linalg.eigvalsh(m).min() < -1e-12 * scale:
            raise ValueError("mass matrix must be positive semi-definite")
        m.flags.writeable = False
        self.mat = m

    @classmethod
    def identity(cls, dim: int) -> "MassMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "MassMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def raise_index(self, covector: np.ndarray) -> np.ndarray:
        """Map a momentum-like covector to a velocity-like vector, M @ v."""
        v = _as_vector(covector, "covector")
        if v.size != self.dim:
            raise ValueError(f"covector length {v.size} does not match mass dim {self.dim}")
        return self.mat @ v

    def __repr__(self):
        return f"MassMatrix(dim={self.dim})"


class Potential:
    """Position-dependent potential with exact directional derivatives.

    Subclasses implement :meth:`value`, :meth:`gradient` and
    :meth:`_contract`; the latter evaluates the fully contracted k-th
    derivative tensor

        D^k V(q)[u_1, ..., u_k]

    exactly (no finite differences).  The contraction is symmetric in the
    directions and linear in each of them.

    A subclass may also override the optional hook :meth:`_gradient_rows`,
    which returns the vectors D^{k+1} V(q)[u_1, ..., u_k, .] of a batch of
    direction lists as the rows of one array; the default builds each row
    from d calls to :meth:`_contract`.
    """

    def value(self, q: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dir_deriv(self, q: np.ndarray, dirs) -> float:
        """Contract the k-th derivative tensor at q with k direction vectors."""
        q = _as_vector(q, "q")
        dirs = [np.asarray(u, dtype=float) for u in dirs]
        k = len(dirs)
        if not 1 <= k <= MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"derivative order {k} unsupported (1..{MAX_DERIVATIVE_ORDER})"
            )
        for u in dirs:
            if u.shape != q.shape:
                raise ValueError("direction shape does not match q")
        return float(self._contract(q, dirs))

    def _contract(self, q: np.ndarray, dirs: list) -> float:
        raise NotImplementedError

    def _gradient_rows(self, q: np.ndarray, orders, dirs: np.ndarray,
                       memo=None) -> np.ndarray:
        """Row i is D^{orders[i]}V(q)[dirs[i, :orders[i] - 1], .].

        ``dirs`` has shape (n, kmax, d): row i's directions come first and
        its remaining slots hold 1.0.  ``memo`` is a dict the caller keeps
        for this one q, where an override may keep values that depend on q
        alone; the operator engine passes one per workspace.  Entry a of
        row i is ``_contract(q, [e_a, *dirs[i, :orders[i] - 1]])``.
        """
        out = np.empty((len(orders), q.size))
        basis = _basis(q.size)
        for i, order in enumerate(orders):
            row = list(dirs[i, :order - 1])
            for a, e in enumerate(basis):
                out[i, a] = self._contract(q, [e, *row])
        return out

    # Optional structure probes used for dispatch; None means "not this shape".

    def poly1d_coefficients(self):
        """Ascending coefficients if V is a 1-D polynomial, else None."""
        return None

    def quadratic_matrix(self, dim: int):
        """Stiffness K if V(q) = (1/2) q^T K q of the given size, else None."""
        return None


class Polynomial1D(Potential):
    """One-dimensional polynomial potential, coefficients in ascending order."""

    def __init__(self, coefficients):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        _check_finite(c, "coefficient vector")
        self.coefficients = c
        # derivative coefficient rows, cached up to the supported order; an
        # overflow to inf is refused below, not warned about
        self._deriv = [c]
        with np.errstate(over="ignore"):
            for _ in range(MAX_DERIVATIVE_ORDER):
                prev = self._deriv[-1]
                self._deriv.append(prev[1:] * np.arange(1, prev.size) if prev.size > 1
                                   else np.zeros(0))
        if not np.isfinite(np.concatenate(self._deriv)).all():
            raise ValueError("coefficient vector overflows in its derivatives")

    def _poly(self, q, order):
        if q.size != 1:
            raise ValueError(f"1-D polynomial potential got q of length {q.size}")
        c = self._deriv[order]
        if c.size == 0:
            return 0.0
        x = float(q[0])
        acc = 0.0
        for coeff in c[::-1]:
            acc = acc * x + coeff
        return acc

    def value(self, q):
        q = _as_vector(q, "q")
        return self._poly(q, 0)

    def gradient(self, q):
        q = _as_vector(q, "q")
        return np.array([self._poly(q, 1)])

    def _contract(self, q, dirs):
        acc = self._poly(q, len(dirs))
        for u in dirs:
            acc *= u[0]
        return acc

    def _gradient_rows(self, q, orders, dirs, memo=None):
        # _contract's product without its factor e_0[0] = 1.0, times the
        # 1.0 pad slots: both exact; the derivative values are taken once
        # per memo
        values = None if memo is None else memo.get("poly")
        if values is None:
            values = np.array([self._poly(q, k) for k in range(MAX_DERIVATIVE_ORDER + 1)])
            if memo is not None:
                memo["poly"] = values
        acc = values[orders]
        for u in dirs[:, :, 0].T:
            acc *= u
        return acc[:, None]

    def poly1d_coefficients(self):
        return self.coefficients

    def quadratic_matrix(self, dim):
        c = self.coefficients
        if dim != 1 or c.size > 3:
            return None
        if any(abs(c[i]) > 0.0 for i in range(min(2, c.size))):
            return None
        k = 2.0 * c[2] if c.size == 3 else 0.0
        return np.array([[k]])

    def __repr__(self):
        return f"Polynomial1D({self.coefficients.tolist()})"


class Quartic(Polynomial1D):
    """The anharmonic benchmark potential V(q) = q^4 / 4, one dimensional."""

    def __init__(self):
        super().__init__([0.0, 0.0, 0.0, 0.0, 0.25])

    def __repr__(self):
        return "Quartic()"


class Harmonic(Potential):
    """Isotropic harmonic potential V(q) = (1/2) omega^2 |q|^2, any dimension."""

    def __init__(self, omega: float = 1.0):
        omega = float(omega)
        if not (omega > 0.0 and math.isfinite(omega * omega)):
            raise ValueError(f"omega must be positive with a finite square, got {omega!r}")
        self.omega = omega

    def value(self, q):
        q = _as_vector(q, "q")
        return 0.5 * self.omega**2 * float(q @ q)

    def gradient(self, q):
        q = _as_vector(q, "q")
        return self.omega**2 * q

    def _contract(self, q, dirs):
        if len(dirs) == 1:
            return self.omega**2 * float(q @ dirs[0])
        if len(dirs) == 2:
            return self.omega**2 * float(dirs[0] @ dirs[1])
        return 0.0

    def poly1d_coefficients(self):
        return np.array([0.0, 0.0, 0.5 * self.omega**2])

    def quadratic_matrix(self, dim):
        return self.omega**2 * np.eye(dim)

    def __repr__(self):
        return f"Harmonic(omega={self.omega})"


class Quadratic(Potential):
    """General quadratic form V(q) = (1/2) q^T K q with symmetric K."""

    def __init__(self, stiffness):
        k = np.asarray(stiffness, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"stiffness must be square, got shape {k.shape}")
        _check_finite(k, "stiffness")
        k, _ = _symmetrized(k, "stiffness")
        k.flags.writeable = False
        self.stiffness = k

    def value(self, q):
        q = _as_vector(q, "q")
        return 0.5 * float(q @ (self.stiffness @ q))

    def gradient(self, q):
        q = _as_vector(q, "q")
        return self.stiffness @ q

    def _contract(self, q, dirs):
        if len(dirs) == 1:
            return float(dirs[0] @ (self.stiffness @ q))
        if len(dirs) == 2:
            return float(dirs[0] @ (self.stiffness @ dirs[1]))
        return 0.0

    def _gradient_rows(self, q, orders, dirs, memo=None):
        # e_a . (K u) is (K u)[a]: matmul never yields -0.0, so the rows
        # _contract would give are these bits for finite directions;
        # D^{k+1}V vanishes for k >= 2
        orders = np.asarray(orders)
        out = np.zeros((orders.size, q.size))
        first = (orders == 2).nonzero()[0]
        if first.size:
            out[first] = np.matmul(self.stiffness, dirs[first, 0, :, None])[..., 0]
        root = (orders == 1).nonzero()[0]
        if root.size:
            out[root] = self.stiffness @ q
        return out

    def poly1d_coefficients(self):
        if self.stiffness.shape == (1, 1):
            return np.array([0.0, 0.0, 0.5 * self.stiffness[0, 0]])
        return None

    def quadratic_matrix(self, dim):
        if self.stiffness.shape[0] != dim:
            return None
        return self.stiffness

    def __repr__(self):
        return f"Quadratic(dim={self.stiffness.shape[0]})"


def hamiltonian(x: PhasePoint, potential: Potential, mass: MassMatrix) -> float:
    """Total energy (1/2) p^T M p + V(q)."""
    if x.dim != mass.dim:
        raise ValueError(f"state dim {x.dim} does not match mass dim {mass.dim}")
    return 0.5 * float(x.p @ (mass.mat @ x.p)) + potential.value(x.q)

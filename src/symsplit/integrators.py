"""Splitting integrators: baseline leapfrog and its corrected relatives.

All schemes advance the separable Hamiltonian H = (1/2) p^T M p + V(q).
The corrected kick-move-kick family keeps the leapfrog skeleton but
replaces the kick potential by an effective potential and the linear drift
by the canonical transformation generated by a truncated mixed-variable
series G(q, P; tau); both truncations are matched so the one-step map is
accurate to the configured order while staying exactly symplectic at every
truncation level (the move is a canonical transformation by construction).

For purely quadratic Hamiltonians the series sum to closed form; the
``exact_quadratic`` variant applies those closed-form coefficients per
normal mode and is exact up to roundoff.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .hamiltonian import MassMatrix, PhasePoint, Potential
from .operators import (
    SCHEME_ORDERS,
    Workspace,
    generating_function_grad_p,
    generating_function_grad_q,
    generating_orders,
    v_eff_grad,
)

__all__ = [
    "SchemeConfig",
    "StepReport",
    "NewtonDiverged",
    "NonFiniteState",
    "ResonantStep",
    "DegenerateMass",
    "kick",
    "move_explicit",
    "move_generating",
    "harmonic_modified_coeffs",
    "exact_quadratic_step",
    "step",
    "integrate",
]

# the scheme catalogue: each variant and the accuracy orders it takes
ORDERS = {"baseline_kmk": (2,), "baseline_mkm": (2,), "corrected_kmk": SCHEME_ORDERS,
          "exact_quadratic": (2,)}
# the labels SchemeConfig.parse reads, for help and error text
SCHEME_USAGE = "schemes are " + ", ".join(
    v if len(o) == 1 else f"{v}:{{{'|'.join(map(str, o))}}} (plain {v} means order {max(o)})"
    for v, o in ORDERS.items())
# the variants whose step is half kick, move, half kick
KMK_VARIANTS = ("baseline_kmk", "corrected_kmk")

# the implicit move's Newton schedule, part of the method and shared with the
# kernel: tolerance, update cap, and the roundoff floor below which polishing stops
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 25
POLISH_FLOOR = 16.0 * 2.220446049250313e-16


class NewtonDiverged(RuntimeError):
    """The implicit move solve did not reach tolerance."""

    def __init__(self, residual, iterations, step_index=None):
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index
        at = f" at step {step_index}" if step_index is not None else ""
        super().__init__(
            f"implicit move solve stalled{at}: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class NonFiniteState(ArithmeticError):
    """A step produced a non-finite position or momentum: the scheme blew up."""

    def __init__(self, step_index=None):
        self.step_index = step_index
        at = f" at step {step_index}" if step_index is not None else ""
        super().__init__(f"state became non-finite{at}")


class ResonantStep(ValueError):
    """A normal-mode phase omega*tau sits on a coefficient singularity."""


class DegenerateMass(ValueError):
    """The mass matrix is not positive definite where it has to be."""


@dataclass(frozen=True)
class SchemeConfig:
    """Integrator selection plus step size.

    ``order`` is the global accuracy order, one of the variant's
    ``ORDERS`` (for exact_quadratic a label only); left out, it is the
    variant's highest."""

    variant: str
    tau: float
    order: int | None = None

    def __post_init__(self):
        if self.variant not in ORDERS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {tuple(ORDERS)}")
        orders = ORDERS[self.variant]
        if self.order is None:
            object.__setattr__(self, "order", max(orders))
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if self.order not in orders:
            if len(orders) == 1:
                raise ValueError(f"variant {self.variant!r} does not take an order")
            raise ValueError(f"{self.variant.partition('_')[0]} order must be one of {orders}")
        # the kernel's folded tables and every scaled energy error take tau**order;
        # a subnormal one turns any energy error above about 1e-12 into inf
        try:
            scale = math.pow(self.tau, self.order)
        except OverflowError:
            raise ValueError(f"tau = {self.tau:g} is too large for order {self.order}: "
                             f"tau**{self.order} overflows a double") from None
        if scale < sys.float_info.min:
            raise ValueError(f"tau = {self.tau:g} is too small for order {self.order}: "
                             f"tau**{self.order} underflows a double")

    @classmethod
    def parse(cls, label: str, tau: float) -> "SchemeConfig":
        """The config of a label ``variant`` or ``variant:order`` (``corrected_kmk:6``)."""
        variant, sep, suffix = label.partition(":")
        try:
            order = int(suffix) if sep else None
        except ValueError:
            raise ValueError(f"bad order {suffix!r} in {label!r}; {SCHEME_USAGE}") from None
        return cls(variant, tau, order)

    @property
    def name(self) -> str:
        """``corrected_kmk6``, or the plain variant when it has one order."""
        return self.variant if len(ORDERS[self.variant]) == 1 else f"{self.variant}{self.order}"


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; explicit moves report a zero-iteration solve."""

    newton_iterations: int = 0
    newton_residual: float = 0.0


def _state(q, p) -> PhasePoint:
    """PhasePoint(q, p); NonFiniteState if the step left the finite doubles."""
    try:
        return PhasePoint(q, p)
    except ValueError:
        # PhasePoint refuses non-finite entries; look again only on refusal
        if np.isfinite(q).all() and np.isfinite(p).all():
            raise
        raise NonFiniteState() from None


def kick(x: PhasePoint, h: float, potential: Potential, mass: MassMatrix,
         tau_full: float, scheme_order: int = 2, workspace=None) -> PhasePoint:
    """Momentum update over time h from the effective potential.

    The effective potential's internal tau powers use the full step size
    ``tau_full`` even when h is a half step.  ``workspace``, an
    ``operators.Workspace`` at x.q, keeps the force for a later kick there.
    """
    g = v_eff_grad(potential, mass, x.q, tau_full, scheme_order, workspace=workspace)
    return _state(x.q, x.p - h * g)


def move_explicit(x: PhasePoint, h: float, mass: MassMatrix) -> PhasePoint:
    """Free drift q += (h M) p, rounded as the 1-D kernel's order-2 move."""
    return _state(x.q + (h * mass.mat) @ x.p, x.p)


def move_generating(x: PhasePoint, cfg: SchemeConfig, potential: Potential,
                    mass: MassMatrix, workspace=None, increments=(0.0, 0.0)):
    """Implicit move: solve p = dG/dq(q, P) for P, then read Q = dG/dP.

    At order 2, G = q.P + (tau/2) P^T M P has no correction terms and the
    move is the drift ``move_explicit``, reported as a 0-iteration solve
    with residual 0; this is the one place that knows it.  Otherwise Newton
    iteration starts as the 1-D kernel's does: from P = p + (2 d1 - d2),
    with ``increments`` = (d1, d2) the last two moves' P - p, newest first.
    Both are 0 by default and at a run's first move, which starts at P = p
    (the identity-map limit).  It stops on the max-norm residual, and from
    a predicted start (any non-zero component) it takes one update at
    least.  Each Jacobian column is a one-sided difference of dG/dq
    against the residual already in hand, d extra evaluations per update;
    an approximate Jacobian only affects the convergence path, not the
    solved map, so symplecticity is untouched.  ``workspace``, an
    ``operators.Workspace`` at x.q, shares the q-only work with the kick
    there; by default the move makes its own.
    """
    tau, order = cfg.tau, cfg.order
    if not generating_orders(order):
        return move_explicit(x, tau, mass), StepReport()
    ws = workspace if workspace is not None else Workspace(potential, mass, x.q)

    def grad_q(mom):
        return generating_function_grad_q(potential, mass, x.q, mom, tau, order,
                                          workspace=ws)

    def residual_at(mom):
        r = grad_q(mom) - x.p
        return r, float(np.abs(r).max())

    def newton_update(mom, r):
        """mom's Newton update from its residual r, None when the Jacobian
        is singular."""
        jac = np.empty((mom.size, mom.size))
        for b in range(mom.size):
            h = 1e-6 * max(1.0, abs(mom[b]))
            up = mom.copy()
            up[b] += h
            jac[:, b] = (grad_q(up) - x.p - r) / h
        try:
            return mom + np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None

    d1, d2 = increments
    # P = p + (2 d1 - d2), written so that p = -0 stays -0 when both are 0
    pred = d2 - 2.0 * d1
    mom, predicted = x.p - pred, bool(np.any(pred))
    iterations = 0
    while True:
        r, residual = residual_at(mom)
        if not math.isfinite(residual):
            raise NewtonDiverged(residual, iterations)
        # a predicted start takes one update at least: an error below
        # NEWTON_TOL left in P would pass on to the next prediction
        if residual <= NEWTON_TOL and (iterations > 0 or not predicted):
            break
        trial = newton_update(mom, r) if iterations < NEWTON_MAX_ITER else None
        if trial is None:
            # out of iterations or a singular Jacobian: a start that
            # already meets the tolerance stands, as in the kernel
            if residual <= NEWTON_TOL:
                break
            raise NewtonDiverged(residual, iterations)
        mom = trial
        iterations += 1
    # One refinement past the acceptance tolerance when the residual is
    # still above roundoff.  The tolerance bounds each step's momentum
    # error, and those errors add up to a visible energy drift on long
    # runs; polishing toward machine precision lowers that drift for
    # one cheap extra iteration, but does not remove it: the residual is
    # formed at the size of p, so each step can still leave a few ulps in
    # P.  Kept only if it actually improves.
    if residual > POLISH_FLOOR * max(1.0, float(np.abs(x.p).max())):
        trial = newton_update(mom, r)
        if trial is not None:
            _, residual2 = residual_at(trial)
            if math.isfinite(residual2) and residual2 < residual:
                mom, residual = trial, residual2
                iterations += 1
    q_new = generating_function_grad_p(potential, mass, x.q, mom, tau, order,
                                       workspace=ws)
    return _state(q_new, mom), StepReport(iterations, residual)


def _tan_half_ratio(x: float) -> float:
    """tan(x/2) / (x/2), series-protected near zero."""
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 12.0 + x2 * x2 / 120.0
    return math.tan(0.5 * x) / (0.5 * x)


def _sinc(x: float) -> float:
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def harmonic_modified_coeffs(tau: float, omega: float):
    """Closed-form modified mass/spring factors for one harmonic mode.

    Returns (m, k) such that the kick-move-kick leapfrog with drift
    coefficient m and spring constant k reproduces the exact rotation of
    the mode with frequency omega over one step tau.  As tau approaches 0,
    m -> 1 and k -> omega^2.
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    x = omega * tau
    # distance of x to the nearest odd multiple of pi, where tan(x/2) blows up
    if math.pi - abs(math.remainder(x, 2.0 * math.pi)) < 1e-8:
        raise ResonantStep(
            f"mode phase omega*tau = {x:.12g} is within 1e-8 of an odd multiple of pi"
        )
    return _sinc(x), omega * omega * _tan_half_ratio(x)


def _sinhc(x: float) -> float:
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def _tanh_half_ratio(x: float) -> float:
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 - x2 / 12.0 + x2 * x2 / 120.0
    return math.tanh(0.5 * x) / (0.5 * x)


def exact_quadratic_step(x: PhasePoint, tau: float, mass: MassMatrix,
                         stiffness: np.ndarray) -> PhasePoint:
    """One exact step of H = (1/2) p^T M p + (1/2) q^T K q.

    Works in normal modes of the pencil (M, K): with S the symmetric square
    root of M, the symmetric matrix S K S is diagonalized and each mode is
    advanced by a kick-move-kick update whose modified coefficients make it
    the exact mode rotation (or hyperbolic sweep for unstable modes; free
    modes reduce to pure drift).
    """
    m = mass.mat
    evals, evecs = np.linalg.eigh(m)
    if evals.min() <= 0.0:
        raise DegenerateMass(
            f"exact quadratic step needs positive definite M; min eigenvalue {evals.min():.3e}"
        )
    root = np.sqrt(evals)
    s = (evecs * root) @ evecs.T
    s_inv = (evecs / root) @ evecs.T

    k = np.asarray(stiffness, dtype=float)
    if k.shape != m.shape:
        raise ValueError(f"stiffness shape {k.shape} does not match mass {m.shape}")
    a = s @ k @ s
    lam, u = np.linalg.eigh(0.5 * (a + a.T))

    y = u.T @ (s_inv @ x.q)
    z = u.T @ (s @ x.p)

    scale = max(1.0, float(np.abs(lam).max()))
    for j, lj in enumerate(lam):
        if lj > 1e-14 * scale:
            omega = math.sqrt(lj)
            mj, kj = harmonic_modified_coeffs(tau, omega)
        elif lj < -1e-14 * scale:
            alpha = math.sqrt(-lj)
            xa = alpha * tau
            mj = _sinhc(xa)
            kj = -alpha * alpha * _tanh_half_ratio(xa)
        else:
            mj, kj = 1.0, 0.0
        z[j] -= 0.5 * tau * kj * y[j]
        y[j] += tau * mj * z[j]
        z[j] -= 0.5 * tau * kj * y[j]

    return _state(s @ (u @ y), s_inv @ (u @ z))


def _stiffness_for(potential: Potential, dim: int) -> np.ndarray:
    k = potential.quadratic_matrix(dim)
    if k is None:
        raise ValueError(
            "exact_quadratic scheme needs a purely quadratic potential"
        )
    return k


def _step(x: PhasePoint, cfg: SchemeConfig, potential: Potential,
          mass: MassMatrix, ws, inc):
    """``step`` given ``ws``, an ``operators.Workspace`` at x.q or None, and
    ``inc``, ``move_generating``'s increments; returns (new state,
    StepReport, Workspace at the new position or None, increments for the
    next step).  Only a kick-move-kick step updates the increments."""
    tau, order = cfg.tau, cfg.order
    if cfg.variant == "exact_quadratic":
        x = exact_quadratic_step(x, tau, mass, _stiffness_for(potential, x.dim))
        return x, StepReport(), None, inc
    if cfg.variant == "baseline_mkm":
        x = move_explicit(x, 0.5 * tau, mass)
        x = kick(x, tau, potential, mass, tau, 2)
        return move_explicit(x, 0.5 * tau, mass), StepReport(), None, inc
    if ws is None:
        ws = Workspace(potential, mass, x.q)
    x = kick(x, 0.5 * tau, potential, mass, tau, order, workspace=ws)
    moved, report = move_generating(x, cfg, potential, mass, ws, inc)
    inc = (moved.p - x.p, inc[0])
    ws = Workspace(potential, mass, moved.q)
    x = kick(moved, 0.5 * tau, potential, mass, tau, order, workspace=ws)
    return x, report, ws, inc


def step(x: PhasePoint, cfg: SchemeConfig, potential: Potential,
         mass: MassMatrix):
    """Advance one step from P = p; returns (new state, StepReport)."""
    x, report, _, _ = _step(x, cfg, potential, mass, None, (0.0, 0.0))
    return x, report


@contextmanager
def _failing_at(step_index):
    """Attach the step index to a failure raised inside the block."""
    try:
        yield
    except NewtonDiverged as err:
        raise NewtonDiverged(err.residual, err.iterations, step_index=step_index) from None
    except NonFiniteState:
        raise NonFiniteState(step_index) from None


# an overflow is reported as a non-finite state, not warned about
@np.errstate(over="ignore", invalid="ignore")
def integrate(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
              mass: MassMatrix, n_steps: int, observer=None) -> PhasePoint:
    """Run n_steps of the scheme from x0; returns the final state.

    ``observer(i, t, x, report)`` is called after each completed step with
    the 1-based step index and t = i * tau.  Each step is ``step``'s own
    ``_step``, so a run gives the same bits whether or not it is observed,
    and its first step is ``step``'s.  Every later implicit move starts
    Newton from the last two moves' increments, as the 1-D kernel does, so
    later steps are not repeated ``step`` calls, which start at P = p.  One
    ``operators.Workspace`` per position is shared by both kicks there and
    the implicit move from it, so each position's force and q-only
    derivative work is evaluated once.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    x, ws, inc = x0, None, (0.0, 0.0)
    for i in range(1, n_steps + 1):
        with _failing_at(i):
            x, report, ws, inc = _step(x, cfg, potential, mass, ws, inc)
        if observer is not None:
            observer(i, i * cfg.tau, x, report)
    return x

"""Verification tooling: references, orders, periods, symplecticity.

Everything here treats an integrator as a black-box map so the checks stay
independent of the scheme internals they are probing: reference solutions
come from step-halving until two refinements agree, convergence orders
from error ratios on matched final times, symplecticity from a finite
difference Jacobian of the one-step map, and periods from interpolated
zero crossings of the position signal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

try:
    from numpy.exceptions import RankWarning
except ImportError:  # numpy < 1.25
    from numpy import RankWarning

from . import fastpath
from .hamiltonian import MassMatrix, PhasePoint, Potential, hamiltonian
from .integrators import SchemeConfig, step

__all__ = [
    "EnergyTrace",
    "OrderReport",
    "quartic_period",
    "step_count",
    "reference_solution",
    "energy_error_trace",
    "energy_deviation_maxima",
    "measure_convergence_order",
    "symplecticity_defect",
    "period_estimate",
    "measure_period",
]


@dataclass(frozen=True)
class EnergyTrace:
    """Energy along a run plus the order-scaled deviation (H - H0) / tau^m."""

    times: np.ndarray
    energies: np.ndarray
    scaled: np.ndarray
    h0: float
    tau: float
    m: int

    def __post_init__(self):
        if not (len(self.times) == len(self.energies) == len(self.scaled)):
            raise ValueError("trace arrays must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class OrderReport:
    """Measured convergence order from one step-size pair."""

    variant: str
    order: int
    tau_coarse: float
    tau_fine: float
    error_coarse: float
    error_fine: float
    measured_order: float


def quartic_period() -> float:
    """Exact period of H = p^2/2 + q^4/4 at energy 1/2: 2^(1/4) B(1/4, 1/2)."""
    return 2.0 ** 0.25 * math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75)


def _runnable(steps: float, t: float, tau: float) -> float:
    """``steps``, t / tau as a float, if it fits the kernel's int64 count;
    a larger count, inf or nan is a ``ValueError``."""
    if not abs(steps) < 2**63:
        raise ValueError(f"t = {t:g} at tau = {tau:g} is {t / tau:g} steps; "
                         "at most 2**63 - 1 can run")
    return steps


def step_count(duration: float, tau: float) -> int:
    """The steps of tau that cover ``duration``, less 1e-9 of a step of
    slack; a count beyond int64 is a ``ValueError``."""
    return math.ceil(_runnable(duration / tau - 1e-9, duration, tau))


def reference_solution(x0: PhasePoint, potential: Potential, mass: MassMatrix,
                       t_final: float) -> PhasePoint:
    """High-accuracy final state at t_final via the order-8 scheme.

    The run starts at the step count that makes tau at most 0.05, and the
    count doubles until two successive refinements agree to 1e-13 in
    phase-space max-norm; the finer of the two is returned.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if t_final == 0:
        return x0

    def run(n):
        cfg = SchemeConfig("corrected_kmk", t_final / n, order=8)
        return fastpath.simulate(x0, cfg, potential, mass, n).raise_if_failed().final

    tol = 1e-13
    try:
        n = max(1, step_count(t_final, 0.05))
    except ValueError:
        # the starting step is this function's own, so the refusal names t alone
        raise ValueError(f"a reference solution to t = {t_final:g} would take "
                         "more than 2**63 - 1 steps") from None
    prev = run(n)
    for _ in range(14):
        n *= 2
        cur = run(n)
        diff = float(np.abs(cur.as_array() - prev.as_array()).max())
        if diff <= tol:
            return cur
        prev = cur
    raise RuntimeError(
        f"reference solution did not converge to {tol:g} "
        f"(last refinement moved by {diff:.3e})"
    )


def _window_steps(window, tau, n_max=None):
    t0, t1 = window
    if t1 < t0:
        raise ValueError("window end before start")
    eps = 1e-9 * tau
    # a bound outside the run is clipped to it before it is rounded
    first, last = max(0.0, (t0 - eps) / tau), max(-1.0, (t1 + eps) / tau)
    if n_max is not None:
        first, last = min(first, n_max + 1), min(last, n_max)
    return math.ceil(_runnable(first, t0, tau)), math.floor(_runnable(last, t1, tau))


def energy_error_trace(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
                       mass: MassMatrix, window) -> EnergyTrace:
    """Energy at every step time inside [window[0], window[1]].

    The scaled column divides the deviation from the initial energy by
    tau^m, where m is the scheme's accuracy order ``cfg.order``; matching
    windows from runs at different tau should then land on one curve.
    """
    tau, m = cfg.tau, cfg.order
    i0, i1 = _window_steps(window, tau)
    run = fastpath.simulate(x0, cfg, potential, mass, i1,
                            rec_range=(i0, i1 + 1)).raise_if_failed()
    times = (i0 + np.arange(len(run.rec_h))) * tau
    scaled = (run.rec_h - run.h0) / tau**m
    return EnergyTrace(times, run.rec_h.copy(), scaled, run.h0, tau, m)


def energy_deviation_maxima(x0: PhasePoint, cfg: SchemeConfig,
                            potential: Potential, mass: MassMatrix,
                            n_steps: int, range_a, range_b):
    """Max |H - H0| over two step-index ranges [a0, a1), [b0, b1)."""
    run = fastpath.simulate(x0, cfg, potential, mass, n_steps,
                            range_a=range_a, range_b=range_b).raise_if_failed()
    return run.max_a, run.max_b


_MEASUREMENT_FLOOR = 100 * np.finfo(float).eps


def measure_convergence_order(x0: PhasePoint, potential: Potential,
                              mass: MassMatrix, variant: str, order: int,
                              tau_pair, t_final: float,
                              reference: PhasePoint | None = None) -> OrderReport:
    """Measured order from phase-space max-norm errors at the final time,
    at two step sizes, against a reference.

    Step counts are rounded so both taus divide t_final exactly; the
    reported ratio uses the adjusted values.  ``reference`` is
    ``reference_solution(x0, potential, mass, t_final)``, computed here
    when not given; callers measuring several schemes pass it once.
    """
    tau_c, tau_f = tau_pair
    if not tau_c > tau_f > 0:
        raise ValueError("tau_pair must be (coarse, fine) with coarse > fine > 0")
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final:g}")
    ref = (reference_solution(x0, potential, mass, t_final)
           if reference is None else reference)
    h0 = hamiltonian(x0, potential, mass)

    taus = []
    errors = []
    counts = [max(1, round(_runnable(t_final / tau, t_final, tau))) for tau in (tau_c, tau_f)]
    if counts[0] == counts[1]:
        raise ValueError(f"tau pair {tau_c:g}:{tau_f:g} rounds to one step size "
                         f"over t_final = {t_final:g}; use a wider pair")
    for n in counts:
        tau = t_final / n
        cfg = SchemeConfig(variant, tau, order=order)
        x = fastpath.simulate(x0, cfg, potential, mass, n).raise_if_failed().final
        err = float(np.abs(x.as_array() - ref.as_array()).max())
        scale = max(1.0, float(np.abs(ref.as_array()).max()), abs(h0))
        if err < _MEASUREMENT_FLOOR * scale:
            raise ValueError(
                f"error {err:.3e} at tau={tau:g} is below the measurement "
                "floor; use a coarser step pair"
            )
        taus.append(tau)
        errors.append(err)

    measured = math.log(errors[0] / errors[1]) / math.log(taus[0] / taus[1])
    return OrderReport(variant, order, taus[0], taus[1], errors[0], errors[1],
                       measured)


def symplecticity_defect(x: PhasePoint, cfg: SchemeConfig, potential: Potential,
                         mass: MassMatrix) -> float:
    """Max-norm of J^T Omega J - Omega for the one-step map Jacobian at x.

    J comes from central finite differences of the full step map with a
    step of 1e-6 in each phase-space coordinate, so the achievable floor
    is the solver tolerance divided by the stencil width; exact
    symplecticity shows up as a defect at that floor.
    """
    n = x.dim
    z0 = x.as_array()
    dim = 2 * n

    def flow(z):
        out, _ = step(PhasePoint(z[:n], z[n:]), cfg, potential, mass)
        return out.as_array()

    jac = np.empty((dim, dim))
    for k in range(dim):
        dz = np.zeros(dim)
        dz[k] = 1e-6
        jac[:, k] = (flow(z0 + dz) - flow(z0 - dz)) / 2e-6
    omega = np.zeros((dim, dim))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return float(np.abs(jac.T @ omega @ jac - omega).max())


# np.polyfit's rcond for four samples
_FIT_RCOND = 4 * np.finfo(float).eps


def _crossing_cubics(times, q, ups) -> np.ndarray:
    """Row k is ``np.polyfit(times[w] - times[i], q[w], 3)`` for i = ups[k]
    and w the four samples around that crossing, bit for bit.

    Every system is built in one pass with ``np.polyfit``'s operations in
    its order: ``+ 0.0``, ``np.vander``'s columns x^3 = (x x) x, x^2, x, 1,
    column scales from the sums of squares, rcond = 4 eps.  Each scaled
    system then goes to LAPACK through its own ``np.linalg.lstsq`` call,
    which warns on a rank below 4 as ``np.polyfit`` does.
    """
    lo = np.clip(ups - 1, 0, len(times) - 4)
    window = lo[:, None] + np.arange(4)
    x = (times[window] - times[ups, None]) + 0.0
    y = q[window] + 0.0
    x2 = x * x
    lhs = np.stack((x2 * x, x2, x, np.ones_like(x)), axis=2)
    scale = np.sqrt((lhs * lhs).sum(axis=1))
    lhs /= scale[:, None, :]
    coeffs = np.empty((len(ups), 4))
    for k in range(len(ups)):
        coeffs[k], _, rank, _ = np.linalg.lstsq(lhs[k], y[k], _FIT_RCOND)
        if rank != 4:
            warnings.warn("Polyfit may be poorly conditioned", RankWarning, stacklevel=2)
    return coeffs / scale


def period_estimate(times, q) -> float:
    """Mean spacing of upward zero crossings of a sampled coordinate.

    Each crossing time is refined with the cubic through the four samples
    around the sign change, so densely sampled smooth signals give many
    more digits than the sampling interval.  The root of the cubic is
    bisected on floats with ``np.polyval``'s Horner operations in its
    order (``fastpath.cubic_roots``), so the result matches a bisection by
    ``np.polyval`` bit for bit.  ``times`` must be finite and strictly
    increasing, and ``q`` finite.  Needs at least two crossings.
    """
    times = np.asarray(times, dtype=float)
    q = np.asarray(q, dtype=float)
    if times.ndim != 1 or times.shape != q.shape or times.size < 4:
        raise ValueError("need matching arrays with at least four samples")
    if not (np.isfinite(times).all() and (np.diff(times) > 0.0).all()):
        raise ValueError("times must be finite and strictly increasing")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    ups = np.flatnonzero((q[:-1] < 0.0) & (q[1:] >= 0.0))
    if len(ups) < 2:
        raise ValueError("trajectory shows fewer than two upward zero crossings")
    coeffs = _crossing_cubics(times, q, ups)
    offsets = np.empty(len(ups))
    fastpath.cubic_roots(coeffs, times[ups + 1] - times[ups], len(ups), offsets)
    return float(np.mean(np.diff(times[ups] + offsets)))


def measure_period(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
                   mass: MassMatrix, t_span: float) -> float:
    """Period of the scheme's own trajectory from x0, sampled every step."""
    n_steps = step_count(t_span, cfg.tau)
    run = fastpath.simulate(x0, cfg, potential, mass, n_steps,
                            rec_range=(0, n_steps + 1)).raise_if_failed()
    return period_estimate(np.arange(len(run.rec_q)) * cfg.tau, run.rec_q[:, 0])

"""Compiled stepping kernel for one-dimensional polynomial potentials.

For a 1-D polynomial V every quantity the kick-move-kick schemes need
(effective-potential gradient, the implicit move residual dG/dq - p, the
new-position map dG/dP) is a bivariate polynomial in (q, P) whose
coefficients are exact rationals.  This module evaluates the word
expansions from :mod:`symsplit.operators` over that polynomial ring once
per (potential, mass, order), folds the step-size powers in, and hands the
resulting coefficient matrices to a numba loop.  Long runs (hundreds of
thousands of periods) then cost nanoseconds per step instead of
milliseconds, while agreeing with the generic engine to roundoff because
both paths evaluate the same expansions.

The fall-back when numba is unavailable is the same loop in plain Python.

``simulate`` is the single point that decides which backend runs: the
kernel through ``fast_run`` when ``eligible`` allows it, the generic
``integrate`` otherwise, both reported in one ``FastRun`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hamiltonian import MassMatrix, PhasePoint, Potential, hamiltonian
from .integrators import (POLISH_FLOOR, NewtonDiverged, NonFiniteState,
                          SchemeConfig, integrate)
from .operators import (
    GENERATING_TERMS,
    POTENTIAL_GENERATORS,
    _P,
    _table_expansion,
    correction_orders,
    generating_orders,
)

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


__all__ = ["eligible", "FastRun", "fast_run", "simulate", "FastTables", "tables_for"]

_KERNEL_VARIANTS = ("baseline_kmk", "corrected_kmk")


# ---------------------------------------------------------------------------
# Exact bivariate polynomials: {(q_power, P_power): Fraction}.


def _poly_add(a, b, scale=Fraction(1)):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + scale * c
    return {k: v for k, v in out.items() if v}


def _poly_mul(a, b):
    out = {}
    for (qa, pa), ca in a.items():
        for (qb, pb), cb in b.items():
            key = (qa + qb, pa + pb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _poly_dq(a):
    return {(iq - 1, ip): c * iq for (iq, ip), c in a.items() if iq > 0}


def _poly_dp(a):
    return {(iq, ip - 1): c * ip for (iq, ip), c in a.items() if ip > 0}


def _univariate(coeffs):
    return {(i, 0): c for i, c in enumerate(coeffs) if c}


def _poly_matrix(poly) -> np.ndarray:
    """Dense float coefficient matrix indexed [P power, q power]."""
    if not poly:
        return np.zeros((1, 1))
    jmax = max(ip for (_, ip) in poly)
    mmax = max(iq for (iq, _) in poly)
    mat = np.zeros((jmax + 1, mmax + 1))
    for (iq, ip), c in poly.items():
        mat[ip, iq] = float(c)
    return mat


def _pad_stack(mats):
    rows = max(m.shape[0] for m in mats)
    cols = max(m.shape[1] for m in mats)
    out = np.zeros((len(mats), rows, cols))
    for i, m in enumerate(mats):
        out[i, : m.shape[0], : m.shape[1]] = m
    return out


class _SymbolicContext:
    """Evaluates expansion trees over the exact (q, P) polynomial ring."""

    def __init__(self, vcoeffs, mval: Fraction):
        derivs = [list(vcoeffs)]
        for _ in range(9):
            prev = derivs[-1]
            derivs.append([prev[i] * i for i in range(1, len(prev))])
        self.vderiv = [_univariate(c) for c in derivs]
        self.mval = mval
        self._memo = {}

    def node_poly(self, node):
        if node == _P:
            return {(0, 1): self.mval}
        cached = self._memo.get(node)
        if cached is None:
            poly = self.term_poly(node[1], open_slots=1)
            cached = self._memo[node] = {k: self.mval * c for k, c in poly.items()}
        return cached

    def term_poly(self, children, open_slots=0):
        poly = self.vderiv[len(children) + open_slots]
        for sub in children:
            poly = _poly_mul(poly, self.node_poly(sub))
        return poly

    def table_poly(self, entries):
        total = {}
        for children, coeff in _table_expansion(entries).items():
            total = _poly_add(total, self.term_poly(children), coeff)
        return total


@dataclass
class FastTables:
    """tau-independent exact tables for one (potential, mass, order).

    ``kick``, ``gq`` and ``gp`` each map a tau power n to a float
    coefficient matrix indexed [P power, q power]; the kernel's table is
    the sum over n of tau^n times the matrix:

    * ``kick``: dV_eff/dq; V' at n = 0, the gradient of the potential
      correction V_n at n = 2, 4, 6.  It has one row (no P).
    * ``gq``: dG/dq; P at n = 0, dG_n/dq at n >= 3 (zero at n = 1).
    * ``gp``: dG/dP; q at n = 0, M P at n = 1, dG_n/dP at n >= 3.
    """

    mval: float
    vpot: np.ndarray  # V coefficients, ascending
    kick: dict
    gq: dict
    gp: dict

    def fold(self, tau: float):
        """Fold tau powers into float coefficient arrays for the kernel."""
        vg, cq, cp = (_pad_stack([tau**n * mat for n, mat in table.items()]).sum(axis=0)
                      for table in (self.kick, self.gq, self.gp))
        return vg[0], cq, cp


_TABLE_CACHE: dict = {}


def tables_for(potential: Potential, mass: MassMatrix, scheme_order: int) -> FastTables:
    coeffs = potential.poly1d_coefficients()
    if coeffs is None or mass.dim != 1:
        raise ValueError("not eligible for the fast kernel: it needs a 1-D "
                         "polynomial potential and a 1-D mass")
    key = (tuple(float(c) for c in coeffs), float(mass.mat[0, 0]), scheme_order)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    vfrac = [Fraction(float(c)) for c in coeffs]
    mval = Fraction(float(mass.mat[0, 0]))
    ctx = _SymbolicContext(vfrac, mval)
    kick = {0: np.array([[float(c * i) for i, c in enumerate(vfrac) if i] or [0.0]])}
    for n in correction_orders(scheme_order):
        kick[n] = _poly_matrix(_poly_dq(ctx.table_poly(POTENTIAL_GENERATORS[n])))
        if kick[n].shape[0] != 1:
            raise ValueError("potential correction unexpectedly momentum dependent")
    # G = q.P + (tau/2) M P^2 + sum_n tau^n G_n
    gen = {0: {(1, 1): Fraction(1)}, 1: {(0, 2): mval / 2}}
    for n in generating_orders(scheme_order):
        gen[n] = ctx.table_poly(GENERATING_TERMS[n])
    tables = FastTables(
        mval=float(mval),
        vpot=np.asarray(coeffs, dtype=float),
        kick=kick,
        gq={n: _poly_matrix(_poly_dq(g)) for n, g in gen.items()},
        gp={n: _poly_matrix(_poly_dp(g)) for n, g in gen.items()},
    )
    _TABLE_CACHE[key] = tables
    return tables


# ---------------------------------------------------------------------------
# The stepping loop.


@njit(cache=True)
def _polyval(c, x):
    acc = 0.0
    for k in range(c.shape[0] - 1, -1, -1):
        acc = acc * x + c[k]
    return acc


@njit(cache=True)
def _kernel(q, p, mval, tau, n_steps, explicit_move, vg, cq, cp, vpot,
            tol, max_iter, rec_start, rec_stop, out_q, out_p, out_h,
            out_iters, out_res, h0, a0, a1, b0, b1):
    nj = cq.shape[0]
    local = np.empty(nj)
    max_a = 0.0
    max_b = 0.0
    status = 0
    fail_step = 0
    fail_res = 0.0
    fail_iters = 0
    half = 0.5 * tau
    # status 1: the Newton solve failed; 2: the state became non-finite
    for i in range(1, n_steps + 1):
        p -= half * _polyval(vg, q)
        if not math.isfinite(p):
            status, fail_step = 2, i
            break
        iters = 0
        res = 0.0
        if explicit_move:
            q += tau * mval * p
        else:
            for j in range(nj):
                local[j] = _polyval(cq[j], q)
            mom = p
            ok = False
            while True:
                f = 0.0
                for j in range(nj - 1, -1, -1):
                    f = f * mom + local[j]
                f -= p
                res = abs(f)
                if not np.isfinite(res):
                    break
                if res <= tol:
                    ok = True
                    break
                if iters >= max_iter:
                    break
                fp = 0.0
                for j in range(nj - 1, 0, -1):
                    fp = fp * mom + j * local[j]
                if fp == 0.0:
                    break
                mom -= f / fp
                iters += 1
            if not ok:
                status = 1
                fail_step = i
                fail_res = res
                fail_iters = iters
                break
            # converged; one polish update unless already at roundoff,
            # matching the slow path's refinement rule (f still holds the
            # signed residual at mom)
            pscale = abs(p)
            if pscale < 1.0:
                pscale = 1.0
            if res > POLISH_FLOOR * pscale:
                fp = 0.0
                for j in range(nj - 1, 0, -1):
                    fp = fp * mom + j * local[j]
                if fp != 0.0:
                    trial = mom - f / fp
                    f2 = 0.0
                    for j in range(nj - 1, -1, -1):
                        f2 = f2 * trial + local[j]
                    f2 -= p
                    if np.isfinite(f2) and abs(f2) < res:
                        mom = trial
                        res = abs(f2)
                        iters += 1
            qn = 0.0
            for j in range(cp.shape[0] - 1, -1, -1):
                qn = qn * mom + _polyval(cp[j], q)
            q = qn
            p = mom
        p -= half * _polyval(vg, q)
        if not (math.isfinite(q) and math.isfinite(p)):
            status, fail_step = 2, i
            break
        in_a = (a0 <= i) and (i < a1)
        in_b = (b0 <= i) and (i < b1)
        in_rec = (rec_start <= i) and (i < rec_stop)
        if in_a or in_b or in_rec:
            h = 0.5 * mval * p * p + _polyval(vpot, q)
            dev = abs(h - h0)
            if in_a and dev > max_a:
                max_a = dev
            if in_b and dev > max_b:
                max_b = dev
            if in_rec:
                k = i - rec_start
                out_q[k] = q
                out_p[k] = p
                out_h[k] = h
                out_iters[k] = iters
                out_res[k] = res
    return q, p, status, fail_step, fail_res, fail_iters, max_a, max_b


@dataclass
class FastRun:
    """The record of a run on either backend.

    Row k of the ``rec_*`` arrays is step ``rec_start + k``; step 0 is x0
    with H(x0), no Newton iterations and residual 0.  ``rec_q`` and
    ``rec_p`` are (rows, dim).  ``failure`` is None, or the
    ``NewtonDiverged`` / ``NonFiniteState`` that ended the run after
    ``completed_steps`` steps; the rows then stop there and ``final`` is None.
    """

    final: PhasePoint | None
    completed_steps: int
    rec_start: int
    rec_q: np.ndarray
    rec_p: np.ndarray
    rec_h: np.ndarray
    rec_iters: np.ndarray
    rec_res: np.ndarray
    max_a: float
    max_b: float
    failure: NewtonDiverged | NonFiniteState | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def raise_if_failed(self) -> "FastRun":
        if self.failure is not None:
            raise self.failure
        return self


def eligible(cfg: SchemeConfig, potential: Potential, mass: MassMatrix,
             dim: int) -> bool:
    """True when the compiled 1-D polynomial kernel can run this config."""
    return (
        dim == 1
        and mass.dim == 1
        and cfg.variant in _KERNEL_VARIANTS
        and potential.poly1d_coefficients() is not None
    )


# an overflow is reported as a non-finite state, not warned about
@np.errstate(over="ignore", invalid="ignore")
def fast_run(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
             mass: MassMatrix, n_steps: int, rec_range=None,
             range_a=None, range_b=None) -> FastRun:
    """Run n_steps with the compiled kernel.

    ``rec_range = (i0, i1)`` records state, energy and solve diagnostics for
    steps i0 <= i < i1, counting x0 as step 0.  ``range_a`` / ``range_b``
    accumulate max |H - H(x0)| over step ranges without storing anything,
    which is how multi-million-step stability windows stay cheap.
    """
    # tables_for rejects the potentials and masses the kernel cannot take
    if x0.dim != 1 or cfg.variant not in _KERNEL_VARIANTS:
        raise ValueError("configuration not eligible for the fast kernel")
    order = cfg.scheme_order
    tables = tables_for(potential, mass, order)
    vg, cq, cp = tables.fold(cfg.tau)
    rec_start, rec_stop = rec_range if rec_range is not None else (0, 0)
    n_rec = max(rec_stop - rec_start, 0)
    out_q = np.empty(n_rec)
    out_p = np.empty(n_rec)
    out_h = np.empty(n_rec)
    out_iters = np.zeros(n_rec, dtype=np.int64)
    out_res = np.zeros(n_rec)
    if rec_start == 0 < n_rec:
        out_q[0], out_p[0] = x0.q[0], x0.p[0]
        out_h[0] = hamiltonian(x0, potential, mass)
    a0, a1 = range_a if range_a is not None else (0, 0)
    b0, b1 = range_b if range_b is not None else (0, 0)
    h0 = 0.5 * tables.mval * x0.p[0] ** 2 + _polyval(tables.vpot, float(x0.q[0]))
    q, p, status, fail_step, fail_res, fail_iters, max_a, max_b = _kernel(
        float(x0.q[0]), float(x0.p[0]), tables.mval, cfg.tau, int(n_steps),
        order == 2, vg, cq, cp, tables.vpot, cfg.newton_tol,
        int(cfg.newton_max_iter), int(rec_start), int(rec_stop),
        out_q, out_p, out_h, out_iters, out_res, h0,
        int(a0), int(a1), int(b0), int(b1),
    )
    failure = (None if status == 0 else NonFiniteState(fail_step) if status == 2
               else NewtonDiverged(fail_res, fail_iters, step_index=fail_step))
    completed = fail_step - 1 if status else n_steps
    n_kept = max(0, min(completed - rec_start + 1, n_rec))
    return FastRun(
        None if status else PhasePoint([q], [p]), completed, rec_start,
        out_q[:n_kept, None], out_p[:n_kept, None], out_h[:n_kept],
        out_iters[:n_kept], out_res[:n_kept], max_a, max_b, failure,
    )


def simulate(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
             mass: MassMatrix, n_steps: int, rec_range=None,
             range_a=None, range_b=None) -> FastRun:
    """``fast_run`` when the config is ``eligible``, else the generic engine.

    Arguments and result are those of ``fast_run`` on both backends.  A
    failed run is reported in ``failure``, never raised.
    """
    if eligible(cfg, potential, mass, x0.dim):
        return fast_run(x0, cfg, potential, mass, n_steps, rec_range, range_a, range_b)
    (r0, r1), (a0, a1), (b0, b1) = (r or (0, 0) for r in (rec_range, range_a, range_b))
    h0 = hamiltonian(x0, potential, mass)
    rec = [(x0.q, x0.p, h0, 0, 0.0)] if r0 == 0 < r1 else []
    peak = [0.0, 0.0]

    def observer(i, t, x, report):
        if r0 <= i < r1 or a0 <= i < a1 or b0 <= i < b1:
            h = hamiltonian(x, potential, mass)
            if a0 <= i < a1:
                peak[0] = max(peak[0], abs(h - h0))
            if b0 <= i < b1:
                peak[1] = max(peak[1], abs(h - h0))
            if r0 <= i < r1:
                rec.append((x.q, x.p, h, report.newton_iterations,
                            report.newton_residual))

    # without anything to record, integrate fuses adjacent half kicks
    watch = rec_range or range_a or range_b
    final, failure = None, None
    try:
        final = integrate(x0, cfg, potential, mass, n_steps,
                          observer=observer if watch else None)
    except (NewtonDiverged, NonFiniteState) as err:
        failure = err
    qs, ps, hs, iters, res = zip(*rec) if rec else ((),) * 5
    return FastRun(
        final, n_steps if failure is None else failure.step_index - 1, r0,
        np.reshape(qs, (-1, x0.dim)), np.reshape(ps, (-1, x0.dim)),
        np.array(hs, dtype=float), np.array(iters, dtype=np.int64),
        np.array(res, dtype=float), peak[0], peak[1], failure,
    )


def warmup() -> None:
    """Trigger kernel compilation on a tiny run (numba caches the result)."""
    from .hamiltonian import Quartic

    pot = Quartic()
    mass = MassMatrix.identity(1)
    x0 = PhasePoint([0.0], [1.0])
    for order, variant in ((2, "baseline_kmk"), (8, "corrected_kmk")):
        cfg = SchemeConfig(variant, 0.1, order=order if variant == "corrected_kmk" else 2)
        fast_run(x0, cfg, pot, mass, 3, rec_range=(1, 3), range_a=(1, 3))

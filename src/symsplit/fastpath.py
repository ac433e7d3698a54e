"""Compiled stepping kernel for one-dimensional polynomial potentials.

For a 1-D polynomial V every quantity the kick-move-kick schemes need
(effective-potential gradient, the implicit move residual dG/dq - p, the
new-position map dG/dP) is a bivariate polynomial in (q, P) whose
coefficients are exact rationals.  This module evaluates the word
expansions from :mod:`symsplit.operators` over that polynomial ring once
per (potential, mass, order), folds the step-size powers in, and hands the
resulting coefficient matrices to a C loop (``_kernel.c``).  Long runs
(hundreds of thousands of periods) then cost nanoseconds per step instead
of milliseconds, while agreeing with the generic engine to roundoff because
both paths evaluate the same expansions.

The C source is compiled on first import with ``$CC`` (default ``cc``) into
``__pycache__`` and loaded with ctypes; later imports load the cached
library.  The signature of ``symsplit_kernel`` is the one calling
convention of the loop: its ctypes argtypes refuse an array of the wrong
dtype or layout, and when the compiler or the load fails,
``_python_kernel`` takes the same arguments and runs the same loop in
plain Python, bit for bit.  ``BACKEND`` names the loop that runs and
``BACKEND_REASON`` says why.  The same library formats trace CSV rows:
``format_rows`` is ``symsplit_format_rows`` on the C backend and the
``%``-template ``_template_rows`` otherwise, with the same bytes.

``simulate`` is the single point that decides which backend runs: the
kernel through ``fast_run`` when ``eligible`` allows it, the generic
``integrate`` otherwise, both reported in one ``FastRun`` record.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hamiltonian import MassMatrix, PhasePoint, Potential, hamiltonian
from .integrators import (KMK_VARIANTS, POLISH_FLOOR, NewtonDiverged,
                          NonFiniteState, SchemeConfig, integrate)
from .operators import (
    GENERATING_TERMS,
    POTENTIAL_GENERATORS,
    _P,
    _table_expansion,
    correction_orders,
    generating_orders,
)

__all__ = ["eligible", "FastRun", "fast_run", "simulate", "FastTables", "tables_for",
           "format_rows"]


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


def _stacked(table):
    """(tau powers, their matrices zero-padded into one (n, rows, cols) array)."""
    rows = max(m.shape[0] for m in table.values())
    cols = max(m.shape[1] for m in table.values())
    stack = np.zeros((len(table), rows, cols))
    for i, m in enumerate(table.values()):
        stack[i, : m.shape[0], : m.shape[1]] = m
    return tuple(table), stack


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

    ``kick``, ``gq`` and ``gp`` are each a pair (tau powers, stack): row k
    of the stack is the float coefficient matrix, indexed [P power,
    q power], of tau^powers[k], zero-padded to one shape.  The kernel's
    table is the sum over k of tau^powers[k] times stack[k]:

    * ``kick``: dV_eff/dq; V' at n = 0, the gradient of the potential
      correction V_n at n = 2, 4, 6.  It has one row (no P).
    * ``gq``: dG/dq; P at n = 0, dG_n/dq at n >= 3 (zero at n = 1).
    * ``gp``: dG/dP; q at n = 0, M P at n = 1, dG_n/dP at n >= 3.
    """

    mval: float
    vpot: np.ndarray  # V coefficients, ascending
    kick: tuple
    gq: tuple
    gp: tuple
    _folded: dict = field(default_factory=dict, repr=False, compare=False)

    def fold(self, tau: float):
        """Fold tau powers into float coefficient arrays for the kernel.

        Each tau is folded once; later calls return the same read-only arrays.
        """
        folded = self._folded.get(tau)
        if folded is None:
            vg, cq, cp = ((np.array([tau**n for n in powers])[:, None, None] * stack).sum(axis=0)
                          for powers, stack in (self.kick, self.gq, self.gp))
            folded = self._folded[tau] = (vg[0], cq, cp)
            for arr in folded:
                arr.flags.writeable = False
        return folded


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
    try:
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
            vpot=np.array(coeffs, dtype=float),
            kick=_stacked(kick),
            gq=_stacked({n: _poly_matrix(_poly_dq(g)) for n, g in gen.items()}),
            gp=_stacked({n: _poly_matrix(_poly_dp(g)) for n, g in gen.items()}),
        )
    except OverflowError:
        # float(Fraction) of an exact coefficient beyond the double range
        raise ValueError(f"the order-{scheme_order} kernel tables of this potential "
                         "and mass overflow the float range") from None
    _TABLE_CACHE[key] = tables
    return tables


# ---------------------------------------------------------------------------
# The stepping loop.


def _polyval(c, n, x):
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc = acc * x + c[k]
    return acc


def _python_kernel(state, mval, tau, n_steps, explicit_move, vg, nvg, cq, nj, ncq,
                   cp, ncpj, ncp, vpot, nvpot, tol, max_iter, polish_floor,
                   rec_start, rec_stop, out_q, out_p, out_h, out_iters, out_res,
                   h0, a0, a1, b0, b1, local, counts):
    """``symsplit_kernel`` of ``_kernel.c`` in Python, argument for argument.

    ``state`` holds q, p on entry and q, p, fail_res, max_a, max_b on
    return; ``counts`` receives fail_step, fail_iters.  Steps rec_start <=
    i < rec_stop are recorded into the ``out_*`` buffers in place, and
    ``local`` is the Newton scratch row, nj long.  Returns the status: 0,
    1 (the Newton solve failed) or 2 (the state became non-finite).  The C
    loop is this loop transliterated and must stay bit-identical.
    """
    q, p = float(state[0]), float(state[1])
    max_a = 0.0
    max_b = 0.0
    status = 0
    fail_step = 0
    fail_res = 0.0
    fail_iters = 0
    half = 0.5 * tau
    for i in range(1, n_steps + 1):
        p -= half * _polyval(vg, nvg, q)
        if not math.isfinite(p):
            status, fail_step = 2, i
            break
        iters = 0
        res = 0.0
        if explicit_move:
            q += tau * mval * p
        else:
            for j in range(nj):
                local[j] = _polyval(cq[j], ncq, q)
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
            if res > polish_floor * pscale:
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
            for j in range(ncpj - 1, -1, -1):
                qn = qn * mom + _polyval(cp[j], ncp, q)
            q = qn
            p = mom
        p -= half * _polyval(vg, nvg, q)
        if not (math.isfinite(q) and math.isfinite(p)):
            status, fail_step = 2, i
            break
        in_a = (a0 <= i) and (i < a1)
        in_b = (b0 <= i) and (i < b1)
        in_rec = (rec_start <= i) and (i < rec_stop)
        if in_a or in_b or in_rec:
            h = 0.5 * mval * p * p + _polyval(vpot, nvpot, q)
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
    state[:] = q, p, fail_res, max_a, max_b
    counts[:] = fail_step, fail_iters
    return status


_SOURCE = Path(__file__).with_name("_kernel.c")
# contraction into FMA would round differently from the Python loop
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# symsplit_kernel's parameters; ctypes refuses an array that is not a
# C-contiguous float64 (int64 for out_iters and counts) array
_F64, _I64 = ctypes.c_double, ctypes.c_int64
_ARR, _IARR = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS") for t in (np.float64, np.int64))
_C_ARGTYPES = (
    [_ARR, _F64, _F64, _I64, ctypes.c_int, _ARR, _I64, _ARR, _I64, _I64,
     _ARR, _I64, _I64, _ARR, _I64, _F64, _I64, _F64, _I64, _I64]
    + [_ARR] * 3 + [_IARR, _ARR, _F64] + [_I64] * 4 + [_ARR, _IARR]
)
# symsplit_format_rows(rows, nrows, ncols, int_cols, out)
_FORMAT_ARGTYPES = [_ARR, _I64, _I64, ctypes.c_char_p, ctypes.c_char_p]
# the longest field symsplit_format_rows writes, plus its separator
_FIELD_BYTES, _INT_FIELD_BYTES = 25, 21


def _load_c_kernel(cc: str, cache: Path):
    """(C library, reason), or (None, reason) when it cannot be built or loaded.

    The library is built once per (source, compiler, flags) into ``cache``
    through a temporary file and ``os.replace``, so a concurrent import
    never loads a half-written library.
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError as err:
        return None, f"no kernel source: {err}"
    key = b"\0".join([source, cc.encode(), *(f.encode() for f in _CFLAGS)])
    lib = cache / f"_kernel-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not lib.is_file():
        import subprocess  # only a cache miss runs the compiler

        try:
            cache.mkdir(exist_ok=True)
        except OSError as err:
            return None, f"cannot write {cache}: {err}"
        tmp = cache / f"{lib.stem}.{os.getpid()}.tmp"
        try:
            done = subprocess.run([*cc.split(), *_CFLAGS, "-o", str(tmp), str(_SOURCE)],
                                  capture_output=True, timeout=300)
            if done.returncode:
                return None, f"{cc} exited {done.returncode}"
            os.replace(tmp, lib)
        except (OSError, subprocess.SubprocessError) as err:
            return None, f"cannot build with {cc}: {err}"
        finally:
            if tmp.exists():
                tmp.unlink()
    try:
        dll = ctypes.CDLL(str(lib))
        kernel, format_c = dll.symsplit_kernel, dll.symsplit_format_rows
    except (OSError, AttributeError) as err:
        return None, f"cannot load {lib.name}: {err}"
    kernel.argtypes = _C_ARGTYPES
    kernel.restype = ctypes.c_int
    format_c.argtypes = _FORMAT_ARGTYPES
    format_c.restype = ctypes.c_int64
    return dll, f"{lib.name} built by {cc}"


def _template_rows(rows, int_cols) -> str:
    """CSV lines of a 2-D float array: ``"%d"`` for the columns listed in
    ``int_cols``, ``"%.17g"`` for the others, each line ending in a newline.

    The reference the C formatter must match byte for byte.
    """
    row = ",".join("%d" if j in int_cols else "%.17g" for j in range(rows.shape[1])) + "\n"
    return "".join(row % tuple(values) for values in rows.tolist())


def _c_rows(rows, int_cols) -> str:
    """``_template_rows`` by ``symsplit_format_rows``, the same bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    nrows, ncols = rows.shape
    flags = bytes(j in int_cols for j in range(ncols))
    out = ctypes.create_string_buffer(
        nrows * sum(_INT_FIELD_BYTES if f else _FIELD_BYTES for f in flags))
    size = _c_lib.symsplit_format_rows(rows, nrows, ncols, flags, out)
    if size < 0:
        raise ValueError("an integer column holds a non-finite value or one "
                         "of magnitude 2**63 or more")
    return str(memoryview(out)[:size], "ascii")


_c_lib, BACKEND_REASON = _load_c_kernel(os.environ.get("CC") or "cc",
                                        _SOURCE.parent / "__pycache__")
_c_kernel = _c_lib.symsplit_kernel if _c_lib is not None else None
BACKEND = "c" if _c_lib is not None else "python-fallback"
# the one stepping loop fast_run calls, and the one row formatter of traces
_kernel = _c_kernel or _python_kernel
format_rows = _c_rows if _c_lib is not None else _template_rows
# numba is gone; perfbench/workloads.py still reads this flag for its label
HAVE_NUMBA = False


@dataclass
class FastRun:
    """The record of a run on either backend.

    Row k of the ``rec_*`` arrays is step ``rec_start + k``; step 0 is x0
    with H(x0), no Newton iterations and residual 0.  ``rec_q`` and
    ``rec_p`` are (rows, dim).  ``failure`` is None, or the
    ``NewtonDiverged`` / ``NonFiniteState`` that ended the run after
    ``completed_steps`` steps; the rows then stop there and ``final`` is None.
    ``backend`` is the loop that ran it: "c", "python-fallback" (the 1-D
    kernel in C or in Python) or "generic" (``integrate``).
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
    failure: NewtonDiverged | NonFiniteState | None
    backend: str

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
        and cfg.variant in KMK_VARIANTS
        and potential.poly1d_coefficients() is not None
    )


# an overflow is reported as a non-finite state, not warned about
@np.errstate(over="ignore", invalid="ignore")
def fast_run(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
             mass: MassMatrix, n_steps: int, rec_range=None,
             range_a=None, range_b=None) -> FastRun:
    """Run n_steps with the 1-D kernel, in C or in Python (``BACKEND``).

    ``rec_range = (i0, i1)`` records state, energy and solve diagnostics for
    steps i0 <= i < i1, counting x0 as step 0.  ``range_a`` / ``range_b``
    accumulate max |H - H(x0)| over step ranges without storing anything,
    which is how multi-million-step stability windows stay cheap.
    """
    if not eligible(cfg, potential, mass, x0.dim):
        raise ValueError("configuration not eligible for the fast kernel")
    tables = tables_for(potential, mass, cfg.order)
    vg, cq, cp = tables.fold(cfg.tau)
    vpot = tables.vpot
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
    h0 = 0.5 * tables.mval * x0.p[0] ** 2 + _polyval(vpot, vpot.size, float(x0.q[0]))
    state = np.array([x0.q[0], x0.p[0], 0.0, 0.0, 0.0])
    counts = np.zeros(2, dtype=np.int64)
    status = _kernel(
        state, tables.mval, cfg.tau, int(n_steps), cfg.order == 2,
        vg, vg.size, cq, *cq.shape, cp, *cp.shape, vpot, vpot.size,
        cfg.newton_tol, int(cfg.newton_max_iter), POLISH_FLOOR,
        int(rec_start), int(rec_stop), out_q, out_p, out_h, out_iters, out_res,
        h0, int(a0), int(a1), int(b0), int(b1), np.empty(cq.shape[0]), counts,
    )
    q, p, fail_res, max_a, max_b = state.tolist()
    fail_step, fail_iters = counts.tolist()
    failure = (None if status == 0 else NonFiniteState(fail_step) if status == 2
               else NewtonDiverged(fail_res, fail_iters, step_index=fail_step))
    completed = fail_step - 1 if status else n_steps
    n_kept = max(0, min(completed - rec_start + 1, n_rec))
    return FastRun(
        None if status else PhasePoint([q], [p]), completed, rec_start,
        out_q[:n_kept, None], out_p[:n_kept, None], out_h[:n_kept],
        out_iters[:n_kept], out_res[:n_kept], max_a, max_b, failure, BACKEND,
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

    final, failure = None, None
    try:
        final = integrate(x0, cfg, potential, mass, n_steps, observer=observer)
    except (NewtonDiverged, NonFiniteState) as err:
        failure = err
    qs, ps, hs, iters, res = zip(*rec) if rec else ((),) * 5
    return FastRun(
        final, n_steps if failure is None else failure.step_index - 1, r0,
        np.reshape(qs, (-1, x0.dim)), np.reshape(ps, (-1, x0.dim)),
        np.array(hs, dtype=float), np.array(iters, dtype=np.int64),
        np.array(res, dtype=float), peak[0], peak[1], failure, "generic",
    )

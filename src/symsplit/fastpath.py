"""Compiled stepping kernel for one-dimensional polynomial potentials.

For a 1-D polynomial V every quantity the kick-move-kick schemes need
(effective-potential gradient, the implicit move residual dG/dq - p, the
new-position map dG/dP) is a polynomial in (q, P, tau) whose coefficients
are exact rationals.  This module builds those tables once per (potential,
mass, order) by applying each word of the :mod:`symsplit.operators` tables
to V one letter at a time in that polynomial ring, folds a step size into
each table, and hands the resulting coefficient matrices to a C loop
(``_kernel.c``).  Long runs (hundreds of thousands of periods) then cost
nanoseconds per step instead of milliseconds, while agreeing with the
generic engine, which expands the same words into derivative tensors, to
roundoff.

The C source is compiled on first import with ``$CC`` (default ``cc``) into
``__pycache__`` and loaded with ctypes; later imports load the cached
library.  The signature of ``symsplit_kernel`` is the one calling
convention of the loop: its ctypes argtypes refuse an array of the wrong
dtype or layout, and when the compiler or the load fails,
``_python_kernel`` takes the same arguments and runs the same loop in
plain Python, bit for bit.  ``BACKEND`` names the loop that runs and
``BACKEND_REASON`` says why.  The same library formats trace CSV rows:
``format_rows`` is ``symsplit_format_rows`` on the C backend and the
``%``-template ``_template_rows`` otherwise, with the same bytes.  And it
refines period crossings: ``cubic_roots`` is ``symsplit_cubic_roots`` or
its Python twin ``_python_cubic_roots``, with the same bits.

``simulate`` is the single point that decides which backend runs: the
kernel through ``fast_run`` when ``eligible`` allows it, the generic
``integrate`` otherwise, both reported in one ``FastRun`` record.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hamiltonian import MassMatrix, PhasePoint, Potential, hamiltonian
from .integrators import (KMK_VARIANTS, NEWTON_MAX_ITER, NEWTON_TOL, POLISH_FLOOR,
                          NewtonDiverged, NonFiniteState, SchemeConfig, integrate)
from .operators import (GENERATING_TERMS, POTENTIAL_GENERATORS, TRIPLE_GRADIENT,
                        correction_orders, generating_orders)

__all__ = ["eligible", "FastRun", "fast_run", "simulate", "FastTables", "tables_for",
           "format_rows", "cubic_roots"]


# ---------------------------------------------------------------------------
# Exact polynomials: {exponent tuple: Fraction}.  Words act on V in (q power,
# P power); the kernel tables add the tau power as a third.


def _poly_add(a, b, scale):
    """a + scale * b, without zero coefficients."""
    out = dict(a)
    for key, c in b.items():
        c *= scale
        out[key] = out[key] + c if key in out else c
    return {k: v for k, v in out.items() if v}


def _poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, c = tuple(map(operator.add, ka, kb)), ca * cb
            out[key] = out[key] + c if key in out else c
    return out


def _poly_d(a, var):
    """The derivative of a in the variable at exponent position var."""
    return {k[:var] + (k[var] - 1,) + k[var + 1:]: c * k[var] for k, c in a.items() if k[var]}


def _dense(poly) -> np.ndarray:
    """Dense float coefficients of a (q, P, tau) polynomial, indexed
    [tau power, P power, q power]."""
    arr = np.zeros([max((k[var] for k in poly), default=0) + 1 for var in (2, 1, 0)])
    for (iq, ip, n), c in poly.items():
        arr[n, ip, iq] = float(c)
    return arr


def _word_poly(word, v, mval):
    """The word applied to the (q, P) polynomial V, one letter at a time from
    the right: ``m`` multiplies d/dq by M P and ``g`` by M V'.
    ``TRIPLE_GRADIENT`` is V''' (M V')^3."""
    dv = _poly_d(v, 0)
    force = {k: mval * c for k, c in dv.items()}
    if word == TRIPLE_GRADIENT:
        return _poly_mul(_poly_d(_poly_d(dv, 0), 0), _poly_mul(force, _poly_mul(force, force)))
    letters, poly = {"m": {(0, 1): mval}, "g": force}, v
    for letter in reversed(word):
        poly = _poly_mul(_poly_d(poly, 0), letters[letter])
    return poly


def _series(v, mval, start, table, orders):
    """The (q, P, tau) polynomial start + sum over n in orders of tau^n times
    table[n], each entry its coefficient times its word applied to V; start's
    tau powers are below orders'."""
    out = dict(start)
    for n in orders:
        total = {}
        for coeff, word in table[n]:
            total = _poly_add(total, _word_poly(word, v, mval), coeff)
        out.update({(iq, ip, n): c for (iq, ip), c in total.items()})
    return out


@dataclass
class FastTables:
    """tau-independent exact tables for one (potential, mass, order).

    ``kick``, ``gq`` and ``gp`` are the float coefficients of a polynomial
    in (q, P, tau), each one array indexed [tau power, P power, q power];
    the kernel's table at step size tau is the sum over n of tau^n T[n]:

    * ``kick``: dV_eff/dq with V_eff = V + sum_n tau^n V_n.  It has one P
      row (no P).
    * ``gq``, ``gp``: dG/dq and dG/dP with
      G = q.P + (tau/2) M P^2 + sum_n tau^n G_n.
    """

    mval: float
    vpot: np.ndarray  # V coefficients, ascending
    kick: np.ndarray
    gq: np.ndarray
    gp: np.ndarray
    _folded: dict = field(default_factory=dict, repr=False, compare=False)

    def fold(self, tau: float):
        """Fold tau powers into float coefficient arrays for the kernel.

        Each tau is folded once; later calls return the same read-only arrays.
        """
        folded = self._folded.get(tau)
        if folded is None:
            vg, cq, cp = ((np.array([tau**n for n in range(len(table))])[:, None, None]
                           * table).sum(axis=0) for table in (self.kick, self.gq, self.gp))
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
    v = {(i, 0): c for i, c in enumerate(vfrac) if c}
    # V_eff = V + sum_n tau^n V_n and G = q.P + (tau/2) M P^2 + sum_n tau^n G_n;
    # V keeps its zero coefficients, so the kick table is as long as V'
    v_eff = _series(v, mval, {(i, 0, 0): c for i, c in enumerate(vfrac)},
                    POTENTIAL_GENERATORS, correction_orders(scheme_order))
    gen = _series(v, mval, {(1, 1, 0): Fraction(1), (0, 2, 1): mval / 2},
                  GENERATING_TERMS, generating_orders(scheme_order))
    try:
        kick, gq, gp = _dense(_poly_d(v_eff, 0)), _dense(_poly_d(gen, 0)), _dense(_poly_d(gen, 1))
    except OverflowError:
        # float(Fraction) of an exact coefficient beyond the double range
        raise ValueError(f"the order-{scheme_order} kernel tables of this potential "
                         "and mass overflow the float range") from None
    if kick.shape[1] != 1:
        # fold reads only the P^0 row of the kick table
        raise ValueError("potential correction unexpectedly momentum dependent")
    tables = _TABLE_CACHE[key] = FastTables(float(mval), np.array(coeffs, dtype=float),
                                            kick, gq, gp)
    return tables


# ---------------------------------------------------------------------------
# The stepping loop.


def _polyval(c, x):
    acc = 0.0
    for ck in reversed(c):
        acc = acc * x + ck
    return acc


def _dpolyval(c, x):
    """The derivative of ``_polyval(c, .)`` at x."""
    acc = 0.0
    for k in range(len(c) - 1, 0, -1):
        acc = acc * x + k * c[k]
    return acc


def _trimmed(c, n):
    """The first n coefficients of c as a float list, without the high zeros."""
    row = c[:n].tolist()
    while row and row[-1] == 0.0:
        row.pop()
    return row


def _python_kernel(state, mval, tau, n_steps, vg, nvg, cq, nj, ncq, cp, ncpj, ncp,
                   vpot, nvpot, tol, max_iter, polish_floor, rec_start, rec_stop,
                   rec, a0, a1, b0, b1):
    """``symsplit_kernel`` of ``_kernel.c`` in Python, argument for argument.

    Each step is half kick, implicit move, half kick.  The move solves
    p = dG/dq(q, P) for P by Newton and reads Q = dG/dP(q, P).  Newton
    starts at P = p + (2 d1 - d2), d1 and d2 the last two steps'
    increments P - p (both 0 at the start of a run), and from such a
    predicted start takes one update at least.  At order 2 the folded
    tables make the residual exactly P - p, so the increments are 0, the
    solve stops at 0 iterations and Q = (tau m) P + q is the drift.  Every
    table row is evaluated without its high zero coefficients, trimmed
    once at entry: Horner's 0 x + c is exactly c, so the bits are those of
    the whole row.  ``state`` holds q, p on entry and q, p, fail_res,
    max_a, max_b, H0, fail_step, fail_iters on return, with H0 the entry
    state's energy by the formula of every step.  max_a and max_b are the
    largest |H - H0| over steps a0 <= i < a1 and b0 <= i < b1.  Row
    i - rec_start of ``rec`` is step rec_start <= i < rec_stop as (q, p,
    H, Newton iterations, residual); step 0 is the entry state, H0, 0,
    0.0.  Returns the status: 0, 1 (the Newton solve failed) or 2 (the
    state became non-finite).  The C loop is this loop transliterated and
    must stay bit-identical.
    """
    vg, vpot = _trimmed(vg, nvg), _trimmed(vpot, nvpot)
    cq = [_trimmed(row, ncq) for row in cq[:nj]]
    cp = [_trimmed(row, ncp) for row in cp[:ncpj]]
    q, p = float(state[0]), float(state[1])
    h0 = 0.5 * mval * p * p + _polyval(vpot, q)
    max_a = max_b = fail_res = 0.0
    status = fail_step = fail_iters = 0
    local = [0.0] * nj  # the Newton polynomial in P at this q
    if rec_start == 0 < rec_stop:
        rec[0] = q, p, h0, 0, 0.0
    half = 0.5 * tau
    # the force at q, shared by the closing and the next opening half kick
    force = _polyval(vg, q)
    d1 = d2 = 0.0  # the last two increments P - p
    for i in range(1, n_steps + 1):
        p -= half * force
        if not math.isfinite(p):
            status, fail_step = 2, i
            break
        for j in range(nj):
            local[j] = _polyval(cq[j], q)
        iters = 0
        # P = p + (2 d1 - d2), written so that p = -0 stays -0 when both are 0
        pred = d2 - 2.0 * d1
        mom = p - pred
        ok = False
        while True:
            f = _polyval(local, mom) - p
            res = abs(f)
            if not math.isfinite(res):
                break
            # a predicted start takes one update at least: an error below
            # tol left in P would pass on to the next prediction
            if res <= tol and (iters > 0 or pred == 0.0):
                ok = True
                break
            fp = _dpolyval(local, mom)
            if iters >= max_iter or fp == 0.0:
                ok = res <= tol
                break
            mom -= f / fp
            iters += 1
        if not ok:
            status, fail_step, fail_res, fail_iters = 1, i, res, iters
            break
        # converged; one polish update unless already at roundoff, matching
        # the slow path's refinement rule (f still holds the signed residual
        # at mom)
        if res > polish_floor * max(abs(p), 1.0):
            fp = _dpolyval(local, mom)
            if fp != 0.0:
                trial = mom - f / fp
                f2 = _polyval(local, trial) - p
                if math.isfinite(f2) and abs(f2) < res:
                    mom = trial
                    res = abs(f2)
                    iters += 1
        d2, d1 = d1, mom - p
        qn = 0.0
        for j in range(ncpj - 1, -1, -1):
            qn = qn * mom + _polyval(cp[j], q)
        q = qn
        p = mom
        force = _polyval(vg, q)
        p -= half * force
        if not (math.isfinite(q) and math.isfinite(p)):
            status, fail_step = 2, i
            break
        in_a = a0 <= i < a1
        in_b = b0 <= i < b1
        in_rec = rec_start <= i < rec_stop
        if in_a or in_b or in_rec:
            h = 0.5 * mval * p * p + _polyval(vpot, q)
            dev = abs(h - h0)
            if in_a and dev > max_a:
                max_a = dev
            if in_b and dev > max_b:
                max_b = dev
            if in_rec:
                rec[i - rec_start] = q, p, h, iters, res
    state[:] = q, p, fail_res, max_a, max_b, h0, fail_step, fail_iters
    return status


_SOURCE = Path(__file__).with_name("_kernel.c")
# contraction into FMA would round differently from the Python loop
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class _Array:
    """The ctypes argtype of a C-contiguous float64 array, passed as its
    address.

    It refuses what ``np.ctypeslib.ndpointer(np.float64,
    flags="C_CONTIGUOUS")`` refuses, with that class's messages, but
    builds none of its ctypes objects.
    """

    _FLOAT64 = np.dtype(np.float64)

    @classmethod
    def from_param(cls, obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError("argument must be an ndarray")
        if obj.dtype != cls._FLOAT64:
            raise TypeError("array must have data type float64")
        if not obj.flags.c_contiguous:
            raise TypeError("array must have flags ['C_CONTIGUOUS']")
        return ctypes.c_void_p(obj.ctypes.data)


# symsplit_kernel's parameters; ctypes refuses an array that is not C-contiguous float64
_F64, _I64 = ctypes.c_double, ctypes.c_int64
_C_ARGTYPES = [_Array, _F64, _F64, _I64, _Array, _I64, _Array, _I64, _I64, _Array, _I64,
               _I64, _Array, _I64, _F64, _I64, _F64, _I64, _I64, _Array] + [_I64] * 4
# symsplit_format_rows(rows, nrows, ncols, int_cols, out), out a uint8 buffer's address
_FORMAT_ARGTYPES = [_Array, _I64, _I64, ctypes.c_char_p, ctypes.c_void_p]
# symsplit_cubic_roots(coeffs, widths, n, out)
_ROOTS_ARGTYPES = [_Array, _Array, _I64, _Array]
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
        roots = dll.symsplit_cubic_roots
    except (OSError, AttributeError) as err:
        return None, f"cannot load {lib.name}: {err}"
    kernel.argtypes = _C_ARGTYPES
    kernel.restype = ctypes.c_int
    format_c.argtypes = _FORMAT_ARGTYPES
    format_c.restype = ctypes.c_int64
    roots.argtypes = _ROOTS_ARGTYPES
    roots.restype = None
    return dll, f"{lib.name} built by {cc}"


def _template_rows(rows, int_cols) -> bytes:
    """CSV lines of a 2-D float array: ``"%d"`` for the columns listed in
    ``int_cols``, ``"%.17g"`` for the others, each line ending in a newline.

    The reference the C formatter must match byte for byte.
    """
    row = ",".join("%d" if j in int_cols else "%.17g" for j in range(rows.shape[1])) + "\n"
    return "".join(row % tuple(values) for values in rows.tolist()).encode("ascii")


def _c_rows(rows, int_cols) -> memoryview:
    """``_template_rows`` by ``symsplit_format_rows``, the same bytes, as a
    view of the written prefix of one uninitialised buffer."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    nrows, ncols = rows.shape
    flags = bytes(j in int_cols for j in range(ncols))
    out = np.empty(nrows * sum(_INT_FIELD_BYTES if f else _FIELD_BYTES for f in flags),
                   np.uint8)
    size = _c_lib.symsplit_format_rows(rows, nrows, ncols, flags, out.ctypes.data)
    if size < 0:
        raise ValueError("an integer column holds a non-finite value or one "
                         "of magnitude 2**63 or more")
    return out.data[:size]


def _python_cubic_roots(coeffs, widths, n, out):
    """``symsplit_cubic_roots`` of ``_kernel.c`` in Python, argument for
    argument, bit for bit.

    Row i of the (n, 4) ``coeffs`` is a cubic in ``np.polyfit``'s order
    with a sign change on [0, widths[i]].  It is bisected 80 times,
    evaluated with ``np.polyval``'s Horner operations in their order, and
    out[i] is the last bracket's midpoint.
    """
    rows, ends = coeffs.tolist(), widths.tolist()
    for i in range(n):
        c0, c1, c2, c3 = rows[i]
        a, b = 0.0, ends[i]
        # y = y * x + c from y = 0, one float operation at a time; a only
        # moves to points of f(a)'s sign, so that sign is fixed
        neg = (((0.0 * a + c0) * a + c1) * a + c2) * a + c3 < 0
        for _ in range(80):
            mid = 0.5 * (a + b)
            if ((((0.0 * mid + c0) * mid + c1) * mid + c2) * mid + c3 < 0) == neg:
                a = mid
            else:
                b = mid
        out[i] = 0.5 * (a + b)


_c_lib, BACKEND_REASON = _load_c_kernel(os.environ.get("CC") or "cc",
                                        _SOURCE.parent / "__pycache__")
_c_kernel = _c_lib.symsplit_kernel if _c_lib is not None else None
BACKEND = "c" if _c_lib is not None else "python-fallback"
# the one stepping loop fast_run calls, the one row formatter of traces and
# the one crossing refinement of verification.period_estimate
_kernel = _c_kernel or _python_kernel
format_rows = _c_rows if _c_lib is not None else _template_rows
cubic_roots = _c_lib.symsplit_cubic_roots if _c_lib is not None else _python_cubic_roots
# numba is gone; perfbench/workloads.py still reads this flag for its label
HAVE_NUMBA = False


@dataclass
class FastRun:
    """The record of a run on either backend.

    Row k of the ``rec_*`` arrays is step ``rec_start + k``; step 0 is x0
    with ``h0``, no Newton iterations and residual 0.  ``rec_q`` and
    ``rec_p`` are (rows, dim).  ``h0`` is x0's energy by the kernel's
    per-step formula, or ``hamiltonian(x0)`` on the generic engine, and
    ``max_a`` / ``max_b`` are the largest |H - h0| over the steps of
    ``range_a`` / ``range_b``.  ``failure`` is None, or the
    ``NewtonDiverged`` / ``NonFiniteState`` that ended the run after
    ``completed_steps`` steps; the rows then stop there and ``final`` is
    None.  ``backend`` is the loop that ran it: "c", "python-fallback" (the
    1-D kernel in C or in Python) or "generic" (``integrate``).  All
    ``rec_*`` but ``rec_iters`` are views of one row array; keeping one
    keeps it all, so copy a column that outlives the run.
    """

    final: PhasePoint | None
    completed_steps: int
    rec_start: int
    rec_q: np.ndarray
    rec_p: np.ndarray
    rec_h: np.ndarray
    rec_iters: np.ndarray
    rec_res: np.ndarray
    h0: float
    max_a: float
    max_b: float
    failure: NewtonDiverged | NonFiniteState | None
    backend: str

    @classmethod
    def from_rows(cls, rows, final, completed_steps, rec_start, h0, max_a, max_b,
                  failure, backend) -> "FastRun":
        """The record whose rows are (q, p, H, Newton iterations, residual),
        with q and p dim columns each."""
        dim = (rows.shape[1] - 3) // 2
        return cls(final, completed_steps, rec_start, rows[:, :dim], rows[:, dim:-3],
                   rows[:, -3], rows[:, -2].astype(np.int64), rows[:, -1], h0, max_a,
                   max_b, failure, backend)

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


def _windows(rec_range, range_a, range_b):
    """The three step windows, (0, 0) for None; a record window that starts
    before step 0 is a ``ValueError``."""
    windows = [w or (0, 0) for w in (rec_range, range_a, range_b)]
    if windows[0][0] < 0:
        raise ValueError(f"record window starts at step {windows[0][0]}, before step 0")
    return windows


# an overflow is reported as a non-finite state, not warned about
@np.errstate(over="ignore", invalid="ignore")
def fast_run(x0: PhasePoint, cfg: SchemeConfig, potential: Potential,
             mass: MassMatrix, n_steps: int, rec_range=None,
             range_a=None, range_b=None) -> FastRun:
    """Run n_steps with the 1-D kernel, in C or in Python (``BACKEND``).

    ``rec_range = (i0, i1)`` records state, energy and solve diagnostics for
    steps i0 <= i < i1, counting x0 as step 0 (i0 >= 0).  ``range_a`` /
    ``range_b`` accumulate max |H - H0| over step ranges without storing
    anything, which is how multi-million-step stability windows stay cheap.
    The kernel writes every row and H0 (``FastRun.h0``) by one formula.
    A step count or window bound outside int64 is a ``ValueError`` on both
    loops.
    """
    if not eligible(cfg, potential, mass, x0.dim):
        raise ValueError("configuration not eligible for the fast kernel")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    (rec_start, rec_stop), (a0, a1), (b0, b1) = _windows(rec_range, range_a, range_b)
    # ctypes wraps a larger integer silently; both loops refuse it alike
    for value in (n_steps, rec_start, rec_stop, a0, a1, b0, b1):
        if not -2**63 <= value < 2**63:
            raise ValueError(f"step counts and window bounds must fit in int64, got {value}")
    # the kernel records no step past n_steps
    rec_stop = min(rec_stop, n_steps + 1)
    tables = tables_for(potential, mass, cfg.order)
    vg, cq, cp = tables.fold(cfg.tau)
    rec = np.empty((max(rec_stop - rec_start, 0), 5))
    state = np.array([x0.q[0], x0.p[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    status = _kernel(
        state, tables.mval, cfg.tau, int(n_steps), vg, vg.size, cq, *cq.shape,
        cp, *cp.shape, tables.vpot, tables.vpot.size,
        NEWTON_TOL, NEWTON_MAX_ITER, POLISH_FLOOR,
        int(rec_start), int(rec_stop), rec, int(a0), int(a1), int(b0), int(b1),
    )
    q, p, fail_res, max_a, max_b, h0 = state[:6].tolist()
    fail_step, fail_iters = int(state[6]), int(state[7])
    failure = (None if status == 0 else NonFiniteState(fail_step) if status == 2
               else NewtonDiverged(fail_res, fail_iters, step_index=fail_step))
    completed = fail_step - 1 if status else n_steps
    return FastRun.from_rows(
        rec[:max(0, completed - rec_start + 1)], None if status else PhasePoint([q], [p]),
        completed, rec_start, h0, max_a, max_b, failure, BACKEND,
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
    (r0, r1), (a0, a1), (b0, b1) = _windows(rec_range, range_a, range_b)
    h0 = hamiltonian(x0, potential, mass)
    rec = [[*x0.q, *x0.p, h0, 0, 0.0]] if r0 == 0 < r1 else []
    peak = [0.0, 0.0]

    def observer(i, t, x, report):
        if r0 <= i < r1 or a0 <= i < a1 or b0 <= i < b1:
            h = hamiltonian(x, potential, mass)
            if a0 <= i < a1:
                peak[0] = max(peak[0], abs(h - h0))
            if b0 <= i < b1:
                peak[1] = max(peak[1], abs(h - h0))
            if r0 <= i < r1:
                rec.append([*x.q, *x.p, h, report.newton_iterations,
                            report.newton_residual])

    final, failure = None, None
    try:
        final = integrate(x0, cfg, potential, mass, n_steps, observer=observer)
    except (NewtonDiverged, NonFiniteState) as err:
        failure = err
    return FastRun.from_rows(
        np.array(rec, dtype=float).reshape(-1, 2 * x0.dim + 3), final,
        n_steps if failure is None else failure.step_index - 1, r0, h0, peak[0],
        peak[1], failure, "generic",
    )

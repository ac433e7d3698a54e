"""Compiled 1-D polynomial kernel versus the general-purpose integrator.

The kernel must be a pure performance device: same map, same diagnostics,
same failure behavior.  Above order 2 agreement with the general path is
to accumulated roundoff, not bitwise: the kernel folds tau into exact
rational tables once instead of re-evaluating word contractions.  At order 2
with M = 1 both run the same half kicks and drift and agree bit for bit.
The C loop and the Python loop of the kernel agree bit for bit.
"""
import ctypes
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsplit import fastpath
from symsplit.hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Polynomial1D,
    Quadratic,
    Quartic,
    hamiltonian,
)
from symsplit.integrators import NewtonDiverged, NonFiniteState, SchemeConfig, integrate

needs_c = pytest.mark.skipif(fastpath._c_kernel is None,
                             reason=f"no C kernel: {fastpath.BACKEND_REASON}")


def _cfg(variant, tau, order=2):
    if variant == "corrected_kmk":
        return SchemeConfig(variant, tau, order=order)
    return SchemeConfig(variant, tau)


def _on_both_kernels(*args, **kwargs):
    """``fast_run`` on the C loop, then on the Python loop."""
    runs = []
    for kernel, backend in ((fastpath._c_kernel, "c"),
                            (fastpath._python_kernel, "python-fallback")):
        with mock.patch.multiple(fastpath, _kernel=kernel, BACKEND=backend):
            runs.append(fastpath.fast_run(*args, **kwargs))
    return runs


def _assert_bit_identical(c_run, py_run):
    assert (c_run.backend, py_run.backend) == ("c", "python-fallback")
    for name in ("rec_q", "rec_p", "rec_h", "rec_iters", "rec_res"):
        a, b = getattr(c_run, name), getattr(py_run, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (c_run.completed_steps, c_run.max_a, c_run.max_b) == (
        py_run.completed_steps, py_run.max_a, py_run.max_b)
    if py_run.final is None:
        assert c_run.final is None
    else:
        assert (c_run.final.q[0], c_run.final.p[0]) == (py_run.final.q[0],
                                                        py_run.final.p[0])
    assert type(c_run.failure) is type(py_run.failure)
    assert (getattr(c_run.failure, "step_index", None)
            == getattr(py_run.failure, "step_index", None))
    if isinstance(py_run.failure, NewtonDiverged):
        assert c_run.failure.iterations == py_run.failure.iterations
        assert np.array_equal(c_run.failure.residual, py_run.failure.residual,
                              equal_nan=True)


_X_UNIT = PhasePoint([0.0], [1.0])
_MASS1 = MassMatrix.identity(1)
# every fast-path configuration of this file: (cfg, potential, mass, x0,
# n_steps, recording keywords)
_KERNEL_CASES = {
    "order2": (_cfg("baseline_kmk", 0.1), Quartic(), _MASS1, _X_UNIT, 500, {}),
    **{f"order{n}": (_cfg("corrected_kmk", 0.1, n), Quartic(), _MASS1, _X_UNIT, 50, {})
       for n in (4, 6, 8)},
    "heavy_mass": (_cfg("corrected_kmk", 0.05, 6), Polynomial1D([0.0, 0.0, 0.5, 0.0, 0.25]),
                   MassMatrix(2.5), PhasePoint([0.4], [0.3]), 200, {}),
    "recorded_window": (_cfg("corrected_kmk", 0.1, 8), Quartic(), _MASS1, _X_UNIT, 40,
                        {"rec_range": (10, 21)}),
    "range_maxima": (_cfg("corrected_kmk", 0.1, 4), Quartic(), _MASS1, _X_UNIT, 100,
                     {"rec_range": (1, 101), "range_a": (1, 51), "range_b": (51, 101)}),
    "long_windows": (_cfg("corrected_kmk", 0.05, 8), Quartic(), _MASS1, _X_UNIT, 3000,
                     {"rec_range": (0, 3001), "range_a": (1, 200), "range_b": (2500, 3001)}),
    "past_the_run": (_cfg("corrected_kmk", 0.1, 8), Quartic(), _MASS1, _X_UNIT, 5,
                     {"rec_range": (1, 9)}),
    "newton_stall": (_cfg("corrected_kmk", 3.0, 8), Quartic(), _MASS1, _X_UNIT, 10,
                     {"rec_range": (1, 11)}),
    **{f"blowup_{name}": (cfg, Quartic(), _MASS1, _X_UNIT, 10, {"rec_range": (1, 11)})
       for name, cfg in (("baseline", _cfg("baseline_kmk", 3.0)),
                         ("order2", _cfg("corrected_kmk", 3.0, 2)))},
}


@needs_c
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_c_kernel_is_bit_identical_to_python_loop(case):
    cfg, pot, mass, x0, n_steps, rec = _KERNEL_CASES[case]
    _assert_bit_identical(*_on_both_kernels(x0, cfg, pot, mass, n_steps, **rec))


@needs_c
def test_zero_newton_derivative_stops_both_loops(quartic, mass1, x_unit):
    # with only the P^0 row of dG/dq the Newton residual does not depend on
    # the momentum, so its derivative is exactly 0 at the first iterate
    fold = fastpath.FastTables.fold
    cfg = _cfg("corrected_kmk", 0.1, 8)

    def p0_row_only(self, tau):
        vg, cq, cp = fold(self, tau)
        return vg, cq[:1], cp

    with mock.patch.object(fastpath.FastTables, "fold", p0_row_only):
        c_run, py_run = _on_both_kernels(x_unit, cfg, quartic, mass1, 10,
                                         rec_range=(0, 11))
    _assert_bit_identical(c_run, py_run)
    for run in (c_run, py_run):
        assert isinstance(run.failure, NewtonDiverged)
        assert (run.failure.step_index, run.failure.iterations) == (1, 0)
        assert run.failure.residual > cfg.newton_tol
        assert (run.completed_steps, len(run.rec_q)) == (0, 1)


@needs_c
@pytest.mark.parametrize("bad, message", [
    (np.asfortranarray, r"flags \['C_CONTIGUOUS'\]"),
    (lambda cq: cq.astype(np.float32), "data type float64"),
])
def test_c_kernel_refuses_a_bad_array(bad, message, quartic, mass1, x_unit):
    # the argtypes check every array handed to the C loop; nothing is copied
    fold = fastpath.FastTables.fold

    def bad_cq(self, tau):
        vg, cq, cp = fold(self, tau)
        return vg, bad(cq), cp

    cfg = _cfg("corrected_kmk", 0.1, 8)
    with mock.patch.object(fastpath.FastTables, "fold", bad_cq), \
            mock.patch.object(fastpath, "_kernel", fastpath._c_kernel):
        with pytest.raises(ctypes.ArgumentError, match=message):
            fastpath.fast_run(x_unit, cfg, quartic, mass1, 3)


def test_without_a_compiler_the_python_loop_runs(tmp_path):
    # a child process with CC=false: the build fails, the Python loop runs,
    # and the failed build leaves nothing behind in __pycache__
    cache = Path(fastpath.__file__).parent / "__pycache__"
    before = sorted(cache.glob("_kernel-*"))
    src = str(Path(fastpath.__file__).parents[1])
    env = dict(os.environ, CC="false",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", "import symsplit.fastpath as f; "
         "print(f.BACKEND, f._kernel is f._python_kernel); print(f.BACKEND_REASON)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    backend, reason = child.stdout.splitlines()
    assert backend == "python-fallback True"
    assert reason == "false exited 1"
    assert sorted(cache.glob("_kernel-*")) == before

    # a cache directory that cannot be made, a compiler that is not there
    (tmp_path / "file").write_text("")
    kernel, reason = fastpath._load_c_kernel("cc", tmp_path / "file" / "cache")
    assert kernel is None and reason.startswith("cannot write")
    kernel, reason = fastpath._load_c_kernel("no-such-compiler", tmp_path)
    assert kernel is None and "no-such-compiler" in reason
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]


@needs_c
def test_c_kernel_builds_once_into_its_cache(tmp_path):
    cc = os.environ.get("CC") or "cc"
    kernel, reason = fastpath._load_c_kernel(cc, tmp_path)
    assert kernel is not None
    built = list(tmp_path.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so" and built[0].name in reason
    mtime = built[0].stat().st_mtime_ns
    assert fastpath._load_c_kernel(cc, tmp_path)[0] is not None
    assert list(tmp_path.iterdir()) == built and built[0].stat().st_mtime_ns == mtime
    assert fastpath._kernel is fastpath._c_kernel and fastpath.BACKEND == "c"


def test_eligibility(quartic, mass1, opaque_quartic):
    assert fastpath.eligible(_cfg("baseline_kmk", 0.1), quartic, mass1, 1)
    assert fastpath.eligible(_cfg("corrected_kmk", 0.1, 8), quartic, mass1, 1)
    # the mkm baseline and the exact scheme take the general path
    assert not fastpath.eligible(_cfg("baseline_mkm", 0.1), quartic, mass1, 1)
    assert not fastpath.eligible(_cfg("exact_quadratic", 0.1), quartic, mass1, 1)
    # dimension > 1 and non-polynomial potentials are out
    harm2 = Harmonic()
    assert not fastpath.eligible(_cfg("baseline_kmk", 0.1), harm2,
                                 MassMatrix.identity(2), 2)
    assert not fastpath.eligible(_cfg("baseline_kmk", 0.1), opaque_quartic,
                                 mass1, 1)
    with pytest.raises(ValueError, match="not eligible"):
        fastpath.fast_run(PhasePoint([0.0, 0.0], [1.0, 0.0]),
                          _cfg("baseline_kmk", 0.1), harm2,
                          MassMatrix.identity(2), 3)


def test_order2_agrees_with_general_path(quartic, mass1, x_unit):
    # at order 2 both paths run half kick, drift, half kick on V' alone
    cfg = _cfg("baseline_kmk", 0.1)
    for pot in (quartic, Polynomial1D([0.1, -0.3, 0.7, 0.2, 0.25])):
        run = fastpath.fast_run(x_unit, cfg, pot, mass1, 500)
        slow = integrate(x_unit, cfg, pot, mass1, 500)
        assert run.final.as_array().tobytes() == slow.as_array().tobytes()
        assert run.completed_steps == 500 and run.ok


@pytest.mark.parametrize("order", [4, 6, 8])
def test_corrected_orders_agree_with_general_path(order, quartic, mass1,
                                                  x_unit):
    cfg = _cfg("corrected_kmk", 0.1, order)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 50)
    slow = integrate(x_unit, cfg, quartic, mass1, 50)
    assert abs(run.final.q[0] - slow.q[0]) < 1e-13
    assert abs(run.final.p[0] - slow.p[0]) < 1e-13


def test_heavy_mass_and_general_polynomial():
    pot = Polynomial1D([0.0, 0.0, 0.5, 0.0, 0.25])
    mass = MassMatrix(2.5)
    cfg = _cfg("corrected_kmk", 0.05, 6)
    x0 = PhasePoint([0.4], [0.3])
    run = fastpath.fast_run(x0, cfg, pot, mass, 200)
    slow = integrate(x0, cfg, pot, mass, 200)
    assert abs(run.final.q[0] - slow.q[0]) < 1e-13
    assert abs(run.final.p[0] - slow.p[0]) < 1e-13


def test_strided_coefficients_reach_the_kernel(mass1):
    # tables_for copies V's coefficients, so the kernel gets them C-contiguous
    pot = Polynomial1D(np.array([0.0, 9.0, 0.0, 9.0, 0.5, 9.0, 0.3])[::2])
    assert not pot.poly1d_coefficients().flags.c_contiguous
    cfg = _cfg("corrected_kmk", 0.05, 6)
    x0 = PhasePoint([0.4], [0.3])
    run = fastpath.fast_run(x0, cfg, pot, mass1, 100)
    slow = integrate(x0, cfg, pot, mass1, 100)
    assert abs(run.final.q[0] - slow.q[0]) < 1e-13
    assert abs(run.final.p[0] - slow.p[0]) < 1e-13


def test_recorded_window_matches_observer(quartic, mass1, x_unit):
    cfg = _cfg("corrected_kmk", 0.1, 8)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 40,
                            rec_range=(10, 21))
    states = {}
    integrate(x_unit, cfg, quartic, mass1, 40,
              observer=lambda i, t, x, rep: states.__setitem__(i, x))
    assert run.rec_start == 10
    assert run.rec_q.shape == (11, 1)
    for k in range(11):
        x = states[10 + k]
        assert abs(run.rec_q[k, 0] - x.q[0]) < 1e-13
        assert abs(run.rec_p[k, 0] - x.p[0]) < 1e-13
        h = hamiltonian(x, quartic, mass1)
        assert abs(run.rec_h[k] - h) < 1e-13


def test_recorded_energy_is_consistent(quartic, mass1, x_unit):
    cfg = _cfg("baseline_kmk", 0.2)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 30,
                            rec_range=(1, 31))
    recomputed = 0.5 * run.rec_p[:, 0]**2 + 0.25 * run.rec_q[:, 0]**4
    np.testing.assert_allclose(run.rec_h, recomputed, rtol=1e-14, atol=1e-16)


def test_range_maxima_match_recorded_trace(quartic, mass1, x_unit):
    cfg = _cfg("corrected_kmk", 0.1, 4)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 100,
                            rec_range=(1, 101), range_a=(1, 51),
                            range_b=(51, 101))
    h0 = hamiltonian(x_unit, quartic, mass1)
    dev = np.abs(run.rec_h - h0)
    assert run.max_a == pytest.approx(dev[:50].max(), rel=1e-15)
    assert run.max_b == pytest.approx(dev[50:].max(), rel=1e-15)


def test_failure_keeps_partial_trace(quartic, opaque_quartic, mass1, x_unit):
    cfg = _cfg("corrected_kmk", 3.0, 8)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 10,
                            rec_range=(1, 11))
    assert not run.ok
    assert isinstance(run.failure, NewtonDiverged)
    assert run.completed_steps == run.failure.step_index - 1
    assert run.rec_q.shape == (run.completed_steps, 1)
    assert run.failure.residual > 0
    with pytest.raises(NewtonDiverged) as info:
        run.raise_if_failed()
    assert info.value is run.failure

    # the general path fails at the same step
    with pytest.raises(NewtonDiverged) as slow_info:
        integrate(x_unit, cfg, quartic, mass1, 10)
    assert slow_info.value.step_index == run.failure.step_index
    assert info.value.iterations == slow_info.value.iterations

    # a failed run has no final state, whichever backend ran it
    for pot in (quartic, opaque_quartic):
        failed = fastpath.simulate(x_unit, cfg, pot, mass1, 10)
        assert isinstance(failed.failure, NewtonDiverged)
        assert failed.failure.step_index == run.failure.step_index
        assert failed.final is None

    # an explicit move at tau = 3 overflows: a non-finite state is a failure
    # at its step on both backends, recording or not
    for blowup in (_cfg("baseline_kmk", 3.0), _cfg("corrected_kmk", 3.0, 2)):
        for rec_range in (None, (1, 11)):
            runs = [fastpath.simulate(x_unit, blowup, pot, mass1, 10, rec_range)
                    for pot in (quartic, opaque_quartic)]
            for failed in runs:
                assert isinstance(failed.failure, NonFiniteState)
                assert failed.failure.step_index == 6
                assert failed.final is None and failed.completed_steps == 5
                assert failed.rec_q.shape == ((5 if rec_range else 0), 1)
                assert np.isfinite(failed.rec_q).all()
                with pytest.raises(NonFiniteState) as blown:
                    failed.raise_if_failed()
                assert blown.value.step_index == 6
            np.testing.assert_allclose(runs[0].rec_q, runs[1].rec_q, rtol=1e-12)
    with pytest.raises(NonFiniteState) as blown:
        integrate(x_unit, _cfg("baseline_mkm", 3.0), opaque_quartic, mass1, 10)
    assert blown.value.step_index == 6


def test_blowup_fails_without_numpy_warnings(quartic, opaque_quartic, mass1, x_unit):
    # both stepping loops report an overflow as NonFiniteState, not a warning
    blowup = _cfg("baseline_kmk", 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            integrate(x_unit, _cfg("baseline_mkm", 3.0), opaque_quartic, mass1, 10)
        runs = [fastpath.fast_run(x_unit, blowup, quartic, mass1, 10),
                fastpath.simulate(x_unit, blowup, opaque_quartic, mass1, 10)]
    for run in runs:
        assert isinstance(run.failure, NonFiniteState)
        assert run.failure.step_index == 6


def test_recording_past_the_run_returns_completed_steps(quartic, opaque_quartic,
                                                        mass1, x_unit):
    cfg = _cfg("corrected_kmk", 0.1, 8)
    for pot in (quartic, opaque_quartic):
        run = fastpath.simulate(x_unit, cfg, pot, mass1, 5, rec_range=(1, 9))
        assert run.ok
        for rec in (run.rec_q, run.rec_p, run.rec_h, run.rec_iters, run.rec_res):
            assert len(rec) == 5
        assert run.rec_h == pytest.approx(0.5, abs=1e-6)


def test_step_zero_is_row_zero(quartic, opaque_quartic, mass1, x_unit):
    cfg = _cfg("corrected_kmk", 0.1, 8)
    x2 = PhasePoint([0.3, -0.1], [0.2, 0.4])
    cases = [(x_unit, quartic, mass1), (x_unit, opaque_quartic, mass1),
             (x2, Harmonic(), MassMatrix.identity(2))]
    for x0, pot, mass in cases:
        run = fastpath.simulate(x0, cfg, pot, mass, 3, rec_range=(0, 4))
        assert run.backend == (fastpath.BACKEND if pot is quartic else "generic")
        assert run.rec_q.shape == run.rec_p.shape == (4, x0.dim)
        np.testing.assert_array_equal(run.rec_q[0], x0.q)
        np.testing.assert_array_equal(run.rec_p[0], x0.p)
        assert run.rec_h[0] == hamiltonian(x0, pot, mass)
        assert (run.rec_iters[0], run.rec_res[0]) == (0, 0.0)


def test_newton_diagnostics_recorded(quartic, mass1, x_unit):
    cfg = _cfg("corrected_kmk", 0.1, 8)
    run = fastpath.fast_run(x_unit, cfg, quartic, mass1, 20,
                            rec_range=(1, 21))
    assert run.rec_iters.max() >= 1
    assert run.rec_res.max() <= cfg.newton_tol


@pytest.mark.parametrize("p0", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_large_momenta_converge_on_every_loop(p0, quartic, opaque_quartic, mass1):
    # newton_tol is absolute, and every loop still meets it at |p| = 1e6.
    # The kernel and the generic engine may take different iteration counts
    # (they do at 1e3 and 1e4) while their states agree.
    cfg = _cfg("corrected_kmk", 1.0 / p0, 8)
    x0 = PhasePoint([0.0], [p0])
    kernels = (_on_both_kernels if fastpath._c_kernel is not None
               else lambda *a, **k: [fastpath.fast_run(*a, **k)])
    runs = kernels(x0, cfg, quartic, mass1, 20, rec_range=(0, 21))
    generic = fastpath.simulate(x0, cfg, opaque_quartic, mass1, 20, rec_range=(0, 21))
    assert generic.backend == "generic"
    for run in [*runs, generic]:
        assert run.ok and run.completed_steps == 20
        assert (run.rec_res <= cfg.newton_tol).all()
        assert run.rec_iters.max() < cfg.newton_max_iter
    if len(runs) == 2:
        _assert_bit_identical(*runs)
    for name in ("rec_q", "rec_p", "rec_h"):
        np.testing.assert_allclose(getattr(generic, name), getattr(runs[0], name),
                                   rtol=1e-14, atol=0.0, err_msg=name)


def test_massless_coordinate_stays_put(quartic, opaque_quartic):
    # with M = 0 the move is the identity, so only the kicks act:
    # q stays q0 and p falls by tau V'(q0) per step
    cfg = _cfg("corrected_kmk", 0.1, 8)
    x0 = PhasePoint([0.3], [0.7])
    generic = fastpath.simulate(x0, cfg, opaque_quartic, MassMatrix(0.0), 50,
                                rec_range=(0, 51))
    assert generic.backend == "generic"
    kernels = (_on_both_kernels if fastpath._c_kernel is not None
               else lambda *a, **k: [fastpath.fast_run(*a, **k)])
    for run in [generic, *kernels(x0, cfg, quartic, MassMatrix(0.0), 50, rec_range=(0, 51))]:
        assert run.ok and run.completed_steps == 50
        assert (run.rec_q == 0.3).all() and run.final.q[0] == 0.3
        assert run.final.p[0] == pytest.approx(0.7 - 50 * 0.1 * 0.3**3, abs=1e-13)
        assert (run.rec_iters == 0).all() and (run.rec_res == 0.0).all()

    # a 2-D quadratic with M = diag(1, 0): the second coordinate never moves
    x2 = PhasePoint([0.3, -0.2], [0.7, 0.4])
    run = fastpath.simulate(x2, cfg, Quadratic([[1.0, 0.3], [0.3, 2.0]]),
                            MassMatrix.diagonal([1.0, 0.0]), 50, rec_range=(0, 51))
    assert run.ok and run.backend == "generic"
    assert (run.rec_q[:, 1] == -0.2).all() and run.final.q[1] == -0.2
    assert np.ptp(run.rec_q[:, 0]) > 0.5


def test_tables_are_cached(quartic, mass1):
    t1 = fastpath.tables_for(quartic, mass1, 8)
    t2 = fastpath.tables_for(quartic, mass1, 8)
    assert t1 is t2
    t3 = fastpath.tables_for(quartic, mass1, 4)
    assert t3 is not t1
    # each tau is folded once, into arrays no caller can change
    folded = t1.fold(0.1)
    assert t1.fold(0.1) is folded and t1.fold(0.2) is not folded
    assert not any(arr.flags.writeable for arr in folded)


@pytest.mark.parametrize("potential", [Harmonic(1e100), Quadratic([[1e200]])])
def test_tables_that_overflow_are_refused(potential, mass1):
    # finite V'' = 1e200, but the exact order-8 table coefficients leave the
    # double range; order 2 needs none of them
    with pytest.raises(ValueError, match="order-8 kernel tables .* overflow"):
        fastpath.tables_for(potential, mass1, 8)
    assert fastpath.tables_for(potential, mass1, 2).mval == 1.0


class _OpaquePolynomial(Polynomial1D):
    """The same polynomial hiding its coefficients, forcing the generic engine."""

    def poly1d_coefficients(self):
        return None


_unit = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
@settings(derandomize=True, deadline=None, max_examples=12)
@given(coeffs=st.lists(_unit, min_size=1, max_size=7), m=st.floats(0.25, 4.0),
       tau=st.floats(0.005, 0.05), q=_unit, p=_unit)
def test_fast_equals_generic_on_random_polynomials(order, coeffs, m, tau, q, p):
    # constant, linear and odd-degree potentials, non-unit masses
    cfg = _cfg("corrected_kmk", tau, order)
    mass = MassMatrix(m)
    x0 = PhasePoint([q], [p])
    fast = fastpath.simulate(x0, cfg, Polynomial1D(coeffs), mass, 8)
    slow = fastpath.simulate(x0, cfg, _OpaquePolynomial(coeffs), mass, 8)
    assert type(fast.failure) is type(slow.failure)
    assert getattr(fast.failure, "step_index", None) == getattr(slow.failure,
                                                                "step_index", None)
    if fast.ok:
        np.testing.assert_allclose(
            np.hstack([fast.final.q, fast.final.p]),
            np.hstack([slow.final.q, slow.final.p]), rtol=1e-12)
    if fastpath._c_kernel is not None:
        _assert_bit_identical(*_on_both_kernels(
            x0, cfg, Polynomial1D(coeffs), mass, 8, rec_range=(0, 9),
            range_a=(1, 5), range_b=(4, 9)))


# where the C formatter's digit count, layout or fallback changes:
# 9.9999999999999998e-17 is the largest double below 1e-16
_FORMAT_EDGES = [9.9999999999999998e-17, 1e-16, 9.999999999999999e16, 1e16, 1e17,
                 1e-4, 1e-5, 2.0**63, 1e22, 1e23, 5e-324, sys.float_info.max, 0.0]


@needs_c
@pytest.mark.parametrize("x", _FORMAT_EDGES + [-x for x in _FORMAT_EDGES])
def test_c_rows_edges(x):
    rows = np.array([[x]])
    assert fastpath._c_rows(rows, ()) == fastpath._template_rows(rows, ()) == "%.17g\n" % x


@needs_c
@settings(derandomize=True, deadline=None, max_examples=300)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_c_rows_equal_the_template_on_raw_doubles(bits):
    # every 64-bit pattern is a double: NaNs of both signs, infinities,
    # subnormals and both zeros included
    rows = np.array(struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)))
    rows = rows.reshape(-1, 1) if len(bits) % 2 else rows.reshape(-1, 2)
    assert fastpath._c_rows(rows, ()) == fastpath._template_rows(rows, ())


@needs_c
def test_c_rows_integer_columns():
    # "%d" truncates toward zero, as int() does
    rows = np.array([[0.0, 0.5], [7.0, -0.0], [-3.0, 1e-300], [2.0**53, 2.5],
                     [-2.7, -1.0], [1e18, 3.0]])
    text = fastpath._c_rows(rows, (0,))
    assert text == fastpath._template_rows(rows, (0,))
    assert [line.split(",")[0] for line in text.splitlines()] == [
        "0", "7", "-3", "9007199254740992", "-2", "1000000000000000000"]
    for bad in (np.nan, np.inf, 2.0**63, -2.0**64):
        with pytest.raises(ValueError):
            fastpath._c_rows(np.array([[bad, 1.0]]), (0,))

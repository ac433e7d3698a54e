"""Compiled 1-D polynomial kernel versus the general-purpose integrator.

The kernel must be a pure performance device: same map, same diagnostics,
same failure behavior.  Above order 2 agreement with the general path is
to accumulated roundoff, not bitwise: the kernel folds tau into exact
rational tables once instead of re-evaluating word contractions.  At order 2
both run the same half kicks and drift and agree bit for bit, at any mass.
The C loop and the Python loop of the kernel agree bit for bit.
"""
import ctypes
import hashlib
import inspect
import itertools
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symsplit import cli, fastpath, operators, verification
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


def _every_kernel(*args, **kwargs):
    """``fast_run`` on each kernel loop this build has."""
    if fastpath._c_kernel is None:
        return [fastpath.fast_run(*args, **kwargs)]
    return _on_both_kernels(*args, **kwargs)


def _assert_bit_identical(c_run, py_run):
    assert (c_run.backend, py_run.backend) == ("c", "python-fallback")
    for name in ("rec_q", "rec_p", "rec_h", "rec_iters", "rec_res"):
        a, b = getattr(c_run, name), getattr(py_run, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (c_run.completed_steps, c_run.h0, c_run.max_a, c_run.max_b) == (
        py_run.completed_steps, py_run.h0, py_run.max_a, py_run.max_b)
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
    "order2_light_mass": (_cfg("baseline_kmk", 0.1), Polynomial1D([0.1, -0.3, 0.7, 0.2, 0.25]),
                          MassMatrix(0.7), PhasePoint([0.4], [0.3]), 500,
                          {"rec_range": (1, 501), "range_a": (1, 251), "range_b": (251, 501)}),
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
    # the force at x0 is computed before the first step: unused, and
    # non-finite at the first half kick
    "zero_steps": (_cfg("corrected_kmk", 0.1, 8), Quartic(), _MASS1, _X_UNIT, 0,
                   {"rec_range": (0, 1)}),
    "first_kick_overflows": (_cfg("corrected_kmk", 0.1, 8), Quartic(), _MASS1,
                             PhasePoint([1e110], [0.0]), 5, {"rec_range": (0, 6)}),
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


@pytest.mark.parametrize("obj", [
    np.zeros(3), np.zeros((3, 2)), np.zeros(0), [0.0, 1.0], np.zeros(3, np.float32),
    np.zeros((3, 2), order="F"), np.zeros((3, 2))[:, 0], np.zeros(3, np.int64),
])
def test_array_argtype_is_ndpointer_at_the_address(obj):
    # the kernel's argtype refuses what ndpointer refuses, with its message,
    # and passes what it passes as the same address
    ndpointer = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    outcomes = []
    for argtype in (ndpointer, fastpath._Array):
        try:
            param = argtype.from_param(obj)
        except TypeError as err:
            outcomes.append(str(err))
        else:
            outcomes.append(getattr(param, "_as_parameter_", param).value)
    assert outcomes[0] == outcomes[1]


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


# a C parameter or return type, without its name, to its ctypes type
_CTYPE_OF = {
    "double *": fastpath._Array,
    "const double *": fastpath._Array,
    "double": ctypes.c_double,
    "int64_t": ctypes.c_int64,
    "const unsigned char *": ctypes.c_char_p,
    "char *": ctypes.c_void_p,
    "int": ctypes.c_int,
    "void": None,
}


def _c_prototypes():
    """{function name: (return ctype, [parameter ctypes])} of the exported
    functions of ``_kernel.c``."""
    source = fastpath._SOURCE.read_text()
    found = {}
    for ret, name, params in re.findall(r"^(\w+) (symsplit_\w+)\(([^)]*)\)", source, re.M):
        # each parameter's kind is its text without the trailing name
        kinds = [re.sub(r"\s*\w+$", "", param.strip()) for param in params.split(",")]
        found[name] = _CTYPE_OF[ret], [_CTYPE_OF[kind] for kind in kinds]
    return found


def test_ctypes_signatures_match_the_c_prototypes(tmp_path):
    # ctypes never compares argtypes with the C function: a list one entry
    # short, or an int64_t where C reads a double, runs on garbage.  The
    # prototypes are read as text and the library is never built or loaded.
    protos = _c_prototypes()
    assert sorted(protos) == ["symsplit_cubic_roots", "symsplit_format_rows",
                              "symsplit_kernel"]
    assert protos["symsplit_kernel"][1] == fastpath._C_ARGTYPES
    assert protos["symsplit_format_rows"][1] == fastpath._FORMAT_ARGTYPES
    assert protos["symsplit_cubic_roots"][1] == fastpath._ROOTS_ARGTYPES

    def fake_cc(cmd, **_):
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"")
        return subprocess.CompletedProcess(cmd, 0)

    def fake_dll(_):
        return mock.NonCallableMock(spec=list(protos))

    with mock.patch("subprocess.run", fake_cc), mock.patch.object(ctypes, "CDLL", fake_dll):
        dll, _ = fastpath._load_c_kernel("cc", tmp_path)
    for name, (restype, argtypes) in protos.items():
        assert getattr(dll, name).argtypes == argtypes, name
        assert getattr(dll, name).restype is restype, name
    # the Python loops take the C functions' parameters one for one
    for loop, name, count in ((fastpath._python_kernel, "symsplit_kernel", 24),
                              (fastpath._python_cubic_roots, "symsplit_cubic_roots", 4)):
        assert len(inspect.signature(loop).parameters) == len(protos[name][1]) == count


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


def test_order2_agrees_with_general_path(quartic, x_unit):
    # at order 2 both paths run half kick, drift, half kick on V' alone:
    # the kernel's move solves to the drift (tau M) P + q in 0 iterations
    cfg = _cfg("baseline_kmk", 0.1)
    for pot, mval in itertools.product((quartic, Polynomial1D([0.1, -0.3, 0.7, 0.2, 0.25])),
                                       (1.0, 0.7)):
        mass = MassMatrix(mval)
        run = fastpath.fast_run(x_unit, cfg, pot, mass, 500)
        slow = integrate(x_unit, cfg, pot, mass, 500)
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


@pytest.mark.parametrize("cfg, mval, x0, n_steps", [
    pytest.param(_cfg("corrected_kmk", 0.1, 4), 1.0, _X_UNIT, 100, id="unit_mass"),
    pytest.param(_cfg("corrected_kmk", 0.05, 8), 2.2, PhasePoint([0.0], [1.7]), 300,
                 id="mass_2.2"),
])
def test_range_maxima_match_recorded_trace(cfg, mval, x0, n_steps, quartic):
    # the kernel measures from the entry energy by its per-step formula,
    # which for a polynomial potential is hamiltonian()'s to the bit
    mass, half = MassMatrix(mval), n_steps // 2
    run = fastpath.fast_run(x0, cfg, quartic, mass, n_steps,
                            rec_range=(1, n_steps + 1), range_a=(1, half + 1),
                            range_b=(half + 1, n_steps + 1))
    dev = np.abs(run.rec_h - hamiltonian(x0, quartic, mass))
    assert run.max_a == dev[:half].max()
    assert run.max_b == dev[half:].max()


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
    # every kernel loop and the generic engine; for the quartic the kernel's
    # energy formula and hamiltonian() agree to the bit
    cfg = _cfg("corrected_kmk", 0.1, 8)
    x2 = PhasePoint([0.3, -0.1], [0.2, 0.4])
    cases = [(x_unit, opaque_quartic, mass1), (x2, Harmonic(), MassMatrix.identity(2))]
    runs = [(x_unit, quartic, mass1, run)
            for run in _every_kernel(x_unit, cfg, quartic, mass1, 3, rec_range=(0, 4))]
    runs += [(x0, pot, mass, fastpath.simulate(x0, cfg, pot, mass, 3, rec_range=(0, 4)))
             for x0, pot, mass in cases]
    # simulate sends the eligible quartic to this build's kernel
    dispatched = fastpath.simulate(x_unit, cfg, quartic, mass1, 3, rec_range=(0, 4))
    assert dispatched.backend == fastpath.BACKEND
    runs.append((x_unit, quartic, mass1, dispatched))
    for x0, pot, mass, run in runs:
        assert (run.backend == "generic") == (pot is not quartic)
        assert run.rec_q.shape == run.rec_p.shape == (4, x0.dim)
        np.testing.assert_array_equal(run.rec_q[0], x0.q)
        np.testing.assert_array_equal(run.rec_p[0], x0.p)
        assert run.rec_h[0] == run.h0 == hamiltonian(x0, pot, mass)
        assert (run.rec_iters[0], run.rec_res[0]) == (0, 0.0)
        assert run.rec_iters.dtype == np.int64


def test_a_record_window_before_step_zero_is_refused(quartic, opaque_quartic, mass1,
                                                     x_unit):
    # the kernel would leave the rows before step 0 unwritten; a negative
    # step count, also the one a window before t = 0 asks for, is refused
    # by the kernel as by the generic engine
    cfg = _cfg("corrected_kmk", 0.1, 8)
    for pot in (quartic, opaque_quartic):
        with pytest.raises(ValueError, match="starts at step -3, before step 0"):
            fastpath.simulate(x_unit, cfg, pot, mass1, 2, rec_range=(-3, 3))
        with pytest.raises(ValueError, match="n_steps must be non-negative"):
            fastpath.simulate(x_unit, cfg, pot, mass1, -3)
        with pytest.raises(ValueError, match="n_steps must be non-negative"):
            verification.energy_error_trace(x_unit, cfg, pot, mass1, (-1.0, -0.5))
    with pytest.raises(ValueError, match="before step 0"):
        fastpath.fast_run(x_unit, cfg, quartic, mass1, 2, rec_range=(-1, 0))


def test_integers_outside_int64_are_refused_on_both_loops(quartic, mass1, x_unit):
    # ctypes would pass 2**63 to the C loop as -2**63; the Python loop
    # would take it as it is
    cfg = _cfg("corrected_kmk", 0.1, 8)
    cases = [
        (cfg, 2**63, {}),
        (cfg, 1.2e32, {"rec_range": (0, 3)}),
        (replace(cfg, newton_max_iter=2**64), 2, {}),
        (cfg, 2, {"rec_range": (0, 2**63)}),
        (cfg, 2, {"range_a": (0, 2**63)}),
        (cfg, 2, {"range_b": (-2**63 - 1, 0)}),
    ]
    for kernel in filter(None, (fastpath._c_kernel, fastpath._python_kernel)):
        with mock.patch.object(fastpath, "_kernel", kernel):
            for c, n_steps, windows in cases:
                with pytest.raises(ValueError, match="must fit in int64"):
                    fastpath.fast_run(x_unit, c, quartic, mass1, n_steps, **windows)
            # the largest int64 is taken
            run = fastpath.fast_run(x_unit, replace(cfg, newton_max_iter=2**63 - 1),
                                    quartic, mass1, 2)
            assert run.ok and run.completed_steps == 2


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
    runs = _every_kernel(x0, cfg, quartic, mass1, 20, rec_range=(0, 21))
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
    for run in [generic, *_every_kernel(x0, cfg, quartic, MassMatrix(0.0), 50,
                                        rec_range=(0, 51))]:
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


# sha256 over the shape and bytes of every folded table of
# test_folded_tables_are_pinned
_FOLDED_TABLES_SHA256 = "ef46ac3d163d798c53f93f6645edf3f78c67297dbfe97d0fb75912184da0f613"


def test_folded_tables_are_pinned():
    # beyond the quartic at M = 1, the only tables the CSV pins reach
    digest = hashlib.sha256()
    for pot, m, order, tau in itertools.product(
            (Quartic(), Polynomial1D([0.1, -0.3, 0.7, 0.2, 0.25]), Harmonic(1.3)),
            (1.0, 0.7, 2.5), (2, 4, 6, 8), (0.05, 0.1, 0.2)):
        for arr in fastpath.tables_for(pot, MassMatrix(m), order).fold(tau):
            digest.update(repr(arr.shape).encode())
            digest.update(arr.astype("<f8").tobytes())
    assert digest.hexdigest() == _FOLDED_TABLES_SHA256


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


class _OpaqueHarmonic(Harmonic):
    """The same harmonic well hiding its coefficients, forcing the generic engine."""

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


@pytest.mark.parametrize("order", [2, 4, 6, 8])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(coeffs=st.lists(_unit, min_size=1, max_size=7), m=st.floats(0.25, 4.0),
       tau=st.floats(0.005, 0.2), q=_unit, p=_unit)
def test_folded_tables_equal_the_generic_engine(order, coeffs, m, tau, q, p):
    # the kick force, dG/dq and dG/dP at one (q, P), from the folded tables
    # and from the generic engine's word contractions
    pot, mass = Polynomial1D(coeffs), MassMatrix(m)
    vg, cq, cp = fastpath.tables_for(pot, mass, order).fold(tau)
    pairs = [
        (np.polynomial.polynomial.polyval(q, vg),
         operators.v_eff_grad(pot, mass, [q], tau, order)),
        (np.polynomial.polynomial.polyval2d(p, q, cq),
         operators.generating_function_grad_q(pot, mass, [q], [p], tau, order)),
        (np.polynomial.polynomial.polyval2d(p, q, cp),
         operators.generating_function_grad_p(pot, mass, [q], [p], tau, order)),
    ]
    for got, (ref,) in pairs:
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


# where the C formatter's digit count, layout or fallback changes:
# 9.9999999999999998e-17 is the largest double below 1e-16.  Then exact
# ties at the 18th digit, kept at an even 17th digit and lifted at an odd one
_FORMAT_EDGES = [9.9999999999999998e-17, 1e-16, 9.999999999999999e16, 1e16, 1e17,
                 1e-4, 1e-5, 2.0**63, 1e22, 1e23, 5e-324, sys.float_info.max, 0.0,
                 1.00000762939453125, 1.00002288818359375, 1234567890123456.25,
                 1234567890123456.75]


@needs_c
@pytest.mark.parametrize("x", _FORMAT_EDGES + [-x for x in _FORMAT_EDGES])
def test_c_rows_edges(x):
    rows = np.array([[x]])
    assert bytes(fastpath._c_rows(rows, ())) == fastpath._template_rows(rows, ()) == (
        b"%.17g\n" % x)


@needs_c
@settings(derandomize=True, deadline=None, max_examples=300)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_c_rows_equal_the_template_on_raw_doubles(bits):
    # every 64-bit pattern is a double: NaNs of both signs, infinities,
    # subnormals and both zeros included
    rows = np.array(struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)))
    rows = rows.reshape(-1, 1) if len(bits) % 2 else rows.reshape(-1, 2)
    assert bytes(fastpath._c_rows(rows, ())) == fastpath._template_rows(rows, ())


@needs_c
def test_c_rows_integer_columns():
    # "%d" truncates toward zero, as int() does
    rows = np.array([[0.0, 0.5], [7.0, -0.0], [-3.0, 1e-300], [2.0**53, 2.5],
                     [-2.7, -1.0], [1e18, 3.0]])
    text = bytes(fastpath._c_rows(rows, (0,)))
    assert text == fastpath._template_rows(rows, (0,))
    assert [line.split(b",")[0] for line in text.splitlines()] == [
        b"0", b"7", b"-3", b"9007199254740992", b"-2", b"1000000000000000000"]
    for bad in (np.nan, np.inf, 2.0**63, -2.0**64):
        with pytest.raises(ValueError):
            fastpath._c_rows(np.array([[bad, 1.0]]), (0,))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(shape=st.one_of(st.floats(0.1, 3.0), st.lists(_unit, min_size=1, max_size=7)),
       m=st.floats(0.25, 4.0), order=st.sampled_from([2, 4, 6, 8]), q=_unit, p=_unit)
@example(shape=1.3, m=0.7, order=8, q=0.3, p=0.2)
def test_one_h0_measures_rows_maxima_and_scaled_energy(shape, m, order, q, p):
    # shape is a harmonic omega or polynomial coefficients.  Each backend
    # writes row 0 with the H0 its maxima are measured from; the pinned
    # example is one where hamiltonian() and the kernel's energy formula
    # round H0 differently
    if isinstance(shape, float):
        pot, opaque = Harmonic(shape), _OpaqueHarmonic(shape)
    else:
        pot, opaque = Polynomial1D(shape), _OpaquePolynomial(shape)
    cfg, mass, n = _cfg("corrected_kmk", 0.05, order), MassMatrix(m), 40
    x0 = PhasePoint([q], [p])
    windows = {"rec_range": (0, n + 1), "range_a": (0, n + 1), "range_b": (n // 2, n + 1)}
    runs = [*_every_kernel(x0, cfg, pot, mass, n, **windows),
            fastpath.simulate(x0, cfg, opaque, mass, n, **windows)]
    assume(all(run.ok for run in runs))
    for run in runs:
        dev = np.abs(run.rec_h - run.rec_h[0])
        assert run.rec_h[0] == run.h0
        assert run.max_a == dev.max()
        assert run.max_b == dev[n // 2:].max()
    for potential in (pot, opaque):
        rows, _ = cli._trace_rows(x0, cfg, potential, mass, n, 0, n)
        assert rows[0, 5] == 0.0  # scaledH

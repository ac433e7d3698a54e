"""Reference solutions, convergence measurement, symplecticity probes and
period extraction."""
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quartic_exact
from symsplit import fastpath
from symsplit.hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Quadratic,
    Quartic,
)
from symsplit.integrators import SchemeConfig
from symsplit.verification import (
    EnergyTrace,
    energy_deviation_maxima,
    energy_error_trace,
    measure_convergence_order,
    measure_period,
    period_estimate,
    quartic_period,
    reference_solution,
    symplecticity_defect,
)


# ---------------------------------------------------------------------------
# the period constant


def test_quartic_period_against_quadrature():
    """The closed form must match the defining integral
    T = 4 * Integral_0^{2^(1/4)} sqrt(2) / sqrt(2 - q^4) dq,
    evaluated with tanh-sinh quadrature which absorbs the endpoint
    singularity."""
    mpmath.mp.dps = 30
    upper = mpmath.mpf(2) ** mpmath.mpf("0.25")
    integral = mpmath.quad(
        lambda q: mpmath.sqrt(2) / mpmath.sqrt(2 - q**4), [0, upper]
    )
    assert quartic_period() == pytest.approx(float(4 * integral), abs=1e-10)


def test_quartic_period_value():
    assert quartic_period() == pytest.approx(6.236338999021644, abs=1e-12)


# ---------------------------------------------------------------------------
# reference solutions


def test_reference_zero_time_is_identity(quartic, mass1, x_unit):
    assert reference_solution(x_unit, quartic, mass1, 0.0) is x_unit
    with pytest.raises(ValueError):
        reference_solution(x_unit, quartic, mass1, -1.0)


def test_reference_harmonic_half_turn(mass1):
    harm = Harmonic()
    x0 = PhasePoint([1.0], [0.0])
    x = reference_solution(x0, harm, mass1, math.pi)
    assert abs(x.q[0] + 1.0) < 1e-12
    assert abs(x.p[0]) < 1e-12


def test_reference_quartic_full_period(quartic, mass1, x_unit):
    x = reference_solution(x_unit, quartic, mass1, quartic_period())
    assert abs(x.q[0]) < 1e-9 and abs(x.p[0] - 1.0) < 1e-9
    # with the period rounded to six decimals the return is only that good
    x6 = reference_solution(x_unit, quartic, mass1, 6.236339)
    assert abs(x6.q[0]) < 1e-5 and abs(x6.p[0] - 1.0) < 1e-5


# the last two starts take the oracle's other sign of u0
@pytest.mark.parametrize("q0, p0, lam, t", [(0.0, 1.0, 1.0, 5.0), (0.3, 0.9, 1.0, 5.0),
                                            (-0.7, 0.2, 0.7, 3.0), (0.3, -0.9, 1.3, 4.0),
                                            (0.5, 0.0, 1.0, 2.0)])
def test_reference_matches_the_exact_quartic_solution(quartic, q0, p0, lam, t):
    x0, mass = PhasePoint([q0], [p0]), MassMatrix([[lam]])
    x = reference_solution(x0, quartic, mass, t)
    assert np.abs(x.as_array() - quartic_exact(x0, mass, t).as_array()).max() < 1e-14


# ---------------------------------------------------------------------------
# energy traces


def test_energy_trace_validation():
    t = np.array([0.0, 1.0])
    e = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        EnergyTrace(t, e, np.zeros(3), 0.5, 0.1, 2)
    with pytest.raises(ValueError):
        EnergyTrace(np.array([1.0, 0.5]), e, np.zeros(2), 0.5, 0.1, 2)


def test_energy_trace_window_from_zero(quartic, mass1, x_unit):
    cfg = SchemeConfig("baseline_kmk", 0.2)
    trace = energy_error_trace(x_unit, cfg, quartic, mass1, (0.0, 1.0))
    np.testing.assert_allclose(trace.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                               atol=1e-12)
    assert trace.energies[0] == trace.h0 == 0.5
    assert trace.scaled[0] == 0.0
    assert trace.m == 2
    np.testing.assert_allclose(trace.scaled,
                               (trace.energies - 0.5) / 0.04, rtol=1e-12)


def test_energy_trace_interior_window(quartic, mass1, x_unit):
    cfg = SchemeConfig("corrected_kmk", 0.1, order=4)
    trace = energy_error_trace(x_unit, cfg, quartic, mass1, (2.0, 3.0))
    assert trace.times[0] == pytest.approx(2.0)
    assert trace.times[-1] == pytest.approx(3.0)
    assert len(trace.times) == 11


def test_energy_trace_exact_scheme_is_flat():
    pot = Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    mass = MassMatrix.identity(2)
    cfg = SchemeConfig("exact_quadratic", 0.3)
    x0 = PhasePoint([1.0, 0.0], [0.0, 1.0])
    trace = energy_error_trace(x0, cfg, pot, mass, (0.0, 30.0))
    assert np.abs(trace.energies - trace.h0).max() < 1e-13


def test_energy_trace_baseline_magnitude_collapses(quartic, mass1, x_unit):
    """Scaled deviation of the baseline over the late window sits around
    0.1 for this potential and is nearly independent of tau."""
    period = quartic_period()
    window = (15.5 * period, 16.0 * period)
    peaks = []
    for tau in (0.2, 0.1):
        cfg = SchemeConfig("baseline_kmk", tau)
        trace = energy_error_trace(x_unit, cfg, quartic, mass1, window)
        peaks.append(np.abs(trace.scaled).max())
    for peak in peaks:
        assert 0.01 < peak < 0.5, peaks
    assert abs(peaks[0] - peaks[1]) < 0.15 * peaks[1], peaks


def test_energy_trace_observer_path_matches_fast_path(mass1, x_unit,
                                                     opaque_quartic):
    """The harmonic potential is not fast-path eligible in 2-D, so compare
    1-D fast output against a generic-path run forced through the observer
    by an opaque potential wrapper."""
    cfg = SchemeConfig("corrected_kmk", 0.1, order=6)
    fast = energy_error_trace(x_unit, cfg, Quartic(), mass1, (1.0, 3.0))
    slow = energy_error_trace(x_unit, cfg, opaque_quartic, mass1, (1.0, 3.0))
    np.testing.assert_allclose(fast.times, slow.times, atol=1e-12)
    np.testing.assert_allclose(fast.energies, slow.energies, atol=2e-14)


def test_energy_deviation_maxima_paths_agree(quartic, mass1, x_unit,
                                             opaque_quartic):
    cfg = SchemeConfig("corrected_kmk", 0.1, order=4)
    fast = energy_deviation_maxima(x_unit, cfg, quartic, mass1, 200,
                                   (1, 101), (101, 201))
    slow = energy_deviation_maxima(x_unit, cfg, opaque_quartic, mass1, 200,
                                   (1, 101), (101, 201))
    assert fast[0] == pytest.approx(slow[0], rel=1e-10)
    assert fast[1] == pytest.approx(slow[1], rel=1e-10)
    assert fast[0] > 0 and fast[1] > 0


# ---------------------------------------------------------------------------
# convergence order


def test_measured_order_baseline(quartic, mass1, x_unit):
    rep = measure_convergence_order(x_unit, quartic, mass1, "baseline_kmk",
                                    2, (0.2, 0.1), 5.0)
    assert 1.6 < rep.measured_order < 2.4, rep
    assert rep.error_coarse > rep.error_fine > 0


def test_measured_order_corrected4(quartic, mass1, x_unit):
    rep = measure_convergence_order(x_unit, quartic, mass1, "corrected_kmk",
                                    4, (0.2, 0.1), 5.0)
    assert 3.5 < rep.measured_order < 4.5, rep


def test_measured_order_floor_guard(quartic, mass1, x_unit):
    with pytest.raises(ValueError, match="measurement floor"):
        measure_convergence_order(x_unit, quartic, mass1, "corrected_kmk",
                                  8, (0.02, 0.01), 0.1)


def test_measured_order_rejects_bad_input(quartic, mass1, x_unit):
    with pytest.raises(ValueError, match="coarse"):
        measure_convergence_order(x_unit, quartic, mass1, "baseline_kmk",
                                  2, (0.1, 0.2), 5.0)


def test_measured_order_refuses_an_order_the_variant_lacks(quartic, mass1, x_unit):
    # a baseline scheme measured as order 8 would report order 8 beside its
    # measured 2
    with pytest.raises(ValueError, match="does not take an order"):
        measure_convergence_order(x_unit, quartic, mass1, "baseline_kmk",
                                  8, (0.2, 0.1), 5.0)


# ---------------------------------------------------------------------------
# symplecticity


def test_symplecticity_all_schemes(quartic, mass1):
    x = PhasePoint([0.5], [0.5])
    configs = [
        SchemeConfig("baseline_kmk", 0.1),
        SchemeConfig("baseline_mkm", 0.1),
        SchemeConfig("corrected_kmk", 0.1, order=6),
    ]
    for cfg in configs:
        defect = symplecticity_defect(x, cfg, quartic, mass1)
        assert defect <= 1e-7, (cfg.variant, defect)


def test_symplecticity_shear_only():
    # with a flat potential the step is a pure drift, symplectic to roundoff
    from symsplit.hamiltonian import Polynomial1D

    flat = Polynomial1D([0.0])
    cfg = SchemeConfig("baseline_kmk", 0.3)
    x = PhasePoint([0.2], [0.7])
    assert symplecticity_defect(x, cfg, flat, MassMatrix.identity(1)) <= 1e-10


def test_symplecticity_degrades_with_loose_newton(quartic, mass1):
    """Solving the implicit move sloppily couples the map to the solver
    path and visibly damages the symplectic structure; the tight default
    does not.  At tau = 0.5 the damage is three orders of magnitude."""
    x = PhasePoint([0.5], [0.5])
    tight = SchemeConfig("corrected_kmk", 0.5, order=6)
    loose = SchemeConfig("corrected_kmk", 0.5, order=6, newton_tol=1e-1)
    d_tight = symplecticity_defect(x, tight, quartic, mass1)
    d_loose = symplecticity_defect(x, loose, quartic, mass1)
    assert d_loose > 1e-8
    assert d_loose > 1000 * d_tight


def test_symplecticity_exact_quadratic():
    pot = Quadratic(np.array([[2.0, 0.7], [0.7, 1.0]]))
    mass = MassMatrix([[1.2, 0.1], [0.1, 0.9]])
    cfg = SchemeConfig("exact_quadratic", 0.2)
    x = PhasePoint([0.4, -0.2], [0.3, 0.8])
    assert symplecticity_defect(x, cfg, pot, mass) <= 1e-7


# ---------------------------------------------------------------------------
# period measurement


def test_period_estimate_on_sampled_sine():
    t = np.arange(0.0, 50.0, 0.01)
    q = np.sin(t)
    assert period_estimate(t, q) == pytest.approx(2 * math.pi, abs=1e-7)


def test_period_estimate_needs_two_crossings():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        period_estimate(t, np.sin(t))


def test_period_estimate_refuses_before_it_fits():
    t = np.arange(0.0, 5.0, 0.01)
    with mock.patch("symsplit.verification._crossing_cubics") as fit:
        with pytest.raises(ValueError, match="fewer than two upward zero crossings"):
            period_estimate(t, np.sin(t))
    fit.assert_not_called()


def _bad_time_axis(kind):
    t = np.arange(0.0, 50.0, 0.01)
    q = np.sin(t)
    if kind == "reversed":
        return t[::-1], np.sin(t[::-1])
    if kind == "nan":
        t[700] = np.nan
    else:  # a flat stretch over the crossing at 2 pi
        t[627:631] = t[627]
    return t, q


@pytest.mark.parametrize("kind", ["reversed", "nan", "flat"])
def test_period_estimate_rejects_a_broken_time_axis(kind):
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        period_estimate(*_bad_time_axis(kind))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_period_estimate_rejects_a_non_finite_sample(bad):
    # one bad sample next to the crossing at 2 pi would shift it without an error
    t = np.arange(0.0, 50.0, 0.01)
    q = np.sin(t)
    q[630] = bad
    with pytest.raises(ValueError, match="q must be finite"):
        period_estimate(t, q)


def _period_estimate_polyval(times, q) -> float:
    """The scalar loop period_estimate replaced, kept as its bit-for-bit oracle."""
    times = np.asarray(times, dtype=float)
    q = np.asarray(q, dtype=float)
    if times.shape != q.shape or times.size < 4:
        raise ValueError("need matching arrays with at least four samples")
    crossings = []
    n = times.size
    for i in range(n - 1):
        if q[i] < 0.0 <= q[i + 1]:
            lo = max(0, min(i - 1, n - 4))
            sel = slice(lo, lo + 4)
            coeffs = np.polyfit(times[sel] - times[i], q[sel], 3)
            a, b = 0.0, times[i + 1] - times[i]
            fa = np.polyval(coeffs, a)
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = np.polyval(coeffs, mid)
                if (fa < 0) == (fm < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            crossings.append(times[i] + 0.5 * (a + b))
    if len(crossings) < 2:
        raise ValueError("trajectory shows fewer than two upward zero crossings")
    return float(np.mean(np.diff(crossings)))


def _outcome(estimate, t, q):
    try:
        return estimate(t, q)
    except ValueError as err:
        return str(err)


def _signal(n, dt, t0, omega, phase, noise, exponent, zeros, seed):
    t = t0 + dt * np.arange(n)
    noisy = np.sin(omega * t + phase) + noise * np.random.default_rng(seed).standard_normal(n)
    q = 10.0 ** exponent * noisy
    for i, negative in zeros:
        q[i % n] = -0.0 if negative else 0.0
    return t, q


# (t, q): sines with noise from flat to pure noise, amplitudes 1e-300 to
# 1e8, +-0.0 samples; omega near 0 gives fewer than two crossings
_SIGNALS = st.builds(
    _signal, n=st.integers(4, 300), dt=st.floats(1e-3, 1.0), t0=st.floats(-10.0, 10.0),
    omega=st.floats(0.0, 4.0), phase=st.floats(0.0, 2 * math.pi),
    noise=st.floats(0.0, 1.0), exponent=st.integers(-300, 8),
    zeros=st.lists(st.tuples(st.integers(0, 299), st.booleans()), max_size=12),
    seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(signal=_SIGNALS)
def test_period_estimate_matches_polyval_bisection(signal):
    t, q = signal
    expected = _outcome(_period_estimate_polyval, t, q)
    got = _outcome(period_estimate, t, q)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.hex() == expected.hex()


@pytest.mark.skipif(fastpath._c_lib is None, reason=f"no C kernel: {fastpath.BACKEND_REASON}")
@settings(derandomize=True, deadline=None, max_examples=120)
@given(signal=_SIGNALS)
def test_crossing_refinement_is_the_same_in_c_and_python(signal):
    # every refined crossing, not only their mean spacing
    outcomes, offsets = [], []
    for roots in (fastpath._c_lib.symsplit_cubic_roots, fastpath._python_cubic_roots):
        def spy(coeffs, widths, n, out, roots=roots):
            roots(coeffs, widths, n, out)
            offsets.append(out.tobytes())

        with mock.patch.object(fastpath, "cubic_roots", spy):
            outcomes.append(_outcome(period_estimate, *signal))
    # neither loop runs with fewer than two crossings
    assert offsets[:1] == offsets[1:]
    assert type(outcomes[0]) is type(outcomes[1])
    if isinstance(outcomes[0], str):
        assert outcomes[0] == outcomes[1]
    else:
        assert outcomes[0].hex() == outcomes[1].hex()


@settings(derandomize=True, deadline=None, max_examples=120)
@given(signal=_SIGNALS)
def test_crossing_cubics_are_polyfit_row_by_row(signal):
    # each crossing's coefficients, not only the mean spacing they lead to
    t, q = signal
    roots, seen = fastpath.cubic_roots, []

    def spy(coeffs, widths, n, out):
        seen.append(coeffs.copy())
        roots(coeffs, widths, n, out)

    with mock.patch.object(fastpath, "cubic_roots", spy):
        _outcome(period_estimate, t, q)
    ups = np.flatnonzero((q[:-1] < 0.0) & (q[1:] >= 0.0)).tolist()
    if len(ups) < 2:
        assert seen == []
        return
    los = [max(0, min(i - 1, len(t) - 4)) for i in ups]
    expected = [np.polyfit(t[lo:lo + 4] - t[i], q[lo:lo + 4], 3) for lo, i in zip(los, ups)]
    assert len(seen) == 1 and seen[0].shape == (len(ups), 4)
    for row, fit in zip(seen[0], expected):
        assert row.tobytes() == fit.tobytes()


def test_rank_deficient_crossing_fits_warn_as_polyfit():
    # at both crossings three of the four samples lie within 2e-9
    t = np.array([0.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 5.0, 6.0, 6.0 + 1e-9, 6.0 + 2e-9])
    q = np.array([1.0, -1.0, 1.0, 2.0, 1.0, -1.0, 1.0, 2.0])
    with pytest.warns(np.exceptions.RankWarning) as polyfit_warnings:
        expected = _period_estimate_polyval(t, q)
    with pytest.warns(np.exceptions.RankWarning) as warnings:
        got = period_estimate(t, q)
    assert ([str(w.message) for w in warnings] == [str(w.message) for w in polyfit_warnings]
            == ["Polyfit may be poorly conditioned"] * 2)
    assert got.hex() == expected.hex()


def test_measure_period_harmonic_two_dee():
    harm = Harmonic()
    mass = MassMatrix.identity(2)
    cfg = SchemeConfig("exact_quadratic", 0.1)
    x0 = PhasePoint([1.0, 0.3], [0.0, 0.2])
    period = measure_period(x0, cfg, harm, mass, 40.0)
    assert period == pytest.approx(2 * math.pi, abs=1e-8)


def test_measure_period_paths_agree(quartic, mass1, x_unit, opaque_quartic):
    cfg = SchemeConfig("corrected_kmk", 0.1, order=6)
    span = 2.5 * quartic_period()
    fast = measure_period(x_unit, cfg, quartic, mass1, span)
    slow = measure_period(x_unit, cfg, opaque_quartic, mass1, span)
    assert fast == pytest.approx(quartic_period(), abs=1e-4)
    assert abs(fast - slow) < 1e-10


def test_measure_period_baseline_converges_quadratically(quartic, mass1,
                                                         x_unit):
    exact = quartic_period()
    span = 8 * exact
    errs = []
    for tau in (0.2, 0.1):
        cfg = SchemeConfig("baseline_kmk", tau)
        errs.append(abs(measure_period(x_unit, cfg, quartic, mass1, span)
                        - exact))
    assert errs[0] > 1e-3  # visibly wrong at the coarse step
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0, f"period error ratio {ratio}"

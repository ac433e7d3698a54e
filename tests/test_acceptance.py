"""Acceptance suite: one test per documented guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion; each test also prints the measured numbers it judged.
The quarter-million-period endurance run is expensive and only executes
when SYMSPLIT_LONG=1 is set.
"""
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import quartic_exact
from symsplit.hamiltonian import Harmonic, MassMatrix, PhasePoint, Quartic
from symsplit.integrators import SchemeConfig, integrate, move_generating
from symsplit.operators import (
    GENERATING_TERMS,
    KINETIC_GENERATORS,
    POTENTIAL_GENERATORS,
    apply_word,
    correction_orders,
    grad_word_mom,
    grad_word_q,
    kinetic_correction,
    kinetic_correction_grad_mom,
    kinetic_correction_grad_q,
    potential_correction,
)
from symsplit.verification import (
    energy_deviation_maxima,
    energy_error_trace,
    measure_convergence_order,
    measure_period,
    quartic_period,
    symplecticity_defect,
)

SCHEMES = [("baseline_kmk", 2), ("corrected_kmk", 4),
           ("corrected_kmk", 6), ("corrected_kmk", 8)]
TAUS = (0.2, 0.1, 0.05)


def _label(variant, order):
    return f"{variant}:{order}" if variant == "corrected_kmk" else variant


def test_criterion_01_harmonic_exactness(mass1):
    """1000 exact steps of the unit oscillator track the closed rotation."""
    harmonic = Harmonic(1.0)
    x0 = PhasePoint([1.0], [0.0])
    cfg = SchemeConfig("exact_quadratic", 0.2)
    worst = [0.0, 0.0]

    def observer(i, t, x, report):
        worst[0] = max(worst[0], abs(x.q[0] - math.cos(t)))
        worst[1] = max(worst[1], abs(x.p[0] + math.sin(t)))

    start = time.perf_counter()
    integrate(x0, cfg, harmonic, mass1, 1000, observer=observer)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max |dq| {worst[0]:.3e}, max |dp| {worst[1]:.3e}, "
          f"{elapsed:.3f} s")
    assert worst[0] < 1e-10 and worst[1] < 1e-10
    assert elapsed < 1.0


def test_criterion_02_series_reduction(mass1):
    """On V = q^2/2 the corrections reduce to the frozen rational series."""
    harmonic = Harmonic(1.0)
    q = np.array([0.83])
    p = np.array([1.41])
    tau = 0.9
    kin_expected = {2: Fraction(-1, 6), 4: Fraction(1, 120),
                    6: Fraction(-1, 5040)}
    pot_expected = {2: Fraction(1, 12), 4: Fraction(1, 120),
                    6: Fraction(17, 20160)}
    for n, frac in kin_expected.items():
        ratio = kinetic_correction(n, harmonic, mass1, q, p, tau) / (
            0.5 * p[0] ** 2 * tau**n)
        print(f"criterion 2: kinetic n={n} ratio {ratio:.15e} vs {frac}")
        assert ratio == pytest.approx(float(frac), rel=1e-12)
    for n, frac in pot_expected.items():
        ratio = potential_correction(n, harmonic, mass1, q, tau) / (
            0.5 * q[0] ** 2 * tau**n)
        print(f"criterion 2: potential n={n} ratio {ratio:.15e} vs {frac}")
        assert ratio == pytest.approx(float(frac), rel=1e-12)


def test_criterion_03_convergence_orders(quartic, mass1, x_unit):
    """Measured global orders on the quartic oscillator hit 2, 4, 6, 8."""
    start = time.perf_counter()
    for variant, order in SCHEMES:
        rep = measure_convergence_order(x_unit, quartic, mass1, variant,
                                        order, (0.2, 0.1), 5.0)
        print(f"criterion 3: {_label(variant, order)} measured "
              f"{rep.measured_order:.3f} (nominal {order})")
        assert abs(rep.measured_order - order) <= 0.8
    elapsed = time.perf_counter() - start
    print(f"criterion 3: {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_03_orders_against_the_exact_solution(quartic, mass1, x_unit):
    """The same orders measured against the closed-form cn solution, not
    against the order-8 scheme under test."""
    exact = quartic_exact(x_unit, mass1, 5.0)
    for variant, order in SCHEMES:
        rep = measure_convergence_order(x_unit, quartic, mass1, variant,
                                        order, (0.2, 0.1), 5.0, reference=exact)
        print(f"criterion 3 (exact): {_label(variant, order)} measured "
              f"{rep.measured_order:.3f} (nominal {order})")
        assert abs(rep.measured_order - order) <= 0.8


def test_criterion_04_scaling_collapse(quartic, mass1, x_unit):
    """(H - 1/2)/tau^m traces from different tau land on one curve.

    Traces cover the last half of the 16th period of each run's own
    trajectory; they are compared at matched phases (time over that run's
    measured period) wherever the finest trace is significantly nonzero.
    """
    t_probe = 8.0 * quartic_period()
    for variant, order in SCHEMES:
        traces = {}
        for tau in TAUS:
            cfg = SchemeConfig(variant, tau, order=order)
            period = measure_period(x_unit, cfg, quartic, mass1, t_probe)
            trace = energy_error_trace(x_unit, cfg, quartic, mass1,
                                       (15.5 * period, 16.0 * period))
            traces[tau] = (trace.times / period, trace.scaled)

        phase_f, scaled_f = traces[0.05]
        floor = 0.2 * np.abs(scaled_f).max()
        for tau in (0.2, 0.1):
            phase_c, scaled_c = traces[tau]
            ref = np.interp(phase_c, phase_f, scaled_f)
            mask = np.abs(ref) >= floor
            assert mask.any()
            ratios = scaled_c[mask] / ref[mask]
            print(f"criterion 4: {_label(variant, order)} tau={tau} ratio "
                  f"range [{ratios.min():.3f}, {ratios.max():.3f}]")
            assert ratios.min() >= 0.5 and ratios.max() <= 2.0


def test_criterion_05_period_reproduction(quartic, mass1, x_unit):
    """Order 8 reproduces the quartic period; the baseline visibly misses."""
    t_ref = quartic_period()
    cfg8 = SchemeConfig("corrected_kmk", 0.05, order=8)
    p8 = measure_period(x_unit, cfg8, quartic, mass1, 8.0 * t_ref)
    cfg_base = SchemeConfig("baseline_kmk", 0.2)
    pb = measure_period(x_unit, cfg_base, quartic, mass1, 8.0 * t_ref)
    print(f"criterion 5: reference {t_ref:.15f}")
    print(f"criterion 5: corrected order 8 {p8:.15f} (delta {p8 - t_ref:.3e})")
    print(f"criterion 5: baseline {pb:.15f} (delta {pb - t_ref:.3e})")
    assert abs(p8 - t_ref) < 1e-5
    assert abs(pb - t_ref) > 1e-3


def test_criterion_06_symplecticity(quartic, mass1):
    """One-step Jacobians satisfy J^T Omega J = Omega to the FD floor."""
    rng = np.random.default_rng(61)
    states = [PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
              for _ in range(20)]
    worst = 0.0
    for variant, order in SCHEMES:
        for i, x in enumerate(states):
            tau = TAUS[i % 3]
            cfg = SchemeConfig(variant, tau, order=order)
            defect = symplecticity_defect(x, cfg, quartic, mass1)
            worst = max(worst, defect)
            assert defect <= 1e-7, (
                f"{_label(variant, order)} tau={tau} state {i}: "
                f"defect {defect:.3e}")
    print(f"criterion 6: worst defect {worst:.3e} over "
          f"{len(SCHEMES) * len(states)} Jacobians")


def test_criterion_07_long_run_stability(quartic, mass1, x_unit):
    """257 periods at tau=0.1: late energy error stays at the early level."""
    tau = 0.1
    t_ref = quartic_period()
    n_steps = math.ceil(257.0 * t_ref / tau)
    first = (1, math.ceil(10.0 * t_ref / tau) + 1)
    last = (n_steps - math.ceil(7.0 * t_ref / tau), n_steps + 1)
    start = time.perf_counter()
    for variant, order in SCHEMES + [("baseline_mkm", 2)]:
        cfg = SchemeConfig(variant, tau, order=order)
        early, late = energy_deviation_maxima(x_unit, cfg, quartic, mass1,
                                              n_steps, first, last)
        print(f"criterion 7: {_label(variant, order)} early {early:.3e} "
              f"late {late:.3e} ratio {late / early:.3f}")
        assert late <= 2.0 * early
    elapsed = time.perf_counter() - start
    print(f"criterion 7: {elapsed:.2f} s")
    assert elapsed < 30.0


@pytest.mark.skipif(os.environ.get("SYMSPLIT_LONG") != "1",
                    reason="262718-period endurance run; set SYMSPLIT_LONG=1")
def test_criterion_07_full_length_run(quartic, mass1, x_unit):
    """The full 262718-period run stays stable up to a roundoff allowance.

    Over tens of millions of steps the energy picks up a roundoff drift,
    linear in time; the late maximum is allowed 500 eps sqrt(n) on top of
    twice the early maximum (the measured late maximum is about a third
    of that allowance).
    """
    tau = 0.05
    t_ref = quartic_period()
    periods = 262718.0
    n_steps = math.ceil(periods * t_ref / tau)
    first = (1, math.ceil(10.0 * t_ref / tau) + 1)
    last = (n_steps - math.ceil(7.0 * t_ref / tau), n_steps + 1)
    cfg = SchemeConfig("corrected_kmk", tau, order=8)
    start = time.perf_counter()
    early, late = energy_deviation_maxima(x_unit, cfg, quartic, mass1,
                                          n_steps, first, last)
    elapsed = time.perf_counter() - start
    allowance = 2.0 * early + 500.0 * np.finfo(float).eps * math.sqrt(n_steps)
    print(f"criterion 7 (long): {n_steps} steps in {elapsed:.1f} s; early "
          f"{early:.3e} late {late:.3e} allowance {allowance:.3e}")
    assert late <= allowance
    assert elapsed < 900.0


def test_criterion_08_implicit_step_consistency(quartic, mass1):
    """move_generating tracks the exact corrected-kinetic flow.

    The reference is a high-accuracy ODE solve of the corrected kinetic
    Hamiltonian with the step size frozen inside the coefficients; the
    implicit step must match it to one order beyond the scheme order.
    """
    probes = [(0.3, 0.953), (-0.48, 0.897), (0.662, -0.66)]
    for order in (4, 6, 8):
        ks = list(correction_orders(order))
        for q0, p0 in probes:
            errs = []
            for tau in TAUS:
                def rhs(t, z, tau=tau):
                    q, p = z[:1], z[1:]
                    dq = np.array(mass1.raise_index(p), dtype=float)
                    dp = np.zeros(1)
                    for k in ks:
                        dq += kinetic_correction_grad_mom(
                            k, quartic, mass1, q, p, tau)
                        dp -= kinetic_correction_grad_q(
                            k, quartic, mass1, q, p, tau)
                    return np.concatenate([dq, dp])

                sol = solve_ivp(rhs, (0.0, tau), [q0, p0], method="DOP853",
                                rtol=1e-13, atol=1e-16)
                cfg = SchemeConfig("corrected_kmk", tau, order=order)
                x, _ = move_generating(PhasePoint([q0], [p0]), cfg,
                                       quartic, mass1)
                errs.append(max(abs(x.q[0] - sol.y[0, -1]),
                                abs(x.p[0] - sol.y[1, -1])))
            slope = np.polyfit(np.log(TAUS), np.log(errs), 1)[0]
            print(f"criterion 8: order {order} probe ({q0}, {p0}) "
                  f"local order {slope:.3f}")
            assert slope >= order + 0.9


def test_criterion_09_oracle_agreement(mass1):
    """Every generator word's gradients match central finite differences."""
    words = []
    for table in (KINETIC_GENERATORS, POTENTIAL_GENERATORS, GENERATING_TERMS):
        for entries in table.values():
            words.extend(word for _, word in entries)

    rng = np.random.default_rng(92)
    settings = [
        (Quartic(), mass1, 1),
        (Harmonic(1.1), MassMatrix([[1.5, 0.2], [0.2, 0.8]]), 2),
    ]
    h = 1e-5
    worst = 0.0
    for potential, mass, dim in settings:
        for _ in range(25):
            q = rng.uniform(-1.5, 1.5, dim)
            p = rng.uniform(-1.5, 1.5, dim)
            for word in words:
                gq = grad_word_q(word, potential, mass, q, p)
                gp = grad_word_mom(word, potential, mass, q, p)
                for a in range(dim):
                    e = np.zeros(dim)
                    e[a] = h
                    fd_q = (apply_word(word, potential, mass, q + e, p)
                            - apply_word(word, potential, mass, q - e, p)
                            ) / (2 * h)
                    fd_p = (apply_word(word, potential, mass, q, p + e)
                            - apply_word(word, potential, mass, q, p - e)
                            ) / (2 * h)
                    rel_q = abs(gq[a] - fd_q) / max(1.0, abs(gq[a]))
                    rel_p = abs(gp[a] - fd_p) / max(1.0, abs(gp[a]))
                    worst = max(worst, rel_q, rel_p)
                    assert rel_q < 1e-6 and rel_p < 1e-6, (
                        f"{word.atoms} at q={q}, p={p}")
    print(f"criterion 9: worst relative FD mismatch {worst:.3e} "
          f"({len(words)} words, 50 points)")

"""Splitting steps: kicks, moves, the implicit corrected move, exact
quadratic stepping and the integrate driver."""
import hashlib
import math
import struct
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import HenonHeiles

from symsplit import fastpath, integrators
from symsplit.hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Polynomial1D,
    Potential,
    Quadratic,
    Quartic,
    hamiltonian,
)
from symsplit.integrators import (
    DegenerateMass,
    NewtonDiverged,
    ResonantStep,
    SchemeConfig,
    StepReport,
    exact_quadratic_step,
    harmonic_modified_coeffs,
    integrate,
    kick,
    move_explicit,
    move_generating,
    step,
)
from symsplit.operators import generating_function_grad_q


def _x(q, p):
    return PhasePoint(np.atleast_1d(np.asarray(q, float)),
                      np.atleast_1d(np.asarray(p, float)))


# ---------------------------------------------------------------------------
# configuration


def test_scheme_config_validation():
    SchemeConfig("corrected_kmk", 0.1, order=8)
    with pytest.raises(ValueError, match="unknown variant"):
        SchemeConfig("leapfrog", 0.1)
    with pytest.raises(ValueError, match="tau must be positive"):
        SchemeConfig("baseline_kmk", 0.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        SchemeConfig("baseline_kmk", math.inf)
    with pytest.raises(ValueError, match="corrected order"):
        SchemeConfig("corrected_kmk", 0.1, order=3)
    with pytest.raises(ValueError, match="does not take an order"):
        SchemeConfig("baseline_kmk", 0.1, order=4)
    with pytest.raises(ValueError, match="newton"):
        SchemeConfig("corrected_kmk", 0.1, order=4, newton_tol=0.0)


def test_scheme_order_property():
    assert SchemeConfig("corrected_kmk", 0.1, order=6).order == 6
    assert SchemeConfig("baseline_kmk", 0.1).order == 2
    assert SchemeConfig("exact_quadratic", 0.1).order == 2


# ---------------------------------------------------------------------------
# elementary updates


def test_kick_at_origin_is_identity(quartic, mass1):
    x = _x(0.0, 1.0)
    y = kick(x, 0.05, quartic, mass1, tau_full=0.1)
    assert y.q[0] == 0.0 and y.p[0] == 1.0


def test_kick_baseline_value(quartic, mass1):
    # V'(0.1) = 1e-3, so a half kick of h = 0.05 leaves p = 1 - 5e-5
    y = kick(_x(0.1, 1.0), 0.05, quartic, mass1, tau_full=0.1)
    assert y.p[0] == pytest.approx(0.99995, rel=1e-15)
    assert y.q[0] == 0.1


def test_move_explicit():
    mass = MassMatrix.identity(1)
    x = _x(0.1, 1.0)
    assert move_explicit(x, 0.0, mass).q[0] == 0.1
    assert move_explicit(x, 0.1, mass).q[0] == pytest.approx(0.2)

    mass2 = MassMatrix.diagonal([2.0, 1.0])
    y = move_explicit(PhasePoint(np.zeros(2), np.ones(2)), 0.5, mass2)
    assert y.q.tolist() == [1.0, 0.5]
    assert y.p.tolist() == [1.0, 1.0]


def test_move_generating_harmonic_order4_is_exact_free_flight(mass1):
    """For a quadratic potential the implicit solve's starting guess is
    already exact, so the move is the drift q += tau (1 - tau^2/6) M p with
    the momentum unchanged, converged in zero Newton iterations."""
    harm = Harmonic()
    cfg = SchemeConfig("corrected_kmk", 0.2, order=4)
    x = _x(0.7, -1.1)
    y, report = move_generating(x, cfg, harm, mass1)
    assert report.newton_iterations == 0
    assert y.p[0] == x.p[0]
    drift = cfg.tau * (1 - cfg.tau**2 / 6) * x.p[0]
    assert y.q[0] == pytest.approx(x.q[0] + drift, rel=1e-15)


def test_move_generating_quartic_perturbative_momentum(quartic, mass1):
    """Leading terms of the solved momentum: P = p + tau^3/12 d_q(D^2 V)
    + tau^4/24 d_q(D^3 V) + O(tau^5), here 1 + tau^3/2 + tau^4/4 at (1, 1)."""
    for tau in (0.02, 0.01):
        cfg = SchemeConfig("corrected_kmk", tau, order=4)
        y, _ = move_generating(_x(1.0, 1.0), cfg, quartic, mass1)
        predicted = 1.0 + tau**3 / 2 + tau**4 / 4
        assert abs(y.p[0] - predicted) < 50 * tau**5, f"tau={tau}"


def test_move_generating_diverges_at_huge_step(quartic, mass1):
    cfg = SchemeConfig("corrected_kmk", 3.0, order=8)
    with pytest.raises(NewtonDiverged) as info:
        move_generating(_x(2.0, 2.0), cfg, quartic, mass1)
    assert info.value.residual > 0
    assert info.value.iterations >= 1


def test_move_generating_report_residual_below_tolerance(quartic, mass1):
    rng = np.random.default_rng(40)
    cfg = SchemeConfig("corrected_kmk", 0.1, order=8)
    for _ in range(10):
        x = _x(rng.uniform(-1, 1), rng.uniform(-1, 1))
        _, report = move_generating(x, cfg, quartic, mass1)
        assert report.newton_residual <= cfg.newton_tol


# ---------------------------------------------------------------------------
# single steps


def test_step_baseline_worked_example(quartic, mass1):
    cfg = SchemeConfig("baseline_kmk", 0.1)
    y, report = step(_x(0.0, 1.0), cfg, quartic, mass1)
    assert y.q[0] == pytest.approx(0.1, rel=1e-15)
    assert y.p[0] == pytest.approx(0.99995, rel=1e-15)
    assert report == StepReport()


def test_corrected_order2_is_bitwise_baseline(quartic, mass1):
    rng = np.random.default_rng(41)
    base = SchemeConfig("baseline_kmk", 0.13)
    corr = SchemeConfig("corrected_kmk", 0.13, order=2)
    for _ in range(100):
        x = _x(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        yb, _ = step(x, base, quartic, mass1)
        yc, _ = step(x, corr, quartic, mass1)
        assert yb.q[0] == yc.q[0] and yb.p[0] == yc.p[0]


def _reversibility_defect(cfg, potential, mass, states):
    worst = 0.0
    for x in states:
        y, _ = step(x, cfg, potential, mass)
        z, _ = step(PhasePoint(y.q, -y.p), cfg, potential, mass)
        err = max(abs(z.q[0] - x.q[0]), abs(-z.p[0] - x.p[0]))
        worst = max(worst, err)
    return worst


def test_step_reversibility(quartic, mass1):
    """Step forward, flip p, step again, flip back.

    The explicit-drift variants return the start to roundoff.  The
    corrected move is a truncated generating-function map, so its adjoint
    differs from itself by the first dropped term: the round trip closes
    only to O(tau^(order+2)), far below the scheme's own accuracy but not
    at Newton tolerance.  Both the magnitude and the decay rate under
    halving tau are pinned here.
    """
    rng = np.random.default_rng(42)
    states = [PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
              for _ in range(5)]

    for variant in ("baseline_kmk", "baseline_mkm"):
        defect = _reversibility_defect(SchemeConfig(variant, 0.15), quartic,
                                       mass1, states)
        assert defect <= 1e-14, variant

    for order in (4, 6, 8):
        coarse = _reversibility_defect(
            SchemeConfig("corrected_kmk", 0.2, order=order), quartic, mass1,
            states)
        fine = _reversibility_defect(
            SchemeConfig("corrected_kmk", 0.1, order=order), quartic, mass1,
            states)
        assert coarse <= 2.0 * 0.2 ** (order + 2), (order, coarse)
        assert fine <= 2.0 * 0.1 ** (order + 2), (order, fine)
        # halving tau must shrink the defect at the truncation rate
        assert coarse / fine >= 2 ** (order + 1), (order, coarse / fine)


def test_harmonic_corrected8_matches_its_linear_map(mass1):
    """On the unit harmonic mode the order-8 step is the linear map built
    from the truncated modified coefficients; 1000 steps must track the
    matrix power to roundoff and the exact rotation to the coefficient
    truncation error (about 2e-8 here; the tau^8 spring-series defect
    advances the phase by ~2e-11 per step)."""
    harm = Harmonic()
    tau = 0.2
    cfg = SchemeConfig("corrected_kmk", tau, order=8)
    m8 = 1 - tau**2 / 6 + tau**4 / 120 - tau**6 / 5040
    k8 = 1 + tau**2 / 12 + tau**4 / 120 + 17 * tau**6 / 20160
    kick_half = np.array([[1.0, 0.0], [-0.5 * tau * k8, 1.0]])
    drift = np.array([[1.0, tau * m8], [0.0, 1.0]])
    a = kick_half @ drift @ kick_half

    x = _x(1.0, 0.0)
    n = 1000
    z = np.linalg.matrix_power(a, n) @ x.as_array()
    y = integrate(x, cfg, harm, mass1, n)
    assert abs(y.q[0] - z[0]) < 1e-12 and abs(y.p[0] - z[1]) < 1e-12

    t = n * tau
    exact = np.array([math.cos(t), -math.sin(t)])
    assert np.abs(y.as_array() - exact).max() < 5e-8


# ---------------------------------------------------------------------------
# exact quadratic stepping


def test_harmonic_modified_coeffs_values():
    m, k = harmonic_modified_coeffs(0.2, 1.0, "kmk")
    assert m == pytest.approx(0.9933466539753061, rel=1e-15)
    assert k == pytest.approx(1.0033467208545055, rel=1e-15)


def test_harmonic_modified_coeffs_small_step_limit():
    m, k = harmonic_modified_coeffs(1e-9, 2.0, "kmk")
    assert m == pytest.approx(1.0, abs=1e-12)
    assert k == pytest.approx(4.0, rel=1e-12)


def test_harmonic_modified_coeffs_series():
    """The truncation residuals equal the next series terms,
    tau^8/362880 for m and 31 tau^8/362880 for k."""
    tau = 0.1
    m, k = harmonic_modified_coeffs(tau, 1.0, "kmk")
    m_series = 1 - tau**2 / 6 + tau**4 / 120 - tau**6 / 5040
    k_series = 1 + tau**2 / 12 + tau**4 / 120 + 17 * tau**6 / 20160
    assert abs(m - m_series) == pytest.approx(tau**8 / 362880, rel=0.02)
    assert abs(k - k_series) == pytest.approx(31 * tau**8 / 362880, rel=0.02)


def test_harmonic_modified_coeffs_mkm():
    tau = 0.4
    m, k = harmonic_modified_coeffs(tau, 1.0, "mkm")
    assert m == pytest.approx(math.tan(tau / 2) / (tau / 2), rel=1e-15)
    assert k == pytest.approx(math.sin(tau) / tau, rel=1e-15)
    with pytest.raises(ValueError):
        harmonic_modified_coeffs(0.1, 1.0, "xyz")
    with pytest.raises(ValueError):
        harmonic_modified_coeffs(0.1, -1.0)


def test_harmonic_modified_coeffs_resonance():
    with pytest.raises(ResonantStep):
        harmonic_modified_coeffs(math.pi, 1.0, "kmk")
    with pytest.raises(ResonantStep):
        harmonic_modified_coeffs(3 * math.pi, 1.0, "mkm")


def test_exact_quadratic_step_refuses_a_resonant_mode():
    # modes omega = 1 and 2; the second sits at omega * tau = pi, or within
    # 1e-8 of it, and the step raises instead of dividing by tan(pi/2)
    potential, mass = Quadratic(np.diag([1.0, 4.0])), MassMatrix.identity(2)
    x = _x([0.3, -0.1], [0.2, 0.4])
    for phase in (math.pi, math.pi - 9e-9, math.pi + 9e-9, 3 * math.pi):
        with pytest.raises(ResonantStep, match="odd multiple of pi"):
            exact_quadratic_step(x, phase / 2, mass, potential.stiffness)
        with pytest.raises(ResonantStep):
            step(x, SchemeConfig("exact_quadratic", phase / 2), potential, mass)
    # 2e-8 away from pi the step is taken
    y = exact_quadratic_step(x, (math.pi + 2e-8) / 2, mass, potential.stiffness)
    assert np.isfinite(y.q).all() and np.isfinite(y.p).all()


def test_exact_quadratic_free_particle_is_drift():
    mass = MassMatrix.identity(2)
    x = PhasePoint(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
    y = exact_quadratic_step(x, 2.0, mass, np.zeros((2, 2)))
    np.testing.assert_allclose(y.q, x.q + 2.0 * x.p, rtol=1e-15)
    np.testing.assert_allclose(y.p, x.p, rtol=1e-15)


def test_exact_quadratic_matches_matrix_exponential():
    mass = MassMatrix.identity(2)
    stiffness = np.diag([1.0, 4.0])
    tau = 0.3
    x = PhasePoint(np.array([0.8, -0.4]), np.array([0.1, 0.9]))
    y = exact_quadratic_step(x, tau, mass, stiffness)

    blocks = np.block([[np.zeros((2, 2)), mass.mat],
                       [-stiffness, np.zeros((2, 2))]])
    z = scipy.linalg.expm(tau * blocks) @ x.as_array()
    assert np.abs(y.as_array() - z).max() < 1e-12


def test_exact_quadratic_coupled_system_with_general_mass():
    mass = MassMatrix([[1.5, 0.2], [0.2, 0.8]])
    stiffness = np.array([[2.0, 0.7], [0.7, 1.0]])
    tau = 0.45
    x = PhasePoint(np.array([0.3, -0.6]), np.array([-0.2, 1.1]))
    y = exact_quadratic_step(x, tau, mass, stiffness)

    blocks = np.block([[np.zeros((2, 2)), mass.mat],
                       [-stiffness, np.zeros((2, 2))]])
    z = scipy.linalg.expm(tau * blocks) @ x.as_array()
    assert np.abs(y.as_array() - z).max() < 1e-12


def test_exact_quadratic_unstable_mode():
    # inverted oscillator: hyperbolic sweep instead of rotation
    mass = MassMatrix.identity(1)
    stiffness = np.array([[-1.0]])
    tau = 0.7
    x = _x(0.3, -0.2)
    y = exact_quadratic_step(x, tau, mass, stiffness)
    c, s = math.cosh(tau), math.sinh(tau)
    assert y.q[0] == pytest.approx(c * 0.3 + s * -0.2, rel=1e-13)
    assert y.p[0] == pytest.approx(s * 0.3 + c * -0.2, rel=1e-13)


def test_exact_quadratic_is_a_one_parameter_group():
    mass = MassMatrix([[1.2, 0.1], [0.1, 0.9]])
    stiffness = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = PhasePoint(np.array([0.5, 0.1]), np.array([0.0, -0.7]))
    whole = exact_quadratic_step(x, 0.8, mass, stiffness)
    half = exact_quadratic_step(
        exact_quadratic_step(x, 0.4, mass, stiffness), 0.4, mass, stiffness
    )
    assert np.abs(whole.as_array() - half.as_array()).max() < 1e-12


def test_exact_quadratic_rejects_singular_mass():
    mass = MassMatrix(np.diag([1.0, 0.0]))
    x = PhasePoint(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(DegenerateMass):
        exact_quadratic_step(x, 0.1, mass, np.eye(2))


def test_exact_quadratic_scheme_requires_quadratic_potential(quartic, mass1):
    cfg = SchemeConfig("exact_quadratic", 0.1)
    # a constant or a linear term makes V more than a quadratic form
    for pot in (quartic, Polynomial1D([1.0, 0.0, 2.0]), Polynomial1D([0.0, -0.5, 2.0])):
        assert pot.quadratic_matrix(1) is None
        with pytest.raises(ValueError, match="purely quadratic"):
            step(_x(0.0, 1.0), cfg, pot, mass1)


def test_exact_quadratic_takes_a_quadratic_polynomial(mass1):
    # V = 2 q^2 has stiffness 4, as Harmonic(2.0) has
    cfg = SchemeConfig("exact_quadratic", 0.1)
    x = _x(0.3, 1.0)
    assert (Polynomial1D([0.0, 0.0, 2.0]).quadratic_matrix(1).tobytes()
            == Harmonic(2.0).quadratic_matrix(1).tobytes())
    runs = [integrate(x, cfg, pot, mass1, 20)
            for pot in (Polynomial1D([0.0, 0.0, 2.0]), Harmonic(2.0))]
    assert runs[0].as_array().tobytes() == runs[1].as_array().tobytes()


def test_exact_quadratic_conserves_energy_per_step():
    pot = Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    mass = MassMatrix([[1.5, 0.2], [0.2, 0.8]])
    cfg = SchemeConfig("exact_quadratic", 0.3)
    x = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    h0 = hamiltonian(x, pot, mass)
    for _ in range(50):
        x, _ = step(x, cfg, pot, mass)
        assert abs(hamiltonian(x, pot, mass) - h0) < 1e-13


# ---------------------------------------------------------------------------
# the integrate driver


def test_integrate_zero_steps_returns_input(quartic, mass1, x_unit):
    cfg = SchemeConfig("baseline_kmk", 0.1)
    assert integrate(x_unit, cfg, quartic, mass1, 0) is x_unit
    with pytest.raises(ValueError):
        integrate(x_unit, cfg, quartic, mass1, -1)


def test_integrate_observer_sequencing(quartic, mass1, x_unit):
    cfg = SchemeConfig("baseline_kmk", 0.1)
    seen = []
    integrate(x_unit, cfg, quartic, mass1, 5,
              observer=lambda i, t, x, rep: seen.append((i, t, x.q[0])))
    assert [i for i, _, _ in seen] == [1, 2, 3, 4, 5]
    assert [t for _, t, _ in seen] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize("variant,order", [("baseline_kmk", 2),
                                           ("corrected_kmk", 6)])
def test_unobserved_integrate_is_bit_identical_to_observed(variant, order, quartic,
                                                          mass1, x_unit):
    if variant == "corrected_kmk":
        cfg = SchemeConfig(variant, 0.1, order=order)
    else:
        cfg = SchemeConfig(variant, 0.1)
    unobserved = integrate(x_unit, cfg, quartic, mass1, 40)
    observed = integrate(x_unit, cfg, quartic, mass1, 40,
                         observer=lambda *a: None)
    assert unobserved.as_array().tobytes() == observed.as_array().tobytes()


@pytest.mark.parametrize("variant,order", [("baseline_kmk", 2), ("corrected_kmk", 2),
                                           ("corrected_kmk", 4), ("corrected_kmk", 6),
                                           ("corrected_kmk", 8)])
@pytest.mark.parametrize("problem", ["quartic", "henon"])
def test_observed_integrate_is_bit_identical_to_repeated_steps(variant, order, problem):
    # integrate shares one workspace per position; step makes a fresh one
    # for every kick and move.  Observed or not, integrate runs the same
    # half kick, move, half kick.
    if problem == "quartic":
        potential, mass, x = Quartic(), MassMatrix.identity(1), _x(0.0, 1.0)
    else:
        potential, mass = HenonHeiles(), MassMatrix([[1.5, 0.2], [0.2, 0.8]])
        x = _x([0.1, -0.2], [0.3, 0.15])
    cfg = SchemeConfig(variant, 0.1, order=order)
    seen = []
    integrate(x, cfg, potential, mass, 12,
              observer=lambda i, t, y, report: seen.append((y, report)))
    unobserved = integrate(x, cfg, potential, mass, 12)
    assert len(seen) == 12
    for y, report in seen:
        x, want = step(x, cfg, potential, mass)
        assert y.q.tobytes() == x.q.tobytes() and y.p.tobytes() == x.p.tobytes()
        assert report == want
    assert unobserved.as_array().tobytes() == x.as_array().tobytes()


@pytest.mark.parametrize("variant,order", [("baseline_kmk", 2), ("corrected_kmk", 8)])
@pytest.mark.parametrize("observed", [False, True])
def test_integrate_evaluates_each_position_once(observed, variant, order, mass1, x_unit):
    # n steps visit n + 1 positions; each one's force and moves share V'
    class Counting(Quartic):
        calls = 0

        def gradient(self, q):
            type(self).calls += 1
            return super().gradient(q)

    pot = Counting()
    observer = (lambda *args: None) if observed else None
    integrate(x_unit, SchemeConfig(variant, 0.05, order=order), pot, mass1, 10,
              observer=observer)
    assert pot.calls == 11


def test_integrate_attaches_step_index_on_divergence(quartic, mass1):
    cfg = SchemeConfig("corrected_kmk", 3.0, order=8)
    with pytest.raises(NewtonDiverged) as info:
        integrate(_x(0.0, 1.0), cfg, quartic, mass1, 10)
    assert info.value.step_index is not None
    assert "at step" in str(info.value)


class _NanAboveSecondOrder(Potential):
    """V = q^2 / 2 through ``_contract`` alone, except that its third and
    higher derivatives read nan once q passes 0.25."""

    def value(self, q):
        return 0.5 * float(q @ q)

    def gradient(self, q):
        return np.array(q, dtype=float)

    def _contract(self, q, dirs):
        if len(dirs) == 1:
            return float(dirs[0] @ q)
        if len(dirs) == 2:
            return float(dirs[0] @ dirs[1])
        return math.nan if q[0] > 0.25 else 0.0


def test_a_non_finite_residual_is_a_failed_solve(mass1, x_unit):
    # the order-4 kick reads V' and V'' only, so the kicks stay finite and the
    # move from q = sin(0.3) = 0.296, in step 4, is the first to read nan
    pot = _NanAboveSecondOrder()
    cfg = SchemeConfig("corrected_kmk", 0.1, order=4)
    with pytest.raises(NewtonDiverged) as info:
        integrate(x_unit, cfg, pot, mass1, 10)
    run = fastpath.simulate(x_unit, cfg, pot, mass1, 10, rec_range=(0, 11))
    for failed in (info.value, run.failure):
        assert isinstance(failed, NewtonDiverged)
        assert math.isnan(failed.residual) and failed.iterations == 0
        assert failed.step_index == 4
    assert run.completed_steps == 3 and len(run.rec_h) == 4 and run.final is None


def test_a_singular_jacobian_is_a_failed_solve(opaque_quartic, mass1, x_unit):
    # with every linear solve refused, a step whose first residual is within
    # tolerance keeps its momentum unpolished, and the first step whose
    # residual is not fails at iteration 0; the first residual grows with q
    pot = opaque_quartic
    cfg = SchemeConfig("corrected_kmk", 0.1, order=4, newton_tol=1e-4)
    seen = []
    singular = np.linalg.LinAlgError("Singular matrix")
    with mock.patch.object(integrators.np.linalg, "solve", side_effect=singular):
        with pytest.raises(NewtonDiverged) as info:
            integrate(x_unit, cfg, pot, mass1, 10,
                      observer=lambda i, t, y, report: seen.append((y, report)))
        run = fastpath.simulate(x_unit, cfg, pot, mass1, 10, rec_range=(0, 11))

    def first_residual(x):
        half = kick(x, 0.05, pot, mass1, 0.1, 4)
        return float(np.abs(generating_function_grad_q(
            pot, mass1, half.q, half.p, 0.1, 4) - half.p).max())

    starts = [x_unit] + [y for y, _ in seen]
    for x, (_, report) in zip(starts, seen):
        assert report == StepReport(0, first_residual(x))
        assert 0.0 < report.newton_residual <= cfg.newton_tol
    for failed in (info.value, run.failure):
        assert isinstance(failed, NewtonDiverged)
        assert failed.residual == first_residual(starts[-1]) > cfg.newton_tol
        assert failed.iterations == 0 and failed.step_index == 3
    assert run.completed_steps == 2 and run.final is None
    assert run.rec_iters.tolist() == [0, 0, 0]
    assert run.rec_res[1:].tolist() == [report.newton_residual for _, report in seen]


def test_integrate_quartic_one_period_returns_near_start(quartic, mass1,
                                                         x_unit):
    from symsplit.verification import quartic_period

    tau = 0.05
    period = quartic_period()
    n = round(period / tau)
    cfg = SchemeConfig("corrected_kmk", tau, order=8)
    y = integrate(x_unit, cfg, quartic, mass1, n)
    # the mismatch is dominated by n*tau - period = 6.25 - 6.2363...
    drift = n * tau - period
    assert abs(y.q[0] - drift) < 1e-4
    assert abs(y.p[0] - 1.0) < 1e-4


def test_integrate_polynomial_potential_with_heavy_mass():
    pot = Polynomial1D([0.0, 0.0, 0.5, 0.0, 0.25])
    mass = MassMatrix(2.0)
    cfg = SchemeConfig("corrected_kmk", 0.1, order=6)
    x = _x(0.4, 0.3)
    h0 = hamiltonian(x, pot, mass)
    y = integrate(x, cfg, pot, mass, 200)
    assert abs(hamiltonian(y, pot, mass) - h0) < 1e-8


# ---------------------------------------------------------------------------
# pinned bytes of the generic engine beyond quadratic potentials


def _observed_digest(x0, potential, mass, n_steps=20):
    """sha256 of every observed state and StepReport of order-8 steps."""
    digest = hashlib.sha256()

    def observer(i, t, x, report):
        digest.update(x.q.tobytes() + x.p.tobytes())
        digest.update(struct.pack("<qd", report.newton_iterations, report.newton_residual))

    integrate(x0, SchemeConfig("corrected_kmk", 0.1, order=8), potential, mass,
              n_steps, observer=observer)
    return digest.hexdigest()


# computed before the generic engine's node tape replaced its tuple-keyed
# caches; a change to operators or the Newton solve must leave them alone
def test_henon_heiles_steps_are_pinned():
    mass = MassMatrix([[1.5, 0.2], [0.2, 0.8]])
    x0 = _x([0.1, -0.2], [0.3, 0.15])
    assert _observed_digest(x0, HenonHeiles(), mass) == (
        "320bb0ee7ae8ffeff917d08b7a5cb907024d06521456ff9166e55b6389affe46")


def test_opaque_quartic_steps_are_pinned(opaque_quartic, mass1, x_unit):
    assert _observed_digest(x_unit, opaque_quartic, mass1) == (
        "c67a18208f5c6e23b5ffc4c44d77bdc131715241d0e7684a349561109789ab2f")

"""Derivative words, correction generators and the move generating function.

The heavy cross-check here rebuilds every generator table entry with sympy
on a coupled two-dimensional polynomial potential and a non-diagonal mass
matrix, then compares values and both exact gradients.  Everything else is
frozen worked examples plus structural properties.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from conftest import HenonHeiles
from hypothesis import given, settings
from hypothesis import strategies as st

from symsplit import operators
from symsplit.hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Polynomial1D,
    Potential,
    Quadratic,
    Quartic,
)
from symsplit.integrators import SchemeConfig, integrate
from symsplit.operators import (
    GENERATING_TERMS,
    KINETIC_GENERATORS,
    POTENTIAL_GENERATORS,
    TRIPLE_GRADIENT,
    Workspace,
    apply_word,
    correction_orders,
    generating_function,
    generating_function_grad_p,
    generating_function_grad_q,
    generating_orders,
    grad_word_mom,
    grad_word_q,
    kinetic_correction,
    kinetic_correction_grad_mom,
    kinetic_correction_grad_q,
    potential_correction,
    potential_correction_grad,
    v_eff,
    v_eff_grad,
)


# ---------------------------------------------------------------------------
# word machinery


@pytest.mark.parametrize("word", ["gxm", "m" * 8, TRIPLE_GRADIENT * 2, "m" + TRIPLE_GRADIENT])
def test_apply_word_refuses_a_bad_word(quartic, mass1, word):
    with pytest.raises(ValueError, match="word"):
        apply_word(word, quartic, mass1, np.array([1.0]), np.array([2.0]))


def test_empty_word_is_the_potential(quartic, mass1):
    q = np.array([1.3])
    assert apply_word("", quartic, mass1, q) == quartic.value(q)


def test_apply_word_momentum_square(quartic, mass1):
    # two momentum atoms on V = q^4/4 give 3 p^2 q^2
    q, p = np.array([1.0]), np.array([2.0])
    assert apply_word("mm", quartic, mass1, q, p) == pytest.approx(12.0)


def test_apply_word_gradient_square(quartic, mass1):
    # one gradient atom gives |grad V|^2 = q^6
    q = np.array([1.0])
    assert apply_word("g", quartic, mass1, q) == pytest.approx(1.0)


def test_apply_word_triple_gradient_vanishes_for_harmonic():
    harm = Harmonic()
    mass = MassMatrix.identity(2)
    q = np.array([0.3, -1.1])
    assert apply_word(TRIPLE_GRADIENT, harm, mass, q) == 0.0


def test_apply_word_iterated_gradient(quartic, mass1):
    # ggg on the quartic is 48 q^10
    q = np.array([1.0])
    assert apply_word("ggg", quartic, mass1, q) == pytest.approx(48.0)


def test_grad_word_q(quartic, mass1):
    # d/dq of |grad V|^2 = q^6 is 6 q^5
    q = np.array([1.0])
    g = grad_word_q("g", quartic, mass1, q)
    assert g.shape == (1,) and g[0] == pytest.approx(6.0)


def test_grad_word_mom(quartic, mass1):
    # d/dp of 3 p^2 q^2 at (q, p) = (1, 2) is 12
    q, p = np.array([1.0]), np.array([2.0])
    g = grad_word_mom("mm", quartic, mass1, q, p)
    assert g[0] == pytest.approx(12.0)


def test_grad_word_mom_zero_without_momentum_atoms(quartic, mass1):
    q, p = np.array([0.7]), np.array([2.0])
    g = grad_word_mom("gg", quartic, mass1, q, p)
    assert g.tolist() == [0.0]


def test_momentum_word_requires_momentum(quartic, mass1):
    with pytest.raises(ValueError):
        apply_word("mm", quartic, mass1, np.array([1.0]))


def test_apply_word_momentum_homogeneity(quartic, mass1):
    rng = np.random.default_rng(8)
    for word in ["m", "mm", "gmm", "mgm", "mmgg", "gmgm"]:
        q = rng.uniform(0.5, 1.5, size=1)
        p = rng.uniform(0.5, 1.5, size=1)
        lam = 1.7
        scaled = apply_word(word, quartic, mass1, q, lam * p)
        base = apply_word(word, quartic, mass1, q, p)
        assert scaled == pytest.approx(lam ** word.count("m") * base, rel=1e-13)


def test_workspace_reuse_matches_fresh_calls(quartic, mass1):
    q, p = np.array([0.8]), np.array([1.3])
    ws = Workspace(quartic, mass1, q)
    words = ["gmm", "mgm", "mmgg"]
    fresh = [apply_word(w, quartic, mass1, q, p) for w in words]
    shared = [apply_word(w, quartic, mass1, q, p, workspace=ws) for w in words]
    assert fresh == shared


def test_step_contractions_grow_linearly_in_dimension():
    # each gradient term is one v node, d contractions, whatever its depth
    cfg = SchemeConfig("corrected_kmk", 0.1, order=8)
    calls = {}
    for d in (1, 2, 4, 8):
        pot = Harmonic(1.3)
        count = [0]
        inner = pot._contract

        def contract(q, dirs, count=count, inner=inner):
            count[0] += 1
            return inner(q, dirs)

        pot._contract = contract
        x0 = PhasePoint(np.linspace(0.2, 0.9, d), np.linspace(0.5, -0.3, d))
        integrate(x0, cfg, pot, MassMatrix.identity(d), 5,
                  observer=lambda *args: None)
        calls[d] = count[0]
    for d in (2, 4, 8):
        assert calls[d] <= d * calls[1] * 1.05, calls


# ---------------------------------------------------------------------------
# the node tape against a plain evaluation, bit for bit

# coordinates with both zeros drawn often: a sign of zero may flip a product
_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))


def _spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T / dim + 0.5 * np.eye(dim)


@st.composite
def _problems(draw):
    """(potential, mass) of one of the four kinds the engine has hooks for,
    or Hénon–Heiles, which defines only ``_contract``."""
    kind = draw(st.sampled_from(["quartic", "poly1d", "quadratic3d", "harmonic2d", "henon"]))
    if kind == "quartic":
        return Quartic(), MassMatrix.identity(1)
    if kind == "poly1d":
        coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7))
        return Polynomial1D(coeffs), MassMatrix(draw(st.floats(0.25, 4.0)))
    if kind == "quadratic3d":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        return Quadratic(_spd(rng, 3)), MassMatrix(_spd(rng, 3))
    if kind == "henon":
        return HenonHeiles(), MassMatrix([[1.5, 0.2], [0.2, 0.8]])
    return Harmonic(draw(st.floats(0.5, 2.0))), MassMatrix([[1.5, 0.2], [0.2, 0.8]])


def _basis_loop(potential, q, dirs):
    """D^{k+1}V[dirs, .] entry by entry: ``_contract`` with each basis row."""
    return np.array([potential._contract(q, [row, *dirs]) for row in np.eye(q.size)])


def _plain_sum(entries, walk, potential, mass, q, mom):
    """Sum of a table's nodes: each node's vector from a basis-row loop of
    ``_contract``, added one by one from zeros."""
    raised = mass.mat @ mom

    def vector(node):
        dirs = [raised if sub == operators._P else mass.mat @ vector(sub)
                for sub in node[1]]
        if not dirs:
            return potential.gradient(q)
        return _basis_loop(potential, q, dirs)

    nodes = operators._freeze(operators._rewrite(operators._table_expansion(entries), walk))
    out = np.zeros(q.size)
    for coeff, node in nodes:
        out += coeff * vector(node)
    return out


@settings(derandomize=True, deadline=None, max_examples=80)
@given(problem=_problems(), order=st.sampled_from([4, 6, 8]),
       tau=st.floats(0.01, 0.5), data=st.data())
def test_tape_matches_a_plain_evaluation_bit_for_bit(problem, order, tau, data):
    potential, mass = problem
    dim = mass.dim
    q = np.array(data.draw(st.lists(_coord, min_size=dim, max_size=dim)))
    mom = np.array(data.draw(st.lists(_coord, min_size=dim, max_size=dim)))
    kick = potential.gradient(q).astype(float, copy=True)
    for n in correction_orders(order):
        kick += tau**n * _plain_sum(POTENTIAL_GENERATORS[n], operators._grad_q_nodes,
                                    potential, mass, q, mom)
    dgdq = mom.copy()
    dgdp = q + tau * (mass.mat @ mom)
    for n in generating_orders(order):
        dgdq += tau**n * _plain_sum(GENERATING_TERMS[n], operators._grad_q_nodes,
                                    potential, mass, q, mom)
        dgdp += tau**n * (mass.mat @ _plain_sum(GENERATING_TERMS[n], operators._grad_mom_nodes,
                                                potential, mass, q, mom))
    assert v_eff_grad(potential, mass, q, tau, order).tobytes() == kick.tobytes()
    ws = Workspace(potential, mass, q)
    # twice through one workspace: the second pass reuses its q segment
    for _ in range(2):
        got_q = generating_function_grad_q(potential, mass, q, mom, tau, order, workspace=ws)
        got_p = generating_function_grad_p(potential, mass, q, mom, tau, order, workspace=ws)
        assert got_q.tobytes() == dgdq.tobytes()
        assert got_p.tobytes() == dgdp.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(problem=_problems(), ks=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       pad=st.integers(0, 2), data=st.data())
def test_gradient_contract_overrides_match_the_basis_loop(problem, ks, pad, data):
    # one level of rows with mixed orders from 2, as the operator engine
    # asks for, padded past the longest by pad
    potential, mass = problem
    dim = mass.dim
    q = np.array(data.draw(st.lists(_coord, min_size=dim, max_size=dim)))
    rows = [[np.array(data.draw(st.lists(_coord, min_size=dim, max_size=dim)))
             for _ in range(k)] for k in ks]
    orders = np.array([k + 1 for k in ks])
    dirs = np.ones((len(ks), max(ks) + pad, dim))
    for i, row in enumerate(rows):
        dirs[i, :len(row)] = np.reshape(row, (len(row), dim))
    want = Potential._gradient_rows(potential, q, orders, dirs, {})
    for i, row in enumerate(rows):
        assert want[i].tobytes() == _basis_loop(potential, q, row).tobytes()
    # a fresh memo, then the same one again
    memo = {}
    for _ in range(2):
        assert potential._gradient_rows(q, orders, dirs, memo).tobytes() == want.tobytes()


def _counting(base, fail_at=None):
    """A subclass of base counting its hook calls, failing on call fail_at."""

    class Counting(base):
        calls = 0

        def _gradient_rows(self, q, orders, dirs, memo):
            type(self).calls += 1
            if type(self).calls == fail_at:
                raise FloatingPointError("one failed level")
            return super()._gradient_rows(q, orders, dirs, memo)

    return Counting()


def test_set_mom_drops_every_momentum_node_even_after_a_failure(mass1):
    # a failure in any level, q-only or momentum-dependent, leaves nothing
    # the next evaluation would reuse
    q = np.array([0.8])
    counted = _counting(Quartic)
    generating_function_grad_q(counted, mass1, q, np.array([0.3]), 0.2, 8)
    assert counted.calls > 3
    for fail_at in range(1, counted.calls + 1):
        pot = _counting(Quartic, fail_at)
        ws = Workspace(pot, mass1, q)
        with pytest.raises(FloatingPointError):
            generating_function_grad_q(pot, mass1, q, np.array([0.3]), 0.2, 8, workspace=ws)
        for mom in ([1.1], [-0.4], [1.1]):
            mom = np.array(mom)
            reused = generating_function_grad_q(pot, mass1, q, mom, 0.2, 8, workspace=ws)
            fresh = generating_function_grad_q(pot, mass1, q, mom, 0.2, 8)
            assert reused.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("base, mass", [(Quartic, MassMatrix.identity(1)),
                                        (HenonHeiles, MassMatrix([[1.5, 0.2], [0.2, 0.8]]))])
def test_a_new_momentum_costs_one_hook_call_per_level(base, mass):
    # the order-8 dG/dq tables' 53 momentum-dependent nodes run in 3 levels
    pot = _counting(base)
    q = np.linspace(0.3, -0.2, mass.dim)
    ws = Workspace(pot, mass, q)
    generating_function_grad_q(pot, mass, q, np.full(mass.dim, 0.5), 0.1, 8, workspace=ws)
    for mom in (0.7, -0.1):
        before = pot.calls
        generating_function_grad_q(pot, mass, q, np.full(mass.dim, mom), 0.1, 8, workspace=ws)
        assert pot.calls - before == 3


def test_grad_p_reuses_the_q_only_rows_grad_q_left(mass1):
    # the order-8 dG/dP plan's one q-only node is in dG/dq's plan too, so
    # only its 3 momentum levels run
    pot = _counting(Quartic)
    q, mom = np.array([0.8]), np.array([0.3])
    ws = Workspace(pot, mass1, q)
    generating_function_grad_q(pot, mass1, q, mom, 0.2, 8, workspace=ws)
    before = pot.calls
    generating_function_grad_p(pot, mass1, q, mom, 0.2, 8, workspace=ws)
    assert pot.calls - before == 3


@pytest.mark.parametrize("potential, mass", [
    (Quartic(), MassMatrix.identity(1)),
    (HenonHeiles(), MassMatrix([[1.5, 0.2], [0.2, 0.8]])),
])
def test_a_shared_workspace_gives_fresh_bytes_in_any_order(potential, mass):
    # the plans share q-only nodes, and the order-4 force's plan reads no
    # raised direction of the node ("v", (W,)) that dG/dq reads; whichever
    # runs first, each result keeps its bits
    q = np.linspace(0.3, -0.2, mass.dim)
    mom = np.linspace(0.5, 0.1, mass.dim)
    calls = {
        "v_eff_grad:4": lambda ws: v_eff_grad(potential, mass, q, 0.1, 4, workspace=ws),
        "v_eff_grad:8": lambda ws: v_eff_grad(potential, mass, q, 0.1, 8, workspace=ws),
        "grad_q": lambda ws: generating_function_grad_q(potential, mass, q, mom, 0.1, 8,
                                                        workspace=ws),
        "grad_p": lambda ws: generating_function_grad_p(potential, mass, q, mom, 0.1, 8,
                                                        workspace=ws),
    }
    fresh = {name: call(None).tobytes() for name, call in calls.items()}
    for names in itertools.permutations(calls):
        ws = Workspace(potential, mass, q)
        for name in names:
            assert calls[name](ws).tobytes() == fresh[name], names


def test_polynomial_hook_refuses_a_q_of_another_length(quartic):
    q = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        quartic._gradient_rows(q, np.array([2]), np.ones((1, 1, 2)), {})
    with pytest.raises(ValueError):
        v_eff_grad(quartic, MassMatrix.identity(2), q, 0.1, 4)


# ---------------------------------------------------------------------------
# correction generators: worked values


def test_kinetic_correction_harmonic_series_values(mass1):
    """For the unit harmonic mode the corrections are (1/2)p^2 times the
    tau-series of sin(tau)/tau: -1/6, 1/120, -1/5040."""
    harm = Harmonic()
    q, p = np.array([0.37]), np.array([1.0])
    tau = 1.0
    assert kinetic_correction(2, harm, mass1, q, p, tau) == pytest.approx(-1 / 12)
    assert kinetic_correction(4, harm, mass1, q, p, tau) == pytest.approx(1 / 240)
    assert kinetic_correction(6, harm, mass1, q, p, tau) == pytest.approx(-1 / 10080)


def test_kinetic_correction_quartic_value(quartic, mass1):
    q, p = np.array([1.0]), np.array([2.0])
    got = kinetic_correction(2, quartic, mass1, q, p, tau=0.1)
    assert got == pytest.approx(-0.01)  # -(3 p^2 q^2)/12 * tau^2


def test_potential_correction_harmonic_series_values(mass1):
    """Corrections are (1/2)q^2 times 1/12, 1/120, 17/20160, the series of
    the modified spring constant (2/tau) tan(tau/2)."""
    harm = Harmonic()
    q = np.array([1.0])
    tau = 1.0
    assert potential_correction(2, harm, mass1, q, tau) == pytest.approx(1 / 24)
    assert potential_correction(4, harm, mass1, q, tau) == pytest.approx(1 / 240)
    assert potential_correction(6, harm, mass1, q, tau) == pytest.approx(17 / 40320)


def test_potential_correction_quartic_values(quartic, mass1):
    q = np.array([1.0])
    got2 = potential_correction(2, quartic, mass1, q, tau=0.1)
    assert got2 == pytest.approx(0.01 / 24)  # q^6 tau^2 / 24
    got6 = potential_correction(6, quartic, mass1, q, tau=1.0)
    # (17 * 48 - 10 * 6) / 161280 at q = 1
    assert got6 == pytest.approx(756 / 161280)


def test_correction_reductions_are_exact_rationals(mass1):
    """Harmonic reductions hit the rational series coefficients to 1e-12."""
    harm = Harmonic()
    q, p = np.array([0.83]), np.array([1.41])
    tau = 0.9
    kin_expected = {2: Fraction(-1, 6), 4: Fraction(1, 120), 6: Fraction(-1, 5040)}
    pot_expected = {2: Fraction(1, 12), 4: Fraction(1, 120), 6: Fraction(17, 20160)}
    half_p2 = 0.5 * float(p @ p)
    half_q2 = 0.5 * float(q @ q)
    for n, frac in kin_expected.items():
        ratio = kinetic_correction(n, harm, mass1, q, p, tau) / (half_p2 * tau**n)
        assert ratio == pytest.approx(float(frac), rel=1e-12), f"kinetic n={n}"
    for n, frac in pot_expected.items():
        ratio = potential_correction(n, harm, mass1, q, tau) / (half_q2 * tau**n)
        assert ratio == pytest.approx(float(frac), rel=1e-12), f"potential n={n}"


def test_generator_order_validation(quartic, mass1):
    q, p = np.array([1.0]), np.array([1.0])
    with pytest.raises(ValueError):
        kinetic_correction(3, quartic, mass1, q, p, tau=0.1)
    with pytest.raises(ValueError):
        potential_correction(8, quartic, mass1, q, tau=0.1)


def test_order_ranges():
    assert list(correction_orders(2)) == []
    assert list(correction_orders(4)) == [2]
    assert list(correction_orders(8)) == [2, 4, 6]
    assert list(generating_orders(2)) == []
    assert list(generating_orders(6)) == [3, 4, 5, 6]
    assert list(generating_orders(8)) == [3, 4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        correction_orders(5)
    with pytest.raises(ValueError):
        generating_orders(10)


# ---------------------------------------------------------------------------
# effective potential and generating function


def test_v_eff_order2_is_plain_potential(quartic, mass1):
    q = np.array([1.3])
    assert v_eff(quartic, mass1, q, tau=0.2, scheme_order=2) == quartic.value(q)
    np.testing.assert_array_equal(
        v_eff_grad(quartic, mass1, q, 0.2, 2), quartic.gradient(q)
    )


def test_v_eff_harmonic_order8_closed_form(mass1):
    harm = Harmonic()
    q = np.array([1.7])
    tau = 0.3
    series = 1 + tau**2 / 12 + tau**4 / 120 + 17 * tau**6 / 20160
    expected = 0.5 * q[0] ** 2 * series
    assert v_eff(harm, mass1, q, tau, 8) == pytest.approx(expected, rel=1e-14)


def test_v_eff_quartic_order4(quartic, mass1):
    q = np.array([1.0])
    got = v_eff(quartic, mass1, q, tau=0.1, scheme_order=4)
    assert got == pytest.approx(0.25 + 0.01 / 24, rel=1e-14)


def test_v_eff_sums_the_corrections(quartic, mass1):
    q = np.array([0.9])
    tau = 0.15
    expected = quartic.value(q) + sum(
        potential_correction(n, quartic, mass1, q, tau) for n in correction_orders(8)
    )
    assert v_eff(quartic, mass1, q, tau, 8) == pytest.approx(expected, rel=1e-15)


def test_v_eff_grad_evaluates_the_gradient_once(quartic, mass1):
    # the root node's row starts the sum; the correction tables reuse it
    calls = [0]

    class Counting(Quartic):
        def gradient(self, q):
            calls[0] += 1
            return super().gradient(q)

    q, tau = np.array([0.9]), 0.15
    for order in (2, 4, 6, 8):
        calls[0] = 0
        got = v_eff_grad(Counting(), mass1, q, tau, order)
        assert calls[0] == 1, order
        want = quartic.gradient(q).copy()
        for n in correction_orders(order):
            want += potential_correction_grad(n, quartic, mass1, q, tau)
        assert got.tobytes() == want.tobytes(), order


def test_a_workspace_keeps_each_force_apart(quartic, mass1):
    # the force is kept per (tau, order), and each caller gets its own copy
    q = np.array([0.9])
    ws = Workspace(quartic, mass1, q)
    for tau, order in [(0.15, 8), (0.15, 6), (0.1, 8), (0.15, 8), (0.1, 8)]:
        got = v_eff_grad(quartic, mass1, q, tau, order, workspace=ws)
        assert got.tobytes() == v_eff_grad(quartic, mass1, q, tau, order).tobytes()
        got[0] = np.nan


def test_generating_function_zero_tau_is_identity(quartic, mass1):
    q, mom = np.array([0.6]), np.array([-1.2])
    assert generating_function(quartic, mass1, q, mom, 0.0, 8) == pytest.approx(
        float(q @ mom)
    )
    np.testing.assert_allclose(
        generating_function_grad_q(quartic, mass1, q, mom, 0.0, 8), mom
    )
    np.testing.assert_allclose(
        generating_function_grad_p(quartic, mass1, q, mom, 0.0, 8), q
    )


def test_generating_function_order2_is_free_flight():
    mass = MassMatrix([[1.5, 0.2], [0.2, 0.8]])
    pot = Harmonic()
    q = np.array([0.4, -0.3])
    mom = np.array([1.1, 0.7])
    tau = 0.25
    g = generating_function(pot, mass, q, mom, tau, 2)
    assert g == pytest.approx(float(q @ mom) + 0.5 * tau * float(mom @ mass.mat @ mom))
    np.testing.assert_allclose(
        generating_function_grad_p(pot, mass, q, mom, tau, 2), q + tau * mass.mat @ mom
    )
    np.testing.assert_allclose(
        generating_function_grad_q(pot, mass, q, mom, tau, 2), mom
    )


def test_generating_function_harmonic_order4(mass1):
    # G = q P + P^2 tau / 2 - P^2 tau^3 / 12 for the unit harmonic mode
    harm = Harmonic()
    q, mom = np.array([0.8]), np.array([1.3])
    tau = 0.2
    expected = q[0] * mom[0] + 0.5 * mom[0] ** 2 * tau - mom[0] ** 2 * tau**3 / 12
    assert generating_function(harm, mass1, q, mom, tau, 4) == pytest.approx(
        expected, rel=1e-14
    )


# ---------------------------------------------------------------------------
# finite-difference checks of the exact word gradients


def _fd_word_grads(word, pot, mass, q, mom, h=1e-5):
    dq = np.zeros_like(q)
    for a in range(q.size):
        e = np.zeros_like(q)
        e[a] = h
        dq[a] = (
            apply_word(word, pot, mass, q + e, mom)
            - apply_word(word, pot, mass, q - e, mom)
        ) / (2 * h)
    dp = np.zeros_like(q)
    if "m" in word:
        for a in range(q.size):
            e = np.zeros_like(q)
            e[a] = h
            dp[a] = (
                apply_word(word, pot, mass, q, mom + e)
                - apply_word(word, pot, mass, q, mom - e)
            ) / (2 * h)
    return dq, dp


def _all_table_words():
    return list(dict.fromkeys(
        word
        for table in (KINETIC_GENERATORS, POTENTIAL_GENERATORS, GENERATING_TERMS)
        for entries in table.values()
        for _, word in entries))


def test_word_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    cases = [
        (Quartic(), MassMatrix.identity(1), 1),
        (Harmonic(1.1), MassMatrix([[1.5, 0.2], [0.2, 0.8]]), 2),
    ]
    words = _all_table_words()
    for pot, mass, dim in cases:
        for _ in range(3):
            q = rng.uniform(-1.5, 1.5, size=dim)
            mom = rng.uniform(-1.5, 1.5, size=dim)
            for word in words:
                gq = grad_word_q(word, pot, mass, q, mom)
                gp = grad_word_mom(word, pot, mass, q, mom)
                fq, fp = _fd_word_grads(word, pot, mass, q, mom)
                scale = max(1.0, float(np.abs(fq).max()), float(np.abs(fp).max()))
                assert np.abs(gq - fq).max() <= 1e-6 * scale, (word, pot)
                assert np.abs(gp - fp).max() <= 1e-6 * scale, (word, pot)


# ---------------------------------------------------------------------------
# sympy oracle: every table entry on a coupled 2-D polynomial system

_q1, _q2, _p1, _p2 = sp.symbols("q1 q2 p1 p2")
_QS = (_q1, _q2)
_PS = (_p1, _p2)
_MASS = sp.Matrix([[sp.Rational(3, 2), sp.Rational(1, 5)],
                   [sp.Rational(1, 5), sp.Rational(4, 5)]])
_V = _q1**4 / 4 + _q1**2 * _q2 + _q2**3 / 3 + _q1 * _q2 + _q2**2 / 2
_GRADV = sp.Matrix([sp.diff(_V, s) for s in _QS])


class _Poly2D(Potential):
    """Coupled polynomial matching the sympy expression above."""

    def value(self, q):
        a, b = q
        return a**4 / 4 + a**2 * b + b**3 / 3 + a * b + b**2 / 2

    def gradient(self, q):
        a, b = q
        return np.array([a**3 + 2 * a * b + b, a**2 + b**2 + a + b])

    def _contract(self, q, dirs):
        expr = _V
        for u in dirs:
            expr = sum(sp.diff(expr, s) * float(c) for s, c in zip(_QS, u))
        return float(expr.subs({_q1: q[0], _q2: q[1]}))


def _sym_mom_deriv(f):
    grad = sp.Matrix([sp.diff(f, s) for s in _QS])
    return sp.expand((grad.T * _MASS * sp.Matrix(_PS))[0, 0])


def _sym_grad_deriv(f):
    grad = sp.Matrix([sp.diff(f, s) for s in _QS])
    return sp.expand((grad.T * _MASS * _GRADV)[0, 0])


def _sym_word(word):
    if word == TRIPLE_GRADIENT:
        u = _MASS * _GRADV
        total = sp.S(0)
        for a, b, c in itertools.product(range(2), repeat=3):
            total += sp.diff(_V, _QS[a], _QS[b], _QS[c]) * u[a] * u[b] * u[c]
        return sp.expand(total)
    f = _V
    for letter in reversed(word):
        f = _sym_mom_deriv(f) if letter == "m" else _sym_grad_deriv(f)
    return f


def _sym_table(entries):
    return sp.expand(
        sum(sp.Rational(c.numerator, c.denominator) * _sym_word(w) for c, w in entries)
    )


def _num(expr, q, p):
    subs = {_q1: q[0], _q2: q[1], _p1: p[0], _p2: p[1]}
    return float(expr.subs(subs))


def _num_grad(expr, syms, q, p):
    return np.array([_num(sp.diff(expr, s), q, p) for s in syms])


@pytest.fixture(scope="module")
def poly2d_setup():
    mass = MassMatrix(np.array([[1.5, 0.2], [0.2, 0.8]]))
    pot = _Poly2D()
    q = np.array([0.4, -0.7])
    p = np.array([0.9, 0.3])
    return pot, mass, q, p


def test_kinetic_generators_against_sympy(poly2d_setup):
    pot, mass, q, p = poly2d_setup
    tau = 0.31
    for n, entries in KINETIC_GENERATORS.items():
        expr = _sym_table(entries)
        want = _num(expr, q, p) * tau**n
        got = kinetic_correction(n, pot, mass, q, p, tau)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13), f"T_{n}"
        gq = kinetic_correction_grad_q(n, pot, mass, q, p, tau)
        np.testing.assert_allclose(
            gq, _num_grad(expr, _QS, q, p) * tau**n, rtol=1e-10, atol=1e-13
        )
        gp = kinetic_correction_grad_mom(n, pot, mass, q, p, tau)
        np.testing.assert_allclose(
            gp, _num_grad(expr, _PS, q, p) * tau**n, rtol=1e-10, atol=1e-13
        )


def test_potential_generators_against_sympy(poly2d_setup):
    pot, mass, q, p = poly2d_setup
    tau = 0.31
    for n, entries in POTENTIAL_GENERATORS.items():
        expr = _sym_table(entries)
        want = _num(expr, q, p) * tau**n
        got = potential_correction(n, pot, mass, q, tau)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13), f"V_{n}"
        gq = potential_correction_grad(n, pot, mass, q, tau)
        np.testing.assert_allclose(
            gq, _num_grad(expr, _QS, q, p) * tau**n, rtol=1e-10, atol=1e-13
        )


def test_generating_function_against_sympy(poly2d_setup):
    pot, mass, q, p = poly2d_setup
    tau = 0.23
    for order in (2, 4, 6, 8):
        expr = (sp.Matrix(_QS).T * sp.Matrix(_PS))[0, 0]
        expr += sp.Rational(1, 2) * tau * (sp.Matrix(_PS).T * _MASS * sp.Matrix(_PS))[0, 0]
        for n in generating_orders(order):
            expr += tau**n * _sym_table(GENERATING_TERMS[n])
        want = _num(expr, q, p)
        got = generating_function(pot, mass, q, p, tau, order)
        assert got == pytest.approx(want, rel=1e-11), f"order {order}"
        np.testing.assert_allclose(
            generating_function_grad_q(pot, mass, q, p, tau, order),
            _num_grad(expr, _QS, q, p),
            rtol=1e-10,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            generating_function_grad_p(pot, mass, q, p, tau, order),
            _num_grad(expr, _PS, q, p),
            rtol=1e-10,
            atol=1e-13,
        )

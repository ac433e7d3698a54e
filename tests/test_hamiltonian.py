"""Phase-space containers, mass matrices and exact directional derivatives."""
import re
import warnings

import numpy as np
import pytest

from symsplit.hamiltonian import (
    MassMatrix,
    PhasePoint,
    Harmonic,
    Polynomial1D,
    Quadratic,
    Quartic,
    hamiltonian,
)


def test_phase_point_validates_shapes():
    with pytest.raises(ValueError):
        PhasePoint(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        PhasePoint(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        PhasePoint(np.array([[1.0]]), np.array([1.0]))


def test_phase_point_arrays_are_frozen():
    x = PhasePoint(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        x.q[0] = 3.0
    assert x.as_array().tolist() == [1.0, 2.0]


def test_identity_mass_is_one_read_only_instance_per_size():
    mass = MassMatrix.identity(2)
    assert MassMatrix.identity(2) is mass
    assert MassMatrix.identity(np.int64(2)) is mass
    assert MassMatrix.identity(3) is not mass
    assert mass.mat.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        mass.mat[0, 1] = 5.0
    assert MassMatrix.identity(2).mat.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_mass_matrix_validation():
    with pytest.raises(ValueError):
        MassMatrix([[1.0, 0.2], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        MassMatrix([[1.0, 2.0], [2.0, 1.0]])  # negative eigenvalue
    with pytest.raises(ValueError):
        MassMatrix(np.ones((2, 3)))
    # scalars are accepted as 1x1
    m = MassMatrix(2.5)
    assert m.dim == 1 and m.mat[0, 0] == 2.5


@pytest.mark.parametrize("build, message", [
    (lambda: Harmonic(np.nan), "omega must be positive with a finite square, got nan"),
    (lambda: Harmonic(np.inf), "omega must be positive with a finite square, got inf"),
    (lambda: Harmonic(1e200), "omega must be positive with a finite square, got 1e+200"),
    (lambda: Polynomial1D([0.0, 0.0, np.inf]),
     "coefficient vector contains non-finite entries"),
    # 2 * 1e308 overflows in the first derivative row
    (lambda: Polynomial1D([0.0, 0.0, 1e308]),
     "coefficient vector overflows in its derivatives"),
    (lambda: Quadratic([[np.inf]]), "stiffness contains non-finite entries"),
    (lambda: Quadratic([[1.0, np.nan], [np.nan, 1.0]]),
     "stiffness contains non-finite entries"),
    (lambda: MassMatrix([[np.inf]]), "mass matrix contains non-finite entries"),
    (lambda: MassMatrix([[1.0, np.nan], [np.nan, 1.0]]),
     "mass matrix contains non-finite entries"),
], ids=["harmonic-nan", "harmonic-inf", "harmonic-square", "polynomial-inf",
        "polynomial-derivative", "quadratic-inf", "quadratic-nan", "mass-inf",
        "mass-nan"])
def test_constructors_refuse_non_finite_input(build, message):
    # refused before any arithmetic, so no numpy warning fires either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_symmetrizing_near_the_float_limit_does_not_overflow():
    # k + k^T overflows here; the entries are halved before they are added
    big = [[1e308, 1e308], [1e308, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Quadratic(big).stiffness.tolist() == big
        near = 1.7e308 * (1.0 - 1e-15)
        k = Quadratic([[1.7e308, near], [1.7e308, 1.0]]).stiffness
        assert k[0, 1] == k[1, 0] == 0.5 * near + 0.5 * 1.7e308
        assert MassMatrix([[1e308, 1e308], [1e308, 1e308]]).mat.tolist() == [[1e308] * 2] * 2
        # indefinite, and far from symmetric: refused, not warned about
        with pytest.raises(ValueError, match="positive semi-definite"):
            MassMatrix(big)
        for build, name in ((Quadratic, "stiffness"), (MassMatrix, "mass matrix")):
            with pytest.raises(ValueError, match=f"{name} must be symmetric"):
                build([[1.0, 1e308], [-1e308, 1.0]])


def test_hamiltonian_values(quartic, mass1):
    x = PhasePoint(np.array([0.0]), np.array([1.0]))
    assert hamiltonian(x, quartic, mass1) == 0.5

    harm = Harmonic()
    origin = PhasePoint(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    assert hamiltonian(origin, harm, MassMatrix.identity(2)) == 0.0

    rest = PhasePoint(np.array([1.2]), np.array([0.0]))
    assert hamiltonian(rest, quartic, mass1) == pytest.approx(0.5184, rel=1e-14)


def test_shape_mismatches_are_refused_by_name():
    with pytest.raises(ValueError, match=re.escape("stiffness must be square, got shape (2,)")):
        Quadratic([1.0, 2.0])
    x = PhasePoint(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="state dim 2 does not match mass dim 1"):
        hamiltonian(x, Harmonic(), MassMatrix.identity(1))


def test_hamiltonian_even_in_momentum(quartic):
    rng = np.random.default_rng(3)
    mass = MassMatrix([[1.5, 0.0], [0.0, 0.5]])
    pot = Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for _ in range(20):
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        h_plus = hamiltonian(PhasePoint(q, p), pot, mass)
        h_minus = hamiltonian(PhasePoint(q, -p), pot, mass)
        assert h_plus == pytest.approx(h_minus, rel=1e-15)


def test_dir_deriv_quartic_first_order(quartic):
    q = np.array([1.0])
    # V'(1) = 1 for V = q^4/4
    assert quartic._contract(q, [np.array([1.0])]) == pytest.approx(1.0)


def test_dir_deriv_quartic_vanishes_past_degree(quartic):
    q = np.array([0.7])
    dirs = [np.array([1.0])] * 5
    assert quartic._contract(q, dirs) == 0.0


def test_dir_deriv_harmonic(quartic):
    harm = Harmonic()
    q = np.array([5.0, -3.0])
    u = np.array([1.0, 1.0])
    # Hessian is the identity, so the second derivative along (u, u) is |u|^2
    assert harm._contract(q, [u, u]) == pytest.approx(2.0)
    assert harm._contract(q, [u, u, u]) == 0.0


def test_dir_deriv_permutation_symmetry():
    rng = np.random.default_rng(11)
    pot = Quadratic(np.array([[2.0, 0.5], [0.5, 3.0]]))
    for _ in range(10):
        q = rng.uniform(-2, 2, size=2)
        u, v = rng.uniform(-1, 1, size=(2, 2))
        assert pot._contract(q, [u, v]) == pytest.approx(
            pot._contract(q, [v, u]), rel=1e-13, abs=1e-15
        )


def test_dir_deriv_first_order_matches_gradient():
    rng = np.random.default_rng(12)
    for pot, dim in [(Quartic(), 1), (Harmonic(0.7), 3)]:
        for _ in range(10):
            q = rng.uniform(-2, 2, size=dim)
            u = rng.uniform(-1, 1, size=dim)
            assert pot._contract(q, [u]) == pytest.approx(
                float(pot.gradient(q) @ u), rel=1e-13, abs=1e-15
            )


def test_dir_deriv_linearity_in_each_slot(quartic):
    rng = np.random.default_rng(13)
    q = np.array([0.8])
    u = np.array([rng.uniform(-1, 1)])
    v = np.array([rng.uniform(-1, 1)])
    w = np.array([rng.uniform(-1, 1)])
    lam = 2.7
    lhs = quartic._contract(q, [lam * u + v, w])
    rhs = lam * quartic._contract(q, [u, w]) + quartic._contract(q, [v, w])
    assert lhs == pytest.approx(rhs, rel=1e-13)


def _fd_contract(pot, q, dirs, h=1e-4):
    """Central finite differences of the exact gradient contraction.

    Differencing the gradient instead of the value keeps one nesting level
    out of the recursion, which keeps roundoff well under the 1e-6 check
    even for third derivatives.
    """
    if len(dirs) == 1:
        return (pot.value(q + h * dirs[0]) - pot.value(q - h * dirs[0])) / (2 * h)
    rest, u = dirs[:-1], dirs[-1]
    if len(rest) == 1:
        gp = pot.gradient(q + h * u) @ rest[0]
        gm = pot.gradient(q - h * u) @ rest[0]
        return float(gp - gm) / (2 * h)
    return (_fd_contract(pot, q + h * u, rest, h)
            - _fd_contract(pot, q - h * u, rest, h)) / (2 * h)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dir_deriv_matches_finite_differences(k):
    rng = np.random.default_rng(20 + k)
    pots = [
        (Quartic(), 1),
        (Harmonic(1.3), 2),
        (Polynomial1D([0.0, 0.5, -0.25, (1 / 3), 0.1]), 1),
    ]
    for pot, dim in pots:
        for _ in range(8):
            q = rng.uniform(-2, 2, size=dim)
            dirs = [rng.uniform(-1, 1, size=dim) for _ in range(k)]
            exact = pot._contract(q, dirs)
            approx = _fd_contract(pot, q, dirs)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6), (
                f"{pot!r} k={k} q={q}"
            )


def test_polynomial1d_against_polyval():
    coeffs = [0.3, -1.0, 0.0, 0.25, 0.5]
    pot = Polynomial1D(coeffs)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=1)
        expected = float(np.polynomial.polynomial.polyval(q[0], coeffs))
        assert pot.value(q) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        Polynomial1D([])
    with pytest.raises(ValueError):
        pot.value(np.array([1.0, 2.0]))


def test_quartic_is_the_expected_polynomial():
    pot = Quartic()
    assert pot.poly1d_coefficients().tolist() == [0.0, 0.0, 0.0, 0.0, 0.25]
    assert repr(pot) == "Quartic()"
    q = np.array([1.2])
    assert pot.gradient(q)[0] == pytest.approx(1.2 ** 3, rel=1e-15)


def test_harmonic_structure_probes():
    harm = Harmonic(2.0)
    assert harm.poly1d_coefficients().tolist() == [0.0, 0.0, 2.0]
    np.testing.assert_allclose(harm.quadratic_matrix(3), 4.0 * np.eye(3))
    with pytest.raises(ValueError):
        Harmonic(0.0)


def test_quadratic_potential():
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    pot = Quadratic(k)
    q = np.array([1.0, -1.0])
    assert pot.value(q) == pytest.approx(0.5 * q @ k @ q)
    np.testing.assert_allclose(pot.gradient(q), k @ q)
    np.testing.assert_allclose(pot.quadratic_matrix(2), k)
    assert pot.quadratic_matrix(3) is None
    assert pot.poly1d_coefficients() is None
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))

    scalar = Quadratic(np.array([[3.0]]))
    assert scalar.poly1d_coefficients().tolist() == [0.0, 0.0, 1.5]

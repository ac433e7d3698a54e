"""Corrected splitting integrators for separable Hamiltonian systems.

The package provides the baseline leapfrog, its systematically corrected
kick-move-kick relatives of global order 2, 4, 6 and 8, and an exact
normal-mode step for quadratic Hamiltonians, together with the
verification tooling (reference solutions, convergence-order and
symplecticity checks, energy traces) and the ``symsplit`` command line
harness used to reproduce the quartic oscillator experiments.
"""

from .hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Polynomial1D,
    Potential,
    Quadratic,
    Quartic,
    hamiltonian,
)
from .integrators import (
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
from .operators import (
    GENERATING_TERMS,
    KINETIC_GENERATORS,
    POTENTIAL_GENERATORS,
    OperatorWord,
    apply_word,
    generating_function,
    generating_function_grad_p,
    generating_function_grad_q,
    grad_word_mom,
    grad_word_q,
    kinetic_correction,
    potential_correction,
    potential_correction_grad,
    v_eff,
    v_eff_grad,
)

__version__ = "0.1.0"

__all__ = [
    "PhasePoint",
    "MassMatrix",
    "Potential",
    "Harmonic",
    "Quartic",
    "Quadratic",
    "Polynomial1D",
    "hamiltonian",
    "OperatorWord",
    "KINETIC_GENERATORS",
    "POTENTIAL_GENERATORS",
    "GENERATING_TERMS",
    "apply_word",
    "grad_word_q",
    "grad_word_mom",
    "kinetic_correction",
    "potential_correction",
    "potential_correction_grad",
    "v_eff",
    "v_eff_grad",
    "generating_function",
    "generating_function_grad_q",
    "generating_function_grad_p",
    "SchemeConfig",
    "StepReport",
    "NewtonDiverged",
    "ResonantStep",
    "DegenerateMass",
    "kick",
    "move_explicit",
    "move_generating",
    "harmonic_modified_coeffs",
    "exact_quadratic_step",
    "step",
    "integrate",
    "__version__",
]

"""Corrected splitting integrators for separable Hamiltonian systems.

Baseline leapfrog, its systematically corrected kick-move-kick relatives of
global order 2, 4, 6 and 8, and an exact normal-mode step for quadratic
Hamiltonians.  Each name is imported from its module; the package root
holds only ``__version__``.  ``fastpath.simulate`` runs a scheme that
``integrators.SchemeConfig`` names, on a potential from ``hamiltonian``
(``Quartic``, ``Quadratic``, ``Polynomial1D``, ...); ``verification`` holds
the reference, order, symplecticity and period checks; ``cli`` is the
``symsplit`` command that reproduces the quartic oscillator experiments.
"""

__version__ = "0.1.0"

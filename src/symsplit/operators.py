"""Derivative-word engine behind the corrected splitting schemes.

The correction generators and the move-step generating function are short
polynomials in two first-order differential operators acting on the
potential:

* the momentum-directed derivative, letter ``m``: contract the next
  derivative slot of V with the raised momentum ``M p``;
* the force-directed derivative, letter ``g``: contract it with the raised
  potential gradient ``M dV(q)``.

A word such as ``"mgm"`` means: apply the rightmost letter to V first, then
work leftward.  Because the force direction depends on q, expanding a word
by the product rule yields a sum of fully contracted derivative tensors of
V whose direction vectors are either ``M p`` or nested contractions like
``M d2V (M dV)``.  Each table entry (one order of a correction table, or
a single word) is expanded symbolically and its words merged into one
exact term list once, on first use; evaluation then only ever calls the
potential's exact ``dir_deriv`` contraction, so values and gradients carry
no truncation error beyond floating-point roundoff.

Coefficient tables are stored as ``fractions.Fraction`` and converted to
float once, so rational identities (for instance the harmonic reduction of
the kinetic corrections to the sinc and tangent series) hold to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .hamiltonian import MassMatrix, Potential

__all__ = [
    "OperatorWord",
    "KINETIC_GENERATORS",
    "POTENTIAL_GENERATORS",
    "GENERATING_TERMS",
    "correction_orders",
    "generating_orders",
    "apply_word",
    "grad_word_q",
    "grad_word_mom",
    "kinetic_correction",
    "kinetic_correction_grad_q",
    "kinetic_correction_grad_mom",
    "potential_correction",
    "potential_correction_grad",
    "v_eff",
    "v_eff_grad",
    "generating_function",
    "generating_function_grad_q",
    "generating_function_grad_p",
    "Workspace",
]

MAX_WORD_LENGTH = 7

_ATOMS = ("mom", "grad")


@dataclass(frozen=True)
class OperatorWord:
    """A word over the two derivative atoms, applied rightmost-first.

    ``triple_gradient`` selects the special third-order generator that
    contracts the third derivative tensor of V with three copies of the
    raised gradient; it is not expressible as a two-letter word and only
    enters the sixth-order potential correction.
    """

    atoms: tuple = ()
    triple_gradient: bool = False

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if any(a not in _ATOMS for a in atoms):
            raise ValueError(f"atoms must be from {_ATOMS}, got {atoms}")
        if len(atoms) > MAX_WORD_LENGTH:
            raise ValueError(f"word length {len(atoms)} exceeds {MAX_WORD_LENGTH}")
        if self.triple_gradient and atoms:
            raise ValueError("triple_gradient word carries no atoms")

    @classmethod
    def from_letters(cls, letters: str) -> "OperatorWord":
        """Build a word from a compact string, 'm' = momentum, 'g' = gradient."""
        table = {"m": "mom", "g": "grad"}
        try:
            return cls(tuple(table[ch] for ch in letters))
        except KeyError as err:
            raise ValueError(f"unknown atom letter {err.args[0]!r}") from None

    @classmethod
    def triple_grad(cls) -> "OperatorWord":
        return cls((), True)

    def __len__(self):
        return 3 if self.triple_gradient else len(self.atoms)

    def mom_count(self) -> int:
        return sum(1 for a in self.atoms if a == "mom")


def _w(letters: str) -> OperatorWord:
    return OperatorWord.from_letters(letters)


def _scaled(denominator: int, entries) -> tuple:
    return tuple((Fraction(num, denominator), word) for num, word in entries)


# Kinetic correction generators T_n; the full correction is the listed
# combination times tau^n.  Only even n appear and the table stops at the
# order needed for an eighth-order scheme.
KINETIC_GENERATORS = {
    2: _scaled(12, [(-1, _w("mm"))]),
    4: _scaled(720, [(1, _w("mmmm")), (-9, _w("gmm")), (3, _w("mgm"))]),
    6: _scaled(
        60480,
        [
            (-2, _w("mmmmmm")),
            (40, _w("gmmmm")),
            (-46, _w("mgmmm")),
            (15, _w("mmgmm")),
            (-54, _w("ggmm")),
            (9, _w("gmgm")),
            (42, _w("mggm")),
            (-12, _w("mmgg")),
        ],
    ),
}

# Potential correction generators V_n times tau^n.
POTENTIAL_GENERATORS = {
    2: _scaled(24, [(1, _w("g"))]),
    4: _scaled(480, [(1, _w("gg"))]),
    6: _scaled(161280, [(17, _w("ggg")), (-10, OperatorWord.triple_grad())]),
}

# Generating-function terms G_n times tau^n for n >= 3; the n = 0, 1 pieces
# (q.P and the kinetic quadratic) are handled in closed form.  Momentum
# atoms here contract with the raised new momentum M P.
GENERATING_TERMS = {
    3: _scaled(12, [(-1, _w("mm"))]),
    4: _scaled(24, [(-1, _w("mmm"))]),
    5: _scaled(240, [(-3, _w("mmmm")), (-3, _w("gmm")), (1, _w("mgm"))]),
    6: _scaled(720, [(-2, _w("mmmmm")), (-8, _w("gmmm")), (5, _w("mgmm"))]),
    7: _scaled(
        20160,
        [
            (-10, _w("mmmmmm")),
            (-10, _w("gmmmm")),
            (-90, _w("mgmmm")),
            (75, _w("mmgmm")),
            (-18, _w("ggmm")),
            (3, _w("gmgm")),
            (14, _w("mggm")),
            (-4, _w("mmgg")),
        ],
    ),
    8: _scaled(
        40320,
        [
            (-3, _w("mmmmmmm")),
            (87, _w("gmmmmm")),
            (-231, _w("mgmmmm")),
            (133, _w("mmgmmm")),
            (-63, _w("ggmmm")),
            (3, _w("mggmm")),
            (21, _w("mmggm")),
            (-4, _w("mmmgg")),
            (63, _w("gmgmm")),
            (-25, _w("mgmgm")),
        ],
    ),
}

_SCHEME_ORDERS = (2, 4, 6, 8)


def correction_orders(scheme_order: int) -> range:
    """Even generator orders entering an effective potential/kinetic energy."""
    if scheme_order not in _SCHEME_ORDERS:
        raise ValueError(f"scheme order must be one of {_SCHEME_ORDERS}")
    return range(2, scheme_order - 1, 2)


def generating_orders(scheme_order: int) -> range:
    """Generating-series orders (beyond the exact n = 0, 1 terms) kept."""
    if scheme_order not in _SCHEME_ORDERS:
        raise ValueError(f"scheme order must be one of {_SCHEME_ORDERS}")
    return range(3, scheme_order + 1)


# --------------------------------------------------------------------------
# Symbolic expansion.
#
# A term is a fully contracted derivative tensor of V, encoded as a tuple of
# direction nodes (sorted, since the tensor is symmetric):
#   ("p",)          the raised momentum M p, constant in q
#   ("v", children) the vector M . D^{k+1}V(q)[children], k = len(children)
# The empty tuple of children at the top level denotes V(q) itself.  A
# term's children tuple has the same shape as the inside of a "v" node, so
# one walk (``_insert``) makes the product rule's insertions in both.
# Gradients are lists of v nodes: D^kV and M are symmetric, so
#   D^kV[rest, M . D^mV[inner, .]] = D^mV[inner, M . D^kV[rest, .]]
# moves the slot a derivative opens inside a term to the root, where it is
# the vector D^{k+1}V[children, .] of one v node (M times it for mom).

_P = ("p",)
_W = ("v", ())


def _with(children, i, node) -> tuple:
    """children with entry i replaced by node, re-sorted."""
    return tuple(sorted(children[:i] + (node,) + children[i + 1 :]))


def _insert(children, d):
    """All single-site insertions of direction d, at this level or in a v node."""
    yield tuple(sorted(children + (d,)))
    for i, node in enumerate(children):
        if node[0] == "v":
            for inner in _insert(node[1], d):
                yield _with(children, i, ("v", inner))


def _rest(children, i, up) -> tuple:
    """The v node of everything but entry i: the term seen from that entry."""
    return ("v", tuple(sorted(children[:i] + children[i + 1 :] + up)))


def _grad_q_nodes(children, up=()):
    """Derivative in q: the root's open slot, then each v child's in turn."""
    yield ("v", tuple(sorted(children + up)))
    for i, node in enumerate(children):
        if node[0] == "v":
            yield from _grad_q_nodes(node[1], (_rest(children, i, up),))


def _grad_mom_nodes(children, up=()):
    """Derivative in mom: each momentum slot, at any depth, in turn."""
    for i, node in enumerate(children):
        if node == _P:
            yield _rest(children, i, up)
        elif node[0] == "v":
            yield from _grad_mom_nodes(node[1], (_rest(children, i, up),))


def _rewrite(terms: dict, walk, *args) -> dict:
    """Sum of every variant ``walk(children, *args)`` yields, with its coeff."""
    out = {}
    for children, coeff in terms.items():
        for variant in walk(children, *args):
            out[variant] = out.get(variant, Fraction(0)) + coeff
    return out


def _expand_word(word: OperatorWord) -> dict:
    if word.triple_gradient:
        return {(_W, _W, _W): Fraction(1)}
    terms = {(): Fraction(1)}
    for atom in reversed(word.atoms):
        terms = _rewrite(terms, _insert, _P if atom == "mom" else _W)
    return terms


def _freeze(terms: dict) -> tuple:
    return tuple((float(c), children) for children, c in sorted(terms.items()) if c)


@cache
def _table_expansion(entries) -> dict:
    """Exact merged expansion of a table entry: sum of coeff * word expansion.

    ``entries`` is a tuple of (coeff, word) pairs.  The result maps term
    children to their Fraction coefficient; callers must not mutate it.
    """
    total = {}
    for coeff, word in entries:
        for children, mult in _expand_word(word).items():
            total[children] = total.get(children, Fraction(0)) + coeff * mult
    return total


@cache
def _table_terms(entries) -> tuple:
    """Frozen value terms, grad-q v nodes and grad-mom v nodes of one entry."""
    expansion = _table_expansion(entries)
    return (_freeze(expansion), _freeze(_rewrite(expansion, _grad_q_nodes)),
            _freeze(_rewrite(expansion, _grad_mom_nodes)))


# Whether a node's value involves the momentum.
_HAS_P: dict = {_P: True}


def _has_p(node) -> bool:
    cached = _HAS_P.get(node)
    if cached is None:
        cached = _HAS_P[node] = any(_has_p(sub) for sub in node[1])
    return cached


class Workspace:
    """Evaluation workspace bound to one (potential, mass, q).

    Keeps two caches mapping a v node to its pair (D^{k+1}V[children, .],
    M times it): one for nodes free of the momentum, kept for the
    workspace's life, so implicit solves that re-evaluate at fixed q pay
    only for momentum-dependent work; one for the other nodes, cleared by
    ``set_mom``.  Term scalars are not cached: for one momentum a step
    never asks for the same term twice.
    """

    def __init__(self, potential: Potential, mass: MassMatrix, q: np.ndarray):
        self.potential = potential
        self.mass = mass.mat
        self.q = np.asarray(q, dtype=float)
        self.dim = self.q.size
        self.basis = np.eye(self.dim)
        self.p_vec = None
        self._q_vals = {}
        self._p_vals = {}

    def set_mom(self, mom) -> None:
        self.p_vec = self.mass @ np.asarray(mom, dtype=float)
        self._p_vals.clear()

    def _pair(self, node):
        cache = self._p_vals if _has_p(node) else self._q_vals
        pair = cache.get(node)
        if pair is None:
            children = [self._direction(sub) for sub in node[1]]
            if children:
                # contract all but one slot; the bypass of dir_deriv's
                # argument checks matters in implicit-solve loops
                contract = self.potential._contract
                vec = np.empty(self.dim)
                for a in range(self.dim):
                    vec[a] = contract(self.q, [self.basis[a]] + children)
            else:
                vec = self.potential.gradient(self.q)
            pair = cache[node] = (vec, self.mass @ vec)
        return pair

    def _direction(self, node):
        if node == _P:
            if self.p_vec is None:
                raise ValueError("word has momentum atoms but no momentum was given")
            return self.p_vec
        return self._pair(node)[1]

    def term_value(self, children) -> float:
        if not children:
            return self.potential.value(self.q)
        dirs = [self._direction(sub) for sub in children]
        return float(self.potential._contract(self.q, dirs))

    def eval_terms(self, terms) -> float:
        return sum(coeff * self.term_value(children) for coeff, children in terms)

    def eval_nodes(self, nodes) -> np.ndarray:
        """Sum of coeff times each v node's vector D^{k+1}V[children, .]."""
        out = np.zeros(self.dim)
        for coeff, node in nodes:
            out += coeff * self._pair(node)[0]
        return out


def _workspace(potential, mass, q, mom, workspace=None):
    ws = workspace if workspace is not None else Workspace(potential, mass, q)
    if mom is not None:
        ws.set_mom(mom)
    return ws


def _value(entries, ws) -> float:
    return ws.eval_terms(_table_terms(entries)[0])


def _grad_q(entries, ws) -> np.ndarray:
    return ws.eval_nodes(_table_terms(entries)[1])


def _grad_mom(entries, ws) -> np.ndarray:
    return ws.mass @ ws.eval_nodes(_table_terms(entries)[2])


def apply_word(word, potential, mass, q, mom=None, workspace=None) -> float:
    """Evaluate a derivative word applied to V at position q, momentum mom."""
    return _value(((1, word),), _workspace(potential, mass, q, mom, workspace))


def grad_word_q(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to q."""
    return _grad_q(((1, word),), _workspace(potential, mass, q, mom, workspace))


def grad_word_mom(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to mom."""
    return _grad_mom(((1, word),), _workspace(potential, mass, q, mom, workspace))


def _check_generator_order(table, n):
    if n not in table:
        raise ValueError(f"no generator of order {n}; available: {sorted(table)}")


def kinetic_correction(n, potential, mass, q, mom, tau, workspace=None) -> float:
    """Kinetic correction generator of order n (times tau^n)."""
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _value(KINETIC_GENERATORS[n], ws)


def kinetic_correction_grad_q(n, potential, mass, q, mom, tau, workspace=None):
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _grad_q(KINETIC_GENERATORS[n], ws)


def kinetic_correction_grad_mom(n, potential, mass, q, mom, tau, workspace=None):
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _grad_mom(KINETIC_GENERATORS[n], ws)


def potential_correction(n, potential, mass, q, tau, workspace=None) -> float:
    """Potential correction generator of order n (times tau^n); q-only."""
    _check_generator_order(POTENTIAL_GENERATORS, n)
    ws = _workspace(potential, mass, q, None, workspace)
    return tau**n * _value(POTENTIAL_GENERATORS[n], ws)


def potential_correction_grad(n, potential, mass, q, tau, workspace=None) -> np.ndarray:
    _check_generator_order(POTENTIAL_GENERATORS, n)
    ws = _workspace(potential, mass, q, None, workspace)
    return tau**n * _grad_q(POTENTIAL_GENERATORS[n], ws)


def v_eff(potential, mass, q, tau, scheme_order, workspace=None) -> float:
    """Effective kick potential: V plus all corrections the order requires.

    The correction tau powers always use the full step size, also when the
    kick itself only advances half a step.
    """
    ws = _workspace(potential, mass, q, None, workspace)
    total = potential.value(ws.q)
    for n in correction_orders(scheme_order):
        total += tau**n * _value(POTENTIAL_GENERATORS[n], ws)
    return total


def v_eff_grad(potential, mass, q, tau, scheme_order, workspace=None) -> np.ndarray:
    ws = _workspace(potential, mass, q, None, workspace)
    total = potential.gradient(ws.q).astype(float, copy=True)
    for n in correction_orders(scheme_order):
        total += tau**n * _grad_q(POTENTIAL_GENERATORS[n], ws)
    return total


def generating_function(potential, mass, q, mom, tau, scheme_order, workspace=None) -> float:
    """Truncated move generator G(q, P; tau) for the requested order.

    G = q.P + (tau/2) P^T M P + sum_n tau^n G_n with the momentum atoms of
    every G_n contracted against the raised new momentum M P.
    """
    ws = _workspace(potential, mass, q, mom, workspace)
    mom = np.asarray(mom, dtype=float)
    total = float(ws.q @ mom) + 0.5 * tau * float(mom @ ws.p_vec)
    for n in generating_orders(scheme_order):
        total += tau**n * _value(GENERATING_TERMS[n], ws)
    return total


def generating_function_grad_q(potential, mass, q, mom, tau, scheme_order,
                               workspace=None) -> np.ndarray:
    """d G / d q: the implicit equation for the new momentum is p = this."""
    ws = _workspace(potential, mass, q, mom, workspace)
    total = np.asarray(mom, dtype=float).copy()
    for n in generating_orders(scheme_order):
        total += tau**n * _grad_q(GENERATING_TERMS[n], ws)
    return total


def generating_function_grad_p(potential, mass, q, mom, tau, scheme_order,
                               workspace=None) -> np.ndarray:
    """d G / d P: evaluates the new position once P has been solved for."""
    ws = _workspace(potential, mass, q, mom, workspace)
    total = ws.q + tau * ws.p_vec
    for n in generating_orders(scheme_order):
        total += tau**n * _grad_mom(GENERATING_TERMS[n], ws)
    return total

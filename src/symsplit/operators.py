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
exact term list once, on first use.  Freezing the entry interns every
node to an integer id, children first, and plans each of its node lists:
the q-only ids it needs and the momentum-dependent ones, in id order.  A
:class:`Workspace` runs that tape, keeping node vectors by id, and sums a
list in one pass over the stack of its vectors.  Evaluation only ever
calls the potential's exact contractions (``_contract`` and its
``_gradient_contract`` hook), so values and gradients carry no truncation
error beyond floating-point roundoff.

Coefficient tables are stored as ``fractions.Fraction`` and converted to
float once, so rational identities (for instance the harmonic reduction of
the kinetic corrections to the sinc and tangent series) hold to machine
precision.
"""

from __future__ import annotations

import threading
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

# the orders a corrected kick-move-kick scheme is built to
SCHEME_ORDERS = (2, 4, 6, 8)


def correction_orders(scheme_order: int) -> range:
    """Even generator orders entering an effective potential/kinetic energy."""
    if scheme_order not in SCHEME_ORDERS:
        raise ValueError(f"scheme order must be one of {SCHEME_ORDERS}")
    return range(2, scheme_order - 1, 2)


def generating_orders(scheme_order: int) -> range:
    """Generating-series orders (beyond the exact n = 0, 1 terms) kept."""
    if scheme_order not in SCHEME_ORDERS:
        raise ValueError(f"scheme order must be one of {SCHEME_ORDERS}")
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


# v nodes are interned to integer ids when a table is frozen.  Children are
# interned first, so a node's id is larger than its children's and id order
# is an evaluation order.
_NODE_IDS: dict = {}      # v node -> id
_CHILDREN: list = []      # id -> child ids in the node's order, -1 for the momentum
_ON_P: list = []          # id -> whether the node's value involves the momentum


def _intern(node) -> int:
    if node == _P:
        return -1
    i = _NODE_IDS.get(node)
    if i is None:
        kids = tuple(_intern(sub) for sub in node[1])
        i = _NODE_IDS[node] = len(_CHILDREN)
        _CHILDREN.append(kids)
        _ON_P.append(any(k < 0 or _ON_P[k] for k in kids))
    return i


class _Plan:
    """The node ids a frozen list needs, each segment in id order: ``q_ids``
    depend on q alone, ``p_ids`` on the momentum as well."""

    __slots__ = ("q_ids", "p_ids")

    def __init__(self, ids):
        need, todo = set(), [i for i in ids if i >= 0]
        while todo:
            i = todo.pop()
            if i not in need:
                need.add(i)
                todo.extend(k for k in _CHILDREN[i] if k >= 0)
        self.q_ids = sorted(i for i in need if not _ON_P[i])
        self.p_ids = sorted(i for i in need if _ON_P[i])


# V' itself: the root v node, which the gradient tables share
_ROOT = _intern(_W)
_ROOT_PLAN = _Plan([_ROOT])


class _Terms(_Plan):
    """Frozen value terms: coeff times D^kV[children], children as node ids."""

    __slots__ = ("terms",)

    def __init__(self, frozen):
        self.terms = [(coeff, tuple(_intern(sub) for sub in children))
                      for coeff, children in frozen]
        super().__init__(k for _, kids in self.terms for k in kids)


class _Nodes(_Plan):
    """A frozen node list: the sum of coeff times each v node's vector."""

    __slots__ = ("coeffs", "ids")

    def __init__(self, frozen):
        self.coeffs = np.array([coeff for coeff, _ in frozen]).reshape(-1, 1)
        self.ids = np.array([_intern(node) for _, node in frozen], dtype=np.intp)
        super().__init__(self.ids.tolist())


# frozen terms by id(entries), with the entries kept alive beside them.  The
# tables are module constants and single words come from _word_entries, so
# a lookup hashes one int where a cache key would hash every Fraction.
_FROZEN: dict = {}
# interning reads and extends the node lists: one table is frozen at a time
_FREEZING = threading.Lock()


def _table_terms(entries) -> tuple:
    """Value terms, grad-q nodes and grad-mom nodes of one table entry."""
    hit = _FROZEN.get(id(entries))
    if hit is None:
        with _FREEZING:
            hit = _FROZEN.get(id(entries))
            if hit is None:
                expansion = _table_expansion(entries)
                hit = _FROZEN[id(entries)] = (entries, (
                    _Terms(_freeze(expansion)),
                    _Nodes(_freeze(_rewrite(expansion, _grad_q_nodes))),
                    _Nodes(_freeze(_rewrite(expansion, _grad_mom_nodes)))))
    return hit[1]


@cache
def _word_entries(word: OperatorWord) -> tuple:
    """The table entry of one word with coefficient 1, one object per word."""
    return ((1, word),)


class Workspace:
    """Evaluation workspace bound to one (potential, mass, q).

    The vector D^{k+1}V[children, .] of v node i is row i of one array, and
    its raised direction (M times it) entry i of a list beside it.  A frozen
    list's plan runs in two segments: its q-only nodes once for the
    workspace's life, so implicit solves that re-evaluate at fixed q pay only
    for momentum-dependent work, and its momentum-dependent nodes once per
    ``set_mom``, which drops them.  A node shared by several lists is
    evaluated once.  Term scalars are not kept: for one momentum a step
    never asks for the same term twice.
    """

    def __init__(self, potential: Potential, mass: MassMatrix, q: np.ndarray):
        self.potential = potential
        self.mass = mass.mat
        self.q = np.asarray(q, dtype=float)
        self.dim = self.q.size
        self.p_vec = None
        self._memo = {}          # the potential's per-q values
        self._vecs = np.empty((0, self.dim))
        self._dirs = []
        self._have = []
        self._p_have = []        # momentum-dependent ids evaluated since set_mom

    def set_mom(self, mom) -> None:
        self.p_vec = self.mass @ np.asarray(mom, dtype=float)
        for i in self._p_have:
            self._have[i] = False
            self._dirs[i] = None
        self._p_have.clear()

    def _direction(self, k):
        if k < 0:
            if self.p_vec is None:
                raise ValueError("word has momentum atoms but no momentum was given")
            return self.p_vec
        vec = self._dirs[k]
        if vec is None:
            vec = self._dirs[k] = self.mass @ self._vecs[k]
        return vec

    def _evaluate(self, ids, log=None) -> None:
        """Evaluate the nodes of ids not yet held, each appended to log."""
        potential, q, memo, have = self.potential, self.q, self._memo, self._have
        for i in ids:
            if have[i]:
                continue
            kids = _CHILDREN[i]
            if kids:
                dirs = [self._direction(k) for k in kids]
                self._vecs[i] = potential._gradient_contract(q, dirs, memo)
            else:
                self._vecs[i] = potential.gradient(q)
            have[i] = True
            if log is not None:
                log.append(i)

    def _run(self, plan: _Plan) -> None:
        grow = len(_CHILDREN) - len(self._have)
        if grow > 0:
            self._vecs = np.concatenate([self._vecs, np.empty((grow, self.dim))])
            self._dirs += [None] * grow
            self._have += [False] * grow
        self._evaluate(plan.q_ids)
        self._evaluate(plan.p_ids, self._p_have)

    def gradient(self) -> np.ndarray:
        """V'(q), the root node's row; evaluated once per workspace."""
        self._run(_ROOT_PLAN)
        return self._vecs[_ROOT]

    def term_value(self, children) -> float:
        if not children:
            return self.potential.value(self.q)
        dirs = [self._direction(k) for k in children]
        return float(self.potential._contract(self.q, dirs))

    def eval_terms(self, terms: _Terms) -> float:
        self._run(terms)
        return sum(coeff * self.term_value(children) for coeff, children in terms.terms)

    def eval_nodes(self, nodes: _Nodes) -> np.ndarray:
        """Sum of coeff times each v node's vector D^{k+1}V[children, .]."""
        if not nodes.ids.size:
            return np.zeros(self.dim)
        self._run(nodes)
        # cumsum adds in list order, as ``out += coeff * vec`` from zeros
        # does; adding 0.0 gives that zero start's sign to an all -0.0 sum
        return (nodes.coeffs * self._vecs[nodes.ids]).cumsum(axis=0)[-1] + 0.0


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
    return _value(_word_entries(word), _workspace(potential, mass, q, mom, workspace))


def grad_word_q(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to q."""
    return _grad_q(_word_entries(word), _workspace(potential, mass, q, mom, workspace))


def grad_word_mom(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to mom."""
    return _grad_mom(_word_entries(word), _workspace(potential, mass, q, mom, workspace))


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
    orders = correction_orders(scheme_order)
    if not orders:
        return potential.gradient(ws.q).astype(float, copy=True)
    total = ws.gradient().copy()
    for n in orders:
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

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
exact term list once, on first use.  Freezing interns every node to an
integer id, children first, and plans the union of the node lists one
operator call sums as levels: a node's level is one more than its deepest
child of its own kind, q-only or momentum-dependent, so each level is one
batched call of the potential's ``_gradient_rows`` hook.  A
:class:`Workspace` runs that plan, keeping node vectors and their raised
directions as rows by id, and sums every list in one pass over the stack of
its vectors.  It keeps its q-only rows across plans, so every operator at
one position shares them: the integrators keep one workspace per position,
for the kick and the implicit move there.  Evaluation only ever calls the
potential's exact contractions (``_contract`` and the hook), so values and
gradients carry no truncation error beyond floating-point roundoff.

Coefficient tables are stored as ``fractions.Fraction`` and converted to
float once, so rational identities (for instance the harmonic reduction of
the kinetic corrections to the sinc and tangent series) hold to machine
precision.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

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


# v nodes are interned to integer ids when a table is frozen.  Ids 0 and 1
# are the pad slot and the momentum; children are interned before their
# node, so a node's id is larger than its children's.
_PAD, _MOM = 0, 1
_NODE_IDS: dict = {_P: _MOM}  # node -> id
_CHILDREN: list = [(), ()]    # id -> child ids in the node's order
_ON_P: list = [False, True]   # id -> whether the value involves the momentum


def _intern(node) -> int:
    i = _NODE_IDS.get(node)
    if i is None:
        kids = tuple(_intern(sub) for sub in node[1])
        i = _NODE_IDS[node] = len(_CHILDREN)
        _CHILDREN.append(kids)
        _ON_P.append(any(_ON_P[k] for k in kids))
    return i


# V' itself: the root v node, which the gradient tables share
_ROOT = _intern(_W)


class _Plan:
    """The v nodes an operator call reads, run as levels.

    A node's level is one more than its deepest child of its own kind, q-only
    or momentum-dependent, so the nodes of one level depend only on earlier
    levels and the momentum and are evaluated in one batched hook call.
    ``q_levels`` hold the q-only nodes but the root, which ``root`` says is
    needed; ``p_levels`` the momentum-dependent ones.  A level is (ids,
    orders, kids, lift, members): the node ids, their derivative orders,
    their child ids padded with ``_PAD`` to one width, whether any of its
    nodes' raised directions is read, and the ids as a tuple of ints.
    """

    __slots__ = ("root", "on_p", "q_levels", "p_levels", "size")

    def __init__(self, ids, read=()):
        need, todo = set(), [i for i in ids if i > _MOM]
        while todo:
            i = todo.pop()
            if i not in need:
                need.add(i)
                todo.extend(k for k in _CHILDREN[i] if k > _MOM)
        read = set(read).union(*(_CHILDREN[i] for i in need))
        level = {}
        for i in sorted(need):
            kin = [level[k] for k in _CHILDREN[i] if k > _MOM and _ON_P[k] == _ON_P[i]]
            level[i] = 1 + max(kin, default=0) if _CHILDREN[i] else 0
        self.root = _ROOT in need
        self.on_p = any(_ON_P[i] for i in read | need)
        self.q_levels = self._levels(need, level, read, False)
        self.p_levels = self._levels(need, level, read, True)
        self.size = max(need, default=_MOM) + 1

    @staticmethod
    def _levels(need, level, read, on_p) -> tuple:
        batches = {}
        for i in sorted(need):
            if _ON_P[i] == on_p and level[i]:
                batches.setdefault(level[i], []).append(i)
        out = []
        for _, ids in sorted(batches.items()):
            width = max(len(_CHILDREN[i]) for i in ids)
            out.append((
                np.array(ids, dtype=np.intp),
                np.array([len(_CHILDREN[i]) + 1 for i in ids], dtype=np.intp),
                np.array([_CHILDREN[i] + (_PAD,) * (width - len(_CHILDREN[i]))
                          for i in ids], dtype=np.intp),
                not read.isdisjoint(ids),
                tuple(ids)))
        return tuple(out)


class _Terms(_Plan):
    """Frozen value terms: coeff times D^kV[children], children as node ids."""

    __slots__ = ("terms",)

    def __init__(self, frozen):
        self.terms = [(coeff, [_intern(sub) for sub in children])
                      for coeff, children in frozen]
        kids = [k for _, ks in self.terms for k in ks]
        super().__init__(kids, kids)


class _Sums(_Plan):
    """Frozen node lists, each summed as coeff times each v node's vector.

    Row t of ``idx`` and ``coeffs`` is list t, padded with ``_PAD``, whose
    vector is zero, and coefficient 0.0.
    """

    __slots__ = ("coeffs", "idx")

    def __init__(self, lists):
        width = max([len(nodes) for nodes in lists] + [1])
        self.coeffs = np.zeros((len(lists), width, 1))
        self.idx = np.full((len(lists), width), _PAD, dtype=np.intp)
        for t, nodes in enumerate(lists):
            for j, (coeff, node) in enumerate(nodes):
                self.coeffs[t, j, 0] = coeff
                self.idx[t, j] = _intern(node)
        super().__init__(self.idx.ravel().tolist())


# frozen plans by (walk, id(table), orders), with the table kept alive
# beside them.  The tables are module constants and single words come from
# _word_table, so a lookup hashes ints where a key of the entries would hash
# every Fraction.
_FROZEN: dict = {}
# interning reads and extends the node lists: one plan is built at a time
_FREEZING = threading.Lock()


def _plan(walk, table: dict, orders):
    """The plan of table[n] for n in orders: its value terms (one order)
    when walk is None, else the node list walk gives for each order."""
    key = (walk, id(table), orders)
    hit = _FROZEN.get(key)
    if hit is None:
        with _FREEZING:
            hit = _FROZEN.get(key)
            if hit is None:
                expansions = [_table_expansion(table[n]) for n in orders]
                if walk is None:
                    (expansion,) = expansions
                    plan = _Terms(_freeze(expansion))
                else:
                    plan = _Sums([_freeze(_rewrite(e, walk)) for e in expansions])
                hit = _FROZEN[key] = (table, plan)
    return hit[1]


@cache
def _word_table(word: OperatorWord) -> dict:
    """The table of one word with coefficient 1 at order 0, one per word."""
    return {0: ((1, word),)}


class Workspace:
    """Evaluation workspace bound to one (potential, mass, q).

    The vector D^{k+1}V[children, .] of v node i is row i of one array, and
    its raised direction (M times it) row i of another, both as long as the
    interned node count.  Row ``_PAD`` holds zero and one, and the raised
    momentum is direction ``_MOM``.  A plan runs level by level, each level
    one call of the potential's ``_gradient_rows`` hook.  A q-only level is
    skipped when the workspace already holds all of its rows, whichever plan
    evaluated them, and its rows are raised when a plan first reads their
    directions, so every operator at this q shares them: the kick's force
    and the implicit move's Newton solve and position update.  A level held
    only in part runs whole again, with the same bits.  Momentum levels run
    on every plan run.  The kick force is kept per (tau, orders), so a
    second kick at this q costs nothing.  Term scalars are not kept: for one
    momentum a step never asks for the same term twice.
    """

    def __init__(self, potential: Potential, mass: MassMatrix, q: np.ndarray):
        self.potential = potential
        self.mass = mass.mat
        self.q = np.asarray(q, dtype=float)
        self.dim = self.q.size
        self.p_vec = None
        self._memo = {}          # the potential's per-q values
        self._vecs = np.zeros((len(_CHILDREN), self.dim))
        self._dirs = np.ones((len(_CHILDREN), self.dim))
        self._have = set()       # q-only ids whose row is set
        self._raised = set()     # q-only ids whose raised direction is set
        self._forces = {}        # v_eff_grad's result by (tau, orders)

    def set_mom(self, mom) -> None:
        self.p_vec = self.mass @ np.asarray(mom, dtype=float)
        self._dirs[_MOM] = self.p_vec

    def _run(self, plan: _Plan) -> None:
        grow = plan.size - len(self._vecs)
        if grow > 0:
            self._vecs = np.concatenate([self._vecs, np.zeros((grow, self.dim))])
            self._dirs = np.concatenate([self._dirs, np.ones((grow, self.dim))])
        if plan.root:
            self.gradient()
        have, raised = self._have, self._raised
        for ids, orders, kids, lift, members in plan.q_levels:
            if not have.issuperset(members):
                # a hook row has the same bits in any batch, so rows another
                # plan already holds are simply evaluated again
                self._level(ids, orders, kids, lift)
                have.update(members)
                if lift:
                    raised.update(members)
            elif lift and not raised.issuperset(members):
                # the rows are here, but not all of their directions
                self._dirs[ids] = np.matmul(self.mass, self._vecs[ids][..., None])[..., 0]
                raised.update(members)
        if plan.on_p:
            if self.p_vec is None:
                raise ValueError("word has momentum atoms but no momentum was given")
            for ids, orders, kids, lift, _ in plan.p_levels:
                self._level(ids, orders, kids, lift)

    def _level(self, ids, orders, kids, lift) -> None:
        rows = self.potential._gradient_rows(self.q, orders, self._dirs[kids], self._memo)
        self._vecs[ids] = rows
        if lift:
            self._dirs[ids] = np.matmul(self.mass, rows[..., None])[..., 0]

    def gradient(self) -> np.ndarray:
        """V'(q), the root node's row; evaluated once per workspace."""
        if _ROOT not in self._have:
            self._vecs[_ROOT] = self.potential.gradient(self.q)
            self._dirs[_ROOT] = self.mass @ self._vecs[_ROOT]
            self._have.add(_ROOT)
        return self._vecs[_ROOT]

    def term_value(self, kids) -> float:
        if not kids:
            return self.potential.value(self.q)
        return float(self.potential._contract(self.q, list(self._dirs[kids])))

    def eval_terms(self, terms: _Terms) -> float:
        self._run(terms)
        return sum(coeff * self.term_value(kids) for coeff, kids in terms.terms)

    def node_sums(self, sums: _Sums) -> np.ndarray:
        """Row t: the sum of coeff times each v node's vector of list t."""
        self._run(sums)
        # cumsum adds in list order, as ``out += coeff * vec`` from zeros
        # does; the pads add 0.0, and adding 0.0 gives that zero start's
        # sign to an all -0.0 sum
        return (sums.coeffs * self._vecs[sums.idx]).cumsum(axis=1)[:, -1] + 0.0


def _workspace(potential, mass, q, mom, workspace=None):
    ws = workspace if workspace is not None else Workspace(potential, mass, q)
    if mom is not None:
        ws.set_mom(mom)
    return ws


def _value(table, n, ws) -> float:
    return ws.eval_terms(_plan(None, table, range(n, n + 1)))


def _grad_q(table, n, ws) -> np.ndarray:
    return ws.node_sums(_plan(_grad_q_nodes, table, range(n, n + 1)))[0]


def _grad_mom(table, n, ws) -> np.ndarray:
    return ws.mass @ ws.node_sums(_plan(_grad_mom_nodes, table, range(n, n + 1)))[0]


@lru_cache(maxsize=256)
def _powers(tau, orders) -> np.ndarray:
    """The column of tau**n for n in orders, read-only."""
    column = np.array([tau**n for n in orders])[:, None]
    column.flags.writeable = False
    return column


def _series(start, tau, orders, sums) -> np.ndarray:
    """start plus tau**n times row n of sums, added in the order of orders."""
    scaled = _powers(tau, orders) * sums
    return np.concatenate((start[None], scaled)).cumsum(axis=0)[-1]


def apply_word(word, potential, mass, q, mom=None, workspace=None) -> float:
    """Evaluate a derivative word applied to V at position q, momentum mom."""
    return _value(_word_table(word), 0, _workspace(potential, mass, q, mom, workspace))


def grad_word_q(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to q."""
    return _grad_q(_word_table(word), 0, _workspace(potential, mass, q, mom, workspace))


def grad_word_mom(word, potential, mass, q, mom=None, workspace=None) -> np.ndarray:
    """Exact gradient of ``apply_word`` with respect to mom."""
    return _grad_mom(_word_table(word), 0, _workspace(potential, mass, q, mom, workspace))


def _check_generator_order(table, n):
    if n not in table:
        raise ValueError(f"no generator of order {n}; available: {sorted(table)}")


def kinetic_correction(n, potential, mass, q, mom, tau, workspace=None) -> float:
    """Kinetic correction generator of order n (times tau^n)."""
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _value(KINETIC_GENERATORS, n, ws)


def kinetic_correction_grad_q(n, potential, mass, q, mom, tau, workspace=None):
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _grad_q(KINETIC_GENERATORS, n, ws)


def kinetic_correction_grad_mom(n, potential, mass, q, mom, tau, workspace=None):
    _check_generator_order(KINETIC_GENERATORS, n)
    ws = _workspace(potential, mass, q, mom, workspace)
    return tau**n * _grad_mom(KINETIC_GENERATORS, n, ws)


def potential_correction(n, potential, mass, q, tau, workspace=None) -> float:
    """Potential correction generator of order n (times tau^n); q-only."""
    _check_generator_order(POTENTIAL_GENERATORS, n)
    ws = _workspace(potential, mass, q, None, workspace)
    return tau**n * _value(POTENTIAL_GENERATORS, n, ws)


def potential_correction_grad(n, potential, mass, q, tau, workspace=None) -> np.ndarray:
    _check_generator_order(POTENTIAL_GENERATORS, n)
    ws = _workspace(potential, mass, q, None, workspace)
    return tau**n * _grad_q(POTENTIAL_GENERATORS, n, ws)


def v_eff(potential, mass, q, tau, scheme_order, workspace=None) -> float:
    """Effective kick potential: V plus all corrections the order requires.

    The correction tau powers always use the full step size, also when the
    kick itself only advances half a step.
    """
    ws = _workspace(potential, mass, q, None, workspace)
    total = potential.value(ws.q)
    for n in correction_orders(scheme_order):
        total += tau**n * _value(POTENTIAL_GENERATORS, n, ws)
    return total


def v_eff_grad(potential, mass, q, tau, scheme_order, workspace=None) -> np.ndarray:
    """Gradient of ``v_eff``: the kick force, kept by the workspace."""
    ws = _workspace(potential, mass, q, None, workspace)
    orders = correction_orders(scheme_order)
    if not orders:
        return potential.gradient(ws.q).astype(float, copy=True)
    force = ws._forces.get((tau, orders))
    if force is None:
        sums = ws.node_sums(_plan(_grad_q_nodes, POTENTIAL_GENERATORS, orders))
        force = ws._forces[tau, orders] = _series(ws.gradient(), tau, orders, sums)
    return force.copy()


def generating_function(potential, mass, q, mom, tau, scheme_order, workspace=None) -> float:
    """Truncated move generator G(q, P; tau) for the requested order.

    G = q.P + (tau/2) P^T M P + sum_n tau^n G_n with the momentum atoms of
    every G_n contracted against the raised new momentum M P.
    """
    ws = _workspace(potential, mass, q, mom, workspace)
    mom = np.asarray(mom, dtype=float)
    total = float(ws.q @ mom) + 0.5 * tau * float(mom @ ws.p_vec)
    for n in generating_orders(scheme_order):
        total += tau**n * _value(GENERATING_TERMS, n, ws)
    return total


def generating_function_grad_q(potential, mass, q, mom, tau, scheme_order,
                               workspace=None) -> np.ndarray:
    """d G / d q: the implicit equation for the new momentum is p = this."""
    ws = _workspace(potential, mass, q, mom, workspace)
    orders = generating_orders(scheme_order)
    sums = ws.node_sums(_plan(_grad_q_nodes, GENERATING_TERMS, orders))
    return _series(np.asarray(mom, dtype=float), tau, orders, sums)


def generating_function_grad_p(potential, mass, q, mom, tau, scheme_order,
                               workspace=None) -> np.ndarray:
    """d G / d P: evaluates the new position once P has been solved for."""
    ws = _workspace(potential, mass, q, mom, workspace)
    orders = generating_orders(scheme_order)
    sums = ws.node_sums(_plan(_grad_mom_nodes, GENERATING_TERMS, orders))
    raised = np.matmul(ws.mass, sums[..., None])[..., 0]
    return _series(ws.q + tau * ws.p_vec, tau, orders, raised)

"""Formula ASTs for team-semantics logics.

All nodes are immutable and hashable, so formulas can live in sets and
serve as dictionary keys. Each node computes its structural hash once,
on first use, and keeps it; the kept hash is not part of equality and
is not pickled or copied, because string hashes differ between
processes. Public formulas are kept in negation normal form: negation
occurs on proposition symbols only. General negation is written with
the transient `Not` wrapper, which `to_nnf` eliminates; every other
operation rejects `Not`.

Two kinds of dependence atom exist. `Dep` ranges over proposition
symbols and belongs to the propositional pipeline; `MDep` ranges over
plain modal formulas and belongs to the modal pipeline. Both may have
zero arguments, which expresses constancy of the target.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Reserved words of the surface grammar; they can never name a symbol,
# otherwise render/parse round trips would break.
KEYWORDS = frozenset({"dep", "ior"})


@dataclass(frozen=True, order=True)
class PropSymbol:
    """A proposition symbol; identity and ordering are by name."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid proposition symbol name: {self.name!r}")
        if self.name in KEYWORDS:
            raise ValueError(f"{self.name!r} is a reserved word")

    def __str__(self) -> str:
        return self.name


def _as_symbol(s) -> PropSymbol:
    return s if isinstance(s, PropSymbol) else PropSymbol(s)


def _node(cls):
    """A frozen dataclass that computes its structural hash only once.

    The hash lives in the instance dict beside the fields, shadowing the
    class default None, so equality, `repr` and the constructor never
    see it, and `__getstate__` leaves it out of the pickled and copied
    state.
    """
    cls = dataclass(frozen=True)(cls)
    structural_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = structural_hash(self)
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class Atom:
    sym: PropSymbol


@_node
class NegAtom:
    sym: PropSymbol


@_node
class Not:
    """General negation; only `to_nnf` understands it."""

    child: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    """Splitting disjunction: the team divides between the disjuncts."""

    left: "Formula"
    right: "Formula"


@_node
class IDis:
    """Team-level disjunction (`ior`): the whole team satisfies a side."""

    left: "Formula"
    right: "Formula"


@_node
class Diamond:
    child: "Formula"


@_node
class Box:
    child: "Formula"


@_node
class Dep:
    """Propositional dependence atom dep(args; target) over symbols."""

    args: tuple[PropSymbol, ...]
    target: PropSymbol

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        for a in self.args:
            if not isinstance(a, PropSymbol):
                raise TypeError("Dep arguments must be proposition symbols")
        if not isinstance(self.target, PropSymbol):
            raise TypeError("Dep target must be a proposition symbol")


@_node
class MDep:
    """Modal dependence atom dep(args; target) over plain modal formulas.

    Arguments and target must be pure ML: no `ior`, no nested dependence
    atoms. This keeps the atom inside the extended modal fragment and is
    checked at construction time.
    """

    args: tuple["Formula", ...]
    target: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        for part in (*self.args, self.target):
            for node in walk(part):
                if isinstance(node, (IDis, Dep, MDep)):
                    raise ValueError(
                        "dependence atom components must be plain modal formulas"
                    )


Formula = Union[Atom, NegAtom, Not, And, Or, IDis, Diamond, Box, Dep, MDep]

class Fragment(Enum):
    """Syntactic fragments, ordered by inclusion where comparable."""

    PL = "pl"
    PD = "pd"
    ML = "ml"
    ML_IDIS = "ml-ior"
    MDL = "mdl"
    EMDL = "emdl"


# For each fragment, the set of fragments that contain it.
_SUPERSETS = {
    Fragment.PL: {Fragment.PL, Fragment.PD, Fragment.ML, Fragment.ML_IDIS,
                  Fragment.MDL, Fragment.EMDL},
    Fragment.PD: {Fragment.PD, Fragment.MDL, Fragment.EMDL},
    Fragment.ML: {Fragment.ML, Fragment.ML_IDIS, Fragment.MDL, Fragment.EMDL},
    Fragment.ML_IDIS: {Fragment.ML_IDIS},
    Fragment.MDL: {Fragment.MDL, Fragment.EMDL},
    Fragment.EMDL: {Fragment.EMDL},
}


def fragment_within(small: Fragment, big: Fragment) -> bool:
    """True when every formula of `small` is also a formula of `big`."""
    return big in _SUPERSETS[small]


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of `f`, the node itself first."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or, IDis)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Diamond, Box, Not)):
            stack.append(node.child)
        elif isinstance(node, MDep):
            stack.append(node.target)
            stack.extend(reversed(node.args))


def symbols(f: Formula) -> frozenset[PropSymbol]:
    """The set of proposition symbols occurring in `f`."""
    out = set()
    for node in walk(f):
        if isinstance(node, (Atom, NegAtom)):
            out.add(node.sym)
        elif isinstance(node, Dep):
            out.update(node.args)
            out.add(node.target)
    return frozenset(out)


def to_nnf(f: Formula) -> Formula:
    """Rewrite to negation normal form, eliminating `Not`.

    Negation distributes over the Boolean and modal connectives in the
    usual dual pairs. A negation reaching a dependence atom or `ior` is
    an error: neither has a negation normal form in these grammars.
    """
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, Atom):
        return NegAtom(f.sym) if neg else f
    if isinstance(f, NegAtom):
        return Atom(f.sym) if neg else f
    if isinstance(f, Not):
        return _nnf(f.child, not neg)
    if isinstance(f, And):
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return Or(l, r) if neg else And(l, r)
    if isinstance(f, Or):
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return And(l, r) if neg else Or(l, r)
    if isinstance(f, IDis):
        if neg:
            raise ValueError("'ior' cannot be negated")
        return IDis(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Diamond):
        c = _nnf(f.child, neg)
        return Box(c) if neg else Diamond(c)
    if isinstance(f, Box):
        c = _nnf(f.child, neg)
        return Diamond(c) if neg else Box(c)
    if isinstance(f, Dep):
        if neg:
            raise ValueError("dependence atoms cannot be negated")
        return f
    if isinstance(f, MDep):
        if neg:
            raise ValueError("dependence atoms cannot be negated")
        return MDep(tuple(_nnf(a, False) for a in f.args), _nnf(f.target, False))
    raise TypeError(f"not a formula: {f!r}")


def is_pure_ml(f: Formula) -> bool:
    """True when `f` uses only atoms, their negations, and/or/diamond/box."""
    return all(
        isinstance(n, (Atom, NegAtom, And, Or, Diamond, Box)) for n in walk(f)
    )


def dual(f: Formula) -> Formula:
    """The negation normal form of the negation of a plain modal formula.

    Defined for pure ML only; `dual` is an involution and swaps truth at
    every pointed model.
    """
    if isinstance(f, Atom):
        return NegAtom(f.sym)
    if isinstance(f, NegAtom):
        return Atom(f.sym)
    if isinstance(f, And):
        return Or(dual(f.left), dual(f.right))
    if isinstance(f, Or):
        return And(dual(f.left), dual(f.right))
    if isinstance(f, Diamond):
        return Box(dual(f.child))
    if isinstance(f, Box):
        return Diamond(dual(f.child))
    raise ValueError("dual is defined for plain modal formulas only")


def nb_subf(f: Formula) -> frozenset[Formula]:
    """Non-Boolean subformulas: atoms and modal subformulas.

    Literals contribute their atom, modal operators contribute themselves
    plus whatever their child contributes, and dependence atoms contribute
    the union over their components. Every formula here is a Boolean
    combination of its `nb_subf` elements.
    """
    out: set[Formula] = set()
    _nb_subf(f, out)
    return frozenset(out)


def _nb_subf(f: Formula, out: set) -> None:
    if isinstance(f, (Atom, NegAtom)):
        out.add(Atom(f.sym))
    elif isinstance(f, (And, Or, IDis)):
        _nb_subf(f.left, out)
        _nb_subf(f.right, out)
    elif isinstance(f, (Diamond, Box)):
        out.add(f)
        _nb_subf(f.child, out)
    elif isinstance(f, Dep):
        for s in (*f.args, f.target):
            out.add(Atom(s))
    elif isinstance(f, MDep):
        for part in (*f.args, f.target):
            _nb_subf(part, out)
    else:
        raise ValueError("nb_subf expects a formula in negation normal form")


def size(f: Formula) -> int:
    """Number of AST nodes; a dependence atom counts itself plus components."""
    if isinstance(f, (Atom, NegAtom)):
        return 1
    if isinstance(f, (And, Or, IDis)):
        return 1 + size(f.left) + size(f.right)
    if isinstance(f, (Diamond, Box)):
        return 1 + size(f.child)
    if isinstance(f, Dep):
        return 1 + len(f.args) + 1
    if isinstance(f, MDep):
        return 1 + sum(size(a) for a in f.args) + size(f.target)
    raise ValueError("size expects a formula in negation normal form")


def classify(f: Formula) -> Fragment:
    """The least fragment containing `f`.

    A dependence atom whose components are all positive atoms stays at the
    propositional-dependence level; any richer component forces the
    extended fragment. `ior` cannot be combined with dependence atoms,
    since no listed fragment has both.
    """
    has_modal = has_idis = has_dep = has_rich_dep = False
    for node in walk(f):
        if isinstance(node, Not):
            raise ValueError("classify expects a formula in negation normal form")
        elif isinstance(node, (Diamond, Box)):
            has_modal = True
        elif isinstance(node, IDis):
            has_idis = True
        elif isinstance(node, Dep):
            has_dep = True
        elif isinstance(node, MDep):
            has_dep = True
            if not all(isinstance(p, Atom) for p in (*node.args, node.target)):
                has_rich_dep = True
    if has_dep and has_idis:
        raise ValueError(
            "no fragment covers 'ior' combined with dependence atoms"
        )
    if has_rich_dep:
        return Fragment.EMDL
    if has_dep:
        return Fragment.MDL if has_modal else Fragment.PD
    if has_idis:
        return Fragment.ML_IDIS
    if has_modal:
        return Fragment.ML
    return Fragment.PL


# Rendering precedence levels; higher binds tighter.
_PREC_IOR = 1
_PREC_OR = 3
_PREC_AND = 5
_PREC_UNARY = 7
_PREC_ATOM = 9


def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, NegAtom, Dep, MDep)):
        return _PREC_ATOM
    if isinstance(f, (Diamond, Box)):
        return _PREC_UNARY
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, IDis):
        return _PREC_IOR
    raise ValueError("cannot render a formula containing general negation")


def render(f: Formula) -> str:
    """Concrete syntax for `f`; parsing the result reproduces `f` exactly.

    Parentheses are emitted only where precedence or left associativity
    demands them.
    """
    return _render(f, 0)


def _render(f: Formula, min_prec: int) -> str:
    if isinstance(f, Atom):
        return f.sym.name
    if isinstance(f, NegAtom):
        return "!" + f.sym.name
    if isinstance(f, Dep):
        args = ", ".join(a.name for a in f.args)
        return f"dep({args}; {f.target.name})"
    if isinstance(f, MDep):
        args = ", ".join(_render(a, 0) for a in f.args)
        return f"dep({args}; {_render(f.target, 0)})"
    if isinstance(f, Diamond):
        body = "<> " + _render(f.child, _PREC_UNARY)
    elif isinstance(f, Box):
        body = "[] " + _render(f.child, _PREC_UNARY)
    elif isinstance(f, And):
        body = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
    elif isinstance(f, Or):
        body = _render(f.left, _PREC_OR) + " | " + _render(f.right, _PREC_OR + 1)
    elif isinstance(f, IDis):
        body = _render(f.left, _PREC_IOR) + " ior " + _render(f.right, _PREC_IOR + 1)
    else:
        raise ValueError("cannot render a formula containing general negation")
    if _prec(f) < min_prec:
        return "(" + body + ")"
    return body

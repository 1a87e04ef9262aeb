"""Formula ASTs for team-semantics logics.

All nodes are immutable and hashable, so formulas can live in sets and
serve as dictionary keys. Each node computes its structural hash, the
class included, once at construction from its children's kept hashes,
so hashing never recurses; the kept hash is not part of equality and is
not pickled or copied, because string hashes differ between processes.
Public formulas are kept in negation normal form: negation occurs on
proposition symbols only. General negation is written with the
transient `Not` wrapper, which `to_nnf` eliminates; every other
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

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Reserved words of the surface grammar; they can never name a symbol,
# otherwise render/parse round trips would break.
KEYWORDS = frozenset({"dep", "ior"})


@dataclass(frozen=True, order=True)
class PropSymbol:
    """A proposition symbol; identity and ordering are by name."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid proposition symbol name: {self.name!r}")
        if self.name in KEYWORDS:
            raise ValueError(f"{self.name!r} is a reserved word")

    def __str__(self) -> str:
        return self.name


def _as_symbol(s) -> PropSymbol:
    return s if isinstance(s, PropSymbol) else PropSymbol(s)


def _node(cls):
    """A frozen dataclass whose structural hash is fixed at construction.

    The hash covers the class name and the fields, whose own hashes are
    already kept, so computing it never recurses and a formula and its
    dual do not collide. It lives in the instance dict beside the fields,
    so equality, `repr` and the constructor's signature never see it.
    In place of the dataclass's `__init__`, which would set each frozen
    field through `object.__setattr__`, the class gets one generated the
    same way that writes the fields and the hash straight into that
    dict, running the class's own `__post_init__` check in between, so
    keeping the hash adds little to the cost of building a node. It is
    installed before `dataclass` runs with `init=False`, which then
    builds no `__init__` of its own and takes the class docstring from
    this one. `__getstate__` leaves the hash out of the pickled and
    copied state, and `__setstate__` computes it afresh from the rebuilt
    children.
    """
    names = list(cls.__annotations__)
    tag = cls.__name__
    check = cls.__dict__.get("__post_init__")
    source = (
        f"def __init__(self, {', '.join(names)}):\n"
        "    d = self.__dict__\n"
        + "".join(f"    d[{n!r}] = {n}\n" for n in names)
        + ("    check(self)\n" if check is not None else "")
        + f"    d['_hash'] = hash((tag, {', '.join(f'd[{n!r}]' for n in names)}))\n"
    )
    scope = {"tag": tag, "check": check}
    exec(source, scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__annotations__ = dict(cls.__annotations__)
    cls = dataclass(frozen=True, init=False)(cls)

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state):
        d = self.__dict__
        d.update(state)
        d["_hash"] = hash((tag, *[d[n] for n in names]))

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
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
    # A subtree without negation comes back as the same object, so an
    # input already in normal form is not copied node by node.
    if isinstance(f, Atom):
        return NegAtom(f.sym) if neg else f
    if isinstance(f, NegAtom):
        return Atom(f.sym) if neg else f
    if isinstance(f, Not):
        return _nnf(f.child, not neg)
    if isinstance(f, (And, Or, IDis)):
        if neg and isinstance(f, IDis):
            raise ValueError("'ior' cannot be negated")
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        if neg:
            return Or(l, r) if isinstance(f, And) else And(l, r)
        return f if l is f.left and r is f.right else type(f)(l, r)
    if isinstance(f, (Diamond, Box)):
        c = _nnf(f.child, neg)
        if neg:
            return Box(c) if isinstance(f, Diamond) else Diamond(c)
        return f if c is f.child else type(f)(c)
    if isinstance(f, Dep):
        if neg:
            raise ValueError("dependence atoms cannot be negated")
        return f
    if isinstance(f, MDep):
        if neg:
            raise ValueError("dependence atoms cannot be negated")
        args = tuple(_nnf(a, False) for a in f.args)
        target = _nnf(f.target, False)
        if target is f.target and all(a is b for a, b in zip(args, f.args)):
            return f
        return MDep(args, target)
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

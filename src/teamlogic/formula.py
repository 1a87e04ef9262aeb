"""Formula ASTs for team-semantics logics.

Formula nodes and proposition symbols are hash-consed (Filliâtre and
Conchon, "Type-safe modular hash-consing", 2006): a constructor returns
the one live node with its class and children, found in a weak intern
table keyed by the class and the children themselves, so a formula
nobody holds is freed and its table entry goes with it. Structurally
equal formulas are therefore the same object, and equality and hashing
are the identity's, with no recursion and no Python-level call. Nodes
are immutable: assigning a field raises AttributeError, and pickling or
copying a node rebuilds it through its constructor, which interns it
again. Each node also keeps its symbols and its `ior` count, computed
at construction from its children's, and its rendering and non-Boolean
subformulas once first asked for, filled children first from an
explicit stack; passes giving each node a value made from its
children's alone run on one fold, `_fold`. Nothing here recurses once
per tree level, and a subformula shared by several formulas does this
work once for all.

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

import functools
import re
import weakref
from enum import Enum
from typing import Iterator, Union

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Reserved words of the surface grammar; they can never name a symbol,
# otherwise render/parse round trips would break.
KEYWORDS = frozenset({"dep", "ior"})

# The intern table: (class, *fields) -> weak reference to the live node.
# A key holds the children, which the node holds anyway; its entry goes
# when the node dies, so the table never keeps anything alive.
_table: dict = {}
_new = object.__new__


class _Ref(weakref.ref):
    """An intern table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, table=_table) -> None:
    # The key may already belong to a node built after this one died.
    if table.get(ref.key) is ref:
        del table[ref.key]


def _enter(node, key):
    """Enter a freshly built `node` under `key` and return it."""
    ref = _Ref(node, _forget)
    ref.key = key
    _table[key] = ref
    return node


class _Frozen:
    """Mixin of the interned classes: assignment is refused, and copies
    and pickles rebuild through the constructor, which re-interns.

    Each formula class puts it before its layout class, which declares
    the slots and the constructor. The constructor fills a new node as
    an instance of the layout class itself, whose slots take plain
    assignment, and then gives it its own class, which shares the
    layout: writing through the refusing `__setattr__` instead would
    cost a call per slot.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


@functools.total_ordering
class PropSymbol(_Frozen):
    """A proposition symbol: one object per name, ordered by name."""

    __slots__ = ("name", "__weakref__")
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _table.get(key) if isinstance(name, str) else None
        if ref is not None:
            sym = ref()
            if sym is not None:
                return sym
        if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid proposition symbol name: {name!r}")
        if name in KEYWORDS:
            raise ValueError(f"{name!r} is a reserved word")
        sym = _new(cls)
        object.__setattr__(sym, "name", name)
        return _enter(sym, key)

    def __lt__(self, other):
        if not isinstance(other, PropSymbol):
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


def _as_symbol(s) -> PropSymbol:
    return s if isinstance(s, PropSymbol) else PropSymbol(s)


# Rendering precedence levels; higher binds tighter.
_PREC_IOR = 1
_PREC_OR = 3
_PREC_AND = 5
_PREC_UNARY = 7
_PREC_ATOM = 9


class _Node:
    """A formula node.

    Besides its fields a node keeps its symbols and its `ior` count,
    computed at construction from its children's, and two slots that
    stay None until first asked for: its rendering, and the non-Boolean
    subformulas below it (`nb_subf` less the node itself, which a node
    must not hold). `_prec` is the class's rendering precedence.
    """

    __slots__ = ("__weakref__", "_symbols", "_nior", "_text", "_below")
    _prec = _PREC_ATOM


def _union(a: frozenset, b: frozenset) -> frozenset:
    """`a | b`, reusing `a` or `b` when it holds the other."""
    return b if a <= b else a if b <= a else a | b


class _Literal(_Node):
    __slots__ = ("sym",)
    _fields = ("sym",)

    def __new__(cls, sym: PropSymbol):
        key = (cls, sym)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(_Literal)
        node.sym = sym
        node._symbols = frozenset((sym,))
        node._nior = 0
        node._text = node._below = None
        node.__class__ = cls
        return _enter(node, key)


class _Unary(_Node):
    __slots__ = ("child",)
    _fields = ("child",)
    _prec = _PREC_UNARY

    def __new__(cls, child: "Formula"):
        key = (cls, child)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(_Unary)
        node.child = child
        node._symbols = child._symbols
        node._nior = child._nior
        node._text = node._below = None
        node.__class__ = cls
        return _enter(node, key)


class _Binary(_Node):
    __slots__ = ("left", "right")
    _fields = ("left", "right")
    _ior = 0  # 1 for `ior` itself

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, left, right)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(_Binary)
        node.left = left
        node.right = right
        ls, rs = left._symbols, right._symbols
        node._symbols = rs if ls <= rs else ls if rs <= ls else ls | rs
        node._nior = left._nior + right._nior + cls._ior
        node._text = node._below = None
        node.__class__ = cls
        return _enter(node, key)


class Atom(_Frozen, _Literal):
    __slots__ = ()


class NegAtom(_Frozen, _Literal):
    __slots__ = ()


class Not(_Frozen, _Unary):
    """General negation; only `to_nnf` understands it."""

    __slots__ = ()


class And(_Frozen, _Binary):
    __slots__ = ()
    _prec = _PREC_AND
    _op = " & "


class Or(_Frozen, _Binary):
    """Splitting disjunction: the team divides between the disjuncts."""

    __slots__ = ()
    _prec = _PREC_OR
    _op = " | "


class IDis(_Frozen, _Binary):
    """Team-level disjunction (`ior`): the whole team satisfies a side."""

    __slots__ = ()
    _prec = _PREC_IOR
    _op = " ior "
    _ior = 1


class Diamond(_Frozen, _Unary):
    __slots__ = ()
    _op = "<> "


class Box(_Frozen, _Unary):
    __slots__ = ()
    _op = "[] "


class _Dependence(_Node):
    __slots__ = ("args", "target")
    _fields = ("args", "target")


class Dep(_Frozen, _Dependence):
    """Propositional dependence atom dep(args; target) over symbols."""

    __slots__ = ()

    def __new__(cls, args: tuple[PropSymbol, ...], target: PropSymbol):
        args = tuple(args)
        key = (cls, args, target)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        for a in args:
            if not isinstance(a, PropSymbol):
                raise TypeError("Dep arguments must be proposition symbols")
        if not isinstance(target, PropSymbol):
            raise TypeError("Dep target must be a proposition symbol")
        return _dependence(cls, key, frozenset((*args, target)))


class MDep(_Frozen, _Dependence):
    """Modal dependence atom dep(args; target) over plain modal formulas.

    Arguments and target must be pure ML: no `ior`, no nested dependence
    atoms. This keeps the atom inside the extended modal fragment and is
    checked at construction time.
    """

    __slots__ = ()

    def __new__(cls, args: tuple["Formula", ...], target: "Formula"):
        args = tuple(args)
        key = (cls, args, target)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        for part in (*args, target):
            if _foreign(part, _PLAIN | {Not}) is not None:
                raise ValueError(
                    "dependence atom components must be plain modal formulas"
                )
        syms = target._symbols
        for a in args:
            syms = _union(syms, a._symbols)
        return _dependence(cls, key, syms)


def _dependence(cls, key: tuple, symbols: frozenset):
    """Build and enter the dependence atom `key` = (cls, args, target)."""
    node = _new(_Dependence)
    _, node.args, node.target = key
    node._symbols = symbols
    node._nior = 0
    node._text = node._below = None
    node.__class__ = cls
    return _enter(node, key)


Formula = Union[Atom, NegAtom, Not, And, Or, IDis, Diamond, Box, Dep, MDep]

_PLAIN = frozenset({Atom, NegAtom, And, Or, Diamond, Box})

# Per logic, the name a refusal gives it and the node classes its
# deciders admit. Each public entry checks its formula against one row
# once, through `_admit`; the stages behind it take that as given.
_ADMITTED = {
    "pd": ("propositional team", frozenset({Atom, NegAtom, And, Or, Dep})),
    "ml": ("plain modal", _PLAIN),
    "ml-ior": ("modal ior", _PLAIN | {IDis}),
    "emdl": ("modal dependence", _PLAIN | {MDep}),
    "modal-team": ("modal team", _PLAIN | {IDis, MDep}),
}


def _foreign(f: Formula, admitted: frozenset):
    """The first node of `f` in preorder whose class `admitted` lacks, or None."""
    return next((node for node in walk(f) if type(node) not in admitted), None)


def _admit(f: Formula, logic: str) -> Formula:
    """`f`, if `logic` admits the class of its every node; otherwise
    ValueError names the first node outside, in preorder, before any
    later stage can trip a guard."""
    name, admitted = _ADMITTED[logic]
    node = _foreign(f, admitted)
    if node is None:
        return f
    if type(node) is Dep:
        raise ValueError(
            "propositional dependence atoms do not apply to worlds; "
            "use a modal dependence atom"
        )
    raise ValueError(f"not a {name} formula: {type(node).__name__}")


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


def _parts(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of `f`, left to right."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, _Unary):
        return (f.child,)
    if isinstance(f, MDep):
        return (*f.args, f.target)
    return ()


def _fold(f: Formula, visit, done: dict):
    """Fold `f` bottom-up: `done[g] = visit(g, [done[c] for c in _parts(g)])`
    for every node `g` of `f` not yet in `done`, and return `done[f]`.

    Nodes are visited children first, left to right, from an explicit
    stack; a node shared by several parents, or already in `done` from
    an earlier fold, is visited at most once.
    """
    # a node to visit, or a (node, its parts) pair once they are done
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g, parts = g
        else:
            if g in done:
                continue
            parts = _parts(g)
            if parts:
                stack.append((g, parts))
                stack += reversed(parts)
                continue
        done[g] = visit(g, [done[c] for c in parts])
    return done[f]


def symbols(f: Formula) -> frozenset[PropSymbol]:
    """The set of proposition symbols occurring in `f`."""
    return f._symbols


def count_idis(f: Formula) -> int:
    """The number of team-level disjunction (`ior`) occurrences in `f`."""
    return f._nior


def to_nnf(f: Formula) -> Formula:
    """Rewrite to negation normal form, eliminating `Not`.

    Negation distributes over the Boolean and modal connectives in the
    usual dual pairs. A negation reaching a dependence atom or `ior` is
    an error: neither has a negation normal form in these grammars.
    """
    return _nnf(f)[0]


def _nnf(f: Formula, allowed: tuple | None = None) -> tuple[Formula, type | None]:
    """`to_nnf(f)`, and the class of the first node of the result, in
    preorder, that is not one of `allowed` (None if there is none or
    `allowed` is None).

    Built from an explicit stack, with one memo per polarity, so a
    subtree shared under the same number of negations is done once. A
    subtree without negation comes back as the same object, so a formula
    without `Not` is its own answer and the parts already in normal form
    are not copied node by node. Errors come in the order a left-to-right
    recursion meets them.
    """
    if allowed is None:
        allowed = _NNF_CLASSES
    memos: tuple[dict, dict] = ({}, {})
    bad = None
    done: list[Formula] = []  # results of the finished subtrees, in order
    # (node, negated, None) to visit a node; (node, negated, its parts)
    # once its parts' results are the last ones in `done`.
    stack: list[tuple] = [(f, False, None)]
    while stack:
        node, neg, parts = stack.pop()
        cls = type(node)
        if parts is not None:
            kids = tuple(done[-len(parts):])
            del done[-len(parts):]
            if neg:
                new = _DUAL_CLASS[cls](*kids)
            elif kids == parts:
                new = node
            elif cls is MDep:
                new = MDep(kids[:-1], kids[-1])
            else:
                new = cls(*kids)
            memos[neg][node] = new
            done.append(new)
            continue
        if cls is Not:
            stack.append((node.child, not neg, None))
            continue
        if cls not in _NNF_CLASSES:
            raise TypeError(f"not a formula: {node!r}")
        out = cls
        if neg:
            out = _DUAL_CLASS.get(cls)
            if out is None:
                if cls is IDis:
                    raise ValueError("'ior' cannot be negated")
                raise ValueError("dependence atoms cannot be negated")
        if out not in allowed and bad is None:
            bad = out
        if cls is Atom or cls is NegAtom or cls is Dep:
            # a negated Dep raised above
            done.append(out(node.sym) if neg else node)
            continue
        seen = memos[neg].get(node)
        if seen is not None:
            done.append(seen)
            continue
        parts = _parts(node)
        stack.append((node, neg, parts))
        for c in reversed(parts):
            stack.append((c, neg, None))
    return done[0], bad


_NNF_CLASSES = frozenset({Atom, NegAtom, And, Or, IDis, Diamond, Box, Dep, MDep})


def is_pure_ml(f: Formula) -> bool:
    """True when `f` uses only atoms, their negations, and/or/diamond/box."""
    return _foreign(f, _PLAIN) is None


# The dual's class for each class of plain modal formula.
_DUAL_CLASS = {Atom: NegAtom, NegAtom: Atom, And: Or, Or: And, Diamond: Box, Box: Diamond}


def dual(f: Formula) -> Formula:
    """The negation normal form of the negation of a plain modal formula.

    Defined for pure ML only; `dual` is an involution and swaps truth at
    every pointed model.
    """
    return _dual(_admit(f, "ml"), {})


def _dual(f: Formula, memo: dict) -> Formula:
    """`dual(f)` of an admitted `f`, through `memo`, a dict to the duals.

    Callers may share one memo between formulas with common subtrees.
    No node keeps its dual: a formula and its dual would then hold each
    other, and neither would be freed before a cyclic collection.
    """
    return _fold(f, _dual_node, memo)


def _dual_node(f: Formula, kids: list) -> Formula:
    cls = _DUAL_CLASS[type(f)]
    return cls(f.sym) if isinstance(f, _Literal) else cls(*kids)


_set_text = _Node.__dict__["_text"].__set__
_set_below = _Node.__dict__["_below"].__set__


def _nb(f: Formula) -> frozenset[Formula]:
    """`nb_subf` of a node whose `_below` is filled."""
    if isinstance(f, (Atom, Diamond, Box)):
        return f._below | {f}
    return f._below


def nb_subf(f: Formula) -> frozenset[Formula]:
    """Non-Boolean subformulas: atoms and modal subformulas.

    Literals contribute their atom, modal operators contribute themselves
    plus whatever their child contributes, and dependence atoms contribute
    the union over their components. Every formula here is a Boolean
    combination of its `nb_subf` elements. The set below each node is
    kept on it, filled children first from an explicit stack.
    """
    stack = [f] if f._below is None else []
    while stack:
        node = stack[-1]
        parts = _parts(node)
        missing = [c for c in parts if c._below is None]
        if missing:
            stack += missing
            continue
        stack.pop()
        if isinstance(node, Atom):
            below = frozenset()
        elif isinstance(node, NegAtom):
            below = frozenset((Atom(node.sym),))
        elif isinstance(node, Dep):
            below = frozenset(Atom(s) for s in (*node.args, node.target))
        elif isinstance(node, Not):
            raise ValueError("nb_subf expects a formula in negation normal form")
        else:
            below = frozenset()
            for c in parts:
                below = _union(below, _nb(c))
        _set_below(node, below)
    return _nb(f)


def size(f: Formula) -> int:
    """Number of AST nodes; a dependence atom counts itself plus components."""
    return _fold(f, _size_node, {})


def _size_node(f: Formula, kids: list) -> int:
    # a shared subtree counts once per occurrence, as in the tree
    if isinstance(f, Dep):
        return 1 + len(f.args) + 1
    if isinstance(f, Not) or not isinstance(f, _Node):
        raise ValueError("size expects a formula in negation normal form")
    return 1 + sum(kids)


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


def render(f: Formula) -> str:
    """Concrete syntax for `f`; parsing the result reproduces `f` exactly.

    Parentheses are emitted only where precedence or left associativity
    demands them. The text is kept on every node, filled children first
    from an explicit stack.
    """
    stack = [f] if f._text is None else []
    while stack:
        node = stack[-1]
        if isinstance(node, _Binary):
            left, right = node.left, node.right
            lt, rt = left._text, right._text
            if lt is None or rt is None:
                stack += [c for c in (right, left) if c._text is None]
                continue
            prec = node._prec
            if left._prec < prec:
                lt = "(" + lt + ")"
            if right._prec <= prec:
                rt = "(" + rt + ")"
            text = lt + node._op + rt
        elif isinstance(node, Not):
            raise ValueError("cannot render a formula containing general negation")
        elif isinstance(node, _Unary):
            child = node.child
            text = child._text
            if text is None:
                stack.append(child)
                continue
            text = node._op + (text if child._prec >= _PREC_UNARY else "(" + text + ")")
        elif isinstance(node, Atom):
            text = node.sym.name
        elif isinstance(node, NegAtom):
            text = "!" + node.sym.name
        elif isinstance(node, Dep):
            text = f"dep({', '.join(a.name for a in node.args)}; {node.target.name})"
        else:
            parts = (*node.args, node.target)
            missing = [c for c in parts if c._text is None]
            if missing:
                stack += missing
                continue
            text = f"dep({', '.join(a._text for a in node.args)}; {node.target._text})"
        stack.pop()
        _set_text(node, text)
    return f._text

"""Formula ASTs for team-semantics logics.

Formula nodes are hash-consed (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): a constructor returns the one live node
with its class and children, found in a weak intern table keyed by the
class and the children themselves, so a compound formula nobody holds
is freed and its table entry goes with it. Proposition symbols are a
small vocabulary that callers reuse, like interned identifier strings:
each name's symbol is built once, with its two literals, and all three
live for the life of the process, about 0.5-0.8 KB per distinct name.
Structurally equal formulas are therefore the same object, and equality
and hashing are the identity's, with no recursion and no Python-level
call. Nodes are immutable: assigning a field raises AttributeError, and
pickling or copying a node rebuilds it through its constructor, which
interns it again. Each node also keeps its symbols, its `ior` count and
its class mask, the classes of the nodes in it as bits, computed at
construction from its children's, and its rendering once first asked
for, filled children first from an explicit stack; passes giving each
node a value made from its children's alone, `nb_subf` among them, run
on one fold, `_fold`, which finds a node's parts by its class in a
table. Nothing here recurses once per tree level, and a subformula
shared by several formulas does this work once for all.

The class mask answers, in one AND, whether a formula holds a node of
some class: admission to a logic, the components of `MDep`, the
fragment `classify` names (the first row of one table, `_FRAGMENTS`,
whose mask covers it), and whether `to_nnf` has anything to do. Only a
refusal walks the formula, in preorder, to name the first node outside,
through `_foreign`.

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
from collections.abc import Iterator

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Reserved words of the surface grammar; they can never name a symbol,
# otherwise render/parse round trips would break.
KEYWORDS = frozenset({"dep", "ior"})

# The intern table of compound nodes: (class, *fields) -> weak reference
# to the live node. A key holds the children, which the node holds
# anyway; its entry goes when the node dies, so the table never keeps
# anything alive.
_table: dict = {}
_new = object.__new__

# Every symbol ever built, by name; a symbol holds its two literals.
_names: dict = {}


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
    """Mixin of the interned classes and, through `_Value`, of the value
    types: assignment is refused, and copies and pickles rebuild through
    the constructor, which re-interns a node.

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

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class _Value(_Frozen):
    """Mixin of the library's value types, the verdicts and witnesses:
    `_Frozen`, with equality and hashing by the fields, in order, within
    one class. Each type names its fields in `_fields` and
    `__match_args__` and writes its own `__init__`, which sets a frozen
    type's slots through `object.__setattr__`."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


@functools.total_ordering
class PropSymbol(_Frozen):
    """A proposition symbol: one object per name, ordered by name."""

    __slots__ = ("name", "_literals")
    _fields = ("name",)

    def __new__(cls, name: str):
        try:
            return _names[name]
        except (KeyError, TypeError):  # a new name, or no name at all
            return _new_symbol(name)

    def __lt__(self, other):
        if not isinstance(other, PropSymbol):
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


def _new_symbol(name) -> PropSymbol:
    """Check a name not seen yet, then build its symbol and literals."""
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
        raise ValueError(f"invalid proposition symbol name: {name!r}")
    name = str.__str__(name)  # a plain copy of a `str` subclass
    if name in KEYWORDS:
        raise ValueError(f"{name!r} is a reserved word")
    sym = _new(PropSymbol)
    object.__setattr__(sym, "name", name)
    both = frozenset((sym,))  # the literals' symbols
    object.__setattr__(sym, "_literals", (_literal(Atom, sym, both), _literal(NegAtom, sym, both)))
    # the name may be in already, reached from a `str` subclass hashing
    # otherwise or entered by another thread meanwhile
    return _names.setdefault(name, sym)


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

    Besides its fields a node keeps its symbols, its `ior` count and its
    class mask, computed at construction from its children's, and its
    rendering, which stays None until first asked for. `_prec` is the
    class's rendering precedence.
    """

    __slots__ = ("__weakref__", "_symbols", "_nior", "_mask", "_text")
    _prec = _PREC_ATOM


def _union(a: frozenset, b: frozenset) -> frozenset:
    """`a | b`, reusing `a` or `b` when it holds the other."""
    return b if a <= b else a if b <= a else a | b


class _Literal(_Node):
    __slots__ = ("sym",)
    _fields = ("sym",)

    def __new__(cls, sym: PropSymbol):
        if not isinstance(sym, PropSymbol):
            raise TypeError(f"{cls.__name__} takes a proposition symbol, not {sym!r}")
        return sym._literals[cls._side]


def _literal(cls, sym: PropSymbol, syms: frozenset):
    """Build the literal of class `cls` on a new symbol `sym`."""
    node = _new(_Literal)
    node.sym = sym
    node._symbols = syms
    node._nior = 0
    node._mask = cls._bit
    node._text = None
    node.__class__ = cls
    return node


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
        node._mask = child._mask | cls._bit
        node._text = None
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
        node._mask = left._mask | right._mask | cls._bit
        node._text = None
        node.__class__ = cls
        return _enter(node, key)


class Atom(_Frozen, _Literal):
    __slots__ = ()
    _bit = 1 << 0
    _side = 0  # its index in the symbol's `_literals`


class NegAtom(_Frozen, _Literal):
    __slots__ = ()
    _bit = 1 << 1
    _side = 1


class Not(_Frozen, _Unary):
    """General negation; only `to_nnf` understands it."""

    __slots__ = ()
    _bit = 1 << 2


class And(_Frozen, _Binary):
    __slots__ = ()
    _bit = 1 << 3
    _prec = _PREC_AND
    _op = " & "


class Or(_Frozen, _Binary):
    """Splitting disjunction: the team divides between the disjuncts."""

    __slots__ = ()
    _bit = 1 << 4
    _prec = _PREC_OR
    _op = " | "


class IDis(_Frozen, _Binary):
    """Team-level disjunction (`ior`): the whole team satisfies a side."""

    __slots__ = ()
    _bit = 1 << 5
    _prec = _PREC_IOR
    _op = " ior "
    _ior = 1


class Diamond(_Frozen, _Unary):
    __slots__ = ()
    _bit = 1 << 6
    _op = "<> "


class Box(_Frozen, _Unary):
    __slots__ = ()
    _bit = 1 << 7
    _op = "[] "


class _Dependence(_Node):
    __slots__ = ("args", "target")
    _fields = ("args", "target")


class Dep(_Frozen, _Dependence):
    """Propositional dependence atom dep(args; target) over symbols."""

    __slots__ = ()
    _bit = 1 << 8

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
        return _dependence(cls, key, frozenset((*args, target)), cls._bit)


class MDep(_Frozen, _Dependence):
    """Modal dependence atom dep(args; target) over plain modal formulas.

    Arguments and target must be pure ML: no `ior`, no nested dependence
    atoms. This keeps the atom inside the extended modal fragment and is
    checked at construction time.
    """

    __slots__ = ()
    _bit = 1 << 9

    def __new__(cls, args: tuple["Formula", ...], target: "Formula"):
        args = tuple(args)
        key = (cls, args, target)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        mask = 0
        for part in (*args, target):
            mask |= getattr(part, "_mask", -1)
        if mask & ~(_PLAIN | Not._bit):
            raise ValueError("dependence atom components must be plain modal formulas")
        syms = target._symbols
        for a in args:
            syms = _union(syms, a._symbols)
        return _dependence(cls, key, syms, mask | cls._bit)


def _dependence(cls, key: tuple, symbols: frozenset, mask: int):
    """Build and enter the dependence atom `key` = (cls, args, target)."""
    node = _new(_Dependence)
    _, node.args, node.target = key
    node._symbols = symbols
    node._nior = 0
    node._mask = mask
    node._text = None
    node.__class__ = cls
    return _enter(node, key)


Formula = Atom | NegAtom | Not | And | Or | IDis | Diamond | Box | Dep | MDep

# A node's class mask is the OR of the `_bit`s of the classes of the
# nodes in it, components of `MDep` included: exactly the classes of the
# nodes `walk` yields. It is set at construction, so a check for classes
# inside a formula is one AND.
_PL = Atom._bit | NegAtom._bit | And._bit | Or._bit
_PLAIN = _PL | Diamond._bit | Box._bit

# Per logic, the name a refusal gives it and the mask of the node classes
# its deciders admit. Each public entry checks its formula against one
# row once, through `_admit`; the stages behind it take that as given.
_ADMITTED = {
    "pl": ("plain propositional", _PL),
    "pd": ("propositional team", _PL | Dep._bit),
    "ml": ("plain modal", _PLAIN),
    "ml-ior": ("modal ior", _PLAIN | IDis._bit),
    "emdl": ("modal dependence", _PLAIN | MDep._bit),
    "modal-team": ("modal team", _PLAIN | IDis._bit | MDep._bit),
}


def _foreign(f: Formula, admitted: int):
    """The first node of `f` in preorder whose class bit `admitted` lacks,
    or None; a walk, for naming the node once a class mask shows one."""
    return next((n for n in walk(f) if not getattr(type(n), "_bit", 0) & admitted), None)


def _admit(f: Formula, logic: str) -> Formula:
    """`f`, if `logic` admits the class of its every node; otherwise
    ValueError names the first node outside, in preorder, before any
    later stage can trip a guard."""
    name, admitted = _ADMITTED[logic]
    if not getattr(f, "_mask", -1) & ~admitted:
        return f
    node = _foreign(f, admitted)
    # a logic with modalities evaluates at worlds, where `Dep` has no reading
    if type(node) is Dep and admitted & Diamond._bit:
        raise ValueError(
            "propositional dependence atoms do not apply to worlds; "
            "use a modal dependence atom"
        )
    raise ValueError(f"not a {name} formula: {type(node).__name__}")


class Fragment(Enum):
    """Syntactic fragments, ordered by inclusion where comparable. Each
    is one row of `_FRAGMENTS`: the node classes its formulas may hold,
    and whether a dependence atom may have components richer than atoms."""

    PL = "pl"
    PD = "pd"
    ML = "ml"
    ML_IDIS = "ml-ior"
    MDL = "mdl"
    EMDL = "emdl"


# Per fragment, in enum order: the mask of the node classes its
# formulas may hold, and whether a dependence atom's component may be
# other than an atom. `classify` names the first row that covers a
# formula, and inclusion between fragments is inclusion between rows.
_DEP = Dep._bit | MDep._bit
_FRAGMENTS = {
    Fragment.PL: (_PL, False),
    Fragment.PD: (_PL | _DEP, False),
    Fragment.ML: (_PLAIN, False),
    Fragment.ML_IDIS: (_PLAIN | IDis._bit, False),
    Fragment.MDL: (_PLAIN | _DEP, False),
    Fragment.EMDL: (_PLAIN | _DEP, True),
}


def fragment_within(small: Fragment, big: Fragment) -> bool:
    """True when every formula of `small` is also a formula of `big`."""
    small_mask, small_rich = _FRAGMENTS[small]
    big_mask, big_rich = _FRAGMENTS[big]
    return not small_mask & ~big_mask and big_rich >= small_rich


# Per class, the shape of a node's parts, read by `_parts` and `_fold`
# in place of a chain of class tests: none, a child, a left and
# a right side, or the components of `MDep`, arguments then target.
_LEAF, _ONE, _TWO, _MANY = range(4)
_SHAPE = {
    Atom: _LEAF, NegAtom: _LEAF, Dep: _LEAF,
    Not: _ONE, Diamond: _ONE, Box: _ONE,
    And: _TWO, Or: _TWO, IDis: _TWO,
    MDep: _MANY,
}


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of `f`, the node itself first."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(_parts(node))


def _parts(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of `f`, left to right."""
    shape = _SHAPE.get(type(f), _LEAF)
    if shape is _TWO:
        return (f.left, f.right)
    if shape is _ONE:
        return (f.child,)
    if shape is _MANY:
        return (*f.args, f.target)
    return ()


def _fold(f: Formula, visit, done: dict, within: int = -1):
    """Fold `f` bottom-up: `done[g] = visit(g, tuple(done[c] for c in _parts(g)))`
    for every node `g` of `f` not yet in `done`, and return `done[f]`.

    Nodes are visited children first, left to right, from an explicit
    stack; a node shared by several parents, or already in `done` from
    an earlier fold, is visited at most once. A node whose class mask
    has no bit of `within` is its own value: neither it nor anything
    below it is visited.
    """
    # a node to visit, or a 1-tuple of a node once its parts are done
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g = g[0]
            shape = _SHAPE[type(g)]
            if shape is _TWO:
                done[g] = visit(g, (done[g.left], done[g.right]))
            elif shape is _ONE:
                done[g] = visit(g, (done[g.child],))
            else:
                done[g] = visit(g, tuple([done[c] for c in (*g.args, g.target)]))
        elif g not in done:
            if not g._mask & within:
                done[g] = g
                continue
            shape = _SHAPE[type(g)]
            if shape is _TWO:
                stack += ((g,), g.right, g.left)
            elif shape is _ONE:
                stack += ((g,), g.child)
            elif shape is _MANY:
                stack.append((g,))
                stack.append(g.target)
                stack += reversed(g.args)
            else:
                done[g] = visit(g, ())
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
    A formula without `Not` is its own normal form, known from its mask.
    """
    if not getattr(f, "_mask", -1) & Not._bit:
        return f
    return _nnf(f)


def _nnf(f: Formula) -> Formula:
    """`to_nnf(f)` of a formula that may hold `Not`.

    Built from an explicit stack, with one memo per polarity, so a
    subtree shared under the same number of negations is done once. A
    subtree without negation, known from its class mask, comes back as
    the same object, unvisited, so the parts already in normal form are
    not copied node by node. Errors come in the order a left-to-right
    recursion meets them.
    """
    memos: tuple[dict, dict] = ({}, {})
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
        if not neg and not node._mask & Not._bit:
            done.append(node)
            continue
        out = cls
        if neg:
            out = _DUAL_CLASS.get(cls)
            if out is None:
                if cls is IDis:
                    raise ValueError("'ior' cannot be negated")
                raise ValueError("dependence atoms cannot be negated")
        if cls is Atom or cls is NegAtom:
            # negated: the others are without `Not`, and a Dep raised above
            done.append(out(node.sym))
            continue
        seen = memos[neg].get(node)
        if seen is not None:
            done.append(seen)
            continue
        parts = _parts(node)
        stack.append((node, neg, parts))
        for c in reversed(parts):
            stack.append((c, neg, None))
    return done[0]


_NNF_CLASSES = frozenset({Atom, NegAtom, And, Or, IDis, Diamond, Box, Dep, MDep})


def is_pure_ml(f: Formula) -> bool:
    """True when `f` uses only atoms, their negations, and/or/diamond/box."""
    return not getattr(f, "_mask", -1) & ~_PLAIN


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


def _dual_node(f: Formula, kids: tuple) -> Formula:
    cls = _DUAL_CLASS[type(f)]
    return cls(*kids) if kids else cls(f.sym)


_set_text = _Node.__dict__["_text"].__set__


def nb_subf(f: Formula) -> frozenset[Formula]:
    """Non-Boolean subformulas: atoms and modal subformulas.

    Literals contribute their atom, modal operators contribute themselves
    plus whatever their child contributes, and dependence atoms contribute
    the union over their components. Every formula here is a Boolean
    combination of its `nb_subf` elements. One `_fold` computes it, and
    no node keeps it.
    """
    if f._mask & Not._bit:
        raise ValueError("nb_subf expects a formula in negation normal form")
    return _fold(f, _nb_node, {})


def _nb_node(f: Formula, kids: tuple) -> frozenset[Formula]:
    cls = type(f)
    if cls is Atom:
        return frozenset((f,))
    if cls is NegAtom:
        return frozenset((Atom(f.sym),))
    if cls is Dep:
        return frozenset(Atom(s) for s in (*f.args, f.target))
    below = frozenset()
    for k in kids:
        below = _union(below, k)
    return below | {f} if cls is Diamond or cls is Box else below


def size(f: Formula) -> int:
    """Number of AST nodes; a dependence atom counts itself plus components."""
    if not isinstance(f, _Node) or f._mask & Not._bit:
        raise ValueError("size expects a formula in negation normal form")
    return _fold(f, _size_node, {})


def _size_node(f: Formula, kids: tuple) -> int:
    # a shared subtree counts once per occurrence, as in the tree
    if type(f) is Dep:
        return 1 + len(f.args) + 1
    return 1 + sum(kids)


def classify(f: Formula) -> Fragment:
    """The least fragment containing `f`: the first row of `_FRAGMENTS`
    that covers it.

    A dependence atom whose components are all positive atoms stays at the
    propositional-dependence level; any richer component forces the
    extended fragment. `ior` cannot be combined with dependence atoms:
    no row has both.
    """
    mask = f._mask
    if mask & Not._bit:
        raise ValueError("classify expects a formula in negation normal form")
    rich = mask & MDep._bit and any(
        type(p) is not Atom for n in walk(f) if type(n) is MDep for p in (*n.args, n.target)
    )
    for fragment, (covers, allows_rich) in _FRAGMENTS.items():
        if not mask & ~covers and allows_rich >= rich:
            return fragment
    raise ValueError("no fragment covers 'ior' combined with dependence atoms")


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

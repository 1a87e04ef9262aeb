"""Validity procedures and the elimination of modal dependence atoms.

The pipeline runs in three stages. A modal dependence atom unfolds into
a split over the argument value profiles, each branch pinning the target
constant with a team-level disjunction; that lands in modal logic
extended with team-level disjunction only. Team-level disjunctions then
distribute to the top: picking one side per occurrence leaves a plain
modal formula, the formula is equivalent to the team-level disjunction
of all such selections, and validity transfers to single selections
because countermodels of all selections combine into one disjoint-union
countermodel. Plain modal validity at the bottom is a tableau check on
the pointwise negation, and a refuting tableau branch is folded into a
filtrated countermodel of bounded size.

One decision does its shared work once. Formula nodes are interned, so
the selections of one formula share every subtree no `ior` sits in,
and with it the values each node keeps (rendering, symbols,
non-Boolean subformulas) and the duals taken of it. Their tableaux
share one memo of formula sets; an entry depends on its formula set
alone, so the verdicts and countermodels are those of a fresh memo per
selection, and a formula set hashes and compares its members by
identity. A refuted selection leaves a piece on integer worlds, its
filtration computed from the pointwise masks of one team evaluator
over those worlds, and the pieces of all refuted selections become one
`KripkeStructure` with string world names, built once per decision
with the names a chain of `disjoint_union`s would give.

Each public entry checks its formula against its logic's row of the
admission table in `formula`. `ml_valid` decides a plain modal formula
as the one selection of an `ior` formula, on the same path.

Every Invalid verdict returned here has been replayed through the team
semantics before being handed out, on one evaluator that reads the
returned structure: each refuted selection at its own piece's root and
on the whole team and, for `emdl_valid`, the original formula on the
team. A verdict that fails its replay is a bug and raises RuntimeError
instead of surfacing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import GuardLimitError
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    IDis,
    MDep,
    NegAtom,
    Or,
    _admit,
    _dual,
    _fold,
    count_idis,
    nb_subf,
    render,
    symbols as formula_symbols,
)
from .kripke import KripkeStructure, _team_evaluator
from .team_eval import _TeamEvaluator, _bits

DEFAULT_MAX_DEP_ARITY = 10
DEFAULT_MAX_SELECTIONS = 1 << 20


@dataclass(frozen=True)
class SelectionFunction:
    """One side choice per team-level disjunction occurrence.

    Occurrences are numbered by preorder position in the formula the
    selection was made for; "L" keeps the left side.
    """

    choices: tuple[str, ...]

    def __post_init__(self):
        if any(c not in ("L", "R") for c in self.choices):
            raise ValueError("choices must be 'L' or 'R'")

    def __len__(self) -> int:
        return len(self.choices)

    @property
    def bitstring(self) -> str:
        return "".join("0" if c == "L" else "1" for c in self.choices)


@dataclass(frozen=True)
class Valid:
    """A validity verdict; `witness` is the selection that proved it."""

    witness: SelectionFunction | None = None
    checked: int = 1

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Invalid:
    """A refuted formula with a replayed countermodel team."""

    model: KripkeStructure
    team: frozenset[str] = field(default_factory=frozenset)
    checked: int = 1

    def __bool__(self) -> bool:
        return False


def _select(f: Formula, choices: tuple[str, ...], memo: dict) -> Formula:
    """The plain modal formula that `choices` picks out of `f`.

    Occurrences of `ior` are numbered in preorder, so a subtree's `ior`
    hold consecutive positions. Only the nodes above an `ior` are
    rebuilt: a subtree without `ior` comes back as the same object, and
    `memo`, shared by the selections of `f`, maps a subtree and the
    choices at its positions to its selection, so consecutive
    selections share all they agree on. The side an `ior` drops is
    skipped, its occurrences counted off its cached count. An explicit
    stack stands in for recursion; besides subtrees it holds counts to
    skip, classes to rebuild from the results on `out`, and memo keys
    under which to keep the result on top.
    """
    out: list[Formula] = []
    todo: list = [f]
    pos = 0
    while todo:
        x = todo.pop()
        if type(x) is int:
            pos += x
        elif type(x) is tuple:
            memo[x] = out[-1]
        elif isinstance(x, type):
            if x is And or x is Or:
                right = out.pop()
                out[-1] = x(out[-1], right)
            else:
                out[-1] = x(out[-1])
        elif not x._nior:
            out.append(x)
        else:
            key = (x, choices[pos : pos + x._nior])
            done = memo.get(key)
            if done is not None:
                out.append(done)
                pos += x._nior
                continue
            todo.append(key)
            if isinstance(x, IDis):
                i = pos
                pos += 1
                if choices[i] == "L":
                    todo += (x.right._nior, x.left)
                else:
                    pos += x.left._nior
                    todo.append(x.right)
            elif isinstance(x, (And, Or)):
                todo += (type(x), x.right, x.left)
            else:
                todo += (type(x), x.child)
    return out[0]


def eliminate_idis(f: Formula):
    """Yield (selection, plain formula) pairs, all-left selection first.

    The formula is equivalent to the team-level disjunction of every
    yielded formula. Selections are produced lazily in lexicographic
    order with "L" before "R". Before the first one, the whole formula
    is checked, the `ior` sides no selection keeps included, so anything
    but a formula of modal logic with `ior` is rejected up front.
    """
    _admit(f, "ml-ior")
    memo: dict = {}
    for raw in itertools.product("LR", repeat=count_idis(f)):
        yield SelectionFunction(raw), _select(f, raw, memo)


def emdl_to_mliv(f: Formula, *, max_dep_arity: int | None = DEFAULT_MAX_DEP_ARITY) -> Formula:
    """Unfold modal dependence atoms into splits over value profiles.

    dep(a1, .., an; b) becomes the splitting disjunction over all 2^n
    sign patterns of the arguments, each disjunct asserting the pattern
    pointwise and forcing b constant via a team-level disjunction of b
    and its pointwise negation. The result is modal logic with
    team-level disjunction and no dependence atoms, and it is
    team-equivalent to the input.
    """
    # Nodes, components included, are checked in preorder first: the fold
    # below works children first, and a guard there must not hide a bad
    # node above.
    _admit(f, "emdl")
    duals: dict = {}

    def unfold(g: Formula, kids: list) -> Formula:
        if not isinstance(g, MDep):
            return type(g)(*kids) if kids else g
        n = len(g.args)
        if max_dep_arity is not None and n > max_dep_arity:
            raise GuardLimitError(
                f"dependence atom of arity {n} exceeds the guard of "
                f"{max_dep_arity}; its unfolding has 2^{n} disjuncts"
            )
        constant_target = IDis(g.target, _dual(g.target, duals))
        negated = [_dual(arg, duals) for arg in g.args]
        disjuncts = []
        for pattern in itertools.product((True, False), repeat=n):
            conj: Formula | None = None
            for arg, neg, positive in zip(g.args, negated, pattern):
                lit = arg if positive else neg
                conj = lit if conj is None else And(conj, lit)
            branch = constant_target if conj is None else And(conj, constant_target)
            disjuncts.append(branch)
        out = disjuncts[0]
        for d in disjuncts[1:]:
            out = Or(out, d)
        return out

    return _fold(f, unfold, {})


class _TableauNode:
    """A world of the model a successful tableau branch describes."""

    __slots__ = ("literals", "children")

    def __init__(self, literals: frozenset, children: tuple):
        self.literals = literals
        self.children = children


def _tableau(fs: frozenset, memo: dict) -> _TableauNode | None:
    """Satisfiability of a set of plain modal formulas, as a model or None.

    Conjunctions expand, disjunctions branch left first, and a fully
    expanded set spawns one child per diamond, carrying every boxed
    formula along. Memoizing on the formula set makes repeated subgoals
    free and shares submodels, so the result is a DAG.
    """
    if fs in memo:
        return memo[fs]
    pick = min((x for x in fs if isinstance(x, (And, Or))), key=render, default=None)
    if isinstance(pick, And):
        result = _tableau(fs - {pick} | {pick.left, pick.right}, memo)
    elif isinstance(pick, Or):
        result = _tableau(fs - {pick} | {pick.left}, memo)
        if result is None:
            result = _tableau(fs - {pick} | {pick.right}, memo)
    else:
        positive = {x.sym for x in fs if isinstance(x, Atom)}
        negative = {x.sym for x in fs if isinstance(x, NegAtom)}
        if positive & negative:
            result = None
        else:
            boxed = [x.child for x in fs if isinstance(x, Box)]
            children = []
            result_literals = frozenset(
                {(s, True) for s in positive} | {(s, False) for s in negative}
            )
            result = _TableauNode(result_literals, ())
            for g in sorted((x.child for x in fs if isinstance(x, Diamond)), key=render):
                child = _tableau(frozenset([g, *boxed]), memo)
                if child is None:
                    result = None
                    break
                children.append(child)
            if result is not None:
                result.children = tuple(children)
    memo[fs] = result
    return result


def _ml_valid(f: Formula, memo: dict, duals: dict) -> tuple | None:
    """Refute a plain modal formula: None when it is valid, else the
    piece of a countermodel.

    The tableau runs on the pointwise negation, with a tableau memo and
    a `_dual` memo that may be shared: a memo entry depends on its
    formula set alone, so the selections of one `ior` formula can share
    both and still get the verdicts and pieces fresh memos give.

    An open tableau is a DAG of worlds, numbered breadth first from its
    root, with one bitmask of worlds per symbol (where a positive
    literal puts it) and one successor list per world. The filtration
    refines the partition of all worlds by the mask of every literal and
    modal subformula of the negation, the symbols' first, each modal
    one read from one team evaluator over these worlds (`point_mask`),
    built only when there are two worlds or more, and stops early once
    every world is a class alone. These
    subformulas determine every Boolean combination pointwise, so the
    quotient keeps the truth of every subformula, and it has at most two
    to their number classes. Classes are numbered by their lowest world,
    the root's class first.

    A piece is (class count, class edges, symbol -> classes where it
    holds), with an entry for every symbol of `f`.
    """
    negated = _dual(f, duals)
    tree = _tableau(frozenset([negated]), memo)
    if tree is None:
        return None
    index = {tree: 0}
    order = [tree]
    succ = []
    for node in order:
        for child in node.children:
            if child not in index:
                index[child] = len(order)
                order.append(child)
        succ.append([index[c] for c in node.children])
    val = dict.fromkeys(formula_symbols(f), 0)
    for i, node in enumerate(order):
        for sym, positive in node.literals:
            if positive:
                val[sym] |= 1 << i
    n = len(order)
    classes = [(1 << n) - 1]
    if n > 1:
        ev = _TeamEvaluator(n, val, succ, None, None)
        # Every symbol of `f` has its atom among the non-Boolean
        # subformulas. Once every world is a class alone, the rest can
        # split nothing.
        for m in val.values():
            classes = [part for c in classes for part in (c & m, c & ~m) if part]
        for g in nb_subf(negated):
            if len(classes) == n:
                break
            if type(g) is not Atom:
                m = ev.point_mask(g)
                classes = [part for c in classes for part in (c & m, c & ~m) if part]
        classes.sort(key=lambda c: c & -c)
    edges = []
    for k, c in enumerate(classes):
        image = 0
        for i in _bits(c):
            for j in succ[i]:
                image |= 1 << j
        edges += [(k, l) for l, d in enumerate(classes) if d & image]
    valuation = {
        sym: [k for k, c in enumerate(classes) if c & m] for sym, m in val.items()
    }
    return len(classes), edges, valuation


def _merge(pieces: list[tuple]) -> tuple[KripkeStructure, list[str]]:
    """One structure holding the pieces side by side, and their roots.

    World i of piece j of k is named `"L:" * (k-1-j) + ("R:" if j else
    "") + f"w{i}"`, as in the nested disjoint union
    `(..((P0 + P1) + P2) ..) + P(k-1)`, built here once instead of
    re-prefixed and re-validated at every step. Every symbol of every
    piece is declared, and holds in no world of a piece without it.
    """
    k = len(pieces)
    worlds: list[str] = []
    edges: list[tuple[str, str]] = []
    valuation: dict = {}
    roots = []
    for j, (n, piece_edges, piece_valuation) in enumerate(pieces):
        prefix = "L:" * (k - 1 - j) + ("R:" if j else "")
        names = [f"{prefix}w{i}" for i in range(n)]
        roots.append(names[0])
        worlds += names
        edges += [(names[u], names[v]) for u, v in piece_edges]
        for sym, holds in piece_valuation.items():
            valuation.setdefault(sym, []).extend([names[c] for c in holds])
    return KripkeStructure(worlds, edges, valuation), roots


def ml_valid(f: Formula) -> Valid | Invalid:
    """Validity of a plain modal formula.

    Anything but a plain modal formula raises ValueError. The formula
    is decided as the one selection of an `ior` formula: a tableau
    searches for its pointwise negation, a closed tableau means valid (a
    `Valid` without witness), and an open branch is folded into a
    countermodel of at most two to the number of literal and modal
    subformulas worlds, w0, w1, ... with w0 its root, replayed before
    being returned.
    """
    verdict = _mliv_valid(_admit(f, "ml"), None, None)
    return Valid(witness=None, checked=verdict.checked) if verdict else verdict


def mliv_valid(
    f: Formula, *, max_selections: int | None = DEFAULT_MAX_SELECTIONS
) -> Valid | Invalid:
    """Validity for modal logic with team-level disjunction.

    The formula is valid exactly when one of its selections is valid as
    a plain modal formula. Selections are tried in order, on one shared
    tableau memo, and the first valid one is returned as witness. When
    all fail, their countermodels are merged by disjoint union: the
    combined team refutes every selection at once, hence the formula.
    The merged countermodel is replayed through the team semantics
    before being returned.
    """
    return _mliv_valid(f, max_selections, None)


def _mliv_valid(
    f: Formula, max_selections: int | None, original: Formula | None
) -> Valid | Invalid:
    """`mliv_valid`, replaying an Invalid verdict also against `original`,
    the formula `f` was translated from, when one is given.

    Each distinct refuted selection leaves one piece, and one structure
    is built from all of them (`_merge`). The replay reads that
    structure alone, on one evaluator: each selection must fail at its
    own piece's root and on the team of all roots, and `original` on
    that team.
    """
    m = count_idis(f)
    if max_selections is not None and (1 << m) > max_selections:
        raise GuardLimitError(
            f"{m} team-level disjunctions give 2^{m} selections, over the "
            f"configured limit"
        )
    memo: dict = {}
    duals: dict = {}
    refuted: dict[Formula, tuple] = {}
    for sel, candidate in eliminate_idis(f):
        if candidate in refuted:
            continue
        piece = _ml_valid(candidate, memo, duals)
        if piece is None:
            return Valid(witness=sel, checked=len(refuted) + 1)
        refuted[candidate] = piece
    model, roots = _merge(list(refuted.values()))
    team = frozenset(roots)
    # The formula holds on a team exactly when some selection does, and
    # each selection is flat, so this replay stays linear per selection
    # where evaluating the disjunctions directly would enumerate splits.
    # One evaluator serves every replay: `f` covers the nodes and
    # symbols of every selection, and `original` its own.
    extra = () if original is None else (original,)
    ev, (mask, *root_masks) = _team_evaluator(
        model, (team, *([r] for r in roots)), (f, *extra), None, None
    )
    for g, root_mask in zip(refuted, root_masks):
        if ev.eval(g, root_mask) or ev.eval(g, mask):
            raise RuntimeError("countermodel failed replay; this is a bug")
    for g in extra:
        if ev.eval(g, mask):
            raise RuntimeError("countermodel failed replay; this is a bug")
    return Invalid(model=model, team=team, checked=len(refuted))


def emdl_valid(
    f: Formula,
    *,
    max_dep_arity: int | None = DEFAULT_MAX_DEP_ARITY,
    max_selections: int | None = DEFAULT_MAX_SELECTIONS,
) -> Valid | Invalid:
    """Validity for modal logic with dependence atoms.

    Dependence atoms are unfolded, the unfolding is decided selection by
    selection, and an Invalid verdict is replayed against the original
    formula on the merged countermodel before being returned.
    """
    translated = emdl_to_mliv(f, max_dep_arity=max_dep_arity)
    return _mliv_valid(translated, max_selections, f)

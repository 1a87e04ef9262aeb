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

The selections are searched by counterexample-guided refinement, the
loop of 2QBF solvers (Janota and Marques-Silva, "Abstraction-based
algorithm for 2QBF", SAT 2011). A bitmask holds the selections no
countermodel piece refutes yet, and the least of them gets the next
tableau: closed, it is the witness; open, its piece refutes, in one
bit-parallel pass at the piece's root, that selection and usually many
more. A world refutes a selection pointwise, and a selection is flat,
so the team of the pieces' roots refutes every selection, hence the
formula, once none is left. `checked` counts the tableaux run.

One decision does its shared work once. The `ior` formula is compiled
once, up front, into a post-order program: each selection is read off
it, and the selection filter runs it on each piece. Formula nodes are
interned, so the selections of one formula share every subtree no
`ior` sits in, and with it the values each node keeps (rendering,
symbols, non-Boolean subformulas) and the duals taken of it. Their
tableaux share one index, a bit for each formula met, and one memo of
formula sets as integers over it; an entry depends on its formula set
alone, so the verdicts and countermodels are those of a fresh memo per
selection. A refuted selection leaves a piece on integer worlds, its
filtration computed from the pointwise masks of one team evaluator
over those worlds, and the pieces become one `KripkeStructure` with
string world names, built once per decision with the names a chain of
`disjoint_union`s would give.

Each public entry checks its formula against its logic's row of the
admission table in `formula`. `ml_valid` decides a plain modal formula
as the one selection of an `ior` formula, on the same path.

Every Invalid verdict returned here has been replayed through the team
semantics before being handed out, on one evaluator that reads the
returned structure: each selection that had a tableau at its own
piece's root, and the `ior` formula and, for `emdl_valid`, the
original formula on the team of all roots. A verdict that fails its
replay is a bug and raises RuntimeError instead of surfacing.
"""

from __future__ import annotations

import itertools

from .errors import _check_guard
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    IDis,
    MDep,
    Or,
    _Value,
    _admit,
    _dual,
    _fold,
    count_idis,
    render,
    symbols as formula_symbols,
)
from .kripke import KripkeStructure, _team_evaluator
from .team_eval import _TeamEvaluator, _bits, _full_team_columns, _refine

DEFAULT_MAX_DEP_ARITY = 10
DEFAULT_MAX_SELECTIONS = 1 << 20


class SelectionFunction(_Value):
    """One side choice per team-level disjunction occurrence.

    Occurrences are numbered by preorder position in the formula the
    selection was made for; "L" keeps the left side.
    """

    __slots__ = _fields = __match_args__ = ("choices",)

    def __init__(self, choices: tuple[str, ...]):
        choices = tuple(choices)
        if any(c not in ("L", "R") for c in choices):
            raise ValueError("choices must be 'L' or 'R'")
        object.__setattr__(self, "choices", choices)

    def __len__(self) -> int:
        return len(self.choices)

    @property
    def bitstring(self) -> str:
        return "".join("0" if c == "L" else "1" for c in self.choices)


class Valid(_Value):
    """A validity verdict; `witness` is the selection that proved it."""

    __slots__ = _fields = __match_args__ = ("witness", "checked")

    def __init__(self, witness: SelectionFunction | None = None, checked: int = 1):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "checked", checked)

    def __bool__(self) -> bool:
        return True


class Invalid(_Value):
    """A refuted formula with a replayed countermodel team."""

    __slots__ = _fields = __match_args__ = ("model", "team", "checked")

    def __init__(
        self, model: KripkeStructure, team: frozenset[str] = frozenset(), checked: int = 1
    ):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "team", team)
        object.__setattr__(self, "checked", checked)

    def __bool__(self) -> bool:
        return False


def _program(f: Formula) -> list:
    """The steps of the `ior` formula `f`, one per occurrence of a node,
    in post-order from an explicit stack, the root's last: `(None, g,
    0, 0)` for a subtree g without `ior`, and for a node with `ior`,
    whose first `ior` is at position i, `(IDis, i, a, b)`, `(And, i, a,
    b)`, `(Or, i, a, b)`, `(Diamond, i, a, 0)` or `(Box, i, a, 0)`,
    where a and b number the steps of its parts. `_select` reads a
    selection off it and `_holding` runs it on a piece.
    """
    program: list = []
    done: list = []  # the steps of the finished subtrees, in order
    todo: list = [(f, 0, False)]
    while todo:
        x, pos, ready = todo.pop()
        cls = type(x)
        if not x._nior:
            done.append(len(program))
            program.append((None, x, 0, 0))
        elif ready:
            b = done.pop() if cls is not Diamond and cls is not Box else 0
            program.append((cls, pos, done.pop(), b))
            done.append(len(program) - 1)
        elif cls is Diamond or cls is Box:
            todo += ((x, pos, True), (x.child, pos, False))
        else:
            first = pos + (cls is IDis)
            todo += ((x, pos, True), (x.right, first + x.left._nior, False), (x.left, first, False))
    return program


def _select(program: list, choices: tuple[str, ...]) -> Formula:
    """The plain modal formula that `choices` picks out of the `ior`
    formula compiled to `program` (`_program`).

    A subtree without `ior` comes back as itself, an `ior` as the side
    its choice picks, and every other node is rebuilt from its parts.
    Nodes are interned, so the selections of one formula share every
    subtree they agree on.
    """
    out: list[Formula] = []
    for cls, x, a, b in program:
        if cls is None:
            out.append(x)
        elif cls is IDis:
            out.append(out[b] if choices[x] == "R" else out[a])
        elif cls is And or cls is Or:
            out.append(cls(out[a], out[b]))
        else:
            out.append(cls(out[a]))
    return out[-1]


def eliminate_idis(f: Formula):
    """Yield (selection, plain formula) pairs, all-left selection first.

    The formula is equivalent to the team-level disjunction of every
    yielded formula. Selections are produced lazily in lexicographic
    order with "L" before "R". Before the first one, the whole formula
    is checked, the `ior` sides no selection keeps included, so anything
    but a formula of modal logic with `ior` is rejected up front.
    """
    _admit(f, "ml-ior")
    program = _program(f)
    for raw in itertools.product("LR", repeat=count_idis(f)):
        yield SelectionFunction(raw), _select(program, raw)


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
    # node above. It visits only the dependence atoms and the nodes above
    # them: a subtree without one is its own unfolding, and a component
    # is read only as itself and through its dual.
    _admit(f, "emdl")
    duals: dict = {}

    def unfold(g: Formula, kids: tuple) -> Formula:
        if type(g) is not MDep:
            return type(g)(*kids)
        n = len(g.args)
        _check_guard("max_dep_arity", n, max_dep_arity, "arguments of a dependence atom")
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

    return _fold(f, unfold, {}, MDep._bit)


class _TableauNode:
    """A world of the model a successful tableau branch describes."""

    __slots__ = ("literals", "children")

    def __init__(self, literals: frozenset, children: tuple):
        self.literals = literals
        self.children = children


class _Index:
    """The formulas the tableaux of one decision have met, one bit each.

    A formula set is the int of its members' bits, and `bit` maps each
    formula to its own. For the formula of bit 1 << i, `form[i]` is the
    formula, `text[i]` its rendering and `part[i]` what the tableau
    reads of it, filled on first reading (`read`): the bits of both
    conjuncts as one int, the pair of the disjuncts' bits, the child's
    bit for a box, (the child's rendering, its bit) for a diamond, and
    (symbol, polarity) for a literal. `junctions` is the mask of the
    conjunctions and disjunctions.
    """

    __slots__ = ("bit", "form", "text", "part", "junctions")

    def __init__(self):
        self.bit: dict = {}
        self.form: list = []
        self.text: list = []
        self.part: list = []
        self.junctions = 0

    def enter(self, fs) -> int:
        """The set `fs` as an int. Rendering its members renders every
        formula the tableau can meet from it."""
        s = 0
        for f in fs:
            render(f)
            s |= self.of(f)
        return s

    def of(self, g: Formula) -> int:
        """The bit of `g`, a new one if `g` was not met yet."""
        b = self.bit.get(g)
        if b is None:
            b = self.bit[g] = 1 << len(self.form)
            self.form.append(g)
            self.text.append(g._text)
            self.part.append(None)
            if type(g) is And or type(g) is Or:
                self.junctions |= b
        return b

    def read(self, i: int):
        """`part[i]`, filled now; its parts get their bits."""
        g = self.form[i]
        cls = type(g)
        if cls is And:
            p = self.of(g.left) | self.of(g.right)
        elif cls is Or:
            p = (self.of(g.left), self.of(g.right))
        elif cls is Diamond:
            p = (g.child._text, self.of(g.child))
        elif cls is Box:
            p = self.of(g.child)
        else:
            p = (g.sym, cls is Atom)
        self.part[i] = p
        return p


def _tableau(fs: frozenset, memo: dict) -> _TableauNode | None:
    """Satisfiability of a set of plain modal formulas, as a model or None.

    The pick is the least rendering among the set's conjunctions and
    disjunctions: a conjunction expands, a disjunction branches left
    first. A fully expanded set with a clash of literals is closed;
    otherwise it spawns one child per diamond, in the order of their
    children's renderings, each carrying every boxed formula along.

    Sets are ints over the bits of `memo[None]`, an `_Index`, and every
    set met is memoized, so repeated subgoals are free and submodels are
    shared: the result is a DAG. An explicit stack stands in for
    recursion: `pending` lists the sets awaiting the result of the set
    `s` under way, and a frame is an open disjunction, (the sets
    awaiting it, its right branch), or a node whose children are under
    way, [the sets awaiting it, the node, the child sets still to do,
    the children so far].
    """
    index = memo.get(None)
    if index is None:
        index = memo[None] = _Index()
    s = index.enter(fs)
    text, part, junctions = index.text, index.part, index.junctions
    frames: list = []
    pending: list = []
    while True:
        # expand `s` until its result is known
        while True:
            result = memo.get(s, memo)  # `memo` itself: `s` not met yet
            if result is not memo:
                break
            pending.append(s)
            c = s & junctions
            if c:
                pick = c & -c
                least = text[pick.bit_length() - 1]
                c ^= pick
                while c:
                    low = c & -c
                    c ^= low
                    t = text[low.bit_length() - 1]
                    if t < least:
                        pick, least = low, t
                s ^= pick
                i = pick.bit_length() - 1
                branches = part[i]
                if branches is None:
                    branches = index.read(i)
                    junctions = index.junctions
                if type(branches) is int:
                    s |= branches
                    continue
                frames.append((pending, s | branches[1]))
                pending = []
                s |= branches[0]
                continue
            # saturated: literals, diamonds and boxes are left
            lits, kids, boxed = [], [], 0
            for i in _bits(s):
                p = part[i]
                if p is None:
                    p = index.read(i)
                    junctions = index.junctions
                if type(p) is int:
                    boxed |= p
                elif type(p[0]) is str:
                    kids.append(p)
                else:
                    lits.append(p)
            if len({sym for sym, _ in lits}) < len(lits):
                result = None
                break
            node = _TableauNode(frozenset(lits), ())
            if not kids:
                result = node
                break
            kids.sort()
            todo = [child | boxed for _, child in reversed(kids)]
            frames.append([pending, node, todo, []])
            pending = []
            s = todo.pop()
        # hand `result` out until a frame has more to do
        while True:
            for t in pending:
                memo[t] = result
            if not frames:
                return result
            frame = frames.pop()
            if type(frame) is tuple:
                pending, right = frame
                if result is None:
                    s = right
                    break
            else:
                pending, node, todo, children = frame
                if result is not None:
                    children.append(result)
                    if todo:
                        frames.append(frame)
                        pending = []
                        s = todo.pop()
                        break
                    node.children = tuple(children)
                    result = node


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
    refines the partition of all worlds by the mask of every subformula
    of the negation that one team evaluator over these worlds computed
    for it (`point_mask`), built only when there are two worlds or more,
    and stops early once every world is a class alone. Two worlds agree
    on every subformula exactly when they agree on the non-Boolean ones
    (`nb_subf`), so the quotient keeps the truth of every subformula, and
    it has at most two to their number classes. Classes are numbered by
    their lowest world, the root's class first.

    A piece is (the successor classes of each class, symbol -> mask of
    the classes where it holds), with an entry for every symbol of `f`.
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
        ev = _TeamEvaluator(n, val, succ, None)
        ev.point_mask(negated)
        classes = sorted(_refine(classes, ev.flat.values(), n), key=lambda c: c & -c)
    class_succ = []
    for c in classes:
        image = 0
        for i in _bits(c):
            for j in succ[i]:
                image |= 1 << j
        class_succ.append([l for l, d in enumerate(classes) if d & image])
    valuation = {
        sym: sum(1 << k for k, c in enumerate(classes) if c & m) for sym, m in val.items()
    }
    return class_succ, valuation


def _merge(pieces: list[tuple], syms) -> tuple[KripkeStructure, list[str]]:
    """One structure holding the pieces side by side, and their roots.

    World i of piece j of k is named `"L:" * (k-1-j) + ("R:" if j else
    "") + f"w{i}"`, as in the nested disjoint union
    `(..((P0 + P1) + P2) ..) + P(k-1)`, built here once instead of
    re-prefixed and re-validated at every step. Every symbol of `syms`
    and of every piece is declared, and holds in no world of a piece
    without it.
    """
    k = len(pieces)
    worlds: list[str] = []
    edges: list[tuple[str, str]] = []
    valuation: dict = {sym: [] for sym in syms}
    roots = []
    for j, (succ, piece_valuation) in enumerate(pieces):
        prefix = "L:" * (k - 1 - j) + ("R:" if j else "")
        names = [f"{prefix}w{i}" for i in range(len(succ))]
        roots.append(names[0])
        worlds += names
        edges += [(names[u], names[v]) for u, vs in enumerate(succ) for v in vs]
        for sym, holds in piece_valuation.items():
            valuation.setdefault(sym, []).extend([names[c] for c in _bits(holds)])
    return KripkeStructure(worlds, edges, valuation), roots


def _holding(program: list, piece: tuple, syms, cols: dict, full: int) -> int:
    """The selections of the `ior` formula compiled to `program`
    (`_program`) that hold pointwise at the root of `piece`, as a mask
    over selection numbers (bit s for selection s).

    Each node gets one selection mask per world of the piece: `ior` at
    position i keeps its left side's mask where column `cols[i]` is 0
    and its right side's where it is 1, `&` and `|` are AND and OR, and
    the diamond and the box are OR and AND over the successors. A
    subtree without `ior` is the same in every selection, so its mask
    at a world is `full` or 0 by its pointwise truth there, read from
    one team evaluator over the piece. Symbols of `syms` the piece
    lacks are false everywhere, as in the merged structure.
    """
    succ, valuation = piece
    n = len(succ)
    ev = _TeamEvaluator(n, {**dict.fromkeys(syms, 0), **valuation}, succ, None)
    vals: list = []
    for cls, x, a, b in program:
        if cls is None:
            m = ev.point_mask(x)
            vals.append([full if m >> w & 1 else 0 for w in range(n)])
        elif cls is IDis:
            r = cols[x]
            vals.append([u & ~r | v & r for u, v in zip(vals[a], vals[b])])
        elif cls is And:
            vals.append([u & v for u, v in zip(vals[a], vals[b])])
        elif cls is Or:
            vals.append([u | v for u, v in zip(vals[a], vals[b])])
        else:
            child = vals[a]
            out = []
            for vs in succ:
                if cls is Diamond:
                    acc = 0
                    for v in vs:
                        acc |= child[v]
                else:
                    acc = full
                    for v in vs:
                        acc &= child[v]
                out.append(acc)
            vals.append(out)
    return vals[-1][0]


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
    a plain modal formula, and the least such selection, in the order
    of `eliminate_idis`, is returned as witness. The search is guided
    by counterexamples: the next tableau runs on the least selection
    that no countermodel piece found so far refutes at its root, so
    `checked` counts the tableaux run, not the selections. When none is
    left, the pieces are merged by disjoint union, and the team of their
    roots refutes every selection at once, hence the formula. The
    merged countermodel is replayed through the team semantics before
    being returned.

    A formula with more than `max_selections` selections is refused
    with GuardLimitError. `None` lifts the refusal, but the search
    still holds masks of 2^m bits for m `ior`, so past about 30 `ior`
    it runs out of memory.
    """
    return _mliv_valid(_admit(f, "ml-ior"), max_selections, None)


def _mliv_valid(
    f: Formula, max_selections: int | None, original: Formula | None
) -> Valid | Invalid:
    """`mliv_valid`, replaying an Invalid verdict also against `original`,
    the formula `f` was translated from, when one is given.

    The selections of the m `ior` of `f` are numbers s below 2^m, the
    i-th `ior` in preorder taking its right side when bit m-1-i of s is
    1: the order of `eliminate_idis`, lexicographic with "L" first. A
    bitmask `open` holds the selections not yet refuted. Each round
    runs a tableau on the least open selection. A closed tableau makes
    it the witness, since every smaller one is refuted. An open one
    leaves a piece, and the selections that fail at the piece's root
    leave `open` (`_holding`); with no other selection open, that pass
    is skipped, so a formula without `ior` does no work beyond its one
    tableau.

    One structure is built from the pieces (`_merge`), with every
    symbol of `f` and `original` declared. The replay reads that
    structure alone, on one evaluator: each selection that had a
    tableau must fail at its own piece's root, and `f` and `original`
    on the team of all roots. A check that repeats another, as with one
    root and no `ior`, runs once.
    """
    m = count_idis(f)
    _check_guard("max_selections", 1 << m, max_selections, "selections")
    syms = formula_symbols(f)
    if original is not None:
        syms |= formula_symbols(original)
    program = _program(f)
    memo: dict = {}
    duals: dict = {}
    refuted: dict[Formula, tuple] = {}
    s, open_, cols = 0, None, None
    while True:
        choices = tuple("R" if s >> (m - 1 - i) & 1 else "L" for i in range(m))
        candidate = _select(program, choices)
        piece = _ml_valid(candidate, memo, duals)
        if piece is None:
            return Valid(witness=SelectionFunction(choices), checked=len(refuted) + 1)
        refuted[candidate] = piece
        if open_ is None:
            full = open_ = (1 << (1 << m)) - 1
        open_ ^= 1 << s
        if open_:
            if cols is None:
                cols = _full_team_columns(range(m))
            open_ &= _holding(program, piece, syms, cols, full)
        if not open_:
            break
        s = (open_ & -open_).bit_length() - 1
    model, roots = _merge(list(refuted.values()), syms)
    team = frozenset(roots)
    extra = () if original is None else (original,)
    ev, (mask, *root_masks) = _team_evaluator(
        model, (team, *([r] for r in roots)), (f, *extra), None
    )
    checks = dict.fromkeys([*zip(refuted, root_masks), *((g, mask) for g in (f, *extra))])
    for g, at in checks:
        if ev.eval(g, at):
            raise RuntimeError("countermodel failed replay; this is a bug")
    return Invalid(model=model, team=team, checked=len(refuted))


def emdl_valid(
    f: Formula,
    *,
    max_dep_arity: int | None = DEFAULT_MAX_DEP_ARITY,
    max_selections: int | None = DEFAULT_MAX_SELECTIONS,
) -> Valid | Invalid:
    """Validity for modal logic with dependence atoms.

    Dependence atoms are unfolded, and the unfolding is decided as by
    `mliv_valid`: a tableau on the least selection no countermodel piece
    refutes yet, until one closes, giving the least valid selection as
    witness, or none is left. `checked` counts the tableaux run. An
    Invalid verdict is replayed against the unfolding and the original
    formula on the team of the pieces' roots before being returned.

    `max_selections` bounds the selections of the unfolding as in
    `mliv_valid`; `None` lifts the refusal, but past about 30 `ior`
    the 2^m-bit selection masks run out of memory.
    """
    translated = emdl_to_mliv(f, max_dep_arity=max_dep_arity)
    return _mliv_valid(translated, max_selections, f)

"""Independent reference implementations and corpus generators.

Almost everything here recomputes semantics straight from the
definitions and shares no evaluation code with the package: splits
enumerate subsets explicitly, successor teams are checked against their
two defining conditions over every subset of worlds, and the vectorized
oracles propagate whole satisfying-team sets per structure. The
exceptions say what they share. `pd_valid_bruteforce` checks the
package's team evaluator on every team to cross-check that validity
needs only the team of all assignments. The reference countermodels for
`ml_valid` and `mliv_valid` take the package's tableau as given and
rebuild everything after it on string worlds. `reference_tableau` and
`reference_holding` judge the package's tableau and selection filter:
they are the same procedures as plain recursion over frozensets and
nodes, building the package's `_TableauNode` and reading masks from its
team evaluator. `dqbf_least_witness_kleene`
runs the package's three-valued matrix evaluation under the plain prefix
search, without `dqbf_eval`'s propagation. Corpus generators enumerate
formula spaces bottom up by AST size.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    Formula,
    Fragment,
    GuardLimitError,
    IDis,
    KripkeStructure,
    MDep,
    NegAtom,
    Not,
    Or,
    PropSymbol,
    PropTeam,
    count_idis,
    is_pure_ml,
    render,
    symbols,
    walk,
)
from teamlogic.formula import _admit, _as_symbol
from teamlogic.team_eval import _TeamEvaluator
from teamlogic.translate import _TableauNode


# ---------------------------------------------------------------------------
# brute-force propositional team truth


def brute_pt(team: PropTeam, f: Formula) -> bool:
    idx = {s: i for i, s in enumerate(team.domain)}
    return _bpt(frozenset(team.rows), f, idx)


def _bpt(rows: frozenset, f: Formula, idx: dict) -> bool:
    if isinstance(f, Atom):
        return all(r[idx[f.sym]] == 1 for r in rows)
    if isinstance(f, NegAtom):
        return all(r[idx[f.sym]] == 0 for r in rows)
    if isinstance(f, And):
        return _bpt(rows, f.left, idx) and _bpt(rows, f.right, idx)
    if isinstance(f, Dep):
        for r1 in rows:
            for r2 in rows:
                if all(r1[idx[a]] == r2[idx[a]] for a in f.args) and (
                    r1[idx[f.target]] != r2[idx[f.target]]
                ):
                    return False
        return True
    if isinstance(f, Or):
        ordered = sorted(rows)
        for k in range(len(ordered) + 1):
            for combo in itertools.combinations(ordered, k):
                part = frozenset(combo)
                if _bpt(part, f.left, idx) and _bpt(rows - part, f.right, idx):
                    return True
        return False
    raise ValueError(f"unexpected node {type(f).__name__}")


# ---------------------------------------------------------------------------
# brute-force modal team truth


def _succ_of(m: KripkeStructure, w: str) -> frozenset:
    return frozenset(v for u, v in m.edges if u == w)


def _bml_point(m: KripkeStructure, w: str, f: Formula) -> bool:
    if isinstance(f, Atom):
        return w in m.valuation[f.sym]
    if isinstance(f, NegAtom):
        return w not in m.valuation[f.sym]
    if isinstance(f, And):
        return _bml_point(m, w, f.left) and _bml_point(m, w, f.right)
    if isinstance(f, Or):
        return _bml_point(m, w, f.left) or _bml_point(m, w, f.right)
    if isinstance(f, Diamond):
        return any(_bml_point(m, v, f.child) for v in _succ_of(m, w))
    if isinstance(f, Box):
        return all(_bml_point(m, v, f.child) for v in _succ_of(m, w))
    raise ValueError(f"unexpected node {type(f).__name__}")


def brute_mt(m: KripkeStructure, team, f: Formula) -> bool:
    return _bmt(m, frozenset(team), f)


def _subsets(items):
    items = sorted(items)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


def _bmt(m: KripkeStructure, team: frozenset, f: Formula) -> bool:
    if isinstance(f, Atom):
        return all(w in m.valuation[f.sym] for w in team)
    if isinstance(f, NegAtom):
        return all(w not in m.valuation[f.sym] for w in team)
    if isinstance(f, And):
        return _bmt(m, team, f.left) and _bmt(m, team, f.right)
    if isinstance(f, IDis):
        return _bmt(m, team, f.left) or _bmt(m, team, f.right)
    if isinstance(f, Or):
        for part in _subsets(team):
            if _bmt(m, part, f.left) and _bmt(m, team - part, f.right):
                return True
        return False
    if isinstance(f, Diamond):
        for t2 in _subsets(m.worlds):
            image = frozenset(v for w in team for v in _succ_of(m, w))
            if not t2 <= image:
                continue
            if not all(_succ_of(m, w) & t2 for w in team):
                continue
            if _bmt(m, t2, f.child):
                return True
        return False
    if isinstance(f, Box):
        image = frozenset(v for w in team for v in _succ_of(m, w))
        return _bmt(m, image, f.child)
    if isinstance(f, MDep):
        for w1 in team:
            for w2 in team:
                if all(
                    _bml_point(m, w1, a) == _bml_point(m, w2, a) for a in f.args
                ) and (_bml_point(m, w1, f.target) != _bml_point(m, w2, f.target)):
                    return False
        return True
    raise ValueError(f"unexpected node {type(f).__name__}")


def _modal_depth(f: Formula) -> int:
    if isinstance(f, (Diamond, Box)):
        return 1 + _modal_depth(f.child)
    if isinstance(f, (And, Or, IDis)):
        return max(_modal_depth(f.left), _modal_depth(f.right))
    if isinstance(f, MDep):
        return max(_modal_depth(g) for g in (*f.args, f.target))
    return 0


def bisim_representatives(m: KripkeStructure, team, f: Formula) -> frozenset:
    """One point of `team` per class of points d-bisimilar over `f`'s
    symbols, where d is the modal depth of `f`.

    Team truth of a modal dependence formula of depth d is invariant
    under team d-bisimulation (Hella, Luosto, Sano and Virtema, "The
    expressive power of modal dependence logic", AiML 2014), and a team
    is team-bisimilar to the team of its representatives. So `brute_mt`
    on the representatives judges a team too wide to split directly.
    """
    syms = sorted(symbols(f), key=lambda s: s.name)
    val = {w: tuple(w in m.valuation[s] for s in syms) for w in m.worlds}
    kind = dict(val)
    for _ in range(_modal_depth(f)):
        kind = {w: (val[w], frozenset(kind[v] for v in _succ_of(m, w))) for w in m.worlds}
    reps = {}
    for w in sorted(team):
        reps.setdefault(kind[w], w)
    return frozenset(reps.values())


def reference_bisimulation(m1: KripkeStructure, m2: KripkeStructure) -> frozenset:
    """The largest bisimulation between `m1` and `m2`, as the pairs
    (world of `m1`, world of `m2`) it relates.

    A greatest fixpoint on pairs of worlds, with no partition: it starts
    from every pair that agrees on every symbol of either valuation, a
    symbol undeclared on one side false there, and drops a pair while
    a successor on one side has no partner among the successors on the
    other.
    """
    vocab = set(m1.valuation) | set(m2.valuation)

    def label(m: KripkeStructure, w: str) -> frozenset:
        return frozenset(s for s in vocab if w in m.valuation.get(s, ()))

    rel = {(u, v) for u in m1.worlds for v in m2.worlds if label(m1, u) == label(m2, v)}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(rel):
            su, sv = _succ_of(m1, u), _succ_of(m2, v)
            forth = all(any((u2, v2) in rel for v2 in sv) for u2 in su)
            back = all(any((u2, v2) in rel for u2 in su) for v2 in sv)
            if not (forth and back):
                rel.discard((u, v))
                changed = True
    return frozenset(rel)


def reference_team_bisimilar(rel: frozenset, team1, team2) -> bool:
    """Whether every world of each team has a partner in the other
    under `rel`, a `reference_bisimulation`."""
    return all(any((u, v) in rel for v in team2) for u in team1) and all(
        any((u, v) in rel for u in team1) for v in team2
    )


# ---------------------------------------------------------------------------
# admission and negation normal form by plain recursion over the fields


def walk_foreign(f: Formula, admitted) -> Formula | None:
    """The first node of `f` in preorder whose class is not in the set
    `admitted`, or None: a walk over every node, components included."""
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) not in admitted:
            return node
        if isinstance(node, (And, Or, IDis)):
            stack += (node.right, node.left)
        elif isinstance(node, (Diamond, Box, Not)):
            stack.append(node.child)
        elif isinstance(node, MDep):
            stack += (node.target, *reversed(node.args))
    return None


def admission_refusal(f: Formula, name: str, admitted) -> str | None:
    """The message a logic called `name` admitting the classes `admitted`
    refuses `f` with, or None if it admits `f`."""
    node = walk_foreign(f, admitted)
    if node is None:
        return None
    if type(node) is Dep and Diamond in admitted:
        return "propositional dependence atoms do not apply to worlds; use a modal dependence atom"
    return f"not a {name} formula: {type(node).__name__}"


def reference_classify(f: Formula) -> Fragment:
    """`classify` by a preorder walk over every node, components included."""
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
        raise ValueError("no fragment covers 'ior' combined with dependence atoms")
    if has_rich_dep:
        return Fragment.EMDL
    if has_dep:
        return Fragment.MDL if has_modal else Fragment.PD
    if has_idis:
        return Fragment.ML_IDIS
    if has_modal:
        return Fragment.ML
    return Fragment.PL


_REFERENCE_DUALS = {Atom: NegAtom, NegAtom: Atom, And: Or, Or: And, Diamond: Box, Box: Diamond}


def reference_nnf(f: Formula, negated: bool = False) -> Formula:
    """The negation normal form of `f`, negated if `negated`, by recursion;
    ValueError for a negated dependence atom or `ior`, the leftmost first."""
    cls = type(f)
    if cls is Not:
        return reference_nnf(f.child, not negated)
    if negated and cls not in _REFERENCE_DUALS:
        if cls is IDis:
            raise ValueError("'ior' cannot be negated")
        raise ValueError("dependence atoms cannot be negated")
    out = _REFERENCE_DUALS[cls] if negated else cls
    if cls in (Atom, NegAtom):
        return out(f.sym)
    if cls in (And, Or, IDis):
        left = reference_nnf(f.left, negated)
        return out(left, reference_nnf(f.right, negated))
    if cls in (Diamond, Box):
        return out(reference_nnf(f.child, negated))
    if cls is MDep:
        return MDep(tuple(reference_nnf(a) for a in f.args), reference_nnf(f.target))
    return f


# ---------------------------------------------------------------------------
# seeded random generators


def random_dep_free_prop(rng: random.Random, syms, budget: int) -> Formula:
    if budget <= 2 or rng.random() < 0.25:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    left_budget = rng.randint(1, budget - 2)
    op = And if rng.random() < 0.5 else Or
    return op(
        random_dep_free_prop(rng, syms, left_budget),
        random_dep_free_prop(rng, syms, budget - 1 - left_budget),
    )


def random_pd_formula(rng: random.Random, syms, budget: int) -> Formula:
    if budget <= 2 or rng.random() < 0.25:
        if rng.random() < 0.4:
            arity = rng.randint(0, min(3, len(syms)))
            args = tuple(PropSymbol(rng.choice(syms)) for _ in range(arity))
            return Dep(args, PropSymbol(rng.choice(syms)))
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    left_budget = rng.randint(1, budget - 2)
    op = And if rng.random() < 0.5 else Or
    return op(
        random_pd_formula(rng, syms, left_budget),
        random_pd_formula(rng, syms, budget - 1 - left_budget),
    )


def random_ml_formula(rng: random.Random, syms, budget: int, depth: int) -> Formula:
    if budget <= 1 or rng.random() < 0.2:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    if depth > 0 and rng.random() < 0.35:
        op = Diamond if rng.random() < 0.5 else Box
        return op(random_ml_formula(rng, syms, budget - 1, depth - 1))
    left_budget = max(1, rng.randint(1, max(1, budget - 2)))
    op = And if rng.random() < 0.5 else Or
    return op(
        random_ml_formula(rng, syms, left_budget, depth),
        random_ml_formula(rng, syms, max(1, budget - 1 - left_budget), depth),
    )


def random_emdl_formula(rng: random.Random, syms, budget: int, depth: int) -> Formula:
    if rng.random() < 0.2:
        arity = rng.randint(0, 2)
        args = tuple(
            random_ml_formula(rng, syms, 2, min(1, depth)) for _ in range(arity)
        )
        target = random_ml_formula(rng, syms, 2, min(1, depth))
        return MDep(args, target)
    if budget <= 1:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    if depth > 0 and rng.random() < 0.3:
        op = Diamond if rng.random() < 0.5 else Box
        return op(random_emdl_formula(rng, syms, budget - 1, depth - 1))
    if rng.random() < 0.25:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    left_budget = max(1, rng.randint(1, max(1, budget - 2)))
    op = And if rng.random() < 0.5 else Or
    return op(
        random_emdl_formula(rng, syms, left_budget, depth),
        random_emdl_formula(rng, syms, max(1, budget - 1 - left_budget), depth),
    )


def random_mliv_formula(rng: random.Random, syms, budget: int, depth: int) -> Formula:
    if budget <= 1:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        op = Diamond if rng.random() < 0.5 else Box
        return op(random_mliv_formula(rng, syms, budget - 1, depth - 1))
    if roll < 0.45:
        sym = PropSymbol(rng.choice(syms))
        return Atom(sym) if rng.random() < 0.5 else NegAtom(sym)
    left_budget = max(1, rng.randint(1, max(1, budget - 2)))
    op = rng.choice([And, Or, IDis])
    return op(
        random_mliv_formula(rng, syms, left_budget, depth),
        random_mliv_formula(rng, syms, max(1, budget - 1 - left_budget), depth),
    )


def random_team(rng: random.Random, syms, max_rows: int) -> PropTeam:
    domain = tuple(sorted(PropSymbol(s) for s in syms))
    universe = list(itertools.product((0, 1), repeat=len(domain)))
    rng.shuffle(universe)
    return PropTeam(domain, universe[: rng.randint(0, min(max_rows, len(universe)))])


def random_model(
    rng: random.Random, n_worlds: int, syms, edge_p: float = 0.4
) -> KripkeStructure:
    worlds = [f"u{i}" for i in range(n_worlds)]
    edges = [
        (a, b) for a in worlds for b in worlds if rng.random() < edge_p
    ]
    valuation = {
        s: frozenset(w for w in worlds if rng.random() < 0.5) for s in syms
    }
    return KripkeStructure(worlds, edges, valuation)


def random_subteam(rng: random.Random, pool) -> frozenset:
    return frozenset(w for w in pool if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# exhaustive enumeration of propositional team formulas


def pd_leaves(syms: tuple[PropSymbol, ...]) -> list[Formula]:
    leaves: list[Formula] = []
    for s in syms:
        leaves.append(Atom(s))
        leaves.append(NegAtom(s))
    for target in syms:
        leaves.append(Dep((), target))
    for arity in (1, 2, 3):
        for args in itertools.combinations(syms, arity):
            for target in syms:
                leaves.append(Dep(args, target))
    return leaves


def _first_occurrence(f: Formula) -> tuple[PropSymbol, ...]:
    if isinstance(f, (Atom, NegAtom)):
        return (f.sym,)
    if isinstance(f, Dep):
        seen: list[PropSymbol] = []
        for s in (*f.args, f.target):
            if s not in seen:
                seen.append(s)
        return tuple(seen)
    raise ValueError("composite nodes are handled by the enumerator")


def enumerate_pd(max_size: int, syms: tuple[PropSymbol, ...]):
    """All formulas up to `max_size` with symbols in canonical first-use
    order, each the representative of its renaming orbit. Dependence
    atom arguments are kept sorted; argument order never changes truth.

    Parts up to max_size - 2 are materialized; the top two sizes are
    streamed, and their non-canonical composites are never constructed.
    """
    from teamlogic import size as ast_size

    canonical_prefixes = {tuple(syms[:k]) for k in range(len(syms) + 1)}
    by_size: dict[int, list[tuple[Formula, tuple]]] = {}
    for s in range(1, max_size + 1):
        store = s <= max_size - 2
        entries: list[tuple[Formula, tuple]] = []
        for leaf in pd_leaves(syms):
            if ast_size(leaf) == s:
                fo = _first_occurrence(leaf)
                if store:
                    entries.append((leaf, fo))
                if fo in canonical_prefixes:
                    yield leaf
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < 1 or s1 not in by_size or s2 not in by_size:
                continue
            for left, fo_left in by_size[s1]:
                for right, fo_right in by_size[s2]:
                    fo = fo_left + tuple(x for x in fo_right if x not in fo_left)
                    canon = fo in canonical_prefixes
                    if not (store or canon):
                        continue
                    for op in (And, Or):
                        f = op(left, right)
                        if store:
                            entries.append((f, fo))
                        if canon:
                            yield f
        if store:
            by_size[s] = entries


# ---------------------------------------------------------------------------
# exhaustive enumeration of modal formulas with dependence atoms


def ml_component_pool(syms, max_size: int, max_depth: int):
    """Pure modal formulas by AST size, with their modal depth."""
    by_size: dict[int, list[tuple[Formula, int]]] = {}
    for s in range(1, max_size + 1):
        entries: list[tuple[Formula, int]] = []
        if s == 1:
            for name in syms:
                sym = PropSymbol(name)
                entries.append((Atom(sym), 0))
                entries.append((NegAtom(sym), 0))
        if s - 1 in by_size:
            for g, d in by_size[s - 1]:
                if d + 1 <= max_depth:
                    entries.append((Diamond(g), d + 1))
                    entries.append((Box(g), d + 1))
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < 1 or s1 not in by_size or s2 not in by_size:
                continue
            for left, dl in by_size[s1]:
                for right, dr in by_size[s2]:
                    entries.append((And(left, right), max(dl, dr)))
                    entries.append((Or(left, right), max(dl, dr)))
        by_size[s] = entries
    return by_size


def enumerate_emdl(
    max_size: int,
    syms,
    *,
    max_depth: int = 1,
    max_deps: int = 2,
    max_arity: int = 1,
    component_max_size: int = 2,
):
    """All EMDL formulas up to `max_size` within the stated bounds.

    Dependence atom components come from the pure-ML pool bounded by
    `component_max_size`; modal depth counts nesting inside components.
    """
    from teamlogic import size as ast_size

    comp = ml_component_pool(syms, component_max_size, max_depth)
    comp_flat = [entry for s in sorted(comp) for entry in comp[s]]
    by_size: dict[int, list[tuple[Formula, int, int]]] = {}
    for s in range(1, max_size + 1):
        entries: list[tuple[Formula, int, int]] = []
        if s == 1:
            for name in syms:
                sym = PropSymbol(name)
                entries.append((Atom(sym), 0, 0))
                entries.append((NegAtom(sym), 0, 0))
        for target, dt in comp_flat:
            if max_arity >= 0 and ast_size(MDep((), target)) == s:
                entries.append((MDep((), target), dt, 1))
            if max_arity >= 1:
                for arg, da in comp_flat:
                    node = MDep((arg,), target)
                    if ast_size(node) == s:
                        entries.append((node, max(da, dt), 1))
        if s - 1 in by_size:
            for g, d, nd in by_size[s - 1]:
                if d + 1 <= max_depth:
                    entries.append((Diamond(g), d + 1, nd))
                    entries.append((Box(g), d + 1, nd))
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < 1 or s1 not in by_size or s2 not in by_size:
                continue
            for left, dl, ndl in by_size[s1]:
                for right, dr, ndr in by_size[s2]:
                    if ndl + ndr > max_deps:
                        continue
                    entries.append((And(left, right), max(dl, dr), ndl + ndr))
                    entries.append((Or(left, right), max(dl, dr), ndl + ndr))
        by_size[s] = entries
        for f, _, _ in entries:
            yield f


# ---------------------------------------------------------------------------
# plain NNF pools with truth tables, for matrices


def nnf_pool(variables: list[PropSymbol], max_size: int) -> list[tuple[Formula, int, int]]:
    """All dep-free NNF formulas up to `max_size`, with truth tables.

    Table bit a is the truth value under assignment a, reading variable
    values off a's binary form with the first variable most significant.
    The third element is the bitmask of variables occurring.
    """
    n = len(variables)
    n_assign = 1 << n
    table_full = (1 << n_assign) - 1
    col = {}
    for j, v in enumerate(variables):
        bits = 0
        for a in range(n_assign):
            if a >> (n - 1 - j) & 1:
                bits |= 1 << a
        col[v] = bits
    by_size: dict[int, list[tuple[Formula, int, int]]] = {}
    out: list[tuple[Formula, int, int]] = []
    for s in range(1, max_size + 1):
        entries: list[tuple[Formula, int, int]] = []
        if s == 1:
            for j, v in enumerate(variables):
                entries.append((Atom(v), col[v], 1 << j))
                entries.append((NegAtom(v), ~col[v] & table_full, 1 << j))
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < 1 or s1 not in by_size or s2 not in by_size:
                continue
            for left, tl, ml in by_size[s1]:
                for right, tr, mr in by_size[s2]:
                    entries.append((And(left, right), tl & tr, ml | mr))
                    entries.append((Or(left, right), tl | tr, ml | mr))
        by_size[s] = entries
        out.extend(entries)
    return out


def dedup_pool_by_table(pool) -> list[tuple[Formula, int, int]]:
    seen = set()
    reps = []
    for f, table, mask in pool:
        if table in seen:
            continue
        seen.add(table)
        reps.append((f, table, mask))
    return reps


# ---------------------------------------------------------------------------
# brute-force least Skolem witness


def _point_true(env: dict, f: Formula) -> bool:
    if isinstance(f, Atom):
        return env[f.sym] == 1
    if isinstance(f, NegAtom):
        return env[f.sym] == 0
    if isinstance(f, And):
        return _point_true(env, f.left) and _point_true(env, f.right)
    if isinstance(f, Or):
        return _point_true(env, f.left) or _point_true(env, f.right)
    raise ValueError(f"unexpected node {type(f).__name__}")


def qbf_leaves_reference(q) -> tuple[bool, list[dict]]:
    """The truth of a QBF and the assignments of the leaves its search
    evaluates, in order, by recursion over the prefix: each variable at
    0 before 1, an existential stopping at its first true value and a
    universal at its first false one."""
    leaves = []

    def rec(env: dict, i: int) -> bool:
        if i == len(q.prefix):
            leaves.append(dict(env))
            return _point_true(env, q.matrix)
        quant, var = q.prefix[i]
        for b in (0, 1):
            result = rec({**env, var: b}, i + 1)
            if result == (quant == "E"):
                break
        return result

    return rec({}, 0), leaves


def dqbf_least_witness_bruteforce(inst) -> dict | None:
    """The lexicographically least Skolem tables of a DQBF instance.

    Candidates run over the concatenated table bits (existentials in
    declaration order, entries in index order, 0 before 1); each is
    checked one universal assignment at a time. Entry k of a table reads
    the dependency values as a binary number, first dependency most
    significant. Returns {existential: table} or None when false.
    """
    universals = inst.universals
    existentials = inst.existentials
    offsets = []
    total = 0
    for _, deps in existentials:
        offsets.append(total)
        total += 1 << len(deps)
    points = []
    for values in itertools.product((0, 1), repeat=len(universals)):
        env = dict(zip(universals, values))
        cells = []
        for (sym, deps), off in zip(existentials, offsets):
            k = 0
            for d in deps:
                k = 2 * k + env[d]
            cells.append((sym, off + k))
        points.append((env, cells))
    for bits in itertools.product((0, 1), repeat=total):
        ok = True
        for env, cells in points:
            for sym, cell in cells:
                env[sym] = bits[cell]
            if not _point_true(env, inst.matrix):
                ok = False
                break
        if ok:
            return {
                sym: bits[off : off + (1 << len(deps))]
                for (sym, deps), off in zip(existentials, offsets)
            }
    return None


def dqbf_least_witness_kleene(inst, max_evals: int | None = None) -> dict | None:
    """`dqbf_least_witness_bruteforce` by the plain prefix search.

    Table bits are fixed one at a time in search order, 0 before 1, and
    the search backtracks as soon as the package's three-valued matrix
    evaluation (`team_eval._surely_false`) finds a row false whatever the
    unfixed bits become. It makes no other inference, so it reaches
    instances of some 20 table bits, past the brute force, while sharing
    only the matrix evaluation with `dqbf_eval`. Its work still grows
    exponentially on some instances: past `max_evals` evaluations it
    raises GuardLimitError.
    """
    from teamlogic import dqbf, team_eval
    from teamlogic.team_eval import _full_team_columns

    n = len(inst.universals)
    full = (1 << (1 << n)) - 1
    cols = _full_team_columns(inst.universals)
    ones = [cols[u] for u in inst.universals] + [0] * len(inst.existentials)
    zeros = [full ^ c for c in ones[:n]] + [0] * len(inst.existentials)
    slot = {u: i for i, u in enumerate(inst.universals)}
    bits = []
    for k, (sym, deps) in enumerate(inst.existentials):
        slot[sym] = n + k
        for entry in range(1 << len(deps)):
            m = full
            for t, d in enumerate(deps):
                bit = entry >> (len(deps) - 1 - t) & 1
                m &= cols[d] if bit else ~cols[d] & full
            bits.append((n + k, m))
    program = dqbf._compile_matrix(inst.matrix, slot)
    if not bits and team_eval._surely_false(program, ones, zeros):
        return None
    chosen: list[int] = []
    value = 0
    evals = 0
    while len(chosen) < len(bits):
        evals += 1
        if max_evals is not None and evals > max_evals:
            raise GuardLimitError(f"prefix search past {max_evals} evaluations")
        v, rows = bits[len(chosen)]
        fixed = ones if value else zeros
        fixed[v] |= rows
        if not team_eval._surely_false(program, ones, zeros):
            chosen.append(value)
            value = 0
            continue
        fixed[v] ^= rows
        # Both values refuted at this depth: undo the choices above it
        # until one can still switch from 0 to 1.
        while value:
            if not chosen:
                return None
            value = chosen.pop()
            v, rows = bits[len(chosen)]
            (ones if value else zeros)[v] ^= rows
        value = 1
    tables = {}
    off = 0
    for sym, deps in inst.existentials:
        tables[sym] = tuple(chosen[off : off + (1 << len(deps))])
        off += 1 << len(deps)
    return tables


# ---------------------------------------------------------------------------
# vectorized all-structures, all-teams oracle


class TeamSetOracle:
    """Satisfying-team sets over every structure of one size at once.

    Structures with `n_worlds` worlds over the given symbols are indexed
    by (relation, valuation) pairs flattened into one axis. For a
    formula, `sets` returns one integer per structure whose bit T says
    that team T (a world bitmask) satisfies the formula. Clauses follow
    the definitions: splits through a precomputed cover table, diamonds
    through the definitional successor-team relation, boxes through the
    image, dependence atoms through conflicting world pairs.
    """

    def __init__(self, n_worlds: int, sym_names: tuple[str, ...]):
        if n_worlds > 3:
            raise ValueError("oracle tables are sized for at most 3 worlds")
        self.n_worlds = n_worlds
        self.syms = tuple(PropSymbol(s) for s in sym_names)
        w = n_worlds
        self.world_full = (1 << w) - 1
        self.n_teams = 1 << w
        self.n_rel = 1 << (w * w)
        self.n_val = 1 << (w * len(self.syms))
        self.n_structs = self.n_rel * self.n_val
        idx = np.arange(self.n_structs, dtype=np.int64)
        rel = idx // self.n_val
        val = idx % self.n_val
        self.succ = [
            ((rel >> (i * w)) & self.world_full).astype(np.int64) for i in range(w)
        ]
        self.atom_col = {
            s: ((val >> (j * w)) & self.world_full).astype(np.int64)
            for j, s in enumerate(self.syms)
        }
        # teams T with T subset of world mask v
        self.sub_table = np.array(
            [
                sum(1 << t for t in range(self.n_teams) if t & ~v == 0)
                for v in range(self.n_teams)
            ],
            dtype=np.int64,
        )
        # split cover table over pairs of team sets
        n_sets = 1 << self.n_teams
        left_grid, right_grid = np.meshgrid(
            np.arange(n_sets, dtype=np.int64),
            np.arange(n_sets, dtype=np.int64),
            indexing="ij",
        )
        split = np.zeros((n_sets, n_sets), dtype=np.int64)
        for t in range(self.n_teams):
            y = t
            while True:
                z = t ^ y
                split |= (((left_grid >> y) & 1) & ((right_grid >> z) & 1)) << t
                if y == 0:
                    break
                y = (y - 1) & t
        self.split_flat = split.reshape(-1)
        self.n_sets = n_sets
        # image of each team, per structure
        image = np.zeros((self.n_structs, self.n_teams), dtype=np.int64)
        for t in range(self.n_teams):
            img = np.zeros(self.n_structs, dtype=np.int64)
            for i in range(w):
                if t >> i & 1:
                    img |= self.succ[i]
            image[:, t] = img
        self.image = image
        # definitional successor-team relation T [R] T'
        dia_pair = np.zeros((self.n_structs, self.n_teams, self.n_teams), dtype=bool)
        for t in range(self.n_teams):
            for t2 in range(self.n_teams):
                ok = (t2 & ~image[:, t]) == 0
                for i in range(w):
                    if t >> i & 1:
                        ok &= (self.succ[i] & t2) != 0
                dia_pair[:, t, t2] = ok
        self.dia_pair = dia_pair

    def point_mask(self, f: Formula, cache: dict | None = None) -> np.ndarray:
        """Worlds satisfying a plain modal formula, per structure."""
        if cache is None:
            cache = {}
        hit = cache.get(("p", f))
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            out = self.atom_col[f.sym]
        elif isinstance(f, NegAtom):
            out = ~self.atom_col[f.sym] & self.world_full
        elif isinstance(f, And):
            out = self.point_mask(f.left, cache) & self.point_mask(f.right, cache)
        elif isinstance(f, Or):
            out = self.point_mask(f.left, cache) | self.point_mask(f.right, cache)
        elif isinstance(f, Diamond):
            child = self.point_mask(f.child, cache)
            out = np.zeros(self.n_structs, dtype=np.int64)
            for i in range(self.n_worlds):
                out |= ((self.succ[i] & child) != 0).astype(np.int64) << i
        elif isinstance(f, Box):
            child = self.point_mask(f.child, cache)
            out = np.zeros(self.n_structs, dtype=np.int64)
            for i in range(self.n_worlds):
                out |= ((self.succ[i] & ~child & self.world_full) == 0).astype(
                    np.int64
                ) << i
        else:
            raise ValueError(f"unexpected node {type(f).__name__}")
        cache[("p", f)] = out
        return out

    def sets(self, f: Formula, cache: dict | None = None) -> np.ndarray:
        if cache is None:
            cache = {}
        hit = cache.get(("s", f))
        if hit is not None:
            return hit
        if isinstance(f, (Atom, NegAtom)):
            out = np.take(self.sub_table, self.point_mask(f, cache))
        elif isinstance(f, And):
            out = self.sets(f.left, cache) & self.sets(f.right, cache)
        elif isinstance(f, IDis):
            out = self.sets(f.left, cache) | self.sets(f.right, cache)
        elif isinstance(f, Or):
            left, right = self.sets(f.left, cache), self.sets(f.right, cache)
            out = np.take(self.split_flat, left * self.n_sets + right)
        elif isinstance(f, Diamond):
            child_bits = (
                self.sets(f.child, cache)[:, None] >> np.arange(self.n_teams)
            ) & 1
            ok = (self.dia_pair & child_bits[:, None, :].astype(bool)).any(axis=2)
            out = (ok.astype(np.int64) << np.arange(self.n_teams)).sum(axis=1)
        elif isinstance(f, Box):
            child = self.sets(f.child, cache)
            out = (
                (((child[:, None] >> self.image) & 1) << np.arange(self.n_teams))
            ).sum(axis=1)
        elif isinstance(f, MDep):
            arg_masks = [self.point_mask(a, cache) for a in f.args]
            target = self.point_mask(f.target, cache)
            out = np.full(self.n_structs, (1 << self.n_teams) - 1, dtype=np.int64)
            for u in range(self.n_worlds):
                for v in range(u + 1, self.n_worlds):
                    agree = np.ones(self.n_structs, dtype=bool)
                    for am in arg_masks:
                        agree &= ((am >> u) & 1) == ((am >> v) & 1)
                    bad = agree & (((target >> u) & 1) != ((target >> v) & 1))
                    pair_teams = sum(
                        1 << t
                        for t in range(self.n_teams)
                        if t >> u & 1 and t >> v & 1
                    )
                    out &= ~np.where(bad, pair_teams, 0)
        else:
            raise ValueError(f"unexpected node {type(f).__name__}")
        cache[("s", f)] = out
        return out

    def structure(self, struct_idx: int) -> KripkeStructure:
        """Materialize one structure for spot checks."""
        w = self.n_worlds
        rel = struct_idx // self.n_val
        val = struct_idx % self.n_val
        worlds = [f"w{i}" for i in range(w)]
        edges = [
            (worlds[i], worlds[j])
            for i in range(w)
            for j in range(w)
            if (rel >> (i * w)) >> j & 1
        ]
        valuation = {
            s: frozenset(
                worlds[i] for i in range(w) if (val >> (j * w)) >> i & 1
            )
            for j, s in enumerate(self.syms)
        }
        return KripkeStructure(worlds, edges, valuation)

    def team_worlds(self, team_idx: int) -> frozenset:
        return frozenset(
            f"w{i}" for i in range(self.n_worlds) if team_idx >> i & 1
        )


# ---------------------------------------------------------------------------
# propositional satisfying-team sets as one big bitset


class PropTeamSetOracle:
    """Every satisfying team of a dep formula over a fixed domain.

    Teams are subsets of the full assignment universe, encoded as bits
    of one Python integer: bit T is set when the team with row mask T
    satisfies the formula. Splits walk all submask pairs of each team,
    so nothing here leans on downward closure.
    """

    def __init__(self, domain: tuple[PropSymbol, ...]):
        self.domain = tuple(sorted(set(domain)))
        self.rows = list(itertools.product((0, 1), repeat=len(self.domain)))
        self.n_rows = len(self.rows)
        n_teams = 1 << self.n_rows
        self.all_teams = (1 << n_teams) - 1
        self.sub = []
        for v in range(n_teams):
            bits = 0
            t = v
            while True:
                bits |= 1 << t
                if t == 0:
                    break
                t = (t - 1) & v
            self.sub.append(bits)
        self._pair = {}
        self._split_cache: dict = {}

    def _col(self, sym: PropSymbol, value: int) -> int:
        j = self.domain.index(sym)
        mask = 0
        for i, row in enumerate(self.rows):
            if row[j] == value:
                mask |= 1 << i
        return mask

    def _pair_teams(self, u: int, v: int) -> int:
        hit = self._pair.get((u, v))
        if hit is None:
            hit = 0
            for t in range(1 << self.n_rows):
                if t >> u & 1 and t >> v & 1:
                    hit |= 1 << t
            self._pair[(u, v)] = hit
        return hit

    def _split(self, left: int, right: int) -> int:
        hit = self._split_cache.get((left, right))
        if hit is not None:
            return hit
        out = 0
        for t in range(1 << self.n_rows):
            y = t
            while True:
                if left >> y & 1 and right >> (t ^ y) & 1:
                    out |= 1 << t
                    break
                if y == 0:
                    break
                y = (y - 1) & t
        if len(self._split_cache) > 100_000:
            self._split_cache.clear()
        self._split_cache[(left, right)] = out
        return out

    def sets(self, f: Formula, memo: dict | None = None) -> int:
        if memo is None:
            memo = {}
        hit = memo.get(f)
        if hit is not None:
            return hit
        if isinstance(f, (Atom, NegAtom)):
            value = 1 if isinstance(f, Atom) else 0
            out = self.sub[self._col(f.sym, value)]
        elif isinstance(f, And):
            out = self.sets(f.left, memo) & self.sets(f.right, memo)
        elif isinstance(f, Or):
            out = self._split(self.sets(f.left, memo), self.sets(f.right, memo))
        elif isinstance(f, Dep):
            out = self.all_teams
            arg_cols = [self._col(a, 1) for a in f.args]
            target = self._col(f.target, 1)
            for u in range(self.n_rows):
                for v in range(u + 1, self.n_rows):
                    if all(
                        (c >> u & 1) == (c >> v & 1) for c in arg_cols
                    ) and (target >> u & 1) != (target >> v & 1):
                        out &= ~self._pair_teams(u, v)
        else:
            raise ValueError(f"unexpected node {type(f).__name__}")
        memo[f] = out
        return out

    def team_of(self, team_idx: int) -> PropTeam:
        return PropTeam(
            self.domain,
            [self.rows[i] for i in range(self.n_rows) if team_idx >> i & 1],
        )


# ---------------------------------------------------------------------------
# validity by exhausting every team or every small model


def pd_valid_bruteforce(f: Formula, domain, *, max_domain: int | None = 4) -> bool:
    """Validity by checking the team evaluator on every team over `domain`.

    This enumerates all 2^(2^|domain|) teams and is the definitional
    cross-check for pd_valid; the domain guard defaults to 4 symbols.
    """
    _admit(f, "pd")
    domain = tuple(sorted({_as_symbol(s) for s in domain}))
    if max_domain is not None and len(domain) > max_domain:
        raise GuardLimitError(
            f"domain of {len(domain)} symbols exceeds the brute-force guard of {max_domain}"
        )
    missing = symbols(f) - set(domain)
    if missing:
        names = ", ".join(sorted(s.name for s in missing))
        raise ValueError(f"symbols outside the domain: {names}")
    rows = list(itertools.product((0, 1), repeat=len(domain)))
    sym_mask = {
        sym: sum(1 << i for i, row in enumerate(rows) if row[j])
        for j, sym in enumerate(domain)
    }
    ev = _TeamEvaluator(len(rows), sym_mask, None)
    return all(ev.eval(f, mask) for mask in range(1 << len(rows)))


def ml_valid_small_models(
    f: Formula, max_worlds: int = 3, *, allow_large: bool = False
) -> bool:
    """Validity of a plain modal formula over all models up to a size.

    Exhausts every structure with at most `max_worlds` worlds over the
    formula's own symbols, vectorizing over all relations at once. This
    is complete only for formulas whose countermodels fit the bound; the
    guard refuses more than 4 worlds or 2 symbols unless `allow_large`
    is set.
    """
    if not is_pure_ml(f):
        raise ValueError("ml_valid_small_models handles plain modal formulas only")
    syms = sorted(symbols(f))
    if (max_worlds > 4 or len(syms) > 2) and not allow_large:
        raise GuardLimitError(
            f"{max_worlds} worlds over {len(syms)} symbols is over the small-model "
            f"guard; pass allow_large=True to run it anyway"
        )
    for n_worlds in range(1, max_worlds + 1):
        full = (1 << n_worlds) - 1
        relations = np.arange(1 << (n_worlds * n_worlds), dtype=np.int64)
        succ = [
            ((relations >> (w * n_worlds)) & full).astype(np.int64)
            for w in range(n_worlds)
        ]

        def truth(g: Formula, atom_mask: dict):
            if isinstance(g, Atom):
                return atom_mask[g.sym]
            if isinstance(g, NegAtom):
                return ~atom_mask[g.sym] & full
            if isinstance(g, And):
                return truth(g.left, atom_mask) & truth(g.right, atom_mask)
            if isinstance(g, Or):
                return truth(g.left, atom_mask) | truth(g.right, atom_mask)
            if isinstance(g, Diamond):
                child = truth(g.child, atom_mask)
                out = np.zeros_like(relations)
                for w in range(n_worlds):
                    out |= ((succ[w] & child) != 0).astype(np.int64) << w
                return out
            if isinstance(g, Box):
                child = truth(g.child, atom_mask)
                out = np.zeros_like(relations)
                for w in range(n_worlds):
                    out |= ((succ[w] & ~child & full) == 0).astype(np.int64) << w
                return out
            raise ValueError(f"not a plain modal formula: {type(g).__name__}")

        for bits in itertools.product(range(1 << n_worlds), repeat=len(syms)):
            atom_mask = dict(zip(syms, bits))
            if not np.all(truth(f, atom_mask) == full):
                return False
    return True


# ---------------------------------------------------------------------------
# reference countermodels for `ml_valid` and `mliv_valid`


def reference_tableau(fs: frozenset, memo: dict):
    """The package's tableau written as plain recursion over frozensets,
    a judge of `translate._tableau`: the same model DAG, node for node,
    or None.

    The pick is the least rendering among the set's conjunctions and
    disjunctions: a conjunction expands, a disjunction branches left
    first. A set without either is refuted by a clash of literals, or
    spawns one child per diamond in the order of their children's
    renderings, each carrying every boxed formula along. `memo` maps
    every set met to its result, so repeated subgoals share submodels.
    """
    if fs in memo:
        return memo[fs]
    pick = min((x for x in fs if isinstance(x, (And, Or))), key=render, default=None)
    if isinstance(pick, And):
        result = reference_tableau(fs - {pick} | {pick.left, pick.right}, memo)
    elif isinstance(pick, Or):
        result = reference_tableau(fs - {pick} | {pick.left}, memo)
        if result is None:
            result = reference_tableau(fs - {pick} | {pick.right}, memo)
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
                child = reference_tableau(frozenset([g, *boxed]), memo)
                if child is None:
                    result = None
                    break
                children.append(child)
            if result is not None:
                result.children = tuple(children)
    memo[fs] = result
    return result


def reference_holding(f: Formula, piece: tuple, syms, cols: dict, full: int) -> int:
    """The selections of the `ior` formula `f` that hold pointwise at
    the root of `piece`, as a mask over selection numbers: a judge of
    `translate._holding`, recursing over `f` with one value per node and
    `ior` position.

    A value is one selection mask per world of the piece. `ior` at
    position i keeps its left side's mask where column `cols[i]` is 0
    and its right side's where it is 1, `&` and `|` are AND and OR, the
    diamond and the box are OR and AND over the successors, and a
    subtree without `ior` is `full` or 0 by its pointwise truth there.
    Symbols of `syms` the piece lacks are false everywhere.
    """
    succ, valuation = piece
    n = len(succ)
    ev = _TeamEvaluator(n, {**dict.fromkeys(syms, 0), **valuation}, succ, None)

    def value(x: Formula, pos: int) -> list[int]:
        if not count_idis(x):
            m = ev.point_mask(x)
            return [full if m >> w & 1 else 0 for w in range(n)]
        if isinstance(x, IDis):
            left = value(x.left, pos + 1)
            right = value(x.right, pos + 1 + count_idis(x.left))
            r = cols[pos]
            return [a & ~r | b & r for a, b in zip(left, right)]
        if isinstance(x, (And, Or)):
            left = value(x.left, pos)
            right = value(x.right, pos + count_idis(x.left))
            if isinstance(x, And):
                return [a & b for a, b in zip(left, right)]
            return [a | b for a, b in zip(left, right)]
        child = value(x.child, pos)
        out = []
        for vs in succ:
            if isinstance(x, Diamond):
                acc = 0
                for v in vs:
                    acc |= child[v]
            else:
                acc = full
                for v in vs:
                    acc &= child[v]
            out.append(acc)
        return out

    return value(f, 0)[0]


def reference_tableau_model(root, syms) -> tuple[KripkeStructure, str]:
    """The structure an open tableau describes, worlds t0, t1, ... in
    breadth-first order from the root."""
    order = []
    index: dict[int, int] = {}
    queue = [root]
    while queue:
        node = queue.pop(0)
        if id(node) in index:
            continue
        index[id(node)] = len(order)
        order.append(node)
        queue.extend(node.children)
    worlds = [f"t{i}" for i in range(len(order))]
    edges = [
        (worlds[i], worlds[index[id(child)]])
        for i, node in enumerate(order)
        for child in node.children
    ]
    valuation = {
        sym: frozenset(
            worlds[i] for i, node in enumerate(order) if (sym, True) in node.literals
        )
        for sym in syms
    }
    return KripkeStructure(worlds, edges, valuation), worlds[0]


def _reference_filtrate(m: KripkeStructure, root: str, sig) -> tuple[KripkeStructure, str]:
    """Quotient by agreement on `sig`, judged world by world with
    `_bml_point`; classes w0, w1, ... by first appearance, root first."""
    world_order = [root] + [w for w in m.worlds if w != root]
    first_seen: dict[tuple, int] = {}
    class_of = {}
    for w in world_order:
        profile = tuple(_bml_point(m, w, s) for s in sig)
        class_of[w] = first_seen.setdefault(profile, len(first_seen))
    names = [f"w{i}" for i in range(len(first_seen))]
    edges = {(names[class_of[u]], names[class_of[v]]) for u, v in m.edges}
    valuation = {}
    for sym in m.valuation:
        pos = sig.index(Atom(sym))
        valuation[sym] = frozenset(names[c] for p, c in first_seen.items() if p[pos])
    return KripkeStructure(names, edges, valuation), names[class_of[root]]


def reference_ml_countermodel(f: Formula, memo: dict) -> tuple[KripkeStructure, str] | None:
    """A filtrated countermodel of plain modal `f` and its root, or None
    when `f` is valid.

    The package's tableau (on `memo`) finds the open branch; the model,
    the filtration by the non-Boolean subformulas of the negation and
    the world names are rebuilt here on strings, sharing no code with
    the package's construction on bitmasks.
    """
    from teamlogic import dual, nb_subf
    from teamlogic.translate import _tableau

    negated = dual(f)
    tree = _tableau(frozenset([negated]), memo)
    if tree is None:
        return None
    model, root = reference_tableau_model(tree, symbols(f))
    return _reference_filtrate(model, root, list(nb_subf(negated)))


def declare(m: KripkeStructure, syms) -> KripkeStructure:
    """`m` with every symbol of `syms` it lacks declared, true nowhere."""
    return KripkeStructure(m.worlds, m.edges, {**{s: () for s in syms}, **m.valuation})


def reference_select(f: Formula, choices) -> Formula:
    """The plain modal formula that `choices` picks out of the `ior`
    formula `f`: a judge of `eliminate_idis`, recursing over `f` and
    numbering its `ior` in preorder, those on dropped sides included."""
    pos = 0

    def pick(x: Formula) -> Formula:
        nonlocal pos
        if isinstance(x, IDis):
            i = pos
            pos += 1
            left, right = pick(x.left), pick(x.right)
            return left if choices[i] == "L" else right
        if isinstance(x, (And, Or)):
            return type(x)(pick(x.left), pick(x.right))
        if isinstance(x, (Diamond, Box)):
            return type(x)(pick(x.child))
        return x

    return pick(f)


def reference_mliv_valid(f: Formula):
    """`mliv_valid` with the reference countermodels.

    Selections go in lexicographic order, "L" first, each built by
    `reference_select`. One that an earlier countermodel refutes at its
    root, judged by `_bml_point` on that countermodel with every symbol
    of `f` declared, is skipped; the first other one with no
    countermodel is the witness. The
    countermodels are merged by a chain of `disjoint_union`s in the
    order they were found."""
    from teamlogic import Invalid, SelectionFunction, Valid, disjoint_union

    memo: dict = {}
    found: list = []
    syms = symbols(f)
    for choices in itertools.product("LR", repeat=count_idis(f)):
        g = reference_select(f, choices)
        if any(not _bml_point(m, root, g) for m, root in found):
            continue
        countermodel = reference_ml_countermodel(g, memo)
        if countermodel is None:
            return Valid(witness=SelectionFunction(choices), checked=len(found) + 1)
        model, root = countermodel
        found.append((declare(model, syms), root))
    (model, root), *rest = found
    points = [root]
    for other, other_root in rest:
        model = disjoint_union(model, other)
        points = [f"L:{p}" for p in points] + [f"R:{other_root}"]
    return Invalid(model=model, team=frozenset(points), checked=len(found))

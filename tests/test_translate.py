import random

import pytest

import teamlogic.kripke as kripke
import teamlogic.team_eval as team_eval
import teamlogic.translate as translate
from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    GuardLimitError,
    IDis,
    Invalid,
    MDep,
    NegAtom,
    Not,
    Or,
    PropSymbol,
    Valid,
    count_idis,
    disjoint_union,
    dual,
    eliminate_idis,
    emdl_to_mliv,
    emdl_valid,
    kripke_to_dict,
    ml_point_eval,
    ml_valid,
    mliv_valid,
    mt_eval,
    nb_subf,
    parse_modal,
    render,
    size,
    symbols,
)

from oracles import (
    _bml_point,
    bisim_representatives,
    brute_mt,
    declare,
    ml_valid_small_models,
    random_emdl_formula,
    random_ml_formula,
    random_mliv_formula,
    random_model,
    reference_holding,
    reference_mliv_valid,
    reference_ml_countermodel,
    reference_select,
    reference_tableau,
    reference_tableau_model,
)

p = PropSymbol("p")
q = PropSymbol("q")


def test_eliminate_idis_indexing():
    f = IDis(Or(Atom(p), IDis(Atom(q), NegAtom(q))), IDis(Atom(q), NegAtom(p)))
    assert count_idis(f) == 3
    picks = list(eliminate_idis(f))
    assert len(picks) == 8
    sel0, f0 = picks[0]
    assert sel0.bitstring == "000"
    assert render(f0) == "p | q"
    # occurrences inside a dropped branch still consume positions:
    # flipping only the second bit changes the left branch, flipping
    # only the third picks the right one
    by_bits = {sel.bitstring: g for sel, g in picks}
    assert render(by_bits["010"]) == "p | !q"
    assert render(by_bits["001"]) == "p | q"
    assert render(by_bits["101"]) == "!p"
    assert render(by_bits["100"]) == "q"


def test_selection_function():
    picks = dict(
        (sel.bitstring, g) for sel, g in eliminate_idis(IDis(Atom(p), Atom(q)))
    )
    assert set(picks) == {"0", "1"}
    assert picks["0"] == Atom(p)
    assert picks["1"] == Atom(q)


def test_selections_are_the_reference_selections():
    # every selection of formulas with 0-6 `ior` is the very node the
    # recursive reference builds
    rng = random.Random(23)
    counts = set()
    for _ in range(300):
        f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(1, 30), rng.randint(0, 3))
        m = count_idis(f)
        if m > 6:
            continue
        counts.add(m)
        for sel, g in eliminate_idis(f):
            assert g is reference_select(f, sel.choices), render(f)
    assert counts == set(range(7))


def test_translation_frozen_example():
    f = parse_modal("dep(p; q)")
    g = emdl_to_mliv(f)
    assert render(g) == "p & (q ior !q) | !p & (q ior !q)"
    assert len(nb_subf(g)) <= 3 * size(f)


def test_translation_zero_arity():
    f = MDep((), Diamond(Atom(p)))
    g = emdl_to_mliv(f)
    assert render(g) == "<> p ior [] !p"


def test_translation_homomorphic_cases():
    f = parse_modal("<> dep(p; q) & [] p")
    g = emdl_to_mliv(f)
    assert render(g) == "<> (p & (q ior !q) | !p & (q ior !q)) & [] p"


def test_emdl_to_mliv_visits_only_dependence_atoms_and_what_is_above(monkeypatch):
    plain = parse_modal("<> (p & [] !q) | [] r")
    assert emdl_to_mliv(plain) is plain
    component = Diamond(And(Atom(p), Box(NegAtom(q))))
    atom = MDep((component,), Atom(PropSymbol("r")))
    f = And(plain, Or(atom, Atom(q)))
    fold = translate._fold
    visited = []

    def counting(g, visit, done, *within):
        def count(node, kids):
            visited.append(node)
            return visit(node, kids)

        return fold(g, count, done, *within)

    monkeypatch.setattr(translate, "_fold", counting)
    assert render(emdl_to_mliv(f)) == (
        "(<> (p & [] !q) | [] r) & (<> (p & [] !q) & (r ior !r) | [] (!p | <> q) & (r ior !r) | q)"
    )
    assert visited == [atom, f.right, f]


def test_translation_arity_guard():
    args = tuple(Atom(PropSymbol(f"x{i}")) for i in range(11))
    with pytest.raises(GuardLimitError) as info:
        emdl_to_mliv(MDep(args, Atom(p)))
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_dep_arity', 11, 10)
    assert emdl_to_mliv(MDep(args, Atom(p)), max_dep_arity=None) is not None
    # the leftmost atom over the guard is the one reported, and a bad
    # node above it is reported first
    wider = MDep((*args, Atom(p)), Atom(p))
    with pytest.raises(GuardLimitError, match="^11 arguments"):
        emdl_to_mliv(And(MDep(args, Atom(p)), wider))
    with pytest.raises(ValueError, match="IDis"):
        emdl_to_mliv(IDis(wider, Atom(p)))


def test_ml_valid_theorems():
    assert ml_valid(parse_modal("p | !p"))
    assert ml_valid(parse_modal("[] (p & q) | <> (!p | !q)"))
    assert ml_valid(parse_modal("<> p | [] !p"))
    assert ml_valid(parse_modal("[] p | <> !p"))


def test_ml_valid_invalid_with_countermodel():
    res = ml_valid(parse_modal("<> p"))
    assert isinstance(res, Invalid)
    assert not res
    (root,) = res.team
    # replay through the independent point evaluator
    assert not _bml_point(res.model, root, parse_modal("<> p"))


def test_ml_valid_rejects_non_ml():
    with pytest.raises(ValueError):
        ml_valid(parse_modal("dep(p; q)"))
    with pytest.raises(ValueError):
        ml_valid(parse_modal("p ior q"))


@pytest.mark.parametrize(
    "node",
    [Dep((p,), q), MDep((Atom(p),), Atom(q)), Not(Atom(p))],
    ids=["Dep", "MDep", "Not"],
)
def test_ml_and_mliv_valid_reject_foreign_nodes(node):
    for f in (node, And(Atom(p), Diamond(node))):
        with pytest.raises(ValueError):
            ml_valid(f)
        with pytest.raises(ValueError):
            mliv_valid(f)
    # on the right, the node sits behind the tautology q | !q, the first
    # selection: only a check that also walks the dropped side sees it
    for f in (IDis(node, Atom(q)), IDis(Or(Atom(q), NegAtom(q)), node)):
        with pytest.raises(ValueError):
            mliv_valid(f)


def test_ml_valid_on_random_formulas_replays():
    rng = random.Random(7)
    for _ in range(150):
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 7), 2)
        res = ml_valid(f)
        if isinstance(res, Invalid):
            (root,) = res.team
            assert not _bml_point(res.model, root, f)
        else:
            assert isinstance(res, Valid)


def test_mliv_valid_frozen_examples():
    f = IDis(parse_modal("p | !p"), Atom(q))
    res = mliv_valid(f)
    assert isinstance(res, Valid)
    assert res.witness.bitstring == "0"
    g = IDis(Atom(p), Atom(q))
    res2 = mliv_valid(g)
    assert isinstance(res2, Invalid)
    # the root refuting p has q false too, so one tableau refutes both
    assert res2.checked == 1
    assert not mt_eval(res2.model, res2.team, g)


def test_mliv_countermodel_brute_replay():
    rng = random.Random(31)
    seen_invalid = 0
    for _ in range(60):
        f = random_mliv_formula(rng, ["p", "q"], rng.randint(1, 6), 1)
        res = mliv_valid(f)
        if isinstance(res, Invalid):
            seen_invalid += 1
            assert not brute_mt(res.model, res.team, f)
    assert seen_invalid > 10


def test_mliv_selection_guard():
    f = Atom(p)
    for _ in range(5):
        f = IDis(f, f)
    # 31 occurrences give 2^31 selections, over the default guard
    with pytest.raises(GuardLimitError):
        mliv_valid(f)
    with pytest.raises(GuardLimitError) as info:
        mliv_valid(IDis(Atom(p), IDis(Atom(p), Atom(q))), max_selections=2)
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_selections', 4, 2)


def test_mliv_unbounded_selections_pass_the_guard():
    # the all-left selection is the tautology, found first
    f = Or(Atom(p), NegAtom(p))
    for _ in range(21):
        f = IDis(f, Atom(q))
    with pytest.raises(GuardLimitError):
        mliv_valid(f)
    res = mliv_valid(f, max_selections=None)
    assert isinstance(res, Valid)
    assert res.witness.bitstring == "0" * 21
    assert res.checked == 1


def test_emdl_valid_frozen_examples():
    res = emdl_valid(parse_modal("dep(p; p)"))
    assert isinstance(res, Valid)
    assert res.witness.bitstring == "01"
    res2 = emdl_valid(parse_modal("dep(; p)"))
    assert isinstance(res2, Invalid)
    assert sorted(res2.model.worlds) == ["L:w0", "R:w0"]
    assert not brute_mt(res2.model, res2.team, parse_modal("dep(; p)"))


def test_emdl_valid_rejects_idis_and_prop_dep():
    with pytest.raises(ValueError):
        emdl_valid(IDis(Atom(p), Atom(q)))
    with pytest.raises(ValueError):
        emdl_valid(Dep((p,), q))


def test_emdl_valid_rejects_ior_before_the_arity_guard():
    wide = MDep(tuple(Atom(PropSymbol(f"x{i}")) for i in range(11)), Atom(p))
    with pytest.raises(GuardLimitError):
        emdl_valid(wide)
    # the ior comes after the over-arity atom, yet the whole formula is
    # checked before anything unfolds: a usage error, not a guard refusal
    with pytest.raises(ValueError):
        emdl_valid(And(wide, IDis(Atom(p), Atom(q))))


def test_emdl_valid_random_replay():
    rng = random.Random(47)
    invalid = 0
    for _ in range(80):
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        g = emdl_to_mliv(f)
        # countermodels fold one candidate model per refuted selection,
        # and replaying the original formula walks splits over that team
        if count_idis(g) > 4:
            continue
        res = emdl_valid(f)
        if isinstance(res, Invalid):
            invalid += 1
            assert not brute_mt(res.model, res.team, f)
    assert invalid > 10


def test_translation_equivalence_spot_checks():
    rng = random.Random(53)
    from oracles import random_model, random_subteam

    for _ in range(120):
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        g = emdl_to_mliv(f)
        m = random_model(rng, rng.randint(1, 3), [p, q])
        team = random_subteam(rng, m.worlds)
        a = mt_eval(m, team, f, max_bits=None)
        b = mt_eval(m, team, g, max_bits=None)
        assert a == b, render(f)
        c = any(
            mt_eval(m, team, sel_f, max_bits=None)
            for _, sel_f in eliminate_idis(g)
        )
        assert a == c, render(f)


def test_small_models_checker():
    assert ml_valid_small_models(parse_modal("p | !p"), max_worlds=2)
    assert not ml_valid_small_models(parse_modal("<> p"), max_worlds=2)
    assert ml_valid_small_models(parse_modal("<> p | [] !p"), max_worlds=3)
    with pytest.raises(GuardLimitError):
        ml_valid_small_models(parse_modal("p | q | r"), max_worlds=2)
    assert ml_valid_small_models(
        parse_modal("p | q | r"), max_worlds=1, allow_large=True
    ) is False


def test_small_models_agrees_with_tableau():
    rng = random.Random(61)
    for _ in range(60):
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 6), 1)
        a = bool(ml_valid(f))
        b = ml_valid_small_models(f, max_worlds=3)
        assert a == b, render(f)


def test_dual_negates_pointwise():
    rng = random.Random(67)
    from oracles import random_model

    for _ in range(80):
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 6), 2)
        m = random_model(rng, rng.randint(1, 3), [p, q])
        for w in m.worlds:
            assert ml_point_eval(m, w, f) != ml_point_eval(m, w, dual(f))


def _mliv_reference(f):
    """`mliv_valid` from the public API alone: selections in order, a
    fresh `ml_valid` for each one that no earlier countermodel refutes
    at its root (by `_bml_point`, every symbol of `f` declared), the
    countermodels merged by `disjoint_union` in the order found."""
    found = []
    syms = symbols(f)
    for sel, g in eliminate_idis(f):
        if any(not _bml_point(m, root, g) for m, root in found):
            continue
        verdict = ml_valid(g)
        if verdict:
            return Valid(witness=sel, checked=len(found) + 1)
        (root,) = verdict.team
        found.append((declare(verdict.model, syms), root))
    (model, root), *rest = found
    points = [root]
    for other, other_root in rest:
        model = disjoint_union(model, other)
        points = [f"L:{p}" for p in points] + [f"R:{other_root}"]
    return Invalid(model=model, team=frozenset(points), checked=len(found))


def _same_verdict(got, want) -> bool:
    if isinstance(want, Valid):
        return got == want
    return isinstance(got, Invalid) and (
        got.checked, kripke_to_dict(got.model, got.team)
    ) == (want.checked, kripke_to_dict(want.model, want.team))


def _uncapped_mliv_formulas(seed, count):
    """Random plain modal formulas with 5-7 `ior`, past C8's cap of 4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(14, 26), 2)
        if 5 <= count_idis(f) <= 7:
            out.append(f)
    return out


def test_shared_tableau_memo_matches_fresh_memos():
    invalid = 0
    for f in _uncapped_mliv_formulas(71, 40):
        res = mliv_valid(f)
        assert _same_verdict(res, _mliv_reference(f)), render(f)
        if isinstance(res, Valid):
            continue
        invalid += 1
        # each selection is flat, so the team refutes it exactly when one
        # of its points does; the formula is the `ior` of its selections
        for _, g in eliminate_idis(f):
            assert any(not _bml_point(res.model, t, g) for t in res.team), render(f)
    assert invalid > 10


_merge = translate._merge


def _merge_flipping_first_symbol(pieces, syms):
    m, roots = _merge(pieces, syms)
    sym = min(m.valuation)
    valuation = dict(m.valuation)
    valuation[sym] = frozenset(m.worlds) - m.valuation[sym]
    return kripke.KripkeStructure(m.worlds, m.edges, valuation), roots


def test_shared_replay_refuses_a_broken_countermodel(monkeypatch):
    monkeypatch.setattr(translate, "_merge", _merge_flipping_first_symbol)
    # p & q and p & !q are refuted where p is false; flipping p makes
    # the merged team satisfy p & !q
    with pytest.raises(RuntimeError, match="failed replay"):
        mliv_valid(parse_modal("p & q ior p & !q"))
    with pytest.raises(RuntimeError, match="failed replay"):
        emdl_valid(parse_modal("p & dep(; q)"))


def test_replay_checks_each_selection_at_its_own_root(monkeypatch):
    # p is refuted at the first piece's root, where q is false and !q
    # holds, and !q at the second's. With p made true at the first root
    # only, the team of both roots still refutes p, !q and so p ior !q,
    # so only the check at each selection's own root sees the broken
    # merge.
    def flip_p_at_first_root(pieces, syms):
        m, roots = _merge(pieces, syms)
        valuation = dict(m.valuation)
        valuation[p] = m.valuation[p] | {roots[0]}
        return kripke.KripkeStructure(m.worlds, m.edges, valuation), roots

    f = parse_modal("p ior !q")
    pieces = [translate._ml_valid(g, {}, {}) for _, g in eliminate_idis(f)]
    m, _ = flip_p_at_first_root(pieces, symbols(f))
    assert not mt_eval(m, m.worlds, f)
    assert mliv_valid(f).checked == 2
    monkeypatch.setattr(translate, "_merge", flip_p_at_first_root)
    with pytest.raises(RuntimeError, match="failed replay"):
        mliv_valid(f)


def test_replay_of_the_original_formula_still_checks(monkeypatch):
    # a wrong translation: its selections p and q are refuted, but the
    # original tautology holds on the merged team, which only the replay
    # of the original formula sees
    monkeypatch.setattr(translate, "emdl_to_mliv", lambda f, **_: parse_modal("p ior q"))
    with pytest.raises(RuntimeError, match="failed replay"):
        emdl_valid(parse_modal("p | !p"))


def test_one_replay_evaluator_per_decision(monkeypatch):
    built = []

    class Counting(kripke._TeamEvaluator):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(kripke, "_TeamEvaluator", Counting)
    res = emdl_valid(parse_modal("dep(p; q)"))
    assert isinstance(res, Invalid) and res.checked == 2
    # two candidates, the translation and the original formula, all on
    # one evaluator
    assert built == [2]


def test_one_structure_per_decision(monkeypatch):
    built = []
    init = kripke.KripkeStructure.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kripke.KripkeStructure, "__init__", counting)
    res = emdl_valid(parse_modal("dep(p; q)"))
    assert isinstance(res, Invalid) and res.checked == 2
    # one structure for the two pieces, none per piece or per merge
    assert len(built) == 1


def test_ml_countermodels_match_the_reference_construction():
    # Random formulas seldom give the filtration two worlds to merge
    # (under 1% at budget 6-20), so past 300 formulas the draw goes on,
    # with larger budgets, until ten merges have been compared.
    rng = random.Random(79)
    drawn = invalid = merged = 0
    while drawn < 300 or merged < 10:
        drawn += 1
        budget = rng.randint(1, 9) if drawn <= 300 else rng.randint(6, 20)
        f = random_ml_formula(rng, ["p", "q", "r"], budget, rng.randint(0, 2))
        found = reference_ml_countermodel(f, {})
        if found is None:
            assert _same_verdict(ml_valid(f), Valid(witness=None, checked=1)), render(f)
            continue
        model, root = found
        want = Invalid(model=model, team=frozenset([root]), checked=1)
        assert _same_verdict(ml_valid(f), want), render(f)
        invalid += 1
        tree = translate._tableau(frozenset([dual(f)]), {})
        merged += len(reference_tableau_model(tree, symbols(f))[0].worlds) > len(model.worlds)
    assert invalid > 100


def test_mliv_countermodels_match_the_reference_construction():
    rng = random.Random(83)
    invalid = 0
    formulas = 0
    while formulas < 40:
        f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(14, 30), 2)
        if not 5 <= count_idis(f) <= 9:
            continue
        formulas += 1
        res = mliv_valid(f)
        assert _same_verdict(res, reference_mliv_valid(f)), render(f)
        invalid += isinstance(res, Invalid)
    assert invalid > 10


def test_selections_share_one_tableau_memo(monkeypatch):
    # three tableaux, whose boxed subgoals the later ones find in the
    # memo: the shared memo keeps fewer sets than fresh ones would
    f = parse_modal("(!r | ((q ior q) | !q) ior !r) & [] [] (q ior !p | !q ior q | (!p | r))")
    assert count_idis(f) == 4
    calls = []
    tableau = translate._tableau

    def recording(fs, memo):
        calls.append((fs, memo))
        return tableau(fs, memo)

    monkeypatch.setattr(translate, "_tableau", recording)
    res = mliv_valid(f)
    monkeypatch.undo()
    assert isinstance(res, Invalid) and _same_verdict(res, _mliv_reference(f))
    assert len(calls) == 3
    (memo,) = {id(memo): memo for _, memo in calls}.values()
    fresh = 0
    for fs, _ in calls:
        alone: dict = {}
        tableau(fs, alone)
        fresh += len(alone) - 1  # the index is no set
    assert len(memo) - 1 < fresh


def _same_dags(pairs) -> bool:
    """Whether each (tableau, reference) pair of results is one model
    DAG: the same literals and children in order, with one node of each
    for one of the other across all pairs, so sharing is the same."""
    ours: dict = {}
    theirs: dict = {}
    todo = list(pairs)
    while todo:
        a, b = todo.pop()
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if id(a) in ours or id(b) in theirs:
            if ours.get(id(a)) != id(b) or theirs.get(id(b)) != id(a):
                return False
            continue
        ours[id(a)], theirs[id(b)] = id(b), id(a)
        if a.literals != b.literals or len(a.children) != len(b.children):
            return False
        todo += zip(a.children, b.children)
    return True


def test_tableau_matches_the_recursive_reference():
    # every selection of each formula, on one memo per formula as in a
    # decision, and now and then two formulas at once
    rng = random.Random(89)
    opened = closed = shared = 0
    for _ in range(800):
        f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(3, 30), rng.randint(0, 3))
        if count_idis(f) > 5:
            continue
        memo: dict = {}
        ref_memo: dict = {}
        pairs = []
        for _, g in eliminate_idis(f):
            fs = frozenset([dual(g)])
            if rng.random() < 0.2:
                fs |= {dual(random_ml_formula(rng, ["p", "q"], rng.randint(1, 6), 2))}
            pairs.append((translate._tableau(fs, memo), reference_tableau(fs, ref_memo)))
            opened += pairs[-1][1] is not None
            closed += pairs[-1][1] is None
        assert _same_dags(pairs), render(f)
        assert len(memo) - 1 == len(ref_memo), render(f)
        # a node that several sets lead to
        nodes = [t for t in ref_memo.values() if t is not None]
        shared += len(nodes) > len(set(map(id, nodes)))
    assert opened > 1000 and closed > 100 and shared > 200


def _random_piece(rng, syms):
    n = rng.randint(1, 5)
    succ = [[v for v in range(n) if rng.random() < 0.4] for _ in range(n)]
    valuation = {PropSymbol(s): rng.getrandbits(n) for s in syms if rng.random() < 0.8}
    return succ, valuation


def test_holding_matches_the_recursive_reference():
    # one program per formula, run on the pieces of its decision and
    # on random ones, some lacking symbols of the formula
    rng = random.Random(97)
    seen = set()
    for _ in range(200):
        f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(3, 30), rng.randint(0, 3))
        m = count_idis(f)
        if not 1 <= m <= 6:
            continue
        syms = symbols(f)
        cols = team_eval._full_team_columns(range(m))
        full = (1 << (1 << m)) - 1
        pieces = [translate._ml_valid(g, {}, {}) for _, g in eliminate_idis(f)]
        pieces = [x for x in pieces if x is not None]
        pieces += [_random_piece(rng, ["p", "q", "r"]) for _ in range(4)]
        program = translate._program(f)
        for piece in pieces:
            got = translate._holding(program, piece, syms, cols, full)
            assert got == reference_holding(f, piece, syms, cols, full), render(f)
            seen.add(got == 0 or got == full)
    assert seen == {True, False}


def test_replay_splits_two_coherent_disjuncts_by_search(monkeypatch):
    # Each formula splits a team of 64 or more worlds between two
    # disjuncts with conflict graphs, a dependence atom against a
    # conjunction with a boxed one or a doubly boxed one. Enumerating
    # those splits ran out of memory or past 20 s; both must reach a
    # verdict by one search each. The teams are eight copies of each
    # world of a small random structure, so the representatives
    # `brute_mt` judges are few.
    searched = []
    search = team_eval._search
    monkeypatch.setattr(team_eval, "_search", lambda *a: searched.append(1) or search(*a))
    formulas = [
        parse_modal(text)
        for text in (
            "dep(p; q) | dep(p, q; r) & [] dep(; q)",
            "([][]dep(!p & !p; r & !p)) | dep(p, !p; !p | q)",
        )
    ]
    rng = random.Random(101)
    seen = set()
    for _ in range(6):
        base = random_model(rng, rng.randint(8, 9), [p, q, PropSymbol("r")], edge_p=0.3)
        copies = range(8)
        m = kripke.KripkeStructure(
            [f"{w}.{c}" for w in base.worlds for c in copies],
            [(f"{u}.{c}", f"{v}.{d}") for u, v in base.edges for c in copies for d in copies],
            {s: {f"{w}.{c}" for w in ws for c in copies} for s, ws in base.valuation.items()},
        )
        assert len(m.worlds) >= 64
        for f in formulas:
            verdict = mt_eval(m, m.worlds, f, max_bits=None)
            assert verdict == brute_mt(m, bisim_representatives(m, m.worlds, f), f)
            seen.add(verdict)
    assert seen == {True, False}
    assert searched


def test_a_fourteen_ior_unfolding_replays_by_search():
    # The unfolding has 14 `ior`, each atom an `|` of disjuncts
    # `pattern & (t ior !t)`, and the replay splits the team of 15 roots
    # of a 46-world countermodel between them. Enumerating that split
    # took 26 s; the countermodel refutes every selection of the
    # unfolding at one of the roots.
    f = parse_modal(
        "(((dep((p & q), <>q; (!r & p)) & (!r & dep((p | p), (r & r); []p)))"
        " | dep((q & !r); []!p)) | dep((!r | p), []q; (r | q)))"
    )
    g = emdl_to_mliv(f)
    assert count_idis(g) == 14
    res = emdl_valid(f)
    assert isinstance(res, Invalid) and res.checked == 15
    roots = sorted(res.team)
    assert len(roots) == 15
    for _, sel in eliminate_idis(g):
        assert any(not _bml_point(res.model, t, sel) for t in roots)


def test_uncapped_emdl_decisions_are_certified():
    # EMDL formulas whose unfoldings have 5-12 `ior`, up to 4096
    # selections, decided with no cap on selections. A countermodel team
    # refutes each selection at one of its points, and a witness is the
    # one the reference walk finds.
    rng = random.Random(11)
    decided = invalid = 0
    while decided < 300:
        f = random_emdl_formula(rng, ["p", "q", "r"], rng.randint(4, 10), 2)
        g = emdl_to_mliv(f)
        if not 5 <= count_idis(g) <= 12:
            continue
        decided += 1
        res = emdl_valid(f, max_selections=None)
        if isinstance(res, Valid):
            assert res == reference_mliv_valid(g), render(f)
            continue
        invalid += 1
        for _, sel in eliminate_idis(g):
            assert any(not _bml_point(res.model, t, sel) for t in res.team), render(f)
    assert 10 < invalid < decided

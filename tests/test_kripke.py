import random

import pytest
from hypothesis import given, settings, strategies as st

import teamlogic.team_eval as team_eval
from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    GuardLimitError,
    IDis,
    KripkeStructure,
    MDep,
    NegAtom,
    Or,
    PropSymbol,
    bisimilar,
    disjoint_union,
    kripke_from_dict,
    kripke_to_dict,
    ml_point_eval,
    mt_eval,
    parse_modal,
    render,
    team_bisimilar,
)

from oracles import (
    brute_mt,
    random_emdl_formula,
    random_ml_formula,
    random_mliv_formula,
    random_model,
    random_subteam,
    reference_bisimulation,
    reference_team_bisimilar,
)

p = PropSymbol("p")
q = PropSymbol("q")
r = PropSymbol("r")


def chain():
    return KripkeStructure(
        ["w0", "w1", "w2"],
        [("w0", "w1"), ("w1", "w2")],
        {p: {"w0", "w2"}, q: {"w1"}},
    )


def test_structure_validation():
    with pytest.raises(ValueError):
        KripkeStructure([], [], {})
    with pytest.raises(ValueError):
        KripkeStructure(["a", "a"], [], {})
    with pytest.raises(ValueError):
        KripkeStructure(["a"], [("a", "b")], {})
    with pytest.raises(ValueError):
        KripkeStructure(["a"], [], {p: {"b"}})


def test_successors_sorted():
    m = KripkeStructure(["a", "b", "c"], [("a", "c"), ("a", "b")], {})
    assert m.successors("a") == ("b", "c")
    assert m.image({"a"}) == frozenset({"b", "c"})


def test_kripke_json_round_trip():
    m = chain()
    raw = kripke_to_dict(m, team={"w0", "w1"})
    m2, team = kripke_from_dict(raw)
    assert m2 == m
    assert team == frozenset({"w0", "w1"})
    # a missing team means every world
    m3, team3 = kripke_from_dict(
        {"worlds": ["a"], "edges": [], "valuation": {"p": ["a"]}}
    )
    assert team3 == frozenset({"a"})
    with pytest.raises(ValueError):
        kripke_from_dict(
            {"worlds": ["a"], "edges": [], "valuation": {}, "team": ["z"]}
        )


def test_kripke_json_refuses_a_string_for_a_list():
    # read as a list, "ab" once gave worlds a and b and the edge a -> b;
    # world names must be strings
    good = {"worlds": ["a", "b"], "edges": [["a", "b"]], "valuation": {"p": ["b"]}, "team": ["a"]}
    kripke_from_dict(good)
    for key, bad in (
        ("worlds", "ab"),
        ("edges", ["ab"]),
        ("edges", "ab"),
        ("valuation", {"p": "b"}),
        ("valuation", [["p", "b"]]),
        ("team", "a"),
        # a nested list where a world name belongs once escaped as TypeError
        ("worlds", [["a"], "b"]),
        ("edges", [[["a"], "b"]]),
        ("valuation", {"p": [["b"]]}),
        ("team", [["a"]]),
    ):
        with pytest.raises(ValueError):
            kripke_from_dict({**good, key: bad})
    with pytest.raises(ValueError):
        kripke_from_dict({"worlds": "ab", "edges": ["ab"], "valuation": {"p": "b"}, "team": "a"})


def test_point_evaluation():
    m = chain()
    assert ml_point_eval(m, "w0", parse_modal("p & <> q"))
    assert ml_point_eval(m, "w0", parse_modal("[] (q & <> p)"))
    assert not ml_point_eval(m, "w2", parse_modal("<> p"))
    # dead ends satisfy every box
    assert ml_point_eval(m, "w2", parse_modal("[] (p & !p)"))
    with pytest.raises(ValueError):
        ml_point_eval(m, "w0", MDep((), Atom(p)))


def test_point_evaluation_checks_the_whole_formula():
    m = chain()
    # p holds at w0, so neither answer depends on the right disjunct;
    # r is undeclared and the dependence atom is not plain modal logic
    with pytest.raises(ValueError, match="symbol r is missing from the valuation"):
        ml_point_eval(m, "w0", parse_modal("p | r"))
    with pytest.raises(ValueError, match="not a plain modal formula: MDep"):
        ml_point_eval(m, "w0", Or(Atom(p), MDep((), Atom(p))))
    with pytest.raises(ValueError, match="unknown world: w9"):
        ml_point_eval(m, "w9", Atom(p))


def _nest(op, f, times):
    for _ in range(times):
        f = op(f)
    return f


def test_point_evaluation_is_linear_and_needs_no_recursion():
    worlds = ["a", "b", "c"]
    clique = KripkeStructure(worlds, [(u, v) for u in worlds for v in worlds], {p: set()})
    # evaluating once per successor took 3^40 steps here
    assert not ml_point_eval(clique, "a", _nest(Diamond, Atom(p), 40))
    assert ml_point_eval(clique, "a", _nest(Diamond, Or(Atom(p), NegAtom(p)), 40))
    # far past the recursion limit
    assert not ml_point_eval(clique, "a", _nest(Box, Atom(p), 2000))
    assert ml_point_eval(clique, "a", _nest(Box, NegAtom(p), 2000))


def test_team_clauses_frozen_examples():
    m = chain()
    assert mt_eval(m, {"w0", "w2"}, parse_modal("p"))
    assert not mt_eval(m, {"w0", "w1"}, parse_modal("p"))
    assert mt_eval(m, {"w0", "w1"}, parse_modal("p | q"))
    assert mt_eval(m, set(), parse_modal("p & !p"))
    # the diamond needs a successor for every member
    assert mt_eval(m, {"w0", "w1"}, parse_modal("<> (p | q)"))
    assert not mt_eval(m, {"w1", "w2"}, parse_modal("<> p"))
    assert mt_eval(m, {"w0"}, parse_modal("[] q"))
    assert mt_eval(m, {"w0", "w1"}, parse_modal("p ior q") ) is False
    assert mt_eval(m, {"w0", "w2"}, parse_modal("p ior q"))


def test_modal_dependence_atom():
    m = KripkeStructure(
        ["a", "b", "c", "d"],
        [],
        {p: {"a", "b"}, q: {"a", "c"}},
    )
    assert not mt_eval(m, {"a", "b"}, parse_modal("dep(p; q)"))
    assert mt_eval(m, {"a", "c"}, parse_modal("dep(q; p)")) is False
    assert mt_eval(m, {"a", "d"}, parse_modal("dep(p; q)"))
    # with no edges the argument <> p is constant, so q must be too
    assert not mt_eval(m, {"b", "c"}, parse_modal("dep(<> p; q)"))
    m2 = KripkeStructure(
        ["a", "b", "c"],
        [("b", "a")],
        {p: {"a", "b"}, q: {"a", "c"}},
    )
    # b reaches a p-world and c reaches nothing, so the argument splits them
    assert mt_eval(m2, {"b", "c"}, parse_modal("dep(<> p; q)"))


def test_prop_dep_atom_is_rejected_on_worlds():
    m = chain()
    with pytest.raises(ValueError):
        mt_eval(m, {"w0"}, Dep((p,), q))


def test_team_must_be_subset_of_worlds():
    m = chain()
    with pytest.raises(ValueError):
        mt_eval(m, {"w9"}, parse_modal("p"))
    with pytest.raises(ValueError):
        mt_eval(m, {"w0"}, parse_modal("r"))


def test_choice_guard():
    # Four worlds see all eight, so their successor choices number 4096;
    # the diamond's search needs no bit for an atom true everywhere and
    # one for each of the pairs of `dep(; q)` and `dep(r; q)`.
    worlds = [f"w{i}" for i in range(8)]
    edges = [(a, b) for a in worlds[:4] for b in worlds]
    r = PropSymbol("r")
    m = KripkeStructure(
        worlds, edges, {p: set(worlds), q: set(worlds[:2] + worlds[4:6]), r: set(worlds[::2])}
    )
    team = set(worlds[:4])
    assert mt_eval(m, team, Diamond(MDep((), Atom(p))), max_bits=0)
    for f, bits in ((Diamond(MDep((), Atom(q))), 1), (Diamond(MDep((Atom(r),), Atom(q))), 2)):
        with pytest.raises(GuardLimitError) as info:
            mt_eval(m, team, f, max_bits=bits - 1)
        assert (info.value.guard, info.value.requested, info.value.limit) == ('max_bits', bits, bits - 1)
        assert mt_eval(m, team, f, max_bits=bits)


def test_split_guard_is_lazy():
    # only certificate bits count: atoms constant on the team have no
    # pair, so their split needs none, however many worlds it divides
    worlds = [f"w{i}" for i in range(30)]
    r = PropSymbol("r")
    m = KripkeStructure(worlds, [], {p: set(worlds), q: set(), r: set(worlds[::2])})
    assert mt_eval(m, set(worlds), parse_modal("p | !p"), max_bits=0)
    assert mt_eval(m, set(worlds), parse_modal("dep(; p) | dep(; q)"), max_bits=0)
    with pytest.raises(GuardLimitError) as info:
        mt_eval(m, set(worlds), parse_modal("dep(; r) | dep(; r)"), max_bits=1)
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_bits', 2, 1)
    assert mt_eval(m, set(worlds), parse_modal("dep(; r) | dep(; r)"))


def test_disjoint_union():
    m1 = chain()
    m2 = KripkeStructure(["x"], [("x", "x")], {p: {"x"}})
    u = disjoint_union(m1, m2)
    assert set(u.worlds) == {"L:w0", "L:w1", "L:w2", "R:x"}
    assert ("R:x", "R:x") in u.edges
    assert u.valuation[q] == frozenset({"L:w1"})
    assert ml_point_eval(u, "L:w0", parse_modal("p & <> q"))


def test_bisimilar_basic():
    m1 = chain()
    u = disjoint_union(m1, m1)
    for w in m1.worlds:
        assert bisimilar(m1, w, u, f"L:{w}")
        assert bisimilar(m1, w, u, f"R:{w}")
    assert not bisimilar(m1, "w0", m1, "w1")
    # one self-loop vs a two-cycle: bisimilar despite different shape
    loop = KripkeStructure(["a"], [("a", "a")], {p: {"a"}})
    cyc = KripkeStructure(["b", "c"], [("b", "c"), ("c", "b")], {p: {"b", "c"}})
    assert bisimilar(loop, "a", cyc, "b")


def test_team_bisimilar():
    m1 = chain()
    u = disjoint_union(m1, m1)
    team = {"w0", "w2"}
    mirrored = {f"L:{w}" for w in team} | {f"R:{w}" for w in team}
    assert team_bisimilar(m1, team, u, mirrored)
    assert not team_bisimilar(m1, {"w0"}, u, {"L:w1"})
    assert team_bisimilar(m1, set(), u, set())


def _bisim_model(rng: random.Random, tag: str, syms) -> KripkeStructure:
    worlds = [f"{tag}{i}" for i in range(rng.randint(1, 4))]
    edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
    valuation = {s: {w for w in worlds if rng.random() < 0.3} for s in syms}
    return KripkeStructure(worlds, edges, valuation)


def test_bisimilar_against_the_pair_fixpoint_seeded():
    # q is declared on one side only, and false at every world of the other
    rng = random.Random(26)
    seen_world, seen_team = set(), set()
    for _ in range(300):
        m1 = _bisim_model(rng, "u", (p, q))
        m2 = _bisim_model(rng, "v", (p,))
        if rng.random() < 0.5:
            m1, m2 = m2, m1
        rel = reference_bisimulation(m1, m2)
        for u in m1.worlds:
            for v in m2.worlds:
                verdict = bisimilar(m1, u, m2, v)
                assert verdict == ((u, v) in rel)
                seen_world.add(verdict)
        team1, team2 = random_subteam(rng, m1.worlds), random_subteam(rng, m2.worlds)
        verdict = team_bisimilar(m1, team1, m2, team2)
        assert verdict == reference_team_bisimilar(rel, team1, team2)
        seen_team.add(verdict)
    assert seen_world == seen_team == {False, True}


def test_against_brute_oracle_seeded():
    # Each case also runs as f & g and f | g, where g is a structurally
    # equal copy of f made of separate objects, so the evaluator shares
    # nodes between the two sides. Their teams come from a second
    # generator, which leaves the original draws as they were.
    rng = random.Random(23)
    pair_rng = random.Random(24)
    for _ in range(200):
        m = random_model(rng, rng.randint(1, 3), [p, q])
        team = random_subteam(rng, m.worlds)
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 6), 2)
        assert mt_eval(m, team, f, max_bits=None) == brute_mt(m, team, f)
        g = parse_modal(render(f))
        assert g == f
        pair_team = random_subteam(pair_rng, m.worlds)
        for h in (And(f, g), Or(f, g)):
            assert mt_eval(m, pair_team, h, max_bits=None) == brute_mt(m, pair_team, h)


def test_idis_formulas_against_oracle():
    rng = random.Random(29)
    for _ in range(120):
        m = random_model(rng, rng.randint(1, 3), [p, q])
        team = random_subteam(rng, m.worlds)
        f = IDis(
            random_ml_formula(rng, ["p", "q"], 4, 1),
            random_ml_formula(rng, ["p", "q"], 4, 1),
        )
        assert mt_eval(m, team, f) == brute_mt(m, team, f)


def _random_mdep(rng, syms):
    args = tuple(Atom(s) for s in rng.sample(syms, rng.randint(0, 2)))
    return MDep(args, Atom(rng.choice(syms)))


def _random_literal(rng, syms):
    return rng.choice((Atom, NegAtom))(rng.choice(syms))


# Disjunct shapes with a conflict graph that reach through the box.
BOXED_SHAPES = [
    lambda rng, s: Box(_random_mdep(rng, s)),
    lambda rng, s: Box(Box(_random_mdep(rng, s))),
    lambda rng, s: Box(And(_random_literal(rng, s), _random_mdep(rng, s))),
    lambda rng, s: Box(
        Or(_random_literal(rng, s), And(_random_literal(rng, s), _random_mdep(rng, s)))
    ),
    lambda rng, s: And(Box(_random_mdep(rng, s)), _random_mdep(rng, s)),
    lambda rng, s: _random_mdep(rng, s),
]

# Disjunct shapes without one: a diamond, an `ior`, a disjunction.
NO_GRAPH_SHAPES = [
    lambda rng, s: Diamond(_random_mdep(rng, s)),
    lambda rng, s: IDis(_random_literal(rng, s), _random_mdep(rng, s)),
    lambda rng, s: And(Or(_random_mdep(rng, s), _random_mdep(rng, s)), _random_literal(rng, s)),
]


def _spy_searches(monkeypatch) -> list:
    """Record the program of every `_search` from here on."""
    programs = []
    search = team_eval._search

    def spy(ones, zeros, bits, groups, program):
        programs.append(program)
        return search(ones, zeros, bits, groups, program)

    monkeypatch.setattr(team_eval, "_search", spy)
    return programs


def _wide_teams(rng, m):
    full = frozenset(m.worlds)
    return (random_subteam(rng, m.worlds), full, full - {rng.choice(m.worlds)})


def test_boxed_dependence_splits_match_brute_force(monkeypatch):
    # Splits between boxed dependence atoms over structures with edges
    # are searched over their pairs' orientation bits; the brute oracle
    # enumerates every split and image instead.
    routed = _spy_searches(monkeypatch)
    rng = random.Random(31)
    syms = [p, q, r]
    for _ in range(150):
        m = random_model(rng, 7, syms, edge_p=rng.choice((0.2, 0.35)))
        f = Or(rng.choice(BOXED_SHAPES[:5])(rng, syms), rng.choice(BOXED_SHAPES)(rng, syms))
        for team in _wide_teams(rng, m):
            assert mt_eval(m, team, f, max_bits=None) == brute_mt(m, team, f)
    assert len(routed) > 200


def test_boxed_splits_among_graphed_disjuncts_match_brute_force(monkeypatch):
    # Three to five disjuncts with conflict graphs through the box, on
    # structures with edges, are split by one search, whose program ORs
    # them.
    programs = _spy_searches(monkeypatch)
    rng = random.Random(41)
    syms = [p, q, r]
    verdicts = set()
    for _ in range(60):
        m = random_model(rng, 6, syms, edge_p=rng.choice((0.2, 0.35)))
        f = rng.choice(BOXED_SHAPES)(rng, syms)
        for _ in range(rng.randint(2, 4)):
            f = Or(f, rng.choice(BOXED_SHAPES)(rng, syms))
        for team in _wide_teams(rng, m):
            verdict = mt_eval(m, team, f, max_bits=None)
            assert verdict == brute_mt(m, team, f)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    widths = [sum(op == team_eval._OR for op, _, _ in program) for program in programs]
    assert len(widths) > 150 and min(widths) >= 2


def test_modal_splits_without_a_conflict_graph_match_brute_force(monkeypatch):
    searched = _spy_searches(monkeypatch)
    rng = random.Random(37)
    syms = [p, q]
    for shape in NO_GRAPH_SHAPES:
        for _ in range(4):
            m = random_model(rng, 6, syms, edge_p=0.3)
            f = Or(shape(rng, syms), rng.choice(BOXED_SHAPES)(rng, syms))
            for team in _wide_teams(rng, m):
                assert mt_eval(m, team, f, max_bits=None) == brute_mt(m, team, f)
    assert searched


# Choice points above and below images: diamonds and `ior` under
# splits, and splits under diamonds and boxes.
def _part(rng):
    if rng.random() < 0.5:
        return random_mliv_formula(rng, ["p", "q"], rng.randint(1, 6), 2)
    return random_emdl_formula(rng, ["p", "q"], rng.randint(1, 6), 2)


def _atom_dep(rng):
    return _random_mdep(rng, [p, q]) if rng.random() < 0.3 else MDep((Atom(rng.choice((p, q))),), Atom(rng.choice((p, q))))


NESTED_CHOICE_SHAPES = [
    lambda rng: Or(_part(rng), _part(rng)),
    lambda rng: Diamond(Or(_part(rng), _part(rng))),
    lambda rng: Box(Or(_part(rng), _part(rng))),
    lambda rng: Or(Diamond(_part(rng)), IDis(_part(rng), _part(rng))),
    lambda rng: And(Or(_part(rng), _part(rng)), Diamond(Or(_part(rng), _part(rng)))),
    lambda rng: IDis(Or(_part(rng), _part(rng)), Box(Or(_part(rng), Diamond(_part(rng))))),
    # atoms with two or more pairs under an image, each pair a bit
    lambda rng: Diamond(And(_atom_dep(rng), Or(_atom_dep(rng), _random_literal(rng, [p, q])))),
    lambda rng: Box(Or(_atom_dep(rng), Diamond(_atom_dep(rng)))),
    # one subformula twice: on two parts of a split, and on a team and
    # its image, where each occurrence needs bits of its own
    lambda rng: (lambda x: Or(x, x))(_part(rng)),
    lambda rng: (lambda x: Or(And(Box(x), x), _part(rng)))(_part(rng)),
    lambda rng: (lambda x: IDis(And(Diamond(x), x), _part(rng)))(_atom_dep(rng)),
]


def test_nested_choice_points_match_brute_force(monkeypatch):
    # The brute oracle enumerates every split, successor team and `ior`
    # side; the evaluator runs one search per choice point, through the
    # images of its diamonds and boxes.
    programs = _spy_searches(monkeypatch)
    rng = random.Random(47)
    verdicts = []
    for _ in range(3000):
        m = random_model(rng, rng.randint(1, 5), [p, q], edge_p=rng.choice((0.25, 0.4, 0.6)))
        team = random_subteam(rng, m.worlds)
        f = rng.choice(NESTED_CHOICE_SHAPES)(rng)
        verdict = mt_eval(m, team, f, max_bits=None)
        assert verdict == brute_mt(m, team, f), (render(f), kripke_to_dict(m, team))
        verdicts.append(verdict)
    assert 300 < verdicts.count(False) < 2700
    imaged = [pr for pr in programs if any(op in (team_eval._DIA, team_eval._BOX) for op, _, _ in pr)]
    assert len(imaged) > 300


def _spy_holds(monkeypatch) -> list:
    """Record the node and team of every `_holds` from here on."""
    decided = []
    holds = team_eval._TeamEvaluator._holds
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_holds", lambda self, g, team: decided.append((g, team)) or holds(self, g, team)
    )
    return decided


def _ior_nest(rng, budget):
    # `ior` over dependence atoms, nested under `&`, boxes, splits and
    # other `ior`
    if budget <= 1:
        return _atom_dep(rng) if rng.random() < 0.5 else _random_literal(rng, [p, q])
    roll = rng.random()
    if roll < 0.15:
        return Box(_ior_nest(rng, budget - 1))
    left = rng.randint(1, budget - 1)
    op = IDis if roll < 0.6 else And if roll < 0.85 else Or
    return op(_ior_nest(rng, left), _ior_nest(rng, budget - left))


def test_nested_ior_over_dependence_atoms_matches_brute_force(monkeypatch):
    # An `ior` the walk reaches, under `&`, a box or another such `ior`,
    # is decided as two walks on its team; one under a split is a bit of
    # that split's search. The brute oracle tries both sides of each.
    decided = _spy_holds(monkeypatch)
    rng = random.Random(59)
    verdicts, walked = [], 0
    for _ in range(2000):
        m = random_model(rng, rng.randint(1, 4), [p, q], edge_p=rng.choice((0.3, 0.6)))
        team = frozenset(m.worlds) if rng.random() < 0.5 else random_subteam(rng, m.worlds)
        f = _ior_nest(rng, rng.randint(2, 8))
        before = len(decided)
        verdict = mt_eval(m, team, f)
        assert verdict == brute_mt(m, team, f), (render(f), kripke_to_dict(m, team))
        verdicts.append(verdict)
        walked += type(f) is IDis and len(decided) == before
    assert 300 < verdicts.count(False) < 1700
    assert walked > 500


@pytest.mark.parametrize("k", [13, 20])
def test_nested_ior_of_constancy_atoms_needs_no_search(monkeypatch, k):
    # Two worlds differing on every p_i, so each dep(; p_i) fails and so
    # does their nested `ior`, decided by walks alone at the default
    # max_bits, whatever the number of `ior`.
    searched = _spy_searches(monkeypatch)
    syms = [PropSymbol(f"p{i}") for i in range(k)]
    f = MDep((), Atom(syms[0]))
    for s in syms[1:]:
        f = IDis(f, MDep((), Atom(s)))
    m = KripkeStructure(["a", "b"], [], {s: {"a"} for s in syms})
    assert mt_eval(m, {"a", "b"}, f) is False
    assert mt_eval(m, {"a"}, f) is True
    assert searched == []


def test_an_ior_is_walked_once_per_team():
    # 40 levels of an `ior` of a node with itself under a box: 2^40
    # paths, each level's walks run once per team, deeper than the
    # recursion limit allows a call per level
    m = KripkeStructure(["a", "b"], [("a", "b"), ("b", "a")], {p: {"a"}, q: {"a", "b"}})
    f = MDep((), Atom(p))
    for _ in range(40):
        f = IDis(f, f)
    g = MDep((), Atom(q))
    for _ in range(2000):
        g = IDis(And(g, MDep((), Atom(p))), Box(g))
    assert mt_eval(m, {"a", "b"}, f) is False
    assert mt_eval(m, {"a", "b"}, g) is True
    assert mt_eval(m, {"a", "b"}, And(g, f)) is False


def test_a_diamond_at_a_dead_end_fails_on_the_walk(monkeypatch):
    # A member without successors has no successor team, so a diamond
    # over a formula that is not flat fails there without a search; on
    # teams without such a member the search decides.
    decided = _spy_holds(monkeypatch)
    rng = random.Random(61)
    verdicts = set()
    for _ in range(300):
        m = random_model(rng, rng.randint(1, 4), [p, q], edge_p=0.3)
        team = random_subteam(rng, m.worlds)
        f = Diamond(_ior_nest(rng, rng.randint(2, 5)))
        if not f._mask & team_eval._NONFLAT:
            continue
        dead_end = any(not m.successors(w) for w in team)
        before = len(decided)
        verdict = mt_eval(m, team, f)
        assert verdict == brute_mt(m, team, f), (render(f), kripke_to_dict(m, team))
        if dead_end:
            assert verdict is False and len(decided) == before
        verdicts.add((dead_end, verdict))
    assert verdicts == {(True, False), (False, False), (False, True)}


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 3))
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    val_p = draw(st.lists(st.sampled_from(worlds), max_size=n, unique=True))
    val_q = draw(st.lists(st.sampled_from(worlds), max_size=n, unique=True))
    team = draw(st.lists(st.sampled_from(worlds), max_size=n, unique=True))
    m = KripkeStructure(worlds, edges, {p: set(val_p), q: set(val_q)})
    return m, frozenset(team)


@st.composite
def modal_team_formulas(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        sym = PropSymbol(draw(st.sampled_from(["p", "q"])))
        if kind == 0:
            return Atom(sym)
        if kind == 1:
            return NegAtom(sym)
        return MDep((Atom(PropSymbol("p")),), Atom(sym))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Diamond(draw(modal_team_formulas(depth + 1)))
    if kind == 1:
        return Box(draw(modal_team_formulas(depth + 1)))
    from teamlogic import And

    op = And if kind == 2 else draw(st.sampled_from([Or, IDis]))
    return op(
        draw(modal_team_formulas(depth + 1)), draw(modal_team_formulas(depth + 1))
    )


@given(small_models(), modal_team_formulas())
@settings(max_examples=150, deadline=None)
def test_modal_truth_matches_oracle(mt, f):
    m, team = mt
    assert mt_eval(m, team, f, max_bits=None) == brute_mt(m, team, f)


@given(small_models(), modal_team_formulas())
@settings(max_examples=100, deadline=None)
def test_modal_downward_closure(mt, f):
    m, team = mt
    if not mt_eval(m, team, f, max_bits=None):
        return
    ordered = sorted(team)
    for mask in range(1 << len(ordered)):
        sub = {w for i, w in enumerate(ordered) if mask >> i & 1}
        assert mt_eval(m, sub, f, max_bits=None)

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import teamlogic.team_eval as team_eval
from teamlogic import (
    And,
    Assignment,
    Atom,
    Dep,
    GuardLimitError,
    KripkeStructure,
    MDep,
    NegAtom,
    Or,
    PropSymbol,
    PropTeam,
    max_team,
    mt_eval,
    parse_prop,
    pd_sat,
    pd_valid,
    pl_pointwise,
    pt_eval,
    render,
    symbols,
    team_from_dict,
    team_to_dict,
    walk,
)
from teamlogic.formula import _fold

from oracles import (
    PropTeamSetOracle,
    brute_pt,
    pd_valid_bruteforce,
    random_pd_formula,
    random_team,
)

p = PropSymbol("p")
q = PropSymbol("q")
r = PropSymbol("r")


def T(domain, rows):
    return PropTeam(tuple(PropSymbol(s) for s in domain), rows)


def test_assignment_validation():
    a = Assignment.from_mapping({"q": 0, "p": 1})
    assert a.domain == (p, q)
    assert a.as_dict() == {p: 1, q: 0}
    assert a[p] == 1
    with pytest.raises(ValueError):
        Assignment((p, q), (1, 2))
    with pytest.raises(ValueError):
        Assignment((p, p), (1, 1))


def test_team_requires_sorted_domain():
    # constructors take canonical order; only the JSON loader permutes
    with pytest.raises(ValueError):
        PropTeam((q, p), [(0, 1)])
    t1 = team_from_dict({"domain": ["q", "p"], "rows": [[0, 1]]})
    assert t1.domain == (p, q)
    assert t1.rows == frozenset({(1, 0)})


def test_team_rejects_bad_rows():
    with pytest.raises(ValueError):
        T(["p"], [(0, 1)])
    with pytest.raises(ValueError):
        T(["p", "q"], [(0, 2)])
    # rows hold the integers 0 and 1, not booleans
    with pytest.raises(ValueError):
        T(["p"], [(True,)])


def test_team_json_round_trip():
    raw = {"domain": ["q", "p"], "rows": [[0, 1], [1, 1]]}
    team = team_from_dict(raw)
    again = team_from_dict(team_to_dict(team))
    assert again == team
    with pytest.raises(ValueError):
        team_from_dict({"domain": ["p"], "rows": [[0], [0]]})
    with pytest.raises(ValueError):
        team_from_dict({"rows": [[0]]})


def test_team_json_takes_lists_and_the_integers_0_and_1():
    # a string domain once read as one symbol per character, and a JSON
    # true was kept in the row
    for raw in (
        {"domain": "pq", "rows": [[0, 1]]},
        {"domain": ["p", "q"], "rows": "01"},
        {"domain": ["p", "q"], "rows": ["01"]},
        {"domain": ["p"], "rows": [[True]]},
        {"domain": ["p"], "rows": [[False]]},
        {"domain": ["p"], "rows": [[1.0]]},
        {"domain": ["p"], "rows": [[[0]]]},
        {"domain": ["p"], "rows": [[{}]]},
    ):
        with pytest.raises(ValueError):
            team_from_dict(raw)
    team = team_from_dict(json.loads('{"domain": ["p"], "rows": [[1], [0]]}'))
    assert team == PropTeam((p,), [(0,), (1,)])


def test_pointwise_evaluation():
    a = Assignment.from_mapping({"p": 1, "q": 0})
    assert pl_pointwise(a, parse_prop("p & !q"))
    assert not pl_pointwise(a, parse_prop("q | !p"))
    with pytest.raises(ValueError):
        pl_pointwise(a, Dep((), p))
    with pytest.raises(ValueError):
        pl_pointwise(Assignment.from_mapping({"p": 1}), Atom(q))
    # a symbol without a value is refused by the formula, whatever the
    # values would short-circuit, and the least one is named
    for values in ({"p": 1}, {"p": 0}):
        with pytest.raises(ValueError, match="^symbol q is outside the assignment domain$"):
            pl_pointwise(values, parse_prop("p | q"))
    with pytest.raises(ValueError, match="^symbol q is outside"):
        pl_pointwise({"s": 1}, parse_prop("s | r & q"))


@pytest.mark.parametrize("value", [2, "1", 1.0, True, None])
def test_assignments_take_the_integers_0_and_1_only(value):
    # the rule `PropTeam` applies to its rows; a tautology must not come
    # out false on a value it cannot read
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        Assignment((p,), (value,))
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        Assignment.from_mapping({"p": value})
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        pl_pointwise({"p": value}, parse_prop("p | !p"))
    with pytest.raises(ValueError, match="integers 0 or 1"):
        PropTeam((p,), [(value,)])


def test_empty_team_satisfies_everything():
    team = T(["p", "q"], [])
    assert pt_eval(team, parse_prop("p & !p"))
    assert pt_eval(team, parse_prop("dep(p; q)"))


def test_dependence_atom_frozen_example():
    team = T(["p", "q"], [(0, 0), (0, 1)])
    assert not pt_eval(team, parse_prop("dep(p; q)"))
    assert pt_eval(team, parse_prop("dep(q; p)"))
    assert pt_eval(team, parse_prop("dep(; p)"))
    assert not pt_eval(team, parse_prop("dep(; q)"))


def test_split_disjunction_frozen_example():
    team = T(["p", "q"], [(0, 0), (0, 1), (1, 1)])
    # {00,01} goes left to !p, {11} right to p & q
    assert pt_eval(team, parse_prop("!p | p & q"))
    assert not pt_eval(team, parse_prop("q | p & !q"))


def test_pt_eval_requires_domain_coverage():
    team = T(["p"], [(1,)])
    with pytest.raises(ValueError):
        pt_eval(team, Atom(q))


def test_max_team():
    t = max_team((q, p))
    assert t.domain == (p, q)
    assert len(t.rows) == 4
    with pytest.raises(GuardLimitError) as info:
        max_team(tuple(PropSymbol(f"x{i}") for i in range(21)))
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_domain', 21, 20)


def test_split_guard_trips_on_wide_teams():
    # the guard counts certificate bits, not rows: two atoms with two
    # conflict pairs each split the 32 rows on 4 bits, while each copy
    # of an atom with 16 classes brings 16 bits of its own
    syms = tuple(PropSymbol(f"x{i}") for i in range(5))
    team = max_team(syms)
    assert pt_eval(team, Or(Dep((syms[0],), syms[1]), Dep((syms[2],), syms[3]))) is False
    wide = Dep(syms[:4], syms[4])
    f = Or(wide, wide)
    with pytest.raises(GuardLimitError) as info:
        pt_eval(team, f)
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_bits', 32, 24)
    assert pt_eval(team, f, max_bits=None) is True
    # pd_valid searches with no bound on the bits
    assert pd_valid(f) is True


def test_a_split_below_a_split_decides_on_32_rows():
    # The first disjunct, itself a split under `&`, once sent the
    # 32-row split of pd_valid to subteam enumeration, which ran past
    # 8 s; the search has three bits. It is False: `e & !e` takes no
    # row and the first disjunct no row with c false, so those rows all
    # go to `dep(; d)`, and they disagree on d.
    f = parse_prop("((dep(; a) | dep(; b)) & c) | dep(; d) | (e & !e)")
    assert pd_valid(f) is False
    assert pt_eval(max_team(symbols(f)), f) is False


def test_split_guard_is_lazy():
    # only a search counts bits: a flat disjunction, a split with one
    # disjunct that is not flat, and a split whose atoms have no pair on
    # the team never trip even a guard of 0, however wide the team
    syms = tuple(PropSymbol(f"x{i}") for i in range(5))
    team = max_team(syms)
    x0, x1 = Atom(syms[0]), Atom(syms[1])
    assert pt_eval(team, Or(x0, NegAtom(syms[0])), max_bits=0)
    assert not pt_eval(team, Or(Dep((), syms[0]), x1), max_bits=0)
    only_x0 = PropTeam(syms, [row for row in team.rows if row[0]])
    assert pt_eval(only_x0, Or(Dep((), syms[0]), Dep((syms[0],), syms[0])), max_bits=0)
    with pytest.raises(GuardLimitError) as info:
        pt_eval(team, Or(Dep((), syms[0]), Dep((), syms[1])), max_bits=0)
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_bits', 2, 0)


def test_pd_valid_frozen_examples():
    assert pd_valid(parse_prop("dep(p; q) | dep(p; q)"))
    assert not pd_valid(parse_prop("dep(p; q)"))
    assert pd_valid(parse_prop("p | !p"))
    assert not pd_valid(parse_prop("p | q"))
    assert not pd_valid(parse_prop("dep(; p)"))
    # any team splits into its p=0 and p=1 halves, each constant on p
    assert pd_valid(parse_prop("dep(; p) | dep(; p)"))
    team = max_team((p, q))
    assert pt_eval(team, parse_prop("dep(; p) | dep(; p)"))


def test_pd_sat():
    assert pd_sat(parse_prop("p & !p")) is not None  # empty team
    assert pd_sat(parse_prop("p & !p"), require_nonempty=True) is None
    team = pd_sat(parse_prop("dep(; p) & (p | !p)"), require_nonempty=True)
    assert team is not None and len(team.rows) == 1


def test_pd_sat_returns_the_first_satisfying_row():
    rng = random.Random(23)
    found = 0
    for _ in range(300):
        f = random_pd_formula(rng, ["p", "q", "r", "s"], rng.randint(1, 9))
        domain = tuple(sorted(symbols(f)))
        expected = None
        for bits in itertools.product((0, 1), repeat=len(domain)):
            team = PropTeam(domain, (bits,))
            if brute_pt(team, f):
                expected = team
                break
        assert pd_sat(f, require_nonempty=True) == expected
        found += expected is not None
    assert 0 < found < 300
    # unsatisfiable over 20 symbols: no row is tried one by one
    text = " & ".join(f"(x{i} | !x{i})" for i in range(20)) + " & x0 & !x0 & dep(x1; x2)"
    assert pd_sat(parse_prop(text), require_nonempty=True) is None
    xs = [Atom(PropSymbol(f"x{i:02d}")) for i in range(12)]
    conj = xs[0]
    for x in xs[1:]:
        conj = And(conj, x)
    team = pd_sat(conj, require_nonempty=True)
    assert team.rows == frozenset({(1,) * 12})


def test_bruteforce_guard():
    f = parse_prop("p | q")
    with pytest.raises(GuardLimitError):
        pd_valid_bruteforce(f, tuple(PropSymbol(f"x{i}") for i in range(5)))


def test_against_brute_oracle_seeded():
    # Each case also runs as f & g and f | g, where g is a structurally
    # equal copy of f made of separate objects, so the evaluator shares
    # nodes between the two sides. Their teams come from a second
    # generator, which leaves the original draws as they were.
    rng = random.Random(91)
    pair_rng = random.Random(92)
    for _ in range(250):
        f = random_pd_formula(rng, ["p", "q"], rng.randint(1, 9))
        team = random_team(rng, ["p", "q"], 4)
        assert pt_eval(team, f, max_bits=None) == brute_pt(team, f)
        g = parse_prop(render(f))
        assert g == f
        pair_team = random_team(pair_rng, ["p", "q"], 4)
        for h in (And(f, g), Or(f, g)):
            assert pt_eval(pair_team, h, max_bits=None) == brute_pt(pair_team, h)


def _modal_twin(f):
    """`f` with each dependence atom made a modal one over the same atoms."""
    if isinstance(f, (And, Or)):
        return type(f)(_modal_twin(f.left), _modal_twin(f.right))
    if isinstance(f, Dep):
        return MDep(tuple(Atom(a) for a in f.args), Atom(f.target))
    return f


def _random_dep(rng, dom):
    return Dep(tuple(rng.sample(dom, rng.randint(0, 2))), rng.choice(dom))


def _random_literal(rng, dom):
    return rng.choice((Atom, NegAtom))(rng.choice(dom))


# Disjunct shapes with a conflict graph: a dependence atom alone, and
# wrapped in a conjunction or a disjunction with flat formulas or with
# a second atom.
TWO_COHERENT_SHAPES = [
    lambda rng, dom: _random_dep(rng, dom),
    lambda rng, dom: And(_random_literal(rng, dom), _random_dep(rng, dom)),
    lambda rng, dom: Or(_random_literal(rng, dom), _random_dep(rng, dom)),
    lambda rng, dom: And(_random_dep(rng, dom), _random_dep(rng, dom)),
    lambda rng, dom: Or(
        _random_literal(rng, dom), And(_random_dep(rng, dom), _random_literal(rng, dom))
    ),
    lambda rng, dom: And(
        Or(_random_literal(rng, dom), _random_dep(rng, dom)), _random_dep(rng, dom)
    ),
    lambda rng, dom: And(
        Or(_random_literal(rng, dom), And(_random_dep(rng, dom), _random_literal(rng, dom))),
        _random_literal(rng, dom),
    ),
]


def _check_against_set_oracle(rng, drop_rng, oracle, m, f):
    """`f` and its modal twin on an edgeless structure whose worlds are
    the rows, on a random, the full and a near-full team, against the
    set oracle, which enumerates every split."""
    modal = _modal_twin(f)
    worlds = m.worlds
    bits = oracle.sets(f)
    full = (1 << oracle.n_rows) - 1
    near_full = full & ~(1 << drop_rng.randrange(oracle.n_rows))
    for mask in (rng.randrange(1 << oracle.n_rows), full, near_full):
        team = oracle.team_of(mask)
        expected = bool(bits >> mask & 1)
        assert pt_eval(team, f, max_bits=None) == expected
        members = {w for i, w in enumerate(worlds) if mask >> i & 1}
        assert mt_eval(m, members, modal, max_bits=None) == expected


def _spy_searches(monkeypatch) -> list:
    """Record the program of every `_search` from here on."""
    programs = []
    search = team_eval._search

    def spy(ones, zeros, bits, groups, program):
        programs.append(program)
        return search(ones, zeros, bits, groups, program)

    monkeypatch.setattr(team_eval, "_search", spy)
    return programs


def _rows_as_worlds(oracle):
    worlds = [f"r{i}" for i in range(oracle.n_rows)]
    dom = oracle.domain
    return KripkeStructure(
        worlds,
        [],
        {s: {w for w, row in zip(worlds, oracle.rows) if row[j]} for j, s in enumerate(dom)},
    )


def test_graphed_split_path_matches_enumeration(monkeypatch):
    # A split between two disjuncts with conflict graphs is one search
    # over their pairs' orientation bits. Besides a random subteam, each
    # case runs on the full team, the one pd_valid checks, and on the
    # full team less one row, which reach the search unless flat
    # disjuncts absorb the rows.
    routed = _spy_searches(monkeypatch)
    rng = random.Random(17)
    drop_rng = random.Random(18)
    dom = (p, q, r)
    oracle = PropTeamSetOracle(dom)
    m = _rows_as_worlds(oracle)
    for _ in range(400):
        left, right = rng.choice(TWO_COHERENT_SHAPES), rng.choice(TWO_COHERENT_SHAPES)
        f = Or(left(rng, dom), right(rng, dom))
        _check_against_set_oracle(rng, drop_rng, oracle, m, f)
    assert len(routed) > 500


def test_splits_without_a_conflict_graph_match_enumeration(monkeypatch):
    # a disjunct that is a disjunction of two dependence atoms has no
    # conflict graph; its split is one search all the same, the inner
    # disjunction an OR in the program like the outer one
    searched = _spy_searches(monkeypatch)
    rng = random.Random(19)
    drop_rng = random.Random(20)
    dom = (p, q, r)
    oracle = PropTeamSetOracle(dom)
    m = _rows_as_worlds(oracle)
    for _ in range(30):
        no_graph = And(Or(_random_dep(rng, dom), _random_dep(rng, dom)), _random_literal(rng, dom))
        f = Or(no_graph, rng.choice(TWO_COHERENT_SHAPES)(rng, dom))
        _check_against_set_oracle(rng, drop_rng, oracle, m, f)
    assert searched


# The five slowest ops of the benchmark's `prop` corpus (seed 7) while
# only splits between two bare dependence atoms were searched, and
# splits among other disjuncts enumerated subteams: each is a 16-row
# split between a dependence atom wrapped in `&` or `|` and a second
# dependence disjunct.
SPLIT_HEAVY = [
    "(((p | dep(j, j; z)) & z) | (p & (!z | dep(f, j, f; f))))",
    "((dep(; r) & v) | dep(r, u, v; a))",
    "(dep(z; b) | (((!p | (!p | g)) & dep(; p)) & !b))",
    "(dep(a, i; d) | ((dep(d; c) | !i) & a))",
    "((u & dep(o, o, u; d)) | dep(; b))",
]


@pytest.mark.parametrize("text", SPLIT_HEAVY)
def test_two_coherent_splits_are_never_enumerated(monkeypatch, text):
    f = parse_prop(text)
    expected = pd_valid_bruteforce(f, symbols(f))
    # the whole formula is the one choice point, decided without any
    # subteam enumerated
    decided = []
    holds = team_eval._TeamEvaluator._holds
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_holds", lambda self, g, team: decided.append(g) or holds(self, g, team)
    )
    assert pd_valid(f) == expected
    assert decided == [f]


def test_splits_among_graphed_disjuncts_match_brute_force(monkeypatch):
    # Three to five disjuncts with conflict graphs, each a dependence
    # atom alone, under `&` with literals or under an absorbing `|`, are
    # split by one search, whose program ORs them. Each formula runs on
    # a random team, the full team and the full team less one row,
    # against the brute force, which enumerates every split.
    programs = _spy_searches(monkeypatch)
    rng = random.Random(23)
    dom = (p, q, r)
    full = sorted(max_team(dom).rows)
    verdicts = set()
    for _ in range(60):
        f = rng.choice(TWO_COHERENT_SHAPES)(rng, dom)
        for _ in range(rng.randint(2, 4)):
            f = Or(f, rng.choice(TWO_COHERENT_SHAPES)(rng, dom))
        near_full = full[:]
        del near_full[rng.randrange(len(full))]
        for rows in (random_team(rng, ["p", "q", "r"], 8).rows, full, near_full):
            team = PropTeam(dom, rows)
            verdict = pt_eval(team, f, max_bits=None)
            assert verdict == brute_pt(team, f), (render(f), sorted(rows))
            verdicts.add(verdict)
    assert verdicts == {True, False}
    widths = [sum(op == team_eval._OR for op, _, _ in program) for program in programs]
    assert len(widths) > 150 and min(widths) >= 2


def test_nested_splits_match_brute_force():
    # Splits of random PD formulas, themselves holding splits under `&`
    # and `|`, on teams of up to 8 rows of three symbols.
    rng = random.Random(53)
    dom = ["p", "q", "r"]
    verdicts = []
    for _ in range(2000):
        f = Or(random_pd_formula(rng, dom, rng.randint(1, 8)), random_pd_formula(rng, dom, rng.randint(1, 8)))
        team = random_team(rng, dom, 8)
        verdict = pt_eval(team, f, max_bits=None)
        assert verdict == brute_pt(team, f), (render(f), sorted(team.rows))
        verdicts.append(verdict)
    assert 200 < verdicts.count(False) < 1800


def test_a_long_conjunction_splits_without_recursion():
    # The program of a 3000-conjunct chain is built on an explicit
    # stack, so the split never recurses into the chain; conjuncts on
    # one team share their bits, so its repeated atoms need one slot
    # each. The chain alternates the two conjuncts of `short`.
    short = Or(Dep((p,), q), And(Dep((), p), Dep((q,), r)))
    chain = Dep((), p)
    for i in range(2999):
        chain = And(chain, Dep((q,), r) if i % 2 == 0 else Dep((), p))
    expected = pd_valid_bruteforce(short, (p, q, r))
    assert expected is False
    assert pd_valid(Or(Dep((p,), q), chain)) == expected


# --- the evaluator's work, counted ------------------------------------


def _full_team_evaluator():
    dom = (p, q, r)
    return team_eval._TeamEvaluator(1 << len(dom), team_eval._full_team_columns(dom), None)


def test_a_flat_formula_keeps_one_mask_per_node():
    f = parse_prop("(p & !q | r) & (p & !q | !r) | q")
    ev = _full_team_evaluator()
    assert ev.eval(f, ev.full) is False
    assert ev.flat.keys() == set(walk(f))
    assert None not in ev.flat.values()
    assert ev.pairs == {}


def test_formulas_sharing_subtrees_enter_each_node_once(monkeypatch):
    # A node is entered when the walk first needs it: the whole subtree
    # of a choice point (all of `f`, a split of two dependence atoms),
    # and a flat side or a dependence atom where the walk tests it. `g`
    # fails at `dep(p; q)`, entered with `f`, and enters nothing; `k`
    # enters its flat side and fails at its first atom, leaving the
    # rest of its conjunction unentered.
    entered = []
    add = team_eval._TeamEvaluator._add
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_add", lambda self, f, kids: entered.append(f) or add(self, f, kids)
    )
    f = parse_prop("dep(p; q) | (p & q) | dep(r; q)")
    g = parse_prop("(p & q) | dep(p; q) & r")
    k = parse_prop("(r & !p) | dep(r; p) & dep(q; r) & !q")
    ev = _full_team_evaluator()
    assert [ev.eval(h, ev.full) for h in (f, g, k, f)] == [True, False, False, True]
    flat_side = parse_prop("r & !p")
    assert len(entered) == len(set(entered))
    assert set(entered) == set(walk(f)) | set(walk(flat_side)) | {Dep((r,), p)}


def test_a_shared_subformula_is_decided_once_per_team(monkeypatch):
    # 2^16 occurrences of one split on 16 nested `&` of a node with
    # itself: the walk visits each conjunction once per team, and the
    # split is one choice point
    decided = []
    holds = team_eval._TeamEvaluator._holds
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_holds", lambda self, g, team: decided.append(g) or holds(self, g, team)
    )
    split = Or(Dep((), p), Dep((), q))
    f = split
    for _ in range(16):
        f = And(f, f)
    assert pt_eval(max_team((p, q)), f) is False
    assert pt_eval(PropTeam((p, q), [(0, 0), (0, 1), (1, 1)]), f) is True
    assert decided == [split, split]


def test_a_dependence_atom_has_its_graph_on_entry():
    # its conflict graph is its pairs: no member fails a dependence atom
    # over (p, q, r) member a is the assignment a in binary, p first
    p_true = 0b11110000
    q_true = 0b11001100
    pairs = {(cls & ~q_true, cls & q_true) for cls in (p_true, ~p_true & 0xFF)}
    for f in (Dep((p,), q), MDep((Atom(p),), Atom(q))):
        ev = _full_team_evaluator()
        _fold(f, ev._add, ev.flat)
        assert ev.flat[f] is None and set(ev.pairs) == {f}
        assert set(ev.pairs[f]) == pairs


teams_2 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=4, unique=True
)


@st.composite
def pd_formulas(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        sym = PropSymbol(draw(st.sampled_from(["p", "q"])))
        if kind == 0:
            return Atom(sym)
        if kind == 1:
            return NegAtom(sym)
        arg_names = draw(st.lists(st.sampled_from(["p", "q"]), max_size=2, unique=True))
        return Dep(tuple(PropSymbol(n) for n in arg_names), sym)
    op = draw(st.sampled_from([And, Or]))
    return op(draw(pd_formulas(depth + 1)), draw(pd_formulas(depth + 1)))


@given(teams_2, pd_formulas())
@settings(max_examples=200, deadline=None)
def test_downward_closure_property(rows, f):
    team = T(["p", "q"], rows)
    if not pt_eval(team, f, max_bits=None):
        return
    ordered = sorted(team.rows)
    for mask in range(1 << len(ordered)):
        sub = [row for i, row in enumerate(ordered) if mask >> i & 1]
        assert pt_eval(T(["p", "q"], sub), f, max_bits=None)


@given(teams_2, pd_formulas())
@settings(max_examples=200, deadline=None)
def test_team_truth_matches_oracle(rows, f):
    team = T(["p", "q"], rows)
    assert pt_eval(team, f, max_bits=None) == brute_pt(team, f)

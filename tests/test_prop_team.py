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
)

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
    with pytest.raises(GuardLimitError):
        max_team(tuple(PropSymbol(f"x{i}") for i in range(21)))


def test_split_guard_trips_on_wide_teams():
    syms = tuple(PropSymbol(f"x{i}") for i in range(5))
    team = max_team(syms)
    f = Or(Dep((syms[0],), syms[1]), Dep((syms[2],), syms[3]))
    with pytest.raises(GuardLimitError):
        pt_eval(team, f)
    assert pt_eval(team, f, max_split_rows=None) in (True, False)


def test_split_guard_is_lazy():
    # a flat disjunction never reaches the splitter, however wide the team
    syms = tuple(PropSymbol(f"x{i}") for i in range(5))
    team = max_team(syms)
    assert pt_eval(team, Or(Atom(syms[0]), NegAtom(syms[0])))


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
        assert pt_eval(team, f, max_split_rows=None) == brute_pt(team, f)
        g = parse_prop(render(f))
        assert g == f
        pair_team = random_team(pair_rng, ["p", "q"], 4)
        for h in (And(f, g), Or(f, g)):
            assert pt_eval(pair_team, h, max_split_rows=None) == brute_pt(pair_team, h)


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
        assert pt_eval(team, f, max_split_rows=None) == expected
        members = {w for i, w in enumerate(worlds) if mask >> i & 1}
        assert mt_eval(m, members, modal, max_split_rows=None) == expected


def _rows_as_worlds(oracle):
    worlds = [f"r{i}" for i in range(oracle.n_rows)]
    dom = oracle.domain
    return KripkeStructure(
        worlds,
        [],
        {s: {w for w, row in zip(worlds, oracle.rows) if row[j]} for j, s in enumerate(dom)},
    )


def test_two_sat_path_matches_enumeration(monkeypatch):
    # Two disjuncts with conflict graphs over 6 or more rows take the
    # 2-SAT route. Besides a random subteam, each case runs on the full
    # team, the one pd_valid checks, and on the full team less one row,
    # which take the route unless flat disjuncts absorb the rows.
    routed = []
    split = team_eval._split_2sat
    monkeypatch.setattr(team_eval, "_split_2sat", lambda *a: routed.append(1) or split(*a))
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
    # conflict graph, so its splits are enumerated
    enumerated = []
    rest = team_eval._TeamEvaluator._or_rest
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_or_rest", lambda *a: enumerated.append(1) or rest(*a)
    )
    rng = random.Random(19)
    drop_rng = random.Random(20)
    dom = (p, q, r)
    oracle = PropTeamSetOracle(dom)
    m = _rows_as_worlds(oracle)
    for _ in range(30):
        no_graph = And(Or(_random_dep(rng, dom), _random_dep(rng, dom)), _random_literal(rng, dom))
        f = Or(no_graph, rng.choice(TWO_COHERENT_SHAPES)(rng, dom))
        _check_against_set_oracle(rng, drop_rng, oracle, m, f)
    assert enumerated


# The five slowest ops of the benchmark's `prop` corpus (seed 7) while
# only splits between two bare dependence atoms went to 2-SAT: each is a
# 16-row split between a dependence atom wrapped in `&` or `|` and a
# second dependence disjunct.
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
    enumerated = []
    rest = team_eval._TeamEvaluator._or_rest
    monkeypatch.setattr(
        team_eval._TeamEvaluator, "_or_rest", lambda *a: enumerated.append(1) or rest(*a)
    )
    assert pd_valid(f) == expected
    assert enumerated == []


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
    if not pt_eval(team, f, max_split_rows=None):
        return
    ordered = sorted(team.rows)
    for mask in range(1 << len(ordered)):
        sub = [row for i, row in enumerate(ordered) if mask >> i & 1]
        assert pt_eval(T(["p", "q"], sub), f, max_split_rows=None)


@given(teams_2, pd_formulas())
@settings(max_examples=200, deadline=None)
def test_team_truth_matches_oracle(rows, f):
    team = T(["p", "q"], rows)
    assert pt_eval(team, f, max_split_rows=None) == brute_pt(team, f)

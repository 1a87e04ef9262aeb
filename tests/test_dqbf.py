import itertools
import random

import pytest

from teamlogic import (
    And,
    Atom,
    Dep,
    DqbfInstance,
    GuardLimitError,
    NegAtom,
    Not,
    Or,
    ParseError,
    PropSymbol,
    QbfInstance,
    dqbf_eval,
    dqbf_to_qbf,
    is_simple_constraint,
    parse_dqbf,
    parse_prop,
    parse_qbf,
    pd_valid,
    qbf_eval,
    qbf_to_dqbf,
    reduce_to_pd,
    render,
    render_dqbf,
    render_qbf,
    replay_witness,
    walk,
)

from oracles import (
    dedup_pool_by_table,
    dqbf_least_witness_bruteforce,
    dqbf_least_witness_kleene,
    nnf_pool,
    qbf_leaves_reference,
    random_dep_free_prop,
)
from teamlogic import dqbf, team_eval
from teamlogic.cli import run

a1, a2 = PropSymbol("a1"), PropSymbol("a2")
b1, b2 = PropSymbol("b1"), PropSymbol("b2")


def identity_instance():
    # b1 must copy a1 and may see it
    return DqbfInstance(
        [a1], [(b1, (a1,))], parse_prop("a1 & b1 | !a1 & !b1")
    )


def blind_instance():
    # same matrix, but b1 cannot see a1
    return DqbfInstance([a1], [(b1, ())], parse_prop("a1 & b1 | !a1 & !b1"))


def test_instance_validation():
    with pytest.raises(ValueError):
        DqbfInstance([a1, a1], [(b1, ())], Atom(b1))
    with pytest.raises(ValueError):
        DqbfInstance([a1], [(a1, ())], Atom(a1))
    with pytest.raises(ValueError):
        DqbfInstance([a1], [(b1, (a2,))], Atom(b1))
    # free variables in the matrix are rejected
    with pytest.raises(ValueError):
        DqbfInstance([a1], [(b1, ())], Atom(b2))
    # dependence atoms are not matrix material
    with pytest.raises(ValueError):
        DqbfInstance([a1], [(b1, ())], Dep((a1,), b1))


def test_constraints_normalized_to_declaration_order():
    inst = DqbfInstance([a1, a2], [(b1, (a2, a1))], Atom(b1))
    assert inst.existentials[0][1] == (a1, a2)


def test_eval_identity_witness():
    w = dqbf_eval(identity_instance())
    assert w is not None
    assert w.tables == {b1: (0, 1)}
    assert "b1(a1): 0->0 1->1" in w.describe()
    assert replay_witness(identity_instance(), w)


def test_eval_blind_has_no_witness():
    assert dqbf_eval(blind_instance()) is None


def test_witness_is_first_in_lexicographic_order():
    # the constant-0 table fails, then (0,1) is found
    w = dqbf_eval(identity_instance())
    assert w.tables[b1] == (0, 1)


def _random_instance(rng):
    universals = [PropSymbol(f"u{i}") for i in range(rng.randint(1, 3))]
    existentials = [PropSymbol(f"e{j}") for j in range(rng.randint(1, 3))]
    while True:
        deps = [
            rng.sample(universals, rng.randint(0, len(universals)))
            for _ in existentials
        ]
        if sum(1 << len(d) for d in deps) <= 12:
            break
    names = [s.name for s in universals + existentials]
    if rng.random() < 0.5:
        clauses = []
        for _ in range(rng.randint(1, 2 * len(names))):
            lits = []
            for _ in range(3):
                s = PropSymbol(rng.choice(names))
                lits.append(Atom(s) if rng.random() < 0.5 else NegAtom(s))
            clauses.append(Or(Or(lits[0], lits[1]), lits[2]))
        matrix = clauses[0]
        for c in clauses[1:]:
            matrix = And(matrix, c)
    else:
        matrix = random_dep_free_prop(rng, names, rng.randint(3, 15))
    return DqbfInstance(universals, list(zip(existentials, deps)), matrix)


def test_witness_is_least_on_random_instances():
    # 3-CNF and general NNF matrices, dependency sets of every size
    rng = random.Random(20140624)
    verdicts = []
    for _ in range(500):
        inst = _random_instance(rng)
        expected = dqbf_least_witness_bruteforce(inst)
        w = dqbf_eval(inst)
        assert (None if w is None else w.tables) == expected, inst
        verdicts.append(expected is not None)
    assert 100 <= sum(verdicts) <= 400



def _three_cnf(rng, universals, existentials, n_clauses):
    # every clause holds an existential, so no clause refutes the
    # instance before the search starts
    names = list(universals) + [e for e, _ in existentials]
    clauses = []
    for _ in range(n_clauses):
        e = rng.choice(existentials)[0]
        picked = [e] + rng.sample([v for v in names if v is not e], 2)
        lits = [Atom(v) if rng.random() < 0.5 else NegAtom(v) for v in picked]
        clauses.append(Or(Or(lits[0], lits[1]), lits[2]))
    matrix = clauses[0]
    for c in clauses[1:]:
        matrix = And(matrix, c)
    return DqbfInstance(universals, existentials, matrix)


def _wide_instance(rng):
    # 13-24 table bits, past the brute force
    while True:
        universals = [PropSymbol(f"u{i}") for i in range(rng.randint(2, 5))]
        deps = [
            rng.sample(universals, rng.randint(0, len(universals)))
            for _ in range(rng.randint(1, 5))
        ]
        if 13 <= sum(1 << len(d) for d in deps) <= 24:
            break
    existentials = [(PropSymbol(f"e{j}"), d) for j, d in enumerate(deps)]
    n_vars = len(universals) + len(existentials)
    return _three_cnf(rng, universals, existentials, rng.randint(n_vars + 2, 2 * n_vars + 2))


def test_witness_is_least_past_the_brute_force():
    # The plain prefix search in the oracles is the reference. Its work
    # is exponential on some instances; those past its budget are only
    # replayed, and their number is bounded.
    rng = random.Random(20141017)
    compared = []
    skipped = 0
    while len(compared) < 200:
        inst = _wide_instance(rng)
        w = dqbf_eval(inst)
        if w is not None:
            assert replay_witness(inst, w)
        try:
            expected = dqbf_least_witness_kleene(inst, max_evals=5000)
        except GuardLimitError:
            skipped += 1
            continue
        assert (None if w is None else w.tables) == expected, inst
        compared.append(expected is not None)
    assert skipped <= 40
    assert 40 <= sum(compared) <= 160


def test_reduction_validity_matches_the_skolem_search(monkeypatch):
    # Past two existentials the reduction splits the team of all
    # assignments among three or four dependence atoms; that split is
    # one search over their pairs' orientation bits.
    searched = []
    search = team_eval._search
    monkeypatch.setattr(team_eval, "_search", lambda *a: searched.append(1) or search(*a))
    rng = random.Random(16)
    truths = []
    for n_univ, n_exist in ((3, 3), (4, 3), (4, 4)):
        universals = [PropSymbol(f"a{i}") for i in range(1, n_univ + 1)]
        for _ in range(3):
            existentials = [
                (PropSymbol(f"e{i}"), rng.sample(universals, 2)) for i in range(1, n_exist + 1)
            ]
            inst = _three_cnf(rng, universals, existentials, n_univ + n_exist)
            truth = dqbf_eval(inst) is not None
            assert pd_valid(reduce_to_pd(inst)) == truth
            truths.append(truth)
    assert True in truths and False in truths
    assert len(searched) == len(truths)


def test_propagation_cuts_the_evaluations(monkeypatch):
    # A false U4/E4 instance on which the plain prefix search makes
    # 17678 matrix evaluations; forced bits refute it in 9.
    rng = random.Random(2014)
    universals = [PropSymbol(f"a{i}") for i in range(1, 5)]
    while True:
        existentials = [
            (PropSymbol(f"e{i}"), rng.sample(universals, 2)) for i in range(1, 5)
        ]
        inst = _three_cnf(rng, universals, existentials, 8)
        if dqbf_least_witness_kleene(inst) is None:
            break
    calls = _count_evaluations(monkeypatch)
    assert dqbf_eval(inst) is None
    assert len(calls) <= 16
    calls.clear()
    assert dqbf_least_witness_kleene(inst) is None
    assert len(calls) > 1000


def test_least_completion_is_tried_before_probing(monkeypatch):
    # 24 existentials without dependencies, chained by e1 -> e2 -> ...:
    # all 0 is the least witness, found in one evaluation; probing every
    # existential at both values first would take at least 48
    es = [PropSymbol(f"e{i}") for i in range(1, 25)]
    matrix = Or(NegAtom(es[0]), Atom(es[1]))
    for x, y in zip(es[1:], es[2:]):
        matrix = And(matrix, Or(NegAtom(x), Atom(y)))
    inst = DqbfInstance([], [(e, ()) for e in es], matrix)
    calls = _count_evaluations(monkeypatch)
    assert dqbf_eval(inst).tables == {e: (0,) for e in es}
    assert len(calls) == 1
    # with e1 required, each later bit is forced to 1 in turn
    inst = DqbfInstance([], [(e, ()) for e in es], And(Atom(es[0]), matrix))
    calls.clear()
    assert dqbf_eval(inst).tables == {e: (1,) for e in es}
    assert len(calls) <= 2 * 24 + 1


def _count_evaluations(monkeypatch) -> list:
    """Count the matrix evaluations from here on, one entry per call."""
    calls = []
    surely_false = team_eval._surely_false

    def counting(program, ones, zeros):
        calls.append(None)
        return surely_false(program, ones, zeros)

    monkeypatch.setattr(team_eval, "_surely_false", counting)
    return calls


def test_thousand_clause_matrix_needs_no_recursion(tmp_path, capsys):
    # the matrix is a chain of 1000 conjunctions; its normal form, the
    # search and the replay all run without recursion
    text = "forall a1\nexists e1 {a1}\nmatrix " + " & ".join(["(a1 | !a1 | e1)"] * 1000)
    inst = parse_dqbf(text)
    w = dqbf_eval(inst)
    assert w.tables == {PropSymbol("e1"): (0, 0)}
    assert replay_witness(inst, w)
    path = tmp_path / "chain.dqbf"
    path.write_text(text)
    code = run(["dqbf-eval", str(path)])
    out, err = capsys.readouterr()
    assert (code, out.splitlines()[0], err) == (0, "true", "")


def test_shared_matrix_subformulas_compile_once():
    # the repeated clause is one interned node, so one instruction
    clause = "(!a1 | b1 | !a2)"
    inst = parse_dqbf(
        "forall a1 a2\nexists b1 {a1} b2 {a1, a2}\n"
        f"matrix {clause} & (a1 | !b1) & (b2 | !a2) & {clause} & (b2 | a1)"
    )
    slot = {s: i for i, s in enumerate((a1, a2, b1, b2))}
    program = dqbf._compile_matrix(inst.matrix, slot)
    nodes = list(walk(inst.matrix))
    assert len(program) == len(set(nodes)) < len(nodes)
    w = dqbf_eval(inst)
    assert w is not None and w.tables == dqbf_least_witness_kleene(inst)


def test_deep_search_needs_no_recursion():
    universals = [PropSymbol(f"u{i}") for i in range(11)]
    inst = DqbfInstance(
        universals, [(b1, tuple(universals))], Or(Atom(b1), NegAtom(b1))
    )
    w = dqbf_eval(inst, max_table_bits=None)
    assert w.tables == {b1: (0,) * 2048}
    assert replay_witness(inst, w)


def test_replay_witness_validates_shape():
    w = dqbf_eval(identity_instance())
    with pytest.raises(ValueError):
        replay_witness(blind_instance(), w)
    from teamlogic import SkolemWitness

    bad = SkolemWitness(tables={b1: (0,)}, constraints=w.constraints)
    with pytest.raises(ValueError):
        replay_witness(identity_instance(), bad)


def test_parse_dqbf_normalizes_no_matrix_without_not(monkeypatch):
    import teamlogic.formula as formula

    def refuse(*args):
        raise AssertionError("entered _nnf")

    monkeypatch.setattr(formula, "_nnf", refuse)
    inst = parse_dqbf("forall a1\nexists b1 {a1}\nmatrix (a1 & !b1) | (!a1 & !!b1)")
    assert render(inst.matrix) == "a1 & !b1 | !a1 & b1"
    # the parser dualizes a negated compound itself and builds no `Not`
    inst = parse_dqbf("forall a1\nexists b1 {a1}\nmatrix !(a1 & b1)")
    assert render(inst.matrix) == "!a1 | !b1"
    # a matrix that holds one is normalized
    with pytest.raises(AssertionError, match="entered _nnf"):
        DqbfInstance([a1], [(b1, (a1,))], Not(And(Atom(a1), Atom(b1))))


def test_eval_guard():
    universals = [PropSymbol(f"u{i}") for i in range(13)]
    exist = [(b1, tuple(universals))]
    matrix = Or(Atom(b1), NegAtom(b1))
    inst = DqbfInstance(universals, exist, matrix)
    with pytest.raises(GuardLimitError) as info:
        dqbf_eval(inst, max_table_bits=4096)
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_table_bits', 8192, 4096)


def test_reduction_frozen_examples():
    g = reduce_to_pd(identity_instance())
    assert render(g) == "a1 & b1 | !a1 & !b1 | dep(a1; b1)"
    assert pd_valid(g)
    g2 = reduce_to_pd(blind_instance())
    assert render(g2) == "a1 & b1 | !a1 & !b1 | dep(; b1)"
    assert not pd_valid(g2)


def test_text_format_round_trip():
    inst = DqbfInstance(
        [a1, a2],
        [(b1, (a1,)), (b2, (a1, a2))],
        parse_prop("a1 & b1 | b2"),
    )
    text = render_dqbf(inst)
    assert parse_dqbf(text) == inst
    lines = text.splitlines()
    assert lines[0] == "forall a1 a2"
    assert lines[1] == "exists b1 {a1} b2 {a1, a2}"
    assert lines[2].startswith("matrix ")


def test_parse_dqbf_accepts_comments_and_empty_sets():
    text = "\n".join(
        [
            "# toy instance",
            "forall a1",
            "",
            "exists b1 {}",
            "matrix b1 | !b1",
        ]
    )
    inst = parse_dqbf(text)
    assert inst.existentials == ((b1, ()),)


def test_parse_dqbf_errors():
    with pytest.raises(ParseError):
        parse_dqbf("forall a1\nmatrix a1")
    with pytest.raises(ParseError):
        parse_dqbf("forall a1\nexists b1\nmatrix b1")
    with pytest.raises(ParseError):
        parse_dqbf("forall a1\nexists b1 {a9}\nmatrix b1")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_dqbf, "forall dep\nexists b1 {}\nmatrix b1", "line 1: 'dep' is a reserved word"),
        (parse_dqbf, "forall a1\n\nexists ior {a1}\nmatrix a1", "line 3: 'ior' is a reserved word"),
        (parse_dqbf, "forall a1\nexists b1 {a1, dep}\nmatrix b1", "line 2: 'dep' is a reserved word"),
        (parse_dqbf, "forall a1\nexists b1 {a1, 2x}\nmatrix b1", "line 2: bad variable name '2x'"),
        (parse_qbf, "# two lines\nprefix A a1 E ior\nmatrix a1", "line 2: 'ior' is a reserved word"),
        (parse_qbf, "prefix A a1 E b-1\nmatrix a1", "line 1: bad variable name 'b-1'"),
    ],
)
def test_bad_names_give_their_line(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (
            parse_dqbf,
            "forall a\nexists e {a}\nmatrix (a | e) & ? e",
            "line 3: unexpected character '?'",
            39,
        ),
        (parse_qbf, "prefix A a E e\nmatrix (a | e) &", "line 2: expected a formula, found 'end of input'", 31),
    ],
)
def test_matrix_errors_give_their_line_and_offset_in_the_text(parse, text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_dqbf, "forall a a\nexists e {a}\nmatrix e", "line 1: universal variables must be unique"),
        (parse_dqbf, "forall a\nexists e {a, a}\nmatrix e", "line 2: dependency set of e repeats a variable"),
        (
            parse_dqbf,
            "forall a\n# e is not universal\nexists e {e}\nmatrix e",
            "line 3: dependency set of e names e, which is not universal",
        ),
        (parse_dqbf, "forall a\nexists e {} e {a}\nmatrix e", "line 2: existential variables must be unique"),
        (parse_dqbf, "forall a\nexists a {}\nmatrix a", "line 2: quantified twice: ['a']"),
        (parse_dqbf, "forall a\nexists e {a}\n\nmatrix a | z", "line 4: matrix uses unquantified variables: z"),
        (
            parse_dqbf,
            "forall a\nexists e {a}\nmatrix dep(a; e)",
            "line 3: matrix must be a plain propositional formula, not contain Dep",
        ),
        (parse_qbf, "prefix A a E a\nmatrix a", "line 1: prefix quantifies a variable twice"),
        # the prefix rules, worded as `QbfInstance` words them, come before
        # any error of the matrix
        (parse_qbf, "prefix A a X e\nmatrix (", "line 1: quantifier must be 'A' or 'E', not 'X'"),
        (parse_qbf, "prefix A a E a\nmatrix (", "line 1: prefix quantifies a variable twice"),
        (parse_qbf, "# a comment\nprefix A a\nmatrix z", "line 3: matrix uses unquantified variables: z"),
    ],
)
def test_instance_errors_give_their_line(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_qbf_text_round_trip():
    q = QbfInstance([("A", a1), ("E", b1)], parse_prop("a1 | b1"))
    text = render_qbf(q)
    assert parse_qbf(text) == q
    assert text.splitlines()[0] == "prefix A a1 E b1"


def test_qbf_eval():
    assert qbf_eval(QbfInstance([("A", a1), ("E", b1)],
                                parse_prop("a1 & b1 | !a1 & !b1")))
    assert not qbf_eval(QbfInstance([("E", b1), ("A", a1)],
                                    parse_prop("a1 & b1 | !a1 & !b1")))
    with pytest.raises(GuardLimitError) as info:
        qbf_eval(
            QbfInstance(
                [("A", PropSymbol(f"v{i}")) for i in range(30)],
                Atom(PropSymbol("v0")),
            ),
        )
    assert (info.value.guard, info.value.requested, info.value.limit) == ('max_vars', 30, 24)


def test_qbf_eval_decides_a_long_prefix_at_its_first_leaf():
    # one call per prefix variable would pass Python's recursion limit
    xs = [PropSymbol(f"x{i}") for i in range(1500)]
    none_true = parse_prop(" & ".join(f"!x{i}" for i in range(1500)))
    assert qbf_eval(QbfInstance([("E", x) for x in xs], none_true), max_vars=None) is True
    assert qbf_eval(QbfInstance([("A", x) for x in xs], Atom(xs[0])), max_vars=None) is False


def test_qbf_eval_visits_the_leaves_of_the_prefix_recursion(monkeypatch):
    seen = []
    pl_eval = dqbf._pl_eval
    monkeypatch.setattr(dqbf, "_pl_eval", lambda env, f: seen.append(dict(env)) or pl_eval(env, f))
    rng = random.Random(15)
    names = ["a1", "a2", "b1", "b2"]
    for _ in range(200):
        rng.shuffle(names)
        k = rng.randint(1, 4)
        prefix = [(rng.choice("AE"), v) for v in names[:k]]
        q = QbfInstance(prefix, random_dep_free_prop(rng, names[:k], 7))
        seen.clear()
        truth, leaves = qbf_leaves_reference(q)
        assert qbf_eval(q) is truth
        assert seen == leaves


def test_qbf_to_dqbf_constraints():
    q = QbfInstance(
        [("A", a1), ("E", b1), ("A", a2), ("E", b2)], parse_prop("b1 | b2")
    )
    d = qbf_to_dqbf(q)
    assert d.universals == (a1, a2)
    assert dict(d.existentials) == {b1: (a1,), b2: (a1, a2)}
    assert is_simple_constraint(d)


def test_simple_constraint_detection():
    chain = DqbfInstance([a1, a2], [(b1, (a1,)), (b2, (a1, a2))], Atom(b1))
    assert is_simple_constraint(chain)
    fork = DqbfInstance([a1, a2], [(b1, (a1,)), (b2, (a2,))], Atom(b1))
    assert not is_simple_constraint(fork)
    assert dqbf_to_qbf(chain) is not None
    with pytest.raises(ValueError):
        dqbf_to_qbf(fork)


def test_round_trip_preserves_constraint_sets():
    q = QbfInstance(
        [("E", b1), ("A", a1), ("A", a2), ("E", b2)], parse_prop("b1 | b2 | a1")
    )
    d = qbf_to_dqbf(q)
    q2 = dqbf_to_qbf(d)
    d2 = qbf_to_dqbf(q2)
    assert d2.universals == d.universals
    assert d2.existentials == d.existentials
    assert qbf_eval(q2) == qbf_eval(q)


def test_eval_agrees_with_reduction_on_small_pool():
    pool = dedup_pool_by_table(nnf_pool([a1, b1], 5))
    for f, _, _ in pool:
        for deps in ((), (a1,)):
            inst = DqbfInstance([a1], [(b1, deps)], f)
            w = dqbf_eval(inst)
            assert (w is not None) == pd_valid(reduce_to_pd(inst))
            if w is not None:
                assert replay_witness(inst, w)


def test_skolem_search_is_exhaustive():
    # b1 with no inputs admits only two tables; both fail here
    inst = DqbfInstance(
        [a1], [(b1, ())], parse_prop("a1 & b1 | !a1 & !b1")
    )
    assert dqbf_eval(inst) is None
    # b2 sees a1, b1 does not; only b2 can carry the copy
    inst2 = DqbfInstance(
        [a1],
        [(b1, ()), (b2, (a1,))],
        parse_prop("(b1 | !b1) & (a1 & b2 | !a1 & !b2)"),
    )
    w = dqbf_eval(inst2)
    assert w is not None and w.tables[b2] == (0, 1)

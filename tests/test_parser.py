import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    IDis,
    MDep,
    NegAtom,
    Or,
    ParseError,
    PropSymbol,
    parse_modal,
    parse_prop,
    render,
)

from oracles import random_emdl_formula, random_mliv_formula

p = PropSymbol("p")
q = PropSymbol("q")
r = PropSymbol("r")


def test_parse_prop_basics():
    assert parse_prop("p & q | r") == Or(And(Atom(p), Atom(q)), Atom(r))
    assert parse_prop("p & (q | r)") == And(Atom(p), Or(Atom(q), Atom(r)))
    assert parse_prop("!p") == NegAtom(p)
    assert parse_prop("dep(p, q; r)") == Dep((p, q), r)
    assert parse_prop("dep(; p)") == Dep((), p)


def test_parse_prop_negation_normalizes():
    assert parse_prop("!(p & q)") == Or(NegAtom(p), NegAtom(q))
    assert parse_prop("!!p") == Atom(p)


def test_parse_modal_basics():
    assert parse_modal("<> p & [] q") == And(Diamond(Atom(p)), Box(Atom(q)))
    assert parse_modal("<> (p | q)") == Diamond(Or(Atom(p), Atom(q)))
    assert parse_modal("p ior q") == IDis(Atom(p), Atom(q))
    assert parse_modal("dep(<> p; [] q)") == MDep((Diamond(Atom(p)),), Box(Atom(q)))
    # atom-only dependence parses to the modal atom in modal mode
    assert parse_modal("dep(p; q)") == MDep((Atom(p),), Atom(q))
    # components come out in negation normal form
    assert parse_modal("dep(!(p & q); r)") == MDep((Or(NegAtom(p), NegAtom(q)),), Atom(r))


def test_prop_mode_rejects_modal_syntax():
    with pytest.raises(ParseError):
        parse_prop("<> p")
    with pytest.raises(ParseError):
        parse_prop("p ior q")
    # prop dependence atoms take symbol lists only
    with pytest.raises(ParseError):
        parse_prop("dep(p & q; r)")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_prop("p & ")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_prop("(p | q")
    with pytest.raises(ParseError):
        parse_prop("p q")
    with pytest.raises(ParseError):
        parse_prop("")


def test_tokenizer_error_positions_are_exact():
    for parse, text, char, position in [
        (parse_modal, "<", "<", 0),
        (parse_modal, "p & [ ] q", "[", 4),
        (parse_modal, "<> p | < q", "<", 7),
        (parse_prop, "p ? q", "?", 2),
        # symbol names are ASCII: a Unicode letter is a syntax error at
        # its own position, not a bad symbol name
        (parse_prop, "p & naïve_1", "ï", 6),
        (parse_modal, "Ω", "Ω", 0),
    ]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert f"unexpected character {char!r}" in str(info.value)
    assert parse_prop("x_1 & Y2") == And(Atom(PropSymbol("x_1")), Atom(PropSymbol("Y2")))


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_prop, "(p | q", "expected ')', found 'end of input'", 6),
        (parse_prop, "(p q)", "expected ')', found 'q'", 3),
        (parse_modal, "dep(p; q", "expected ')' closing the dependence atom, found 'end of input'", 8),
        (parse_prop, "p q", "unexpected trailing input 'q'", 2),
        (parse_modal, "(p) ) q", "unexpected trailing input ')'", 4),
        (parse_prop, "p & ", "expected a formula, found 'end of input'", 4),
        (parse_prop, "", "expected a formula, found 'end of input'", 0),
        (parse_modal, "<> ", "expected a formula, found 'end of input'", 3),
        (parse_prop, "p ior q", "'ior' is not propositional syntax", 2),
        (parse_prop, "(p & q) ior r", "'ior' is not propositional syntax", 8),
        (parse_prop, "p & <> q", "'<>' is not propositional syntax", 4),
        (parse_prop, "[] q", "'[]' is not propositional syntax", 0),
        (parse_modal, "!dep(p; q)", "dependence atoms cannot be negated", 0),
        (parse_prop, "p | !dep(p; q)", "dependence atoms cannot be negated", 4),
        (parse_modal, "p & !(q | [] dep(; p))", "dependence atoms cannot be negated", 4),
        (parse_prop, "!!(p & dep(q; p))", "dependence atoms cannot be negated", 1),
        (parse_modal, "!(p ior q)", "'ior' cannot be negated", 0),
        (parse_modal, "[] !(p ior q)", "'ior' cannot be negated", 3),
        (parse_modal, "!!(p ior q)", "'ior' cannot be negated", 1),
        (parse_modal, "dep(dep(p; q); r)", "dependence atoms cannot be nested", 4),
        (parse_modal, "dep(p; q & <> dep(; r))", "dependence atoms cannot be nested", 7),
        (parse_prop, "dep(p ior q; r)", "'ior' cannot occur inside a dependence atom", 6),
        (parse_prop, "dep(p; q ior r)", "'ior' cannot occur inside a dependence atom", 9),
        (parse_modal, "dep(p ior q; r)", "'ior' cannot occur inside a dependence atom", 6),
        (parse_modal, "dep((p ior q); r)", "'ior' cannot occur inside a dependence atom", 4),
        (parse_modal, "dep(p; <> (q ior r))", "'ior' cannot occur inside a dependence atom", 7),
        (parse_prop, "dep(p & q; r)", "expected ';' before the dependence target, found '&'", 6),
        (parse_prop, "dep p", "expected '(' after 'dep', found 'p'", 4),
    ],
)
def test_parser_error_positions_are_exact(parse, text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


def test_scanner_builds_no_object_per_token(monkeypatch):
    import teamlogic.parser as parser

    # one group: `findall` gives the words themselves, not a tuple each
    assert parser._SCAN.groups == 1
    words = parser._scan("dep(p, q; r) & !(s | t)")
    assert words[:5] == ["dep", "(", "p", ",", "q"] and words[-1] == ""
    assert len(words) == 16 and {type(x) for x in words} == {str}

    # character positions come from a second scan, made only for an error
    class NoRescan:
        groups = 1
        findall = parser._SCAN.findall

        def finditer(self, text):
            raise AssertionError("scanned twice")

    monkeypatch.setattr(parser, "_SCAN", NoRescan())
    assert parse_modal("dep(p, q; r) & !(s | t)") == parse_modal("dep(p, q; r) & (!s & !t)")
    with pytest.raises(AssertionError, match="scanned twice"):
        parse_prop("p q")


def test_mutated_formulas_parse_or_fail_with_a_position():
    # Rendered formulas with one to three word edits: each parser gives a
    # formula that reads back as itself, or a ParseError inside the text.
    rng = random.Random(25)
    inserts = ["!", "(", ")", "&", "ior", "dep", ";", ",", "<>"]
    for k in range(8000):
        make = random_emdl_formula if k % 2 else random_mliv_formula
        words = re.findall(r"<>|\[\]|\w+|\S", render(make(rng, ["p", "q", "r"], rng.randint(1, 8), 2)))
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(3)
            if edit == 0:
                words.insert(rng.randint(0, len(words)), rng.choice(inserts))
            elif edit == 1 and words:
                del words[rng.randrange(len(words))]
            elif len(words) > 1:
                i, j = rng.sample(range(len(words)), 2)
                words[i], words[j] = words[j], words[i]
        text = " ".join(words)
        for parse in (parse_prop, parse_modal):
            try:
                g = parse(text)
            except ParseError as exc:
                assert 0 <= exc.position <= len(text), (text, exc)
            else:
                assert parse(render(g)) is g, text


def test_dep_rejects_nesting_and_team_disjunction():
    with pytest.raises(ParseError):
        parse_modal("dep(dep(p; q); r)")
    with pytest.raises(ParseError):
        parse_modal("dep((p ior q); r)")
    with pytest.raises(ParseError):
        parse_modal("!dep(p; q)")


def test_keywords_are_not_symbols():
    with pytest.raises(ParseError):
        parse_prop("dep & p")
    with pytest.raises(ParseError):
        parse_prop("ior")


names = st.sampled_from(["p", "q", "r"])


@st.composite
def prop_formulas(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return Atom(PropSymbol(draw(names)))
        if kind == 1:
            return NegAtom(PropSymbol(draw(names)))
        args = tuple(
            PropSymbol(n)
            for n in draw(st.lists(names, max_size=3, unique=True))
        )
        return Dep(args, PropSymbol(draw(names)))
    op = draw(st.sampled_from([And, Or]))
    return op(draw(prop_formulas(depth + 1)), draw(prop_formulas(depth + 1)))


@st.composite
def modal_formulas(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Atom(PropSymbol(draw(names)))
        if kind == 1:
            return NegAtom(PropSymbol(draw(names)))
        comps = draw(st.lists(st.sampled_from(["p", "q"]), max_size=2))
        args = tuple(Diamond(Atom(PropSymbol(n))) for n in comps)
        return MDep(args, Atom(PropSymbol(draw(names))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Diamond(draw(modal_formulas(depth + 1)))
    if kind == 1:
        return Box(draw(modal_formulas(depth + 1)))
    op = And if kind == 2 else draw(st.sampled_from([Or, IDis]))
    return op(draw(modal_formulas(depth + 1)), draw(modal_formulas(depth + 1)))


@given(prop_formulas())
@settings(max_examples=300, deadline=None)
def test_prop_render_parse_round_trip(f):
    assert parse_prop(render(f)) == f


@given(modal_formulas())
@settings(max_examples=300, deadline=None)
def test_modal_render_parse_round_trip(f):
    assert parse_modal(render(f)) == f

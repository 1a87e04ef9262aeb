"""Which node classes each public entry admits.

Every entry that takes a formula either accepts a node class or raises
ValueError for it, wherever it occurs. The table below pins that choice
for each class at the root, under a conjunction and under a disjunction,
the other side a plain atom. The atom is true in the assignment
`pl_pointwise` reads, so the disjunction catches an entry that checks
only the nodes its evaluation reaches.

Admission and `classify` read each node's class mask. The tests after
the table hold the mask-based checks to a preorder walk over random
formulas of every class, and count that admitting walks no node at all.
"""

import pytest
from hypothesis import given, settings, strategies as st

import teamlogic.formula as formula
from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    IDis,
    KripkeStructure,
    MDep,
    NegAtom,
    Not,
    Or,
    PropSymbol,
    classify,
    eliminate_idis,
    emdl_to_mliv,
    emdl_valid,
    is_pure_ml,
    max_team,
    ml_point_eval,
    ml_valid,
    mliv_valid,
    mt_eval,
    pd_sat,
    pd_valid,
    pl_pointwise,
    pt_eval,
    symbols,
    to_nnf,
)
from teamlogic import dqbf
from teamlogic.formula import _ADMITTED, _admit

from oracles import admission_refusal, reference_classify, reference_nnf, walk_foreign

p, q = PropSymbol("p"), PropSymbol("q")

SAMPLES = {
    Atom: Atom(p),
    NegAtom: NegAtom(p),
    And: And(Atom(p), NegAtom(q)),
    Or: Or(Atom(p), NegAtom(q)),
    IDis: IDis(Atom(p), Atom(q)),
    Diamond: Diamond(Atom(p)),
    Box: Box(Atom(p)),
    Dep: Dep((p,), q),
    MDep: MDep((Atom(p),), Atom(q)),
    Not: Not(Atom(p)),
}

_PD = {Atom, NegAtom, And, Or, Dep}
_ML = {Atom, NegAtom, And, Or, Diamond, Box}

_TEAM = max_team([p, q])
_MODEL = KripkeStructure(["a", "b"], [("a", "b")], {p: {"b"}, q: {"a", "b"}})

# entry -> (a call on one formula, the node classes it admits)
ENTRIES = {
    "pl_pointwise": (lambda f: pl_pointwise({"p": 1, "q": 0}, f), _PD - {Dep}),
    "pt_eval": (lambda f: pt_eval(_TEAM, f), _PD),
    "pd_valid": (pd_valid, _PD),
    "pd_sat": (lambda f: pd_sat(f, require_nonempty=True), _PD),
    "mt_eval": (lambda f: mt_eval(_MODEL, {"a", "b"}, f), _ML | {IDis, MDep}),
    "ml_point_eval": (lambda f: ml_point_eval(_MODEL, "a", f), _ML),
    "ml_valid": (ml_valid, _ML),
    "mliv_valid": (mliv_valid, _ML | {IDis}),
    "eliminate_idis": (lambda f: list(eliminate_idis(f)), _ML | {IDis}),
    "emdl_to_mliv": (emdl_to_mliv, _ML | {MDep}),
    "emdl_valid": (emdl_valid, _ML | {MDep}),
    "is_pure_ml": (is_pure_ml, _ML),
}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_admission_table(entry, cls):
    call, admitted = ENTRIES[entry]
    node = SAMPLES[cls]
    for f in (node, And(Atom(p), node), Or(Atom(p), node)):
        if entry == "is_pure_ml":
            assert call(f) is (cls in admitted)
        elif cls in admitted:
            call(f)
        else:
            with pytest.raises(ValueError):
                call(f)


# --- class masks against a preorder walk -------------------------------

CLASSES = (Atom, NegAtom, Not, And, Or, IDis, Diamond, Box, Dep, MDep)
_PL = {Atom, NegAtom, And, Or}
_SYMS = st.sampled_from([p, q, PropSymbol("r")])


@st.composite
def components(draw, depth=0):
    """Plain modal formulas, `Not` included, as dependence components."""
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from([Atom, NegAtom]))(draw(_SYMS))
    cls = draw(st.sampled_from([Not, Diamond, Box, And, Or]))
    if cls in (And, Or):
        return cls(draw(components(depth + 1)), draw(components(depth + 1)))
    return cls(draw(components(depth + 1)))


@st.composite
def formulas(draw, depth=0):
    """Formulas over every node class."""
    if depth >= 4 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return draw(st.sampled_from([Atom, NegAtom]))(draw(_SYMS))
        if kind == 1:
            return Dep(tuple(draw(st.lists(_SYMS, max_size=2, unique=True))), draw(_SYMS))
        parts = draw(st.lists(components(), min_size=1, max_size=3))
        return MDep(tuple(parts[:-1]), parts[-1])
    cls = draw(st.sampled_from([Not, Diamond, Box, And, Or, IDis]))
    if cls in (And, Or, IDis):
        return cls(draw(formulas(depth + 1)), draw(formulas(depth + 1)))
    return cls(draw(formulas(depth + 1)))


@given(formulas())
@settings(max_examples=400, deadline=None)
def test_mask_admission_matches_a_preorder_walk(f):
    for logic, (name, mask) in _ADMITTED.items():
        refusal = admission_refusal(f, name, {c for c in CLASSES if c._bit & mask})
        if refusal is None:
            assert _admit(f, logic) is f
        else:
            with pytest.raises(ValueError) as info:
                _admit(f, logic)
            assert str(info.value) == refusal
    assert is_pure_ml(f) is (walk_foreign(f, _ML) is None)
    if walk_foreign(f, set(CLASSES) - {Not}) is None:
        assert to_nnf(f) is f
    try:
        fragment = reference_classify(f)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            classify(f)
        assert str(info.value) == str(exc)
    else:
        assert classify(f) is fragment


@given(formulas())
@settings(max_examples=400, deadline=None)
def test_check_matrix_matches_a_reference_normal_form(f):
    try:
        expected = walk_foreign(reference_nnf(f), _PL)
        message = expected and (
            f"matrix must be a plain propositional formula, not contain {type(expected).__name__}"
        )
    except ValueError as exc:
        message = str(exc)
    if message is None:
        assert dqbf._check_matrix(f, set(symbols(f))) == reference_nnf(f)
    else:
        with pytest.raises(ValueError) as info:
            dqbf._check_matrix(f, set(symbols(f)))
        assert str(info.value) == message


@given(st.lists(formulas(depth=2), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_dependence_components_are_checked_by_mask(parts):
    plain = all(walk_foreign(c, _ML | {Not}) is None for c in parts)
    if plain:
        assert MDep(tuple(parts[:-1]), parts[-1]).args == tuple(parts[:-1])
    else:
        with pytest.raises(ValueError, match="components must be plain modal formulas"):
            MDep(tuple(parts[:-1]), parts[-1])


def _refuse(*args, **kwargs):
    raise AssertionError("walked an admitted formula")


def test_admitting_walks_no_node(monkeypatch):
    # 10^4 nodes: a left-deep conjunction of 5000 literals
    f = Atom(p)
    for i in range(4999):
        f = And(f, (Atom if i % 2 else NegAtom)(q))
    monkeypatch.setattr(formula, "walk", _refuse)
    monkeypatch.setattr(formula, "_foreign", _refuse)
    monkeypatch.setattr(formula, "_nnf", _refuse)
    for logic in _ADMITTED:
        assert _admit(f, logic) is f
    assert is_pure_ml(f)
    assert to_nnf(f) is f
    assert MDep((f,), f).target is f
    assert pd_valid(f) is False
    # a refusal does walk, to name the node
    with pytest.raises(AssertionError, match="walked"):
        _admit(And(f, Diamond(f)), "pd")

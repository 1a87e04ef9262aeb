"""Which node classes each public entry admits.

Every entry that takes a formula either accepts a node class or raises
ValueError for it, wherever it occurs. The table below pins that choice
for each class at the root and under a conjunction, the other conjunct
a plain atom.
"""

import pytest

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
    pt_eval,
)

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
    for f in (node, And(Atom(p), node)):
        if entry == "is_pure_ml":
            assert call(f) is (cls in admitted)
        elif cls in admitted:
            call(f)
        else:
            with pytest.raises(ValueError):
                call(f)

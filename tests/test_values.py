"""The contract of the five value types the deciders hand out:
construction, equality and hashing, immutability, text, matching, and
pickle/copy round trips."""

import copy
import pickle

import pytest

from teamlogic import (
    Assignment,
    Invalid,
    KripkeStructure,
    PropSymbol,
    SelectionFunction,
    SkolemWitness,
    Valid,
)

P, Q, E = PropSymbol("p"), PropSymbol("q"), PropSymbol("e")
SEL = SelectionFunction(("L", "R"))
MODEL = KripkeStructure(["w0", "w1"], [("w0", "w1")], {"p": ["w1"]})

# (class, positional args, keyword args, exact repr, a differing value
# of the same class)
CASES = [
    (
        Valid,
        (SEL, 3),
        {"witness": SEL, "checked": 3},
        "Valid(witness=SelectionFunction(choices=('L', 'R')), checked=3)",
        Valid(SEL, 4),
    ),
    (
        Invalid,
        (MODEL, frozenset({"w0"}), 2),
        {"model": MODEL, "team": frozenset({"w0"}), "checked": 2},
        "Invalid(model=KripkeStructure(worlds=2, edges=1, symbols=['p']),"
        " team=frozenset({'w0'}), checked=2)",
        Invalid(MODEL, frozenset({"w1"}), 2),
    ),
    (
        SelectionFunction,
        (("L", "R"),),
        {"choices": ("L", "R")},
        "SelectionFunction(choices=('L', 'R'))",
        SelectionFunction(("R", "R")),
    ),
    (
        Assignment,
        ((P, Q), (0, 1)),
        {"domain": (P, Q), "bits": (0, 1)},
        "Assignment(domain=(PropSymbol(name='p'), PropSymbol(name='q')), bits=(0, 1))",
        Assignment((P, Q), (1, 1)),
    ),
    (
        SkolemWitness,
        ({E: (0, 1)}, {E: (P,)}),
        {"tables": {E: (0, 1)}, "constraints": {E: (P,)}},
        "SkolemWitness(tables={PropSymbol(name='e'): (0, 1)},"
        " constraints={PropSymbol(name='e'): (PropSymbol(name='p'),)})",
        SkolemWitness({E: (1, 1)}, {E: (P,)}),
    ),
]
FIELDS = {
    Valid: ("witness", "checked"),
    Invalid: ("model", "team", "checked"),
    SelectionFunction: ("choices",),
    Assignment: ("domain", "bits"),
    SkolemWitness: ("tables", "constraints"),
}


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_value_type_contract(cls, args, kwargs, text, other):
    a, b = cls(*args), cls(**kwargs)
    fields = FIELDS[cls]
    assert cls.__match_args__ == fields
    assert tuple(getattr(a, n) for n in fields) == args
    assert repr(a) == repr(b) == text

    # equality by fields, within one class only
    assert a == b and not a != b
    assert a != other
    assert a != tuple(args)
    for c in CASES:
        if c[0] is not cls:
            assert a != c[0](*c[1])

    # the defaults
    if cls is Valid:
        assert Valid() == Valid(None, 1)
        assert repr(Valid()) == "Valid(witness=None, checked=1)"
    if cls is Invalid:
        assert Invalid(MODEL) == Invalid(MODEL, frozenset(), 1)

    if cls is SkolemWitness:
        # a witness takes assignment, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
        a.tables = {E: (1, 1)}
        assert a == other
        a.tables = {E: (0, 1)}
    elif cls is Invalid:
        # the hash is the fields', and a structure has none
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    if cls is not SkolemWitness:
        for n in fields:
            with pytest.raises(AttributeError):
                setattr(a, n, getattr(other, n))
            with pytest.raises(AttributeError):
                delattr(a, n)
        assert a == b

    match a:
        case cls(x):
            assert x == args[0]
        case _:
            pytest.fail("no positional match")
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a and repr(clone) == text


def test_value_types_store_tuples():
    # built from lists or iterators, a value equals and hashes as one
    # built from tuples
    for listed, tupled in [
        (Assignment([P, Q], [0, 1]), Assignment((P, Q), (0, 1))),
        (Assignment(iter((P, Q)), iter((0, 1))), Assignment((P, Q), (0, 1))),
        (SelectionFunction(["L", "R"]), SelectionFunction(("L", "R"))),
        (SelectionFunction(c for c in "LR"), SelectionFunction(("L", "R"))),
    ]:
        assert listed == tupled and hash(listed) == hash(tupled)
        assert all(type(getattr(listed, n)) is tuple for n in FIELDS[type(listed)])


def test_value_type_validation():
    with pytest.raises(ValueError, match="choices must be 'L' or 'R'"):
        SelectionFunction(("L", "X"))
    with pytest.raises(ValueError, match="sorted and duplicate free"):
        Assignment((Q, P), (0, 1))
    with pytest.raises(ValueError, match="sorted and duplicate free"):
        Assignment((P, P), (0, 1))
    with pytest.raises(ValueError, match="width does not match"):
        Assignment((P, Q), (0,))
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        Assignment((P,), (2,))

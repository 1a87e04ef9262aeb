import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import teamlogic
from teamlogic import formula
from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    Fragment,
    IDis,
    MDep,
    NegAtom,
    Not,
    Or,
    PropSymbol,
    classify,
    dual,
    eliminate_idis,
    fragment_within,
    is_pure_ml,
    nb_subf,
    parse_modal,
    render,
    size,
    symbols,
    to_nnf,
    walk,
)

p = PropSymbol("p")
q = PropSymbol("q")
r = PropSymbol("r")


def test_symbol_name_rules():
    assert PropSymbol("x_1").name == "x_1"
    with pytest.raises(ValueError):
        PropSymbol("1x")
    with pytest.raises(ValueError):
        PropSymbol("dep")
    with pytest.raises(ValueError):
        PropSymbol("ior")
    with pytest.raises(ValueError):
        PropSymbol("")
    for name in (1, None, b"p", ["p"], {"p": 1}):
        with pytest.raises(ValueError):
            PropSymbol(name)


def test_symbol_names_are_stored_as_plain_strings():
    class Name(str):
        pass

    class OddHash(str):
        def __hash__(self):
            return 0

        def __eq__(self, other):
            return str.__eq__(self, other)

    assert PropSymbol(Name("p")) is p
    assert PropSymbol(OddHash("p")) is p
    assert type(p.name) is str
    fresh = PropSymbol(OddHash("named_by_a_subclass"))
    assert type(fresh.name) is str
    assert PropSymbol("named_by_a_subclass") is fresh
    with pytest.raises(ValueError):
        PropSymbol(Name("dep"))


def test_literals_take_symbols_only():
    for bad in ("p", None, Atom(p), ("p",)):
        with pytest.raises(TypeError):
            Atom(bad)
        with pytest.raises(TypeError):
            NegAtom(bad)


def test_symbols_ordering():
    assert sorted([q, p, r]) == [p, q, r]
    f = And(Atom(r), Or(Atom(p), NegAtom(r)))
    assert symbols(f) == {p, r}


def test_walk_preorder():
    f = And(Atom(p), Or(NegAtom(q), Atom(r)))
    kinds = [type(n).__name__ for n in walk(f)]
    assert kinds == ["And", "Atom", "Or", "NegAtom", "Atom"]


def test_to_nnf_pushes_negation():
    f = Not(And(Atom(p), Not(Or(NegAtom(q), Atom(r)))))
    g = to_nnf(f)
    assert render(g) == "!p | (!q | r)"
    assert g == to_nnf(g)
    # negation-free subtrees are kept, not copied
    assert to_nnf(g) is g
    h = parse_modal("<> dep(p, [] q; r) ior [] (p & !q)")
    assert to_nnf(h) is h
    assert to_nnf(And(h, Not(Atom(p)))).left is h


def test_to_nnf_modal_duality():
    f = Not(Diamond(And(Atom(p), Not(Atom(q)))))
    assert render(to_nnf(f)) == "[] (!p | q)"


def test_to_nnf_rejects_negated_dependence():
    with pytest.raises(ValueError):
        to_nnf(Not(Dep((p,), q)))
    with pytest.raises(ValueError):
        to_nnf(Not(MDep((), Atom(p))))
    with pytest.raises(ValueError):
        to_nnf(Not(IDis(Atom(p), Atom(q))))


def test_to_nnf_needs_no_recursion():
    chain = Atom(p)
    for i in range(5000):
        chain = And(chain, Box(NegAtom(PropSymbol(f"p{i % 7}"))))
    # negation-free input comes back as is, negated input is rewritten
    assert to_nnf(chain) is chain
    g = to_nnf(Not(Not(Not(chain))))
    assert isinstance(g, Or) and g.right is Diamond(Atom(PropSymbol("p1")))
    assert to_nnf(Not(g)) is chain


def test_dual_is_involution_on_pure_ml():
    f = Box(Or(Atom(p), And(NegAtom(q), Diamond(Atom(p)))))
    assert is_pure_ml(f)
    assert dual(dual(f)) == f
    assert not is_pure_ml(Dep((), p))
    with pytest.raises(ValueError):
        dual(Dep((), p))
    # a 5000-deep chain costs no recursion
    deep = Atom(p)
    for _ in range(5000):
        deep = Box(deep)
    g = dual(deep)
    assert isinstance(g, Diamond) and dual(g) is deep


def test_size_counts_dependence_symbols():
    assert size(Atom(p)) == 1
    assert size(Dep((), p)) == 2
    assert size(Dep((p, q), r)) == 4
    assert size(And(Atom(p), Atom(q))) == 3
    # modal dependence atoms charge their component subtrees
    assert size(MDep((Atom(p),), Diamond(Atom(q)))) == 4
    # a 5000-deep chain costs no recursion
    deep = Atom(p)
    for _ in range(5000):
        deep = Box(deep)
    assert size(deep) == 5001


def test_nb_subf_collects_atoms_and_modal_subformulas():
    f = Or(Atom(p), And(NegAtom(p), Diamond(Or(Atom(p), NegAtom(p)))))
    nb = nb_subf(f)
    assert Atom(p) in nb
    assert Diamond(Or(Atom(p), NegAtom(p))) in nb
    assert len(nb) == 2
    # the chain of test_to_nnf_needs_no_recursion costs no recursion
    chain = Atom(p)
    for i in range(5000):
        chain = And(chain, Box(NegAtom(PropSymbol(f"p{i % 7}"))))
    atoms = {Atom(PropSymbol(f"p{i}")) for i in range(7)}
    boxes = {Box(NegAtom(PropSymbol(f"p{i}"))) for i in range(7)}
    nb = nb_subf(chain)
    assert nb == {Atom(p)} | atoms | boxes and len(nb) == 15


def test_nb_subf_enters_dependence_components():
    f = MDep((Diamond(Atom(p)),), Atom(q))
    nb = nb_subf(f)
    assert nb == {Diamond(Atom(p)), Atom(p), Atom(q)}


def test_classify_fragments():
    assert classify(Atom(p)) is Fragment.PL
    assert classify(Dep((p,), q)) is Fragment.PD
    assert classify(Diamond(Atom(p))) is Fragment.ML
    assert classify(IDis(Atom(p), Box(Atom(q)))) is Fragment.ML_IDIS
    # a dependence atom over plain atoms with no modality in sight is
    # indistinguishable from its propositional counterpart
    assert classify(MDep((Atom(p),), Atom(q))) is Fragment.PD
    assert classify(And(Diamond(Atom(r)), MDep((Atom(p),), Atom(q)))) is Fragment.MDL
    assert classify(MDep((Diamond(Atom(p)),), Atom(q))) is Fragment.EMDL
    with pytest.raises(ValueError):
        classify(IDis(Atom(p), MDep((), Atom(q))))


def test_fragment_within():
    assert fragment_within(Fragment.PL, Fragment.PD)
    assert fragment_within(Fragment.ML, Fragment.EMDL)
    assert not fragment_within(Fragment.PD, Fragment.ML)


def test_mdep_requires_pure_ml_components():
    with pytest.raises(ValueError):
        MDep((Dep((), p),), Atom(q))
    with pytest.raises(ValueError):
        MDep((), IDis(Atom(p), Atom(q)))


def test_render_precedence_and_spacing():
    assert render(Or(And(Atom(p), Atom(q)), Atom(r))) == "p & q | r"
    assert render(And(Or(Atom(p), Atom(q)), Atom(r))) == "(p | q) & r"
    assert render(Diamond(Box(NegAtom(p)))) == "<> [] !p"
    assert render(Dep((p, q), r)) == "dep(p, q; r)"
    assert render(Dep((), p)) == "dep(; p)"
    assert render(IDis(Atom(p), Atom(q))) == "p ior q"
    assert render(MDep((Diamond(Atom(p)),), Box(Atom(q)))) == "dep(<> p; [] q)"


def test_render_left_associativity():
    f = Or(Or(Atom(p), Atom(q)), Atom(r))
    g = Or(Atom(p), Or(Atom(q), Atom(r)))
    assert render(f) == "p | q | r"
    assert render(g) == "p | (q | r)"


def test_formula_equality_is_structural():
    assert And(Atom(p), Atom(q)) == And(Atom(p), Atom(q))
    assert And(Atom(p), Atom(q)) != And(Atom(q), Atom(p))
    assert len({Atom(p), Atom(p), NegAtom(p)}) == 2


def test_hash_includes_the_class():
    # a formula and its dual differ in the classes only, and sit side by
    # side in the tableau's formula sets; being distinct interned nodes,
    # they hash by distinct identities
    f = parse_modal("<> (p & [] !q) | [] (!p | <> q)")
    pairs = [(f, dual(f)), (Atom(p), NegAtom(p)), (Diamond(Atom(p)), Box(Atom(p)))]
    pairs += [(And(Atom(p), Atom(q)), Or(Atom(p), Atom(q)))]
    for a, b in pairs:
        assert hash(a) != hash(b)


def test_cached_hash_does_not_travel():
    # A node hashes by identity, and identities differ between
    # interpreters, so unpickling must rebuild the formula through its
    # constructors: an interpreter with another hash seed has to find
    # the unpickled formula, interned again, among freshly parsed keys.
    text = "<> (p & dep(q, [] r; p)) | !q ior [] dep(; q)"
    f = parse_modal(text)
    hash(f)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = (
        "import pickle, sys\n"
        "from teamlogic import parse_modal\n"
        "text, blob, parent_hash = sys.argv[1], bytes.fromhex(sys.argv[2]), int(sys.argv[3])\n"
        "assert hash(text) != parent_hash, 'the hash seed did not change'\n"
        "f = pickle.loads(blob)\n"
        "fresh = parse_modal(text)\n"
        "assert {fresh: 'found'}.get(f) == 'found'\n"
        "assert hash(f) == hash(fresh)\n"
    )
    src = str(Path(teamlogic.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", child, text, pickle.dumps(f).hex(), str(hash(text))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
    )
    assert proc.returncode == 0, proc.stderr


TEXT = "<> (p & dep(q, [] r; p)) | !q ior [] dep(; q)"


def test_equal_formulas_are_one_object():
    assert parse_modal(TEXT) is parse_modal(TEXT)
    assert And(Atom(p), Atom(q)) is And(Atom(p), Atom(q))
    assert Dep([p, q], r) is Dep((p, q), r)
    assert PropSymbol("p") is p
    assert Diamond(Atom(p)) is not Box(Atom(p))


def test_pickle_and_copy_give_back_the_interned_node():
    f = parse_modal(TEXT)
    assert pickle.loads(pickle.dumps(f)) is f
    assert pickle.loads(pickle.dumps(p)) is p
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    for lit in (Atom(p), NegAtom(p)):
        assert pickle.loads(pickle.dumps(lit)) is lit
        assert copy.copy(lit) is lit
        assert copy.deepcopy(lit) is lit


def test_nodes_reject_assignment():
    f = And(Atom(p), Atom(q))
    with pytest.raises(AttributeError):
        f.left = Atom(r)
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.right
    with pytest.raises(AttributeError):
        p.name = "q"
    assert f.left is Atom(p)


def test_symbols_sort_by_name_not_by_creation():
    late = [PropSymbol(name) for name in ("zz9", "mm5", "aa1")]
    assert sorted(late) == [PropSymbol("aa1"), PropSymbol("mm5"), PropSymbol("zz9")]
    assert max(late).name == "zz9"


def test_dropped_formulas_leave_the_intern_table():
    # Nothing a node keeps may lead back to it, or a formula would
    # outlive its last user until a cyclic collection; with the
    # collector off, dropping the formulas must empty their entries.
    # Symbols and their literals live on, outside the table, so they
    # are built before the count.
    us = [PropSymbol(f"u{i}") for i in range(10000)]
    vs = [PropSymbol(f"v{i}") for i in range(10)]
    gc.collect()
    before = len(formula._table)
    gc.disable()
    try:
        fs = []
        for i in range(10000):
            a, b = Atom(us[i]), Atom(vs[i % 10])
            f = Or(Diamond(And(a, NegAtom(b.sym))), Box(Or(b, a)))
            fs.append(f)
            render(f), nb_subf(f), symbols(f), dual(f)
        g = parse_modal("(<> u1 ior [] v1) & (u2 | v2 ior <> u3)")
        fs.append([h for _, h in eliminate_idis(g)])
        assert len(formula._table) > before + 10000
        del f, fs, g, a, b
        assert len(formula._table) == before
    finally:
        gc.enable()
    gc.collect()
    assert len(formula._table) == before


def test_symbols_and_literals_outlive_their_formulas():
    f = parse_modal("<> (kept_a & !kept_a) | [] kept_b")
    lits = [weakref.ref(f.left.child.left), weakref.ref(f.left.child.right)]
    compound = weakref.ref(f.left)
    del f
    gc.collect()
    assert compound() is None
    sym = PropSymbol("kept_a")
    assert [ref() for ref in lits] == [Atom(sym), NegAtom(sym)]
    assert lits[0]().sym is sym and lits[1]().sym is sym
    assert Atom(sym)._symbols is NegAtom(sym)._symbols == {sym}


def test_literals_live_outside_the_intern_table():
    f = parse_modal("<> (p & !q) | [] r")
    assert len(formula._table) >= size(f) - 3
    for cls, *_ in formula._table:
        assert cls not in (PropSymbol, Atom, NegAtom)
    live = {ref() for ref in formula._table.values()}
    assert not live & {Atom(p), NegAtom(p), p}


def test_selections_share_the_ior_free_subtrees():
    # only the nodes above an `ior` are rebuilt in a selection
    plain = parse_modal("[] (p | <> q) & !r")
    f = And(IDis(Diamond(Atom(p)), Box(Atom(q))), plain)
    picks = [g for _, g in eliminate_idis(f)]
    assert [render(g) for g in picks] == [
        "<> p & ([] (p | <> q) & !r)",
        "[] q & ([] (p | <> q) & !r)",
    ]
    for g in picks:
        assert g.right is plain
        assert g.left is f.left.left or g.left is f.left.right

"""One guard rule: every resource guard refuses work past its limit the
same way.

Each guard is checked by `errors._check_guard`. A request at the limit
passes, one past it raises `GuardLimitError` carrying the keyword that
sets the guard, the size requested and the limit, in one message form,
and `None` lifts the guard. The last test reads `src/teamlogic/*.py`
with `ast` so that no module builds the error on its own again.
"""

import ast
from pathlib import Path

import pytest

import teamlogic
from teamlogic import (
    Atom,
    Dep,
    DqbfInstance,
    GuardLimitError,
    IDis,
    MDep,
    NegAtom,
    Or,
    PropSymbol,
    QbfInstance,
    dqbf_eval,
    emdl_to_mliv,
    max_team,
    mliv_valid,
    pd_sat,
    pd_valid,
    pt_eval,
    qbf_eval,
)

SRC = Path(teamlogic.__file__).parent
x0, x1, x2 = (PropSymbol(f"x{i}") for i in range(3))
# two atoms constant nowhere on the four rows: one conflict pair each
SPLIT = Or(Dep((), x0), Dep((), x1))
OVER_THREE = Or(Dep((x0,), x1), Atom(x2))
ANY_X2 = Or(Atom(x2), NegAtom(x2))
# Skolem tables of 4 and 1 entries
TABLES = DqbfInstance([x0, x1], [(x2, (x0, x1)), (PropSymbol("e"), ())], ANY_X2)
PREFIX = QbfInstance([("A", x0), ("E", x1), ("A", x2)], ANY_X2)
WIDE = MDep((Atom(x0), Atom(x1), Atom(x2)), Atom(x0))
# two `ior`, four selections
SELECTIONS = IDis(Atom(x0), IDis(Atom(x0), Atom(x1)))

# (keyword, size requested, what is counted, the call taking the keyword)
GUARDS = [
    ("max_bits", 2, "certificate bits", lambda **kw: pt_eval(max_team((x0, x1)), SPLIT, **kw)),
    ("max_table_bits", 5, "Skolem table bits", lambda **kw: dqbf_eval(TABLES, **kw)),
    ("max_vars", 3, "prefix variables", lambda **kw: qbf_eval(PREFIX, **kw)),
    ("max_domain", 3, "domain symbols", lambda **kw: pd_valid(OVER_THREE, **kw)),
    ("max_domain", 3, "domain symbols", lambda **kw: max_team((x0, x1, x2), **kw)),
    ("max_domain", 3, "domain symbols", lambda **kw: pd_sat(OVER_THREE, True, **kw)),
    ("max_dep_arity", 3, "arguments of a dependence atom", lambda **kw: emdl_to_mliv(WIDE, **kw)),
    ("max_selections", 4, "selections", lambda **kw: mliv_valid(SELECTIONS, **kw)),
]


@pytest.mark.parametrize(
    "guard, requested, what, call", GUARDS, ids=[f"{g[0]}-{i}" for i, g in enumerate(GUARDS)]
)
def test_each_guard_passes_its_limit_and_refuses_past_it(guard, requested, what, call):
    call(**{guard: requested})
    call(**{guard: None})
    limit = requested - 1
    with pytest.raises(GuardLimitError) as info:
        call(**{guard: limit})
    assert (info.value.guard, info.value.requested, info.value.limit) == (guard, requested, limit)
    assert str(info.value) == (
        f"{requested} {what} exceed the guard of {limit}; raise {guard} to override"
    )


def _builders(text: str) -> list[str]:
    """The top-level functions of module `text` that construct a
    `GuardLimitError`, one entry per construction; "<module>" outside
    every top-level function, in a class body or method included."""
    found = []
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "GuardLimitError":
                found.append(top.name if isinstance(top, ast.FunctionDef) else "<module>")
    return found


def test_the_builder_finder_sees_bare_and_qualified_calls():
    text = (
        "def f():\n    raise GuardLimitError('x')\n\n"
        "def g():\n    raise errors.GuardLimitError('y')\n\n"
        "class C:\n    def m(self):\n        return GuardLimitError('z')\n"
    )
    assert _builders(text) == ["f", "g", "<module>"]


def test_only_the_guard_rule_constructs_guard_limit_error():
    builders = {
        path.stem: _builders(path.read_text()) for path in sorted(SRC.glob("*.py"))
    }
    assert {m: b for m, b in builders.items() if b} == {"errors": ["_check_guard"]}

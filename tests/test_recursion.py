"""Which library functions call themselves.

README's "Deep nesting" says which pass still recurses; every other
pass keeps its own stack. This test reads `src/teamlogic/*.py` with
`ast` and lists the functions that call themselves directly: a module
function calling its own name, or a method calling `self.<its name>`.
Mutual recursion, such as `_eval` → `_eval_or` → `_eval`, is not
detected.
"""

import ast
from pathlib import Path

import teamlogic
from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    KripkeStructure,
    MDep,
    PropSymbol,
    PropTeam,
    max_team,
    mt_eval,
    pt_eval,
)

SRC = Path(teamlogic.__file__).parent


def _calls_itself(func: ast.AST, method: bool) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if method:
            if (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and callee.attr == func.name
            ):
                return True
        elif isinstance(callee, ast.Name) and callee.id == func.name:
            return True
    return False


def _self_recursive() -> list[str]:
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, functions) and _calls_itself(top, method=False):
                found.append(f"{path.stem}.{top.name}")
            elif isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(member, functions) and _calls_itself(member, method=True):
                        found.append(f"{path.stem}.{top.name}.{member.name}")
    return found


def test_only_the_known_passes_recurse():
    assert sorted(_self_recursive()) == ["translate._tableau"]


def test_team_truth_of_deep_formulas_gets_a_verdict():
    # The team evaluator walks its formula on an explicit stack, so
    # depth past the recursion limit costs no recursion: 2000 boxes
    # around a dependence atom, and a chain of 3000 of them.
    p = PropSymbol("p")
    boxed = MDep((), Atom(p))
    for _ in range(2000):
        boxed = Box(boxed)
    m = KripkeStructure(["a", "b"], [("a", "b"), ("b", "a"), ("b", "b")], {p: {"a"}})
    # the image of {a} is {b}, then {a, b} for good
    assert mt_eval(m, {"a"}, boxed) is False
    assert mt_eval(m, {"a"}, boxed.child) is False
    assert mt_eval(m, {"b"}, MDep((), Atom(p))) is True
    chain = Dep((), p)
    for _ in range(2999):
        chain = And(chain, Dep((), p))
    assert pt_eval(max_team([p]), chain) is False
    assert pt_eval(PropTeam([p], [(1,)]), chain) is True

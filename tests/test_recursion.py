"""Which library functions call themselves.

README's "Deep nesting" says which passes still recurse; every other
pass keeps its own stack. This test reads `src/teamlogic/*.py` with
`ast` and lists the functions that call themselves directly: a module
function calling its own name, or a method calling `self.<its name>`.
Mutual recursion, such as `_eval` → `_eval_or` → `_eval`, is not
detected.
"""

import ast
from pathlib import Path

import teamlogic

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
    assert sorted(_self_recursive()) == [
        "team_eval._TeamEvaluator._eval",
        "team_eval._TeamEvaluator._or_rest",
        "translate._tableau",
    ]

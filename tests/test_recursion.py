"""No library function recurses.

README's "Deep nesting" says every pass keeps its own stack. This test
reads `src/teamlogic/*.py` with `ast` and builds the call graph by name
of the top-level functions and the methods: a call of a bare name goes
to the top-level function of that name in the same module, else to
those of that name in the other modules, which is how imported
functions are called here; a call of `self.<name>` goes to the method of
that name in the same class. A function on a cycle of that graph, one
calling itself included, may recurse. Calls through other names, such
as a function passed as an argument, are not followed.
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module name -> source text, to qualified name -> the qualified
    names it calls."""
    defs: dict[str, tuple] = {}  # qualified name -> (node, module, class or None)
    for module, text in sources.items():
        for top in ast.parse(text).body:
            if isinstance(top, FUNCTIONS):
                defs[f"{module}.{top.name}"] = (top, module, None)
            elif isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(member, FUNCTIONS):
                        defs[f"{module}.{top.name}.{member.name}"] = (member, module, top.name)
    graph = {}
    for name, (func, module, cls) in defs.items():
        callees = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                local = f"{module}.{callee.id}"
                if local in defs:
                    callees.add(local)
                else:
                    callees |= {
                        d for d, (_, _, c) in defs.items()
                        if c is None and d.rsplit(".", 1)[1] == callee.id
                    }
            elif (
                cls is not None
                and isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and f"{module}.{cls}.{callee.attr}" in defs
            ):
                callees.add(f"{module}.{cls}.{callee.attr}")
        graph[name] = callees
    return graph


def _on_cycles(graph: dict[str, set[str]]) -> list[str]:
    """The functions that can reach themselves in `graph`."""
    found = []
    for name in graph:
        seen, todo = set(), list(graph[name])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo += graph[g]
        if name in seen:
            found.append(name)
    return sorted(found)


def test_the_cycle_finder_sees_direct_and_mutual_recursion():
    sources = {
        "a": "def f(x):\n    return f(x)\n\ndef g():\n    return h()\n",
        "b": (
            "def h():\n    return g()\n\ndef leaf():\n    return len([])\n\n"
            "class C:\n    def m(self):\n        return self.n()\n\n"
            "    def n(self):\n        return self.m()\n\n"
            "    def o(self):\n        return leaf()\n"
        ),
    }
    assert _on_cycles(_call_graph(sources)) == ["a.f", "a.g", "b.C.m", "b.C.n", "b.h"]


def test_only_the_known_passes_recurse():
    # there are none left: every pass keeps its own stack
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _on_cycles(_call_graph(sources)) == []


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

"""The traced benchmark run patches library functions by name.

`bench/spans.py:TARGETS` lists (module, attribute, span name) triples,
and `Tracer.install` replaces each attribute in its module; a missing
one crashes `bench/run.py --trace 1`. This test reads `TARGETS` with
`ast`, importing nothing from `bench/`, and checks that every named
attribute exists.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> tuple:
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_function_exists():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

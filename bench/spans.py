"""Span tracing of `teamlogic` from outside the package.

`Tracer.install` replaces module-level functions with wrappers, in every
`teamlogic` module that holds a reference to the same function object,
so calls between modules and recursive calls through the module global
are all seen. Each wrapper records a span: name, start, end and the
index of the enclosing span. Spans stay in memory in flat arrays until
the run writes them out. Self time is a span's duration minus the
durations of its direct children, so recursion is never counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name). Names follow the layer that owns the
# function; `render` and `to_nnf` are traced wherever the callers hold
# them, which is how `_tableau` and the parser reach them.
TARGETS = (
    ("teamlogic.parser", "parse_prop", "parser.parse"),
    ("teamlogic.parser", "parse_modal", "parser.parse"),
    ("teamlogic.parser", "to_nnf", "formula.to_nnf"),
    ("teamlogic.translate", "render", "formula.render"),
    ("teamlogic.prop_team", "pd_valid", "prop_team.pd_valid"),
    ("teamlogic.prop_team", "pt_eval", "prop_team.pt_eval"),
    ("teamlogic.prop_team", "max_team", "prop_team.max_team"),
    ("teamlogic.kripke", "mt_eval", "kripke.mt_eval"),
    ("teamlogic.kripke", "ml_point_eval", "kripke.ml_point_eval"),
    ("teamlogic.kripke", "disjoint_union", "kripke.disjoint_union"),
    ("teamlogic.translate", "emdl_valid", "translate.emdl_valid"),
    ("teamlogic.translate", "emdl_to_mliv", "translate.emdl_to_mliv"),
    ("teamlogic.translate", "mliv_valid", "translate.mliv_valid"),
    ("teamlogic.translate", "ml_valid", "translate.ml_valid"),
    ("teamlogic.translate", "eliminate_idis", "translate.eliminate_idis"),
    ("teamlogic.dqbf", "parse_dqbf", "dqbf.parse_dqbf"),
    ("teamlogic.dqbf", "dqbf_eval", "dqbf.dqbf_eval"),
    ("teamlogic.dqbf", "reduce_to_pd", "dqbf.reduce_to_pd"),
    ("teamlogic.cli", "run", "cli.run"),
)

# Generator functions: a span covers each next() call, not the caller's
# work between items.
GENERATORS = frozenset({"translate.eliminate_idis"})


def _node_kinds(f):
    """Class names of a formula's nodes, read from the node fields."""
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        yield kind
        if kind in ("And", "Or", "IDis"):
            stack += (node.left, node.right)
        elif kind in ("Diamond", "Box"):
            stack.append(node.child)
        elif kind == "MDep":
            stack += (*node.args, node.target)


# Counts taken where a span closes: span name -> (count name, value from
# the call's arguments and result). Nested calls of one name, such as the
# recursion of `emdl_to_mliv`, are counted at the outermost call only.
COUNTS = {
    "parser.parse": ("parser.nodes", lambda args, result: sum(1 for _ in _node_kinds(result))),
    "prop_team.pt_eval": ("prop_team.rows", lambda args, result: len(args[0].rows)),
    "kripke.mt_eval": ("kripke.team_worlds", lambda args, result: len(frozenset(args[1]))),
    "dqbf.dqbf_eval": (
        "dqbf.table_bits",
        lambda args, result: sum(1 << len(deps) for _, deps in args[0].existentials),
    ),
    "translate.emdl_valid": ("translate.selections_checked", lambda args, result: result.checked),
    "translate.emdl_to_mliv": (
        "translate.ior",
        lambda args, result: sum(kind == "IDis" for kind in _node_kinds(result)),
    ),
}


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        while self._stack[-1] != idx and len(self._stack) > 1:
            self._stack.pop()
        if len(self._stack) > 1:
            self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer, name_id = self, self._id(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(name_id)
                return self

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Span()

    def settle(self, first: int) -> None:
        """Close spans an exception (such as a time limit) left open."""
        now = time.perf_counter()
        for i in range(first, len(self.end)):
            if self.end[i] == 0.0:
                self.end[i] = now
        self._stack = [-1]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        name_id = self._id(span_name)
        tracer = self
        if span_name in GENERATORS:

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return gen_wrapper

        count = COUNTS.get(span_name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                parent = tracer.parent[idx]
                if parent < 0 or tracer.name[parent] != name_id:
                    tracer.counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "teamlogic" or n.startswith("teamlogic."))
        ]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self, by_parent: bool = False) -> tuple[dict, Counter]:
        """Self seconds and call counts per span name.

        With `by_parent`, keys are (name, parent name) pairs.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        selfs: dict = {}
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            if by_parent:
                p = self.parent[i]
                name = (name, self.names[self.name[p]] if p >= 0 else None)
            selfs[name] = selfs.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
            calls[name] += 1
        return selfs, calls

    def dump(self, path) -> None:
        """Write spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

"""Independent reference checkers for the correctness gate.

Nothing here imports `teamlogic` or calls into it. The checkers read the
benchmark's own tuple ASTs (see `corpus.py`) and plain data, and decide
team semantics a different way from the library: every formula here is
downward closed, so the teams satisfying it on a fixed universe are
represented by their maximal members, an antichain of bitmasks, and the
connectives combine antichains directly. The library instead searches
splits and successor choices per team.
"""

from __future__ import annotations

import itertools


def _prune(masks) -> list[int]:
    """Keep the maximal masks of a set of masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def _combine(a: list[int], b: list[int], op) -> list[int]:
    return _prune(op(x, y) for x in a for y in b)


def _dep_family(keys: list[tuple], targets: list[int]) -> list[int]:
    """Maximal teams of a dependence atom, for elements whose argument
    values are `keys` and target values `targets`: within each group of
    equal keys, a maximal team keeps the elements of one target value."""
    groups: dict[tuple, list[int]] = {}
    for i, (key, t) in enumerate(zip(keys, targets)):
        groups.setdefault(key, [0, 0])[t] |= 1 << i
    out = [0]
    for zeros, ones in groups.values():
        if zeros and ones:
            out = [m | zeros for m in out] + [m | ones for m in out]
        else:
            out = [m | zeros | ones for m in out]
    return out


def symbols(node) -> set[str]:
    kind = node[0]
    if kind == "lit":
        return {node[1]}
    if kind in ("and", "or"):
        return symbols(node[1]) | symbols(node[2])
    if kind in ("dia", "box"):
        return symbols(node[1])
    if kind == "dep":
        return set(node[1]) | {node[2]}
    if kind == "mdep":
        out = symbols(node[2])
        for a in node[1]:
            out |= symbols(a)
        return out
    raise ValueError(f"unknown node {kind!r}")


# ---------------------------------------------------------------------------
# propositional dependence logic


def _prop_family(node, rows: list[dict]) -> list[int]:
    kind = node[0]
    if kind == "lit":
        _, sym, positive = node
        return [sum(1 << i for i, r in enumerate(rows) if r[sym] == positive)]
    if kind in ("and", "or"):
        op = int.__and__ if kind == "and" else int.__or__
        return _combine(_prop_family(node[1], rows), _prop_family(node[2], rows), op)
    if kind == "dep":
        _, args, target = node
        return _dep_family([tuple(r[a] for a in args) for r in rows], [r[target] for r in rows])
    raise ValueError(f"not a propositional node: {kind!r}")


def prop_valid(node) -> bool:
    """Validity: the team of all assignments over the formula's symbols
    is below some maximal satisfying team."""
    syms = sorted(symbols(node))
    rows = [dict(zip(syms, bits)) for bits in itertools.product((0, 1), repeat=len(syms))]
    return (1 << len(rows)) - 1 in _prop_family(node, rows)


# ---------------------------------------------------------------------------
# modal dependence logic


class Model:
    """A Kripke structure read from plain data: world names, edges, and
    the set of worlds where each symbol holds."""

    def __init__(self, worlds, edges, valuation: dict[str, set]):
        self.worlds = list(worlds)
        index = {w: i for i, w in enumerate(self.worlds)}
        self.index = index
        self.succ = [0] * len(self.worlds)
        for u, v in edges:
            self.succ[index[u]] |= 1 << index[v]
        self.val = {
            s: sum(1 << index[w] for w in holds) for s, holds in valuation.items()
        }
        self.full = (1 << len(self.worlds)) - 1

    def mask(self, team) -> int:
        return sum(1 << self.index[w] for w in team)


def _point(node, m: Model) -> int:
    """Worlds where a plain modal formula holds classically."""
    kind = node[0]
    if kind == "lit":
        holds = m.val.get(node[1], 0)
        return holds if node[2] else m.full & ~holds
    if kind == "and":
        return _point(node[1], m) & _point(node[2], m)
    if kind == "or":
        return _point(node[1], m) | _point(node[2], m)
    if kind in ("dia", "box"):
        child = _point(node[1], m)
        out = 0
        for i, s in enumerate(m.succ):
            if (s & child) if kind == "dia" else not (s & ~child):
                out |= 1 << i
        return out
    raise ValueError(f"not a plain modal node: {kind!r}")


def _has_dep(node) -> bool:
    kind = node[0]
    if kind == "mdep":
        return True
    if kind in ("and", "or"):
        return _has_dep(node[1]) or _has_dep(node[2])
    if kind in ("dia", "box"):
        return _has_dep(node[1])
    return False


def _modal_family(node, m: Model) -> list[int]:
    if not _has_dep(node):
        return [_point(node, m)]
    kind = node[0]
    if kind in ("and", "or"):
        op = int.__and__ if kind == "and" else int.__or__
        return _combine(_modal_family(node[1], m), _modal_family(node[2], m), op)
    if kind in ("dia", "box"):
        # A team satisfies <>f when each member sees into one maximal
        # team of f, and []f when each member sees only into one.
        out = []
        for target in _modal_family(node[1], m):
            mask = 0
            for i, s in enumerate(m.succ):
                if (s & target) if kind == "dia" else not (s & ~target):
                    mask |= 1 << i
            out.append(mask)
        return _prune(out)
    if kind == "mdep":
        arg_masks = [_point(a, m) for a in node[1]]
        target = _point(node[2], m)
        worlds = range(len(m.worlds))
        return _dep_family([tuple(a >> i & 1 for a in arg_masks) for i in worlds], [target >> i & 1 for i in worlds])
    raise ValueError(f"not a modal node: {kind!r}")


def modal_holds(node, m: Model, team_mask: int) -> bool:
    """Team truth of an EMDL formula on a team of `m`."""
    return any(team_mask | top == top for top in _modal_family(node, m))


# ---------------------------------------------------------------------------
# DQBF


def dqbf_true(inst: dict) -> bool:
    """Truth by trying every Skolem table family against every universal
    assignment, one assignment at a time."""
    universals = inst["universals"]
    existentials = inst["existentials"]
    clauses = inst["clauses"]
    sizes = [1 << len(deps) for _, deps in existentials]
    envs = [dict(zip(universals, bits)) for bits in itertools.product((False, True), repeat=len(universals))]
    for tables in itertools.product((False, True), repeat=sum(sizes)):
        if all(_dqbf_row(env, existentials, sizes, tables, clauses) for env in envs):
            return True
    return False


def _dqbf_row(env, existentials, sizes, tables, clauses) -> bool:
    env = dict(env)
    offset = 0
    for (name, deps), size in zip(existentials, sizes):
        idx = 0
        for d in deps:
            idx = idx << 1 | env[d]
        env[name] = tables[offset + idx]
        offset += size
    return all(any(env[v] == pos for v, pos in clause) for clause in clauses)

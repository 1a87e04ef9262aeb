"""Kripke structures and modal team semantics.

A modal team is a set of worlds of one structure. The diamond clause
asks for a successor team: a set T2 with T2 inside the image of T and
every member of T seeing into T2. Because all formulas handled here are
downward closed, the successors where the child's search program holds
make such a team whenever one exists, so the evaluator asks that each
member have one; the box clause uses the full image. Modal dependence
atoms are evaluated pointwise on their components, which are plain
modal formulas and therefore flat. Model checking hands
the worlds, as bitmasks per symbol and successor lists, to the
evaluator in `team_eval`.

Each public entry checks its formula against its logic's row of the
admission table in `formula`; `_team_evaluator` checks only symbols.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import _expect_list
from .formula import Formula, _admit, _as_symbol, symbols as formula_symbols
from .team_eval import DEFAULT_MAX_BITS, _TeamEvaluator


class KripkeStructure:
    """Worlds, an accessibility relation, and a valuation.

    Worlds are strings; the valuation maps each symbol to the set of
    worlds where it holds. Symbols absent from the valuation are treated
    as undeclared, not as false: evaluating a formula that mentions one
    is an error, so a structure is always explicit about its vocabulary.
    """

    __slots__ = ("worlds", "edges", "valuation", "_succ")

    def __init__(
        self,
        worlds: Iterable[str],
        edges: Iterable[tuple[str, str]],
        valuation: Mapping,
    ):
        worlds = tuple(worlds)
        if not worlds:
            raise ValueError("a structure needs at least one world")
        if len(set(worlds)) != len(worlds):
            raise ValueError("worlds must be unique")
        if any(not isinstance(w, str) for w in worlds):
            raise ValueError("worlds must be strings")
        wset = set(worlds)
        edges = frozenset((u, v) for u, v in edges)
        for u, v in edges:
            if u not in wset or v not in wset:
                raise ValueError(f"edge ({u}, {v}) leaves the world set")
        val = {}
        for sym, holds in valuation.items():
            sym = _as_symbol(sym)
            holds = frozenset(holds)
            if not holds <= wset:
                bad = sorted(holds - wset)
                raise ValueError(f"valuation of {sym} names unknown worlds: {bad}")
            val[sym] = holds
        self.worlds = worlds
        self.edges = edges
        self.valuation = val
        succ: dict[str, list[str]] = {w: [] for w in worlds}
        for u, v in sorted(edges):
            succ[u].append(v)
        self._succ = {w: tuple(vs) for w, vs in succ.items()}

    def successors(self, w: str) -> tuple[str, ...]:
        return self._succ[w]

    def image(self, team: Iterable[str]) -> frozenset[str]:
        return frozenset(v for w in team for v in self._succ[w])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KripkeStructure)
            and self.worlds == other.worlds
            and self.edges == other.edges
            and self.valuation == other.valuation
        )

    def __repr__(self) -> str:
        return (
            f"KripkeStructure(worlds={len(self.worlds)}, edges={len(self.edges)}, "
            f"symbols={sorted(s.name for s in self.valuation)})"
        )


def _world_names(value, what: str) -> list[str]:
    """`value`, which must be a list of strings, as a list."""
    if any(not isinstance(w, str) for w in _expect_list(value, what)):
        raise ValueError(f"{what} must be a list of strings")
    return list(value)


def kripke_from_dict(data: dict) -> tuple[KripkeStructure, frozenset[str]]:
    """Read the JSON object form and return the structure with its team.

    Expected keys: "worlds", "edges", "valuation", and optionally "team".
    A missing team means the team of all worlds. The worlds, each edge,
    each symbol's worlds and the team are lists of strings.
    """
    if not isinstance(data, dict):
        raise ValueError("structure must be a JSON object")
    for key in ("worlds", "edges", "valuation"):
        if key not in data:
            raise ValueError(f"structure object needs a '{key}' key")
    edges = []
    for e in _expect_list(data["edges"], "edges"):
        e = _world_names(e, "an edge")
        if len(e) != 2:
            raise ValueError(f"edge {e} must have exactly two endpoints")
        edges.append(tuple(e))
    if not isinstance(data["valuation"], dict):
        raise ValueError("valuation must be a JSON object")
    valuation = {
        s: _world_names(ws, f"the valuation of {s}") for s, ws in data["valuation"].items()
    }
    m = KripkeStructure(_world_names(data["worlds"], "worlds"), edges, valuation)
    if "team" in data:
        team = _world_names(data["team"], "team")
        if len(set(team)) != len(team):
            raise ValueError("team has duplicate worlds")
        bad = sorted(set(team) - set(m.worlds))
        if bad:
            raise ValueError(f"team names unknown worlds: {bad}")
        return m, frozenset(team)
    return m, frozenset(m.worlds)


def kripke_to_dict(m: KripkeStructure, team: Iterable[str] | None = None) -> dict:
    data = {
        "worlds": list(m.worlds),
        "edges": sorted([list(e) for e in m.edges]),
        "valuation": {
            s.name: sorted(m.valuation[s]) for s in sorted(m.valuation)
        },
    }
    if team is not None:
        data["team"] = sorted(team)
    return data


def ml_point_eval(m: KripkeStructure, w: str, f: Formula) -> bool:
    """Classical single-world modal truth; plain modal formulas only.

    The nodes of `f`, then its symbols, are checked before anything is
    evaluated, so no answer short-circuits past an undeclared symbol.
    A plain modal formula is flat: the team evaluator's fold gives
    each of its distinct subformulas the mask of worlds where it holds,
    children first from an explicit stack, in time linear in the size
    of `f` times the number of worlds, and the answer is a test of the
    singleton team.
    """
    if w not in m._succ:
        raise ValueError(f"unknown world: {w}")
    ev, (mask,) = _team_evaluator(m, ([w],), (_admit(f, "ml"),), None)
    return ev.eval(f, mask)


def mt_eval(
    m: KripkeStructure,
    team: Iterable[str],
    f: Formula,
    *,
    max_bits: int | None = DEFAULT_MAX_BITS,
) -> bool:
    """Exact modal team-semantics truth of `f` on `team` in `m`.

    The valuation must cover every symbol of the formula. A split with
    two or more disjuncts that are not flat, a diamond that is not flat,
    or an `ior` of two sides that are not flat is one search over
    certificate bits: one per `ior` and per conflict pair of each
    dependence atom under it. `max_bits` refuses a search over more
    bits with GuardLimitError.
    """
    _admit(f, "modal-team")
    ev, (mask,) = _team_evaluator(m, (team,), (f,), max_bits)
    return ev.eval(f, mask)


def _team_evaluator(
    m: KripkeStructure,
    teams: Iterable[Iterable[str]],
    cover: tuple[Formula, ...],
    max_bits: int | None,
) -> tuple[_TeamEvaluator, list[int]]:
    """One evaluator over the worlds of `m`, and each of `teams` as a
    member mask.

    The formulas of `cover` are taken as admitted by their caller. The
    symbol check runs once, over `cover`; the evaluator then answers for
    any formula whose nodes and symbols occur in `cover`, entering each
    node it has not seen on first use.
    """
    widx = {w: i for i, w in enumerate(m.worlds)}
    masks = []
    for team in map(frozenset, teams):
        mask = 0
        for w in team:
            i = widx.get(w)
            if i is None:
                raise ValueError(f"team names unknown worlds: {sorted(team - widx.keys())}")
            mask |= 1 << i
        masks.append(mask)
    syms = frozenset().union(*map(formula_symbols, cover))
    missing = syms - set(m.valuation)
    if missing:
        names = ", ".join(sorted(s.name for s in missing))
        s, verb = ("", "is") if len(missing) == 1 else ("s", "are")
        raise ValueError(f"symbol{s} {names} {verb} missing from the valuation")
    sym_mask = {}
    for sym in syms:
        sm = 0
        for w in m.valuation[sym]:
            sm |= 1 << widx[w]
        sym_mask[sym] = sm
    succ = [tuple(widx[v] for v in m.successors(w)) for w in m.worlds]
    ev = _TeamEvaluator(len(m.worlds), sym_mask, succ, max_bits)
    return ev, masks


def disjoint_union(a: KripkeStructure, b: KripkeStructure) -> KripkeStructure:
    """Tagged disjoint union; left worlds get "L:" and right get "R:".

    The vocabulary is the union of both valuations, with a symbol absent
    on one side holding at none of that side's worlds.
    """
    worlds = tuple(f"L:{w}" for w in a.worlds) + tuple(f"R:{w}" for w in b.worlds)
    edges = [(f"L:{u}", f"L:{v}") for u, v in a.edges]
    edges += [(f"R:{u}", f"R:{v}") for u, v in b.edges]
    val = {}
    for sym in set(a.valuation) | set(b.valuation):
        holds = {f"L:{w}" for w in a.valuation.get(sym, ())}
        holds |= {f"R:{w}" for w in b.valuation.get(sym, ())}
        val[sym] = frozenset(holds)
    return KripkeStructure(worlds, edges, val)


def _refine_partition(m1: KripkeStructure, m2: KripkeStructure) -> dict[tuple[int, str], int]:
    """Coarsest bisimulation partition over the two structures together.

    Worlds are keyed (side, name). The vocabulary is the union of both
    valuations; a missing symbol counts as false on that side, so the
    comparison never errors on mismatched declarations.
    """
    sides = ((0, m1), (1, m2))
    vocab = sorted(set(m1.valuation) | set(m2.valuation))
    block: dict[tuple[int, str], int] = {}
    signature: dict[tuple, int] = {}
    for side, m in sides:
        for w in m.worlds:
            sig = tuple(w in m.valuation.get(sym, ()) for sym in vocab)
            if sig not in signature:
                signature[sig] = len(signature)
            block[(side, w)] = signature[sig]
    while True:
        signature = {}
        new_block = {}
        for side, m in sides:
            for w in m.worlds:
                succ_blocks = frozenset(block[(side, v)] for v in m.successors(w))
                sig = (block[(side, w)], succ_blocks)
                if sig not in signature:
                    signature[sig] = len(signature)
                new_block[(side, w)] = signature[sig]
        if new_block == block:
            return block
        block = new_block


def bisimilar(m1: KripkeStructure, w1: str, m2: KripkeStructure, w2: str) -> bool:
    """World bisimilarity across two structures."""
    if w1 not in m1._succ:
        raise ValueError(f"unknown world: {w1}")
    if w2 not in m2._succ:
        raise ValueError(f"unknown world: {w2}")
    block = _refine_partition(m1, m2)
    return block[(0, w1)] == block[(1, w2)]


def team_bisimilar(
    m1: KripkeStructure, team1: Iterable[str], m2: KripkeStructure, team2: Iterable[str]
) -> bool:
    """Team bisimilarity: matching partners in both directions."""
    team1, team2 = frozenset(team1), frozenset(team2)
    bad = sorted(team1 - set(m1.worlds)) + sorted(team2 - set(m2.worlds))
    if bad:
        raise ValueError(f"team names unknown worlds: {bad}")
    block = _refine_partition(m1, m2)
    left = {block[(0, w)] for w in team1}
    right = {block[(1, w)] for w in team2}
    return left == right

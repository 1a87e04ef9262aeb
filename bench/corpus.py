"""Seeded corpus generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain text for the
library to parse, or a small tuple AST that renders to it and that the
independent checkers in `reference.py` read. The
library never sees the tuple AST, and nothing here imports `teamlogic`.

Tuple AST nodes:
    ("lit", sym, positive)       literal
    ("and", left, right)         conjunction
    ("or", left, right)          splitting disjunction
    ("dep", (args...), target)   propositional dependence atom (symbols)
    ("mdep", (args...), target)  modal dependence atom (plain ML parts)
    ("dia", child) / ("box", child)
"""

from __future__ import annotations

import random
import string

PROP_SYMS = ("p", "q", "r", "s")
PROP_BUDGET = (8, 16)
PROP_MAX_DEPS = 2

MODAL_SYMS = ("p", "q", "r")
MODAL_BUDGET = (3, 7)
MODAL_DEPTH = 2
MODAL_MAX_IOR = 4

# Every existential of a DQBF instance depends on this many universals.
DQBF_DEPS_PER_EXISTENTIAL = 2


def render(node) -> str:
    """Fully parenthesised surface syntax for a tuple AST."""
    kind = node[0]
    if kind == "lit":
        return node[1] if node[2] else "!" + node[1]
    if kind in ("and", "or"):
        op = " & " if kind == "and" else " | "
        return "(" + render(node[1]) + op + render(node[2]) + ")"
    if kind == "dia":
        return "<>" + render(node[1])
    if kind == "box":
        return "[]" + render(node[1])
    if kind == "dep":
        return "dep(" + ", ".join(node[1]) + "; " + node[2] + ")"
    if kind == "mdep":
        return "dep(" + ", ".join(render(a) for a in node[1]) + "; " + render(node[2]) + ")"
    raise ValueError(f"unknown node {kind!r}")


def _literal(rng: random.Random, syms) -> tuple:
    return ("lit", rng.choice(syms), rng.random() < 0.5)


def _prop(rng: random.Random, syms, budget: int, deps_left: list[int]) -> tuple:
    if budget <= 2 or rng.random() < 0.25:
        if deps_left[0] > 0 and rng.random() < 0.4:
            deps_left[0] -= 1
            arity = rng.randint(0, min(3, len(syms)))
            return ("dep", tuple(rng.choice(syms) for _ in range(arity)), rng.choice(syms))
        return _literal(rng, syms)
    left = rng.randint(1, budget - 2)
    kind = "and" if rng.random() < 0.5 else "or"
    return (
        kind,
        _prop(rng, syms, left, deps_left),
        _prop(rng, syms, budget - 1 - left, deps_left),
    )


def prop_formula(rng: random.Random, syms=PROP_SYMS, budget=PROP_BUDGET) -> tuple:
    """A PD formula with at most two dependence atoms."""
    return _prop(rng, syms, rng.randint(*budget), [PROP_MAX_DEPS])


def _ml(rng: random.Random, syms, budget: int, depth: int) -> tuple:
    if budget <= 1 or rng.random() < 0.2:
        return _literal(rng, syms)
    if depth > 0 and rng.random() < 0.35:
        return ("dia" if rng.random() < 0.5 else "box", _ml(rng, syms, budget - 1, depth - 1))
    left = max(1, rng.randint(1, max(1, budget - 2)))
    kind = "and" if rng.random() < 0.5 else "or"
    return (
        kind,
        _ml(rng, syms, left, depth),
        _ml(rng, syms, max(1, budget - 1 - left), depth),
    )


def _emdl(rng: random.Random, syms, budget: int, depth: int) -> tuple:
    if rng.random() < 0.2:
        arity = rng.randint(0, 2)
        args = tuple(_ml(rng, syms, 2, min(1, depth)) for _ in range(arity))
        return ("mdep", args, _ml(rng, syms, 2, min(1, depth)))
    if budget <= 1:
        return _literal(rng, syms)
    if depth > 0 and rng.random() < 0.3:
        return ("dia" if rng.random() < 0.5 else "box", _emdl(rng, syms, budget - 1, depth - 1))
    if rng.random() < 0.25:
        return _literal(rng, syms)
    left = max(1, rng.randint(1, max(1, budget - 2)))
    kind = "and" if rng.random() < 0.5 else "or"
    return (
        kind,
        _emdl(rng, syms, left, depth),
        _emdl(rng, syms, max(1, budget - 1 - left), depth),
    )


def ior_count(node) -> int:
    """`ior` occurrences in the unfolding: 2^arity per dependence atom."""
    kind = node[0]
    if kind == "mdep":
        return 1 << len(node[1])
    if kind in ("and", "or"):
        return ior_count(node[1]) + ior_count(node[2])
    if kind in ("dia", "box"):
        return ior_count(node[1])
    return 0


def modal_formula(
    rng: random.Random, syms=MODAL_SYMS, budget=MODAL_BUDGET, depth=MODAL_DEPTH, max_ior=MODAL_MAX_IOR
) -> tuple:
    """An EMDL formula whose unfolding has at most `max_ior` `ior`s.

    Formulas over the cap are redrawn, as acceptance test C8 skips them.
    """
    while True:
        f = _emdl(rng, syms, rng.randint(*budget), depth)
        if ior_count(f) <= max_ior:
            return f


def dqbf_instance(rng: random.Random, n_univ: int, n_exist: int, n_clauses: int) -> dict:
    """A DQBF instance as a dict: universals, existentials, clauses.

    Clauses are lists of (variable, positive) with three distinct
    variables each.
    """
    universals = [f"a{i + 1}" for i in range(n_univ)]
    existentials = []
    for j in range(n_exist):
        deps = sorted(rng.sample(range(n_univ), DQBF_DEPS_PER_EXISTENTIAL))
        existentials.append((f"e{j + 1}", [universals[d] for d in deps]))
    variables = universals + [e for e, _ in existentials]
    clauses = [
        [(v, rng.random() < 0.5) for v in rng.sample(variables, 3)]
        for _ in range(n_clauses)
    ]
    return {"universals": universals, "existentials": existentials, "clauses": clauses}


def dqbf_text(inst: dict) -> str:
    exists = " ".join(f"{e} {{{', '.join(deps)}}}" for e, deps in inst["existentials"])
    matrix = " & ".join(
        "(" + " | ".join(v if pos else "!" + v for v, pos in clause) + ")"
        for clause in inst["clauses"]
    )
    return f"forall {' '.join(inst['universals'])}\nexists {exists}\nmatrix {matrix}\n"


def rename(node, mapping: dict[str, str]) -> tuple:
    """The same formula with every symbol renamed through `mapping`."""
    kind = node[0]
    if kind == "lit":
        return ("lit", mapping[node[1]], node[2])
    if kind in ("and", "or"):
        return (kind, rename(node[1], mapping), rename(node[2], mapping))
    if kind in ("dia", "box"):
        return (kind, rename(node[1], mapping))
    if kind == "dep":
        return ("dep", tuple(mapping[a] for a in node[1]), mapping[node[2]])
    if kind == "mdep":
        return ("mdep", tuple(rename(a, mapping) for a in node[1]), rename(node[2], mapping))
    raise ValueError(f"unknown node {kind!r}")


def formula_variant(rng: random.Random, node, syms) -> tuple:
    """`node` with its symbols renamed to random single lowercase letters.

    The renaming keeps the symbols' alphabetical order, and single
    letters compare against the punctuation of rendered formulas just
    as the originals do. So the team rows (sorted by symbol) and the
    tableau's pick order (sorted by rendered text) are unchanged, and a
    variant costs what the original costs.
    """
    letters = sorted(rng.sample(string.ascii_lowercase, len(syms)))
    return rename(node, dict(zip(sorted(syms), letters)))


def dqbf_variant(rng: random.Random, inst: dict) -> dict:
    """Fresh variable names, clause order and literal order.

    Declaration order is kept, so truth, the least Skolem witness and the
    position of that witness in the table search are all unchanged. The
    new names sort in declaration order, universals first, as the
    originals do, so the team rows of the PD reduction (sorted by name)
    keep their order too; the cost of a variant is the cost of the
    original on both engines.
    """
    numbers = sorted(rng.sample(range(10, 100), len(inst["universals"]) + len(inst["existentials"])))
    names = iter(numbers)
    mapping = {u: f"x{next(names)}" for u in inst["universals"]}
    mapping |= {e: f"y{next(names)}" for e, _ in inst["existentials"]}
    clauses = [rng.sample(c, len(c)) for c in inst["clauses"]]
    rng.shuffle(clauses)
    return {
        "universals": [mapping[u] for u in inst["universals"]],
        "existentials": [(mapping[e], [mapping[d] for d in deps]) for e, deps in inst["existentials"]],
        "clauses": [[(mapping[v], pos) for v, pos in c] for c in clauses],
    }


def qbf_text(rng: random.Random) -> str:
    """A small QBF in the two-line prefix format, matrix a 3-CNF."""
    prefix = [("A", "x1"), ("E", "y1"), ("A", "x2"), ("E", "y2")]
    names = [v for _, v in prefix]
    clauses = [
        "(" + " | ".join(v if rng.random() < 0.5 else "!" + v for v in rng.sample(names, 3)) + ")"
        for _ in range(3)
    ]
    head = " ".join(f"{q} {v}" for q, v in prefix)
    return f"prefix {head}\nmatrix {' & '.join(clauses)}\n"


def small_team(rng: random.Random, syms) -> dict:
    """A team JSON object over `syms` with 1 to 4 distinct rows."""
    universe = [[(i >> k) & 1 for k in range(len(syms))] for i in range(1 << len(syms))]
    rng.shuffle(universe)
    return {"domain": list(syms), "rows": universe[: rng.randint(1, 4)]}


def small_model(rng: random.Random, syms) -> dict:
    """A Kripke JSON object with 2 to 4 worlds, every world with a successor."""
    worlds = [f"w{i}" for i in range(rng.randint(2, 4))]
    edges = []
    for u in worlds:
        for v in rng.sample(worlds, rng.randint(1, 2)):
            edges.append([u, v])
    valuation = {s: sorted(w for w in worlds if rng.random() < 0.5) for s in syms}
    team = sorted(rng.sample(worlds, rng.randint(1, len(worlds))))
    return {"worlds": worlds, "edges": edges, "valuation": valuation, "team": team}

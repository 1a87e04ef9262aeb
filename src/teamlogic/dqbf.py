"""Dependency-quantified and quantified Boolean formulas.

A DQBF instance quantifies every variable: universals first, then
existentials, where each existential comes with the set of universals it
may depend on. Truth means a family of Skolem tables exists, one per
existential over exactly its dependency set, making the matrix true
under every universal assignment.

A QBF prefix is the special case where dependency sets grow along the
prefix; `qbf_to_dqbf` reads those sets off and `dqbf_to_qbf` rebuilds a
prefix from any instance whose dependency sets form a chain.

`reduce_to_pd` maps an instance to a propositional team formula, matrix
or dependence atoms disjoined, whose validity coincides with truth of
the instance.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable

from .errors import ParseError, _check_guard
from .formula import (
    And,
    Atom,
    Dep,
    Formula,
    KEYWORDS,
    Or,
    PropSymbol,
    _IDENT_RE,
    _PL,
    _Value,
    _as_symbol,
    _fold,
    _foreign,
    render,
    symbols as formula_symbols,
    to_nnf,
)
from .parser import parse_prop
from .prop_team import _pl_eval
from .team_eval import DEFAULT_MAX_BITS, _AND, _NEG, _OR, _POS, _full_team_columns, _refine, _search

DEFAULT_MAX_QBF_VARS = 24


def _check_matrix(matrix: Formula, declared: set[PropSymbol]) -> Formula:
    # The normal form's class mask shows whether a walk must name a
    # foreign node.
    matrix = to_nnf(matrix)
    if matrix._mask & ~_PL:
        raise ValueError(
            f"matrix must be a plain propositional formula, not contain "
            f"{type(_foreign(matrix, _PL)).__name__}"
        )
    free = formula_symbols(matrix) - declared
    if free:
        names = ", ".join(sorted(s.name for s in free))
        raise ValueError(f"matrix uses unquantified variables: {names}")
    return matrix


def _prefix(prefix: Iterable[tuple[str, object]]) -> tuple[tuple[str, PropSymbol], ...]:
    """A checked linear prefix, its variables as symbols."""
    prefix = tuple((q, _as_symbol(v)) for q, v in prefix)
    for q, _ in prefix:
        if q not in ("A", "E"):
            raise ValueError(f"quantifier must be 'A' or 'E', not {q!r}")
    if len({v for _, v in prefix}) != len(prefix):
        raise ValueError("prefix quantifies a variable twice")
    return prefix


class QbfInstance:
    """A fully quantified Boolean formula with a linear prefix."""

    __slots__ = ("prefix", "matrix")

    def __init__(self, prefix: Iterable[tuple[str, object]], matrix: Formula):
        self.prefix = _prefix(prefix)
        self.matrix = _check_matrix(matrix, {v for _, v in self.prefix})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QbfInstance)
            and self.prefix == other.prefix
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        head = " ".join(f"{q} {v.name}" for q, v in self.prefix)
        return f"QbfInstance({head} . {render(self.matrix)})"


def _universals(universals: Iterable) -> tuple[PropSymbol, ...]:
    """Checked universal variables, as symbols."""
    universals = tuple(_as_symbol(u) for u in universals)
    if len(set(universals)) != len(universals):
        raise ValueError("universal variables must be unique")
    return universals


def _existentials(existentials: Iterable, universals: tuple[PropSymbol, ...]) -> tuple:
    """Checked (variable, dependency set) pairs, each set in `universals`' order."""
    upos = {u: i for i, u in enumerate(universals)}
    pairs = []
    for name, deps in existentials:
        name = _as_symbol(name)
        deps = [_as_symbol(d) for d in deps]
        if len(set(deps)) != len(deps):
            raise ValueError(f"dependency set of {name} repeats a variable")
        for d in deps:
            if d not in upos:
                raise ValueError(f"dependency set of {name} names {d}, which is not universal")
        pairs.append((name, tuple(sorted(deps, key=upos.__getitem__))))
    enames = {n for n, _ in pairs}
    if len(enames) != len(pairs):
        raise ValueError("existential variables must be unique")
    clash = enames & upos.keys()
    if clash:
        raise ValueError(f"quantified twice: {sorted(s.name for s in clash)}")
    return tuple(pairs)


class DqbfInstance:
    """A dependency-quantified Boolean formula.

    `existentials` is a sequence of (variable, dependency set) pairs;
    each dependency set is stored as a tuple in the order the universals
    were declared, whatever order it was given in.
    """

    __slots__ = ("universals", "existentials", "matrix")

    def __init__(
        self,
        universals: Iterable,
        existentials: Iterable[tuple[object, Iterable]],
        matrix: Formula,
    ):
        self.universals = _universals(universals)
        self.existentials = _existentials(existentials, self.universals)
        self.matrix = _check_matrix(matrix, {*self.universals, *dict(self.existentials)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DqbfInstance)
            and self.universals == other.universals
            and self.existentials == other.existentials
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        es = ", ".join(
            f"{n.name}({', '.join(d.name for d in deps)})"
            for n, deps in self.existentials
        )
        us = ", ".join(u.name for u in self.universals)
        return f"DqbfInstance(forall {us}; exists {es}; {render(self.matrix)})"


class SkolemWitness(_Value):
    """Skolem tables certifying a true instance.

    Each table lists the existential's value for every assignment to its
    dependency set; entry index k reads the dependency values as a binary
    number, first dependency most significant. Unlike the other value
    types, a witness takes assignment, so it has no hash.
    """

    __slots__ = _fields = __match_args__ = ("tables", "constraints")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        tables: dict[PropSymbol, tuple[int, ...]],
        constraints: dict[PropSymbol, tuple[PropSymbol, ...]],
    ):
        self.tables = tables
        self.constraints = constraints

    def describe(self) -> str:
        lines = []
        for sym, table in self.tables.items():
            deps = self.constraints[sym]
            if not deps:
                lines.append(f"{sym.name} = {table[0]}")
                continue
            args = ", ".join(d.name for d in deps)
            cells = []
            for k, bit in enumerate(table):
                key = format(k, f"0{len(deps)}b")
                cells.append(f"{key}->{bit}")
            lines.append(f"{sym.name}({args}): " + " ".join(cells))
        return "\n".join(lines)


def _compile_matrix(
    matrix: Formula, slot: dict[PropSymbol, int]
) -> list[tuple[int, int, int]]:
    """Flatten an NNF matrix into a `_surely_false` program over the
    variable slots. Built by `_fold`, so depth costs no recursion, and a
    subformula the matrix shares is one instruction.
    """
    program: list[tuple[int, int, int]] = []

    def emit(node: Formula, kids: list[int]) -> int:
        if kids:
            program.append((_AND if type(node) is And else _OR, *kids))
        else:
            program.append((_POS if type(node) is Atom else _NEG, slot[node.sym], 0))
        return len(program) - 1

    _fold(matrix, emit, {})
    return program


def dqbf_eval(
    inst: DqbfInstance, *, max_table_bits: int | None = DEFAULT_MAX_BITS
) -> SkolemWitness | None:
    """Decide an instance by a `_search` for Skolem tables.

    A table entry is a bit, read on the universal assignments that
    select it; a table is a group, as each assignment reads one of its
    entries. Bits run over the tables in declaration order, entries in
    index order, so a true instance yields its least witness.

    `max_table_bits` bounds the size of the tables, not the search work:
    propagation usually cuts the 2^bits candidates far down, but a false
    instance can still need exponentially many steps.
    """
    n = len(inst.universals)
    total_bits = sum(1 << len(deps) for _, deps in inst.existentials)
    _check_guard("max_table_bits", total_bits, max_table_bits, "Skolem table bits")
    full = (1 << (1 << n)) - 1
    cols = _full_team_columns(inst.universals)
    # One slot per variable: universals are fixed everywhere, each
    # existential starts fixed nowhere.
    ones = [cols[u] for u in inst.universals] + [0] * len(inst.existentials)
    zeros = [full ^ c for c in ones[:n]] + [0] * len(inst.existentials)
    slot = {u: i for i, u in enumerate(inst.universals)}
    bits, groups = [], []
    for k, (sym, deps) in enumerate(inst.existentials):
        slot[sym] = n + k
        # the rows reading each entry, first dependency most significant
        entries = _refine([full], [~cols[d] for d in deps])
        groups.append((n + k, len(bits), len(entries)))
        bits += [(n + k, m, 0) for m in entries]
    table_bits = _search(ones, zeros, bits, groups, _compile_matrix(inst.matrix, slot))
    if table_bits is None:
        return None
    return SkolemWitness(
        tables={
            sym: tuple(table_bits[first : first + size])
            for (sym, _), (_, first, size) in zip(inst.existentials, groups)
        },
        constraints={sym: deps for sym, deps in inst.existentials},
    )


def replay_witness(inst: DqbfInstance, witness: SkolemWitness) -> bool:
    """Check Skolem tables against every universal assignment, one by one.

    This shares nothing with the bit-parallel search; it is the slow
    reference reading of what a witness claims. The matrix passed
    `_check_matrix` when the instance was built, so no assignment walks
    it for node classes.
    """
    for sym, deps in inst.existentials:
        if sym not in witness.tables:
            raise ValueError(f"witness has no table for {sym}")
        if len(witness.tables[sym]) != 1 << len(deps):
            raise ValueError(f"table for {sym} has the wrong number of entries")
        if any(b not in (0, 1) for b in witness.tables[sym]):
            raise ValueError(f"table for {sym} has entries other than 0 and 1")
    for assignment in itertools.product((0, 1), repeat=len(inst.universals)):
        env = dict(zip(inst.universals, assignment))
        for sym, deps in inst.existentials:
            idx = 0
            for d in deps:
                idx = idx << 1 | env[d]
            env[sym] = witness.tables[sym][idx]
        if not _pl_eval(env, inst.matrix):
            return False
    return True


def qbf_eval(q: QbfInstance, *, max_vars: int | None = DEFAULT_MAX_QBF_VARS) -> bool:
    """Decide a QBF by search over the prefix, left to right, each
    variable at 0 before 1.

    The search runs on a loop, not one call per variable. A level's
    value is its last child's: an existential stops at its first true
    child, a universal at its first false one. The matrix passed
    `_check_matrix` when the instance was built, so no leaf walks it for
    node classes.
    """
    _check_guard("max_vars", len(q.prefix), max_vars, "prefix variables")
    prefix = q.prefix
    env: dict[PropSymbol, int] = {}
    depth = 0  # how many prefix variables keep their value in `env`
    while True:
        for _, var in prefix[depth:]:
            env[var] = 0
        depth = len(prefix)
        result = _pl_eval(env, q.matrix)
        while depth:
            quant, var = prefix[depth - 1]
            if env[var] == 0 and result == (quant == "A"):
                env[var] = 1
                break
            depth -= 1
        else:
            return result


def qbf_to_dqbf(q: QbfInstance) -> DqbfInstance:
    """Read dependency sets off a linear prefix.

    Each existential depends on exactly the universals quantified before
    it; declaration orders are preserved.
    """
    universals = [v for quant, v in q.prefix if quant == "A"]
    existentials = []
    seen: list[PropSymbol] = []
    for quant, v in q.prefix:
        if quant == "A":
            seen.append(v)
        else:
            existentials.append((v, tuple(seen)))
    return DqbfInstance(universals, existentials, q.matrix)


def is_simple_constraint(inst: DqbfInstance) -> bool:
    """Whether the dependency sets form a chain once sorted by size.

    Chain instances are exactly the ones a linear prefix can express.
    """
    ordered = sorted(
        (set(deps) for _, deps in inst.existentials), key=len
    )
    for small, big in zip(ordered, ordered[1:]):
        if not small <= big:
            return False
    return True


def dqbf_to_qbf(inst: DqbfInstance) -> QbfInstance:
    """Rebuild a linear prefix from a chain instance.

    Existentials are placed in order of growing dependency set, each
    immediately after the universals it depends on; universals no one
    depends on close the prefix. Universal declaration order is kept
    inside each block, so a round trip through `qbf_to_dqbf` restores
    every dependency set, though not necessarily the universal order.
    """
    if not is_simple_constraint(inst):
        raise ValueError(
            "dependency sets do not form a chain; no linear prefix expresses them"
        )
    order = sorted(
        range(len(inst.existentials)),
        key=lambda i: (len(inst.existentials[i][1]), i),
    )
    prefix: list[tuple[str, PropSymbol]] = []
    placed: set[PropSymbol] = set()
    for i in order:
        sym, deps = inst.existentials[i]
        for u in deps:
            if u not in placed:
                prefix.append(("A", u))
                placed.add(u)
        prefix.append(("E", sym))
    for u in inst.universals:
        if u not in placed:
            prefix.append(("A", u))
    return QbfInstance(prefix, inst.matrix)


def reduce_to_pd(inst: DqbfInstance) -> Formula:
    """The propositional team formula whose validity is instance truth.

    The matrix is disjoined with one dependence atom per existential,
    dep(dependency set; existential). A satisfying split of the team of
    all assignments hands each existential a part that functionally
    determines it, which is a Skolem table, and conversely.
    """
    f: Formula = inst.matrix
    for sym, deps in inst.existentials:
        f = Or(f, Dep(deps, sym))
    return f


# One existential of an exists line: a name and its braced dependencies.
_EXISTENTIAL = re.compile(r"\s*(" + _IDENT_RE.pattern + r")\s*\{([^{}]*)\}")


def _content_lines(text: str) -> list[tuple[int, str, int]]:
    """The lines that are neither blank nor comments, stripped, each
    with its number and the offset of its first character in `text`."""
    lines = []
    start = 0
    for i, line in enumerate(text.splitlines(keepends=True), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((i, stripped, start + len(line) - len(line.lstrip())))
        start += len(line)
    return lines


def _variable(name: str, ln: int) -> PropSymbol:
    """The symbol `name`, declared on line `ln`; ParseError names the line."""
    try:
        return PropSymbol(name)
    except ValueError as exc:
        reason = exc if name in KEYWORDS else f"bad variable name {name!r}"
        raise ParseError(f"line {ln}: {reason}") from None


def _at_line(ln: int, check, *args):
    """`check(*args)`, with its ValueError a ParseError naming line `ln`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ParseError(f"line {ln}: {exc}") from None


def _matrix(ln: int, line: str, start: int) -> Formula:
    """The formula of the matrix line `line`, line `ln` of the text,
    whose first character is at offset `start`. A ParseError names the
    line and gives its position in the whole text."""
    word, _, rest = line.partition(" ")
    if word != "matrix" or not rest.strip():
        raise ParseError(f"line {ln}: expected 'matrix <formula>'")
    try:
        return parse_prop(rest)
    except ParseError as exc:
        raise ParseError(f"line {ln}: {exc.reason}", start + len(word) + 1 + exc.position) from None


def parse_dqbf(text: str) -> DqbfInstance:
    """Parse the three-line instance format.

    Example:
        forall a1 a2
        exists b1 {a1} b2 {a1, a2}
        matrix (a1 & b1) | (!a1 & !b1)

    Blank lines and lines starting with '#' are ignored. Every
    existential needs a braced dependency set, {} when empty.
    """
    lines = _content_lines(text)
    if len(lines) != 3:
        raise ParseError(
            f"expected exactly three content lines (forall, exists, matrix), "
            f"got {len(lines)}"
        )
    (ln1, l1, _), (ln2, l2, _), (ln3, l3, start3) = lines
    first, _, rest1 = l1.partition(" ")
    if first != "forall":
        raise ParseError(f"line {ln1}: expected a 'forall' line")
    universals = [_variable(u, ln1) for u in rest1.split()]
    second, _, rest2 = l2.partition(" ")
    if second != "exists":
        raise ParseError(f"line {ln2}: expected an 'exists' line")
    existentials = []
    pos = 0
    rest2 = rest2.strip()
    while pos < len(rest2):
        m = _EXISTENTIAL.match(rest2, pos)
        if not m:
            raise ParseError(
                f"line {ln2}: expected 'name {{deps}}' at {rest2[pos:].strip()!r}"
            )
        inner = m.group(2).strip()
        deps = [_variable(part.strip(), ln2) for part in inner.split(",")] if inner else []
        existentials.append((_variable(m.group(1), ln2), deps))
        pos = m.end()
    matrix = _matrix(ln3, l3, start3)
    try:
        return DqbfInstance(universals, existentials, matrix)
    except ValueError as exc:
        # a good instance is checked once; a bad one again, line by line
        _at_line(ln2, _existentials, existentials, _at_line(ln1, _universals, universals))
        raise ParseError(f"line {ln3}: {exc}") from None


def render_dqbf(inst: DqbfInstance) -> str:
    parts = []
    for sym, deps in inst.existentials:
        parts.append(f"{sym.name} {{{', '.join(d.name for d in deps)}}}")
    return "\n".join(
        [
            ("forall " + " ".join(u.name for u in inst.universals)).rstrip(),
            ("exists " + " ".join(parts)).rstrip(),
            "matrix " + render(inst.matrix),
        ]
    )


def parse_qbf(text: str) -> QbfInstance:
    """Parse the two-line prefix format.

    Example:
        prefix A a1 E b1 A a2
        matrix (a1 & b1) | !a2
    """
    lines = _content_lines(text)
    if len(lines) != 2:
        raise ParseError(
            f"expected exactly two content lines (prefix, matrix), got {len(lines)}"
        )
    (ln1, l1, _), (ln2, l2, start2) = lines
    first, _, rest1 = l1.partition(" ")
    if first != "prefix":
        raise ParseError(f"line {ln1}: expected a 'prefix' line")
    toks = rest1.split()
    if len(toks) % 2 != 0:
        raise ParseError(f"line {ln1}: prefix must alternate quantifiers and names")
    prefix = []
    for q, v in zip(toks[::2], toks[1::2]):
        if q not in ("A", "E"):
            raise ParseError(f"line {ln1}: quantifier must be A or E, not {q!r}")
        prefix.append((q, _variable(v, ln1)))
    matrix = _matrix(ln2, l2, start2)
    try:
        return QbfInstance(prefix, matrix)
    except ValueError as exc:
        _at_line(ln1, _prefix, prefix)
        raise ParseError(f"line {ln2}: {exc}") from None


def render_qbf(q: QbfInstance) -> str:
    head = " ".join(f"{quant} {v.name}" for quant, v in q.prefix)
    return "\n".join([("prefix " + head).rstrip(), "matrix " + render(q.matrix)])

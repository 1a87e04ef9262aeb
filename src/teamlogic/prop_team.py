"""Propositional teams and the team-semantics decision procedures.

A team is a set of assignments over a fixed domain of symbols. Truth is
the team-semantics relation: conjunction is pointwise composition,
splitting disjunction divides the team, and a dependence atom
dep(args; target) holds when no two members agree on the arguments but
disagree on the target. Model checking hands the team's rows, as
bitmasks per symbol, to the evaluator in `team_eval`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from .errors import GuardLimitError, _expect_list
from .formula import (
    And,
    Atom,
    Dep,
    Formula,
    NegAtom,
    Or,
    PropSymbol,
    _Value,
    _admit,
    _as_symbol,
    _fold,
    symbols as formula_symbols,
)
from .team_eval import DEFAULT_MAX_BITS, _full_team_columns, _TeamEvaluator

DEFAULT_MAX_DOMAIN = 20


def _check_bits(bits) -> None:
    # `PropTeam`'s rule for its rows: a bool or 1.0 is not a bit
    if any(type(b) is not int or b not in (0, 1) for b in bits):
        raise ValueError("assignment values must be 0 or 1")


class Assignment(_Value):
    """A single truth assignment: domain symbols paired with bits, each
    the integer 0 or 1, as in `PropTeam`."""

    __slots__ = _fields = __match_args__ = ("domain", "bits")

    def __init__(self, domain: tuple[PropSymbol, ...], bits: tuple[int, ...]):
        domain, bits = tuple(domain), tuple(bits)
        if list(domain) != sorted(set(domain)):
            raise ValueError("assignment domain must be sorted and duplicate free")
        if len(bits) != len(domain):
            raise ValueError("assignment width does not match its domain")
        _check_bits(bits)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "Assignment":
        items = sorted((_as_symbol(k), v) for k, v in mapping.items())
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    def __getitem__(self, sym: PropSymbol) -> int:
        try:
            return self.bits[self.domain.index(sym)]
        except ValueError:
            raise KeyError(sym) from None

    def as_dict(self) -> dict[PropSymbol, int]:
        return dict(zip(self.domain, self.bits))


class PropTeam:
    """A set of assignments sharing one domain.

    The domain is kept in sorted symbol order and rows are bit tuples in
    that order, so equal teams have equal representations. The empty team
    is a valid team and still carries its domain.
    """

    __slots__ = ("domain", "rows")

    def __init__(self, domain: Iterable, rows: Iterable[tuple[int, ...]] = ()):
        domain = tuple(_as_symbol(s) for s in domain)
        if list(domain) != sorted(set(domain)):
            raise ValueError("team domain must be sorted and duplicate free")
        self.domain: tuple[PropSymbol, ...] = domain
        # checked before hashing: a row may hold a list
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(domain):
                raise ValueError("row width does not match the team domain")
            if any(type(b) is not int or b not in (0, 1) for b in r):
                raise ValueError("row values must be the integers 0 or 1")
        self.rows: frozenset[tuple[int, ...]] = frozenset(rows)

    def assignments(self) -> tuple[Assignment, ...]:
        return tuple(Assignment(self.domain, r) for r in sorted(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PropTeam)
            and self.domain == other.domain
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.rows))

    def __repr__(self) -> str:
        names = ",".join(s.name for s in self.domain)
        return f"PropTeam([{names}], {sorted(self.rows)!r})"


def team_from_dict(data: dict) -> PropTeam:
    """Read the JSON object form: {"domain": [...], "rows": [[...], ...]},
    with lists for lists; `PropTeam` takes the integers 0 and 1 only."""
    if not isinstance(data, dict) or "domain" not in data or "rows" not in data:
        raise ValueError("team object needs 'domain' and 'rows' keys")
    file_domain = [_as_symbol(s) for s in _expect_list(data["domain"], "team domain")]
    if len(set(file_domain)) != len(file_domain):
        raise ValueError("team domain has duplicate symbols")
    raw_rows = []
    for row in _expect_list(data["rows"], "team rows"):
        row = tuple(_expect_list(row, "a team row"))
        if len(row) != len(file_domain):
            raise ValueError("row width does not match the team domain")
        if row in raw_rows:
            raise ValueError(f"duplicate row {list(row)}")
        raw_rows.append(row)
    order = sorted(range(len(file_domain)), key=lambda i: file_domain[i])
    domain = tuple(file_domain[i] for i in order)
    return PropTeam(domain, (tuple(r[i] for i in order) for r in raw_rows))


def team_to_dict(team: PropTeam) -> dict:
    return {
        "domain": [s.name for s in team.domain],
        "rows": [list(r) for r in sorted(team.rows)],
    }


def pl_pointwise(s, f: Formula) -> bool:
    """Classical single-assignment truth of a plain propositional
    formula under `s`, an `Assignment` or a mapping from symbols to the
    integers 0 and 1 covering the symbols of `f`; anything else, or any
    other formula, dependence atoms included, raises ValueError before
    evaluation starts."""
    if isinstance(s, Assignment):
        env = s.as_dict()
    else:
        env = {_as_symbol(k): v for k, v in dict(s).items()}
        _check_bits(env.values())
    missing = formula_symbols(_admit(f, "pl")) - env.keys()
    if missing:
        raise ValueError(f"symbol {min(missing)} is outside the assignment domain")
    return _pl_eval(env, f)


def _pl_eval(env: dict, f: Formula) -> bool:
    # Left to right with short-circuiting, on an explicit stack of the
    # binary nodes above the current one, each marked with whether its
    # right side is the one under way. Callers admit their formulas and
    # give every symbol of them a value.
    stack: list[tuple[Formula, bool]] = []
    while True:
        while isinstance(f, (And, Or)):
            stack.append((f, False))
            f = f.left
        value = env[f.sym] == (1 if isinstance(f, Atom) else 0)
        while stack:
            node, right = stack.pop()
            # A left side that decides its node (false under &, true
            # under |) is the node's value, and so is a right side.
            if not right and value != isinstance(node, Or):
                stack.append((node, True))
                f = node.right
                break
        else:
            return value


def pt_eval(team: PropTeam, f: Formula, *, max_bits: int | None = DEFAULT_MAX_BITS) -> bool:
    """Exact team-semantics truth of `f` on `team`.

    The formula's symbols must lie inside the team domain. A split with
    two or more disjuncts that are not flat is one search over
    certificate bits, one per conflict pair of each dependence atom in
    it on the rows it must divide; `max_bits` refuses a search over more
    bits, though propagation usually visits far fewer than 2^bits.
    """
    _admit(f, "pd")
    missing = formula_symbols(f) - set(team.domain)
    if missing:
        names = ", ".join(sorted(s.name for s in missing))
        raise ValueError(f"symbols outside the team domain: {names}")
    rows = sorted(team.rows)
    sym_mask = {}
    for j, sym in enumerate(team.domain):
        m = 0
        for i, row in enumerate(rows):
            if row[j]:
                m |= 1 << i
        sym_mask[sym] = m
    ev = _TeamEvaluator(len(rows), sym_mask, None, max_bits)
    return ev.eval(f, ev.full)


def _check_domain(domain: tuple, max_domain: int | None) -> None:
    if max_domain is not None and len(domain) > max_domain:
        raise GuardLimitError(
            f"domain of {len(domain)} symbols exceeds the guard of {max_domain}",
            guard="max_domain", requested=len(domain), limit=max_domain,
        )


def max_team(domain: Iterable, *, max_domain: int | None = DEFAULT_MAX_DOMAIN) -> PropTeam:
    """The team of all 2^|domain| assignments over `domain`."""
    domain = tuple(sorted({_as_symbol(s) for s in domain}))
    _check_domain(domain, max_domain)
    return PropTeam(domain, itertools.product((0, 1), repeat=len(domain)))


def pd_valid(f: Formula, *, max_domain: int | None = DEFAULT_MAX_DOMAIN) -> bool:
    """Validity of a propositional team formula.

    A formula is valid exactly when the team of all assignments over its
    own symbols satisfies it, so one model check on that team decides
    validity. The team's symbol columns are built in closed form, with
    no rows. Only `max_domain` bounds it: the team check searches with
    no bound on its bits.
    """
    _admit(f, "pd")
    domain = tuple(sorted(formula_symbols(f)))
    _check_domain(domain, max_domain)
    ev = _TeamEvaluator(1 << len(domain), _full_team_columns(domain), None, None)
    return ev.eval(f, ev.full)


def pd_sat(
    f: Formula,
    require_nonempty: bool = False,
    *,
    max_domain: int | None = DEFAULT_MAX_DOMAIN,
) -> PropTeam | None:
    """A satisfying team over the formula's symbols, or None.

    The empty team satisfies every formula, so satisfiability is only
    interesting with `require_nonempty`. By downward closure a nonempty
    satisfying team exists exactly when a singleton does, and a
    singleton satisfies every dependence atom, so with each read as a
    tautology the formula's pointwise mask over the team of all
    assignments holds the satisfying singletons. The least of them, the
    lexicographically first assignment, is the witness.
    """
    _admit(f, "pd")
    domain = tuple(sorted(formula_symbols(f)))
    if not require_nonempty:
        return PropTeam(domain, ())
    _check_domain(domain, max_domain)

    def dep_free(g: Formula, kids: tuple) -> Formula:
        if type(g) is Dep:
            return Or(Atom(g.target), NegAtom(g.target))
        return type(g)(*kids)

    n = len(domain)
    ev = _TeamEvaluator(1 << n, _full_team_columns(domain), None, None)
    mask = ev.point_mask(_fold(f, dep_free, {}, Dep._bit))
    if not mask:
        return None
    member = (mask & -mask).bit_length() - 1
    return PropTeam(domain, (tuple(member >> (n - 1 - j) & 1 for j in range(n)),))

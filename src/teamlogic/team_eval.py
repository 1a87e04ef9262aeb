"""The bitmask team evaluator shared by propositional and modal teams.

A team is a bitmask over a fixed universe of members: the rows of a
propositional team or the worlds of a Kripke structure. The evaluator
sees a member count, one mask per symbol (the members where it is 1, or
where it holds), and for modal teams each member's successor list. One
instance compiles each formula it is asked about into one shared table
of nodes with dense integer ids, one id per interned formula node, and
then serves every subset of its universe, memoizing results per
(node id, member bitmask), which is what makes whole-powerset sweeps
affordable. Several formulas over the same universe, such as the
candidates an Invalid EMDL verdict replays, share one instance, its
table and its memos.

A dependence-free, `ior`-free subformula is flat: its team truth is a
subset test against the members satisfying it pointwise, and members
satisfying a flat disjunct can always be absorbed by it. A dependence
atom, `Dep` over symbols or `MDep` over plain modal formulas, compiles
to the pairs of member sets that agree on every component and disagree
on the target. Splitting disjunctions enumerate ordered partitions of
what the flat disjuncts leave over, which is sound because every
formula here is downward closed. The diamond ranges over successor-choice
images.

Dependence atoms are 2-coherent (Kontinen, Studia Logica 2013): truth
on a team is truth on each of its subteams of at most two members. So
are flat formulas, and 2-coherence is closed under `&`, the box, and a
disjunction whose only non-flat disjunct is 2-coherent. Such a node has
a conflict graph: the members failing alone, plus conflict pairs, kept
as complete bipartite blocks of member masks, and it holds on a team
exactly when the team meets no failing member and no pair. Graphs are
built the first time a split asks for them. A split between two
disjuncts that both have a graph is one 2-SAT instance on the
member-to-disjunct assignment; only the diamond, `ior` and disjunctions
of two or more non-flat disjuncts leave a split to enumeration.
"""

from __future__ import annotations

import itertools

from .errors import GuardLimitError
from .formula import And, Atom, Box, Dep, Diamond, Formula, IDis, NegAtom, Or, _fold

DEFAULT_MAX_CHOICES = 1 << 20
DEFAULT_MAX_SPLIT_ROWS = 24

# Member count from which a split between two disjuncts with conflict
# graphs is decided by 2-SAT rather than by subset enumeration.
_TWO_SAT_MIN_ROWS = 6


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _full_team_columns(symbols) -> dict:
    """Bit column per symbol over the team of all 2^n assignments.

    Member a encodes the tuple of values with the first symbol most
    significant, so the members are the assignments in sorted order;
    bit a of a symbol's column is its value there.
    """
    n = len(symbols)
    total = 1 << n
    cols = {}
    for j, s in enumerate(symbols):
        rep = 1 << (n - 1 - j)
        period = rep << 1
        unit = ((1 << rep) - 1) << rep
        multiplier = ((1 << total) - 1) // ((1 << period) - 1)
        cols[s] = unit * multiplier
    return cols


def _conflict_pairs(components: list[int], target: int, full: int) -> tuple[tuple[int, int], ...]:
    """(zeros, ones) per class of members agreeing on every component.

    A team violates the dependence atom exactly when it meets both sides
    of one pair; classes constant on the target give no pair.
    """
    classes = [full]
    for c in components:
        classes = [part for cls in classes for part in (cls & c, cls & ~c) if part]
    pairs = []
    for cls in classes:
        zeros, ones = cls & ~target, cls & target
        if zeros and ones:
            pairs.append((zeros, ones))
    return tuple(pairs)


# Node kinds of the compiled table.
_ATOM, _NEG, _AND, _OR, _IDIS, _DIAMOND, _BOX, _DEP = range(8)

# Graph slot of a node whose conflict graph is not built yet.
_PENDING = object()


class _TeamEvaluator:
    """Team-semantics evaluation over subsets of `n` members.

    `sym_mask` maps each symbol to the members where it is 1; `succ`
    lists each member's successors by index, or is None for
    propositional teams, which have no modalities.

    Each formula handed to `eval` or `point_mask` is compiled once into
    a table of nodes with dense integer ids, one id per interned formula
    node, found by identity: `_fold` enters its nodes children first,
    left to right, through `_add`, and `ids` is the fold's map from
    nodes to ids. The table and the memos are shared by every formula
    the instance evaluates. Per id the table keeps the node's kind, its
    child ids, its pointwise mask when flat (else None), its conflict
    graph, and a non-flat disjunction's chain: the union of its flat
    disjuncts' masks and the ids of the other disjuncts, left to right.
    A graph is a pair (failing members, conflict pairs), each pair a
    (zeros, ones) couple of masks whose members conflict across it, and
    None for the nodes given none. A dependence atom's graph, its atom's
    pairs, is built at compile time, the others on first use. Results
    are memoized per id in a dict keyed by member mask.
    """

    def __init__(
        self,
        n: int,
        sym_mask: dict,
        succ: list[tuple[int, ...]] | None,
        max_choices: int | None = DEFAULT_MAX_CHOICES,
        max_split_rows: int | None = DEFAULT_MAX_SPLIT_ROWS,
    ):
        self.full = (1 << n) - 1
        self.sym_mask = sym_mask
        self.succ = succ
        self.succ_mask = []
        for vs in succ or ():
            sm = 0
            for v in vs:
                sm |= 1 << v
            self.succ_mask.append(sm)
        self.max_choices = max_choices
        self.max_split_rows = max_split_rows
        self.ids: dict[Formula, int] = {}
        self.kind: list[int] = []
        self.kids: list[tuple[int, ...]] = []
        self.flat: list[int | None] = []
        self.graph: list = []
        self.chain: list[tuple[int, tuple[int, ...]] | None] = []
        self.memo: list[dict[int, bool] | None] = []
        self.memo_rest: dict[tuple[int, int, int], bool] = {}

    def _add(self, f: Formula, kids: list[int]) -> int:
        """Enter `f`, whose children have the ids `kids`; return its id."""
        flat = self.flat
        kids = tuple(kids)
        graph, chain = _PENDING, None
        if isinstance(f, Atom):
            kind, m = _ATOM, self.sym_mask[f.sym]
        elif isinstance(f, NegAtom):
            kind, m = _NEG, ~self.sym_mask[f.sym] & self.full
        elif isinstance(f, (And, Or)):
            kind = _AND if isinstance(f, And) else _OR
            ml, mr = flat[kids[0]], flat[kids[1]]
            if ml is None or mr is None:
                m = None
                if kind == _OR:
                    chain = self._or_chain(kids)
            else:
                m = (ml & mr) if kind == _AND else (ml | mr)
        elif isinstance(f, (Diamond, Box)):
            kind = _DIAMOND if isinstance(f, Diamond) else _BOX
            mc = flat[kids[0]]
            if mc is None:
                m = None
            elif kind == _DIAMOND:
                m = self._pre(mc)
            else:
                m = self.full & ~self._pre(self.full & ~mc)
        elif isinstance(f, IDis):
            kind, m = _IDIS, None
        elif isinstance(f, Dep):
            kind, m = _DEP, None
            components = [self.sym_mask[a] for a in f.args]
            graph = 0, _conflict_pairs(components, self.sym_mask[f.target], self.full)
        else:
            # an MDep (callers admit their formulas): flat components
            kind, m = _DEP, None
            graph = 0, _conflict_pairs([flat[k] for k in kids[:-1]], flat[kids[-1]], self.full)
        self.kind.append(kind)
        self.kids.append(kids)
        flat.append(m)
        self.graph.append(graph)
        self.chain.append(chain)
        self.memo.append(None if m is not None else {})
        return len(self.kind) - 1

    def _or_chain(self, kids: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Flatten nested disjunctions: flat union, other disjuncts in order."""
        flat_union, nonflat = 0, ()
        for k in kids:
            m = self.flat[k]
            if m is not None:
                flat_union |= m
            elif self.kind[k] == _OR:
                union, rest = self.chain[k]
                flat_union |= union
                nonflat += rest
            else:
                nonflat += (k,)
        return flat_union, nonflat

    def _pre(self, mask: int) -> int:
        """The members with a successor in `mask`."""
        return sum(1 << i for i, sm in enumerate(self.succ_mask) if sm & mask)

    def _graph(self, i: int):
        """Node `i`'s conflict graph, built on first use; None if it has none."""
        g = self.graph[i]
        if g is _PENDING:
            g = self.graph[i] = self._build_graph(i)
        return g

    def _build_graph(self, i: int):
        m = self.flat[i]
        if m is not None:
            return self.full & ~m, ()
        kind = self.kind[i]
        if kind == _AND:
            left, right = (self._graph(k) for k in self.kids[i])
            if left is None or right is None:
                return None
            return left[0] | right[0], left[1] + right[1]
        if kind == _OR:
            flat_union, nonflat = self.chain[i]
            g = self._graph(nonflat[0]) if len(nonflat) == 1 else None
            if g is None:
                return None
            # members the flat disjuncts absorb neither fail nor conflict
            keep = ~flat_union
            failing, pairs = g
            return failing & keep, tuple(
                (zeros & keep, ones & keep) for zeros, ones in pairs if zeros & keep and ones & keep
            )
        if kind == _BOX:
            g = self._graph(self.kids[i][0])
            if g is None:
                return None
            # the box holds on a team when its child holds on the image:
            # a member fails when its successors meet a failing member or
            # both sides of a pair, and two members conflict when their
            # successors meet opposite sides of a pair
            failing, pairs = g
            failing = self._pre(failing)
            boxed = []
            for zeros, ones in pairs:
                pz, po = self._pre(zeros), self._pre(ones)
                if pz and po:
                    failing |= pz & po
                    boxed.append((pz, po))
            return failing, tuple(boxed)
        return None

    def _id(self, f: Formula) -> int:
        """The id of `f`, entering its nodes not yet in the table."""
        i = self.ids.get(f)
        return _fold(f, self._add, self.ids) if i is None else i

    def eval(self, f: Formula, mask: int) -> bool:
        """Team truth of `f` on `mask`, compiling `f` on first use."""
        return self._eval(self._id(f), mask)

    def point_mask(self, f: Formula) -> int:
        """The members where the flat formula `f` holds pointwise."""
        return self.flat[self._id(f)]

    def _eval(self, i: int, mask: int) -> bool:
        m = self.flat[i]
        if m is not None:
            return mask & ~m == 0
        memo = self.memo[i]
        hit = memo.get(mask)
        if hit is not None:
            return hit
        kind = self.kind[i]
        if kind == _DEP:
            result = True
            for zeros, ones in self.graph[i][1]:
                if mask & zeros and mask & ones:
                    result = False
                    break
        elif kind == _AND:
            left, right = self.kids[i]
            result = self._eval(left, mask) and self._eval(right, mask)
        elif kind == _IDIS:
            left, right = self.kids[i]
            result = self._eval(left, mask) or self._eval(right, mask)
        elif kind == _OR:
            result = self._eval_or(i, mask)
        elif kind == _DIAMOND:
            result = self._eval_diamond(self.kids[i][0], mask)
        else:
            image = 0
            for w in _bits(mask):
                image |= self.succ_mask[w]
            result = self._eval(self.kids[i][0], image)
        memo[mask] = result
        return result

    def _eval_or(self, i: int, mask: int) -> bool:
        flat_union, nonflat = self.chain[i]
        rest = mask & ~flat_union
        if not nonflat:
            return rest == 0
        if len(nonflat) == 1:
            return self._eval(nonflat[0], rest)
        count = rest.bit_count()
        if self.max_split_rows is not None and count > self.max_split_rows:
            noun = "rows" if self.succ is None else "worlds"
            raise GuardLimitError(
                f"team of {count} {noun} exceeds the split guard of "
                f"{self.max_split_rows}; raise max_split_rows to override"
            )
        if len(nonflat) == 2 and count >= _TWO_SAT_MIN_ROWS:
            g1 = self._graph(nonflat[0])
            g2 = self._graph(nonflat[1]) if g1 is not None else None
            if g2 is not None:
                return _split_2sat(g1, g2, rest)
        return self._or_rest(i, nonflat, 0, rest)

    def _or_rest(self, node: int, nonflat: tuple[int, ...], k: int, mask: int) -> bool:
        if k == len(nonflat) - 1:
            return self._eval(nonflat[k], mask)
        key = (node, k, mask)
        hit = self.memo_rest.get(key)
        if hit is not None:
            return hit
        result = False
        sub = mask
        while True:
            if self._eval(nonflat[k], sub) and self._or_rest(node, nonflat, k + 1, mask & ~sub):
                result = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & mask
        self.memo_rest[key] = result
        return result

    def _eval_diamond(self, child: int, mask: int) -> bool:
        """Search successor teams as images of successor-choice functions.

        Downward closure makes choice images a complete witness set: any
        successor team can be thinned to one successor per member.
        """
        members = list(_bits(mask))
        if not members:
            return True
        succ_lists = []
        count = 1
        for i in members:
            succs = self.succ[i]
            if not succs:
                return False
            succ_lists.append(succs)
            count *= len(succs)
        if self.max_choices is not None and count > self.max_choices:
            raise GuardLimitError(
                f"{count} successor choices exceed the guard of "
                f"{self.max_choices}; raise max_choices to override"
            )
        seen = set()
        for pick in itertools.product(*succ_lists):
            child_mask = 0
            for v in pick:
                child_mask |= 1 << v
            if child_mask in seen:
                continue
            seen.add(child_mask)
            if self._eval(child, child_mask):
                return True
        return False


def _split_2sat(g1, g2, mask: int) -> bool:
    """Can `mask` split into a part for each of two conflict graphs?

    Variable x_r says member r goes to the part of `g1`, and the rest go
    to the part of `g2`. A member failing `g1` gives the unit clause
    not x_r, one failing `g2` gives x_r, a pair conflicting in `g1` must
    not both take x, and one conflicting in `g2` must not both take not
    x: exactly a 2-SAT instance, decided on its implication graph.
    Literal x_i is bit i and not x_i is bit n + i, over the dense
    positions i of the members of `mask`.
    """
    pos = {r: i for i, r in enumerate(_bits(mask))}
    n = len(pos)

    def local(m: int) -> int:
        out = 0
        for r in _bits(m & mask):
            out |= 1 << pos[r]
        return out

    # In g1's part (x) a conflict implies not x, a shift by n; in g2's
    # part (not x) it implies x. A failing member conflicts with itself.
    reach = [0] * (2 * n)
    for (failing, pairs), to in ((g1, n), (g2, 0)):
        frm = n - to
        for r in _bits(failing & mask):
            reach[pos[r] + frm] |= 1 << (pos[r] + to)
        for zeros, ones in pairs:
            lz, lo = local(zeros), local(ones)
            if not lz or not lo:
                continue
            for u in _bits(lz):
                reach[u + frm] |= lo << to
            for v in _bits(lo):
                reach[v + frm] |= lz << to
    for k in range(2 * n):
        rk = reach[k]
        bit = 1 << k
        for i in range(2 * n):
            if reach[i] & bit:
                reach[i] |= rk
    for i in range(n):
        if reach[i] >> (n + i) & 1 and reach[n + i] >> i & 1:
            return False
    return True

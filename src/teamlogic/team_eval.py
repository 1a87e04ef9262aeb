"""The bitmask team evaluator shared by propositional and modal teams.

A team is a bitmask over a fixed universe of members: the rows of a
propositional team or the worlds of a Kripke structure. The evaluator
sees a member count, one mask per symbol (the members where it is 1, or
where it holds), and for modal teams each member's successor list. One
instance keeps its work per formula node, keyed by the node itself:
interning makes a node its own identity-hashed key, and its class and
children are all the evaluator reads of it. Each node is entered once,
children first, and then serves every subset of its universe, with
results memoized per (node, member bitmask), which is what makes
whole-powerset sweeps affordable. Several formulas over the same
universe, such as the candidates an Invalid EMDL verdict replays, share
one instance, the nodes they have in common and their memos.

A dependence-free, `ior`-free subformula is flat: its team truth is a
subset test against the members satisfying it pointwise, and members
satisfying a flat disjunct can always be absorbed by it. A dependence
atom, `Dep` over symbols or `MDep` over plain modal formulas, is kept
as the pairs of member sets that agree on every component and disagree
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
from .formula import And, Atom, Box, Dep, Diamond, Formula, IDis, MDep, NegAtom, Or, _fold

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
    bit a of a symbol's column is its value there. A column repeats a
    block of zeros then ones; doubling the repeated part takes shifts
    only, where dividing out the repetition would cost time quadratic
    in the 2^n bits.
    """
    n = len(symbols)
    total = 1 << n
    cols = {}
    for j, s in enumerate(symbols):
        rep = 1 << (n - 1 - j)
        col, width = ((1 << rep) - 1) << rep, rep << 1
        while width < total:
            col |= col << width
            width <<= 1
        cols[s] = col
    return cols


def _conflict_pairs(components: tuple[int, ...], target: int, full: int) -> tuple[tuple[int, int], ...]:
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


class _TeamEvaluator:
    """Team-semantics evaluation over subsets of `n` members.

    `sym_mask` maps each symbol to the members where it is 1; `succ`
    lists each member's successors by index, or is None for
    propositional teams, which have no modalities.

    The state is kept per formula node, in dicts keyed by the node: an
    interned node is its own identity-hashed key. `flat` maps every node
    entered to its pointwise mask, or to None when it is not flat; it is
    the `done` of the `_fold` that enters each formula handed to `eval`
    or `point_mask`, children first through `_add`, so a node shared by
    several formulas is entered once. Only nodes that are not flat keep
    more: a memo from member mask to result, and for a disjunction its
    chain, the union of its flat disjuncts' masks and its other
    disjuncts, left to right. `graph` holds the conflict graphs: a pair
    (failing members, conflict pairs), each pair a (zeros, ones) couple
    of masks whose members conflict across it, or None for a node given
    none. A dependence atom's graph, its atom's pairs, is built when the
    atom is entered, the others on first use.
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
        self.flat: dict[Formula, int | None] = {}
        self.memo: dict[Formula, dict[int, bool]] = {}
        self.chain: dict[Formula, tuple[int, tuple[Formula, ...]]] = {}
        self.graph: dict = {}
        self.memo_rest: dict[tuple[Formula, int, int], bool] = {}

    def _add(self, f: Formula, kids: tuple) -> int | None:
        """Enter `f`, whose children have the masks `kids`; return its
        pointwise mask, or None when it is not flat."""
        cls = type(f)
        if cls is Atom:
            return self.sym_mask[f.sym]
        if cls is NegAtom:
            return ~self.sym_mask[f.sym] & self.full
        if cls is And or cls is Or:
            ml, mr = kids
            if ml is not None and mr is not None:
                return (ml & mr) if cls is And else (ml | mr)
            if cls is Or:
                self.chain[f] = self._or_chain(f)
        elif cls is Diamond or cls is Box:
            mc = kids[0]
            if mc is not None:
                return self._pre(mc) if cls is Diamond else self.full & ~self._pre(self.full & ~mc)
        elif cls is Dep:
            sym_mask = self.sym_mask
            components = tuple([sym_mask[a] for a in f.args])
            self.graph[f] = 0, _conflict_pairs(components, sym_mask[f.target], self.full)
        elif cls is MDep:
            # callers admit their formulas: the components are flat
            self.graph[f] = 0, _conflict_pairs(kids[:-1], kids[-1], self.full)
        self.memo[f] = {}
        return None

    def _or_chain(self, f: Formula) -> tuple[int, tuple[Formula, ...]]:
        """Flatten nested disjunctions: flat union, other disjuncts in order."""
        flat_union, nonflat = 0, ()
        for g in (f.left, f.right):
            m = self.flat[g]
            if m is not None:
                flat_union |= m
            elif type(g) is Or:
                union, rest = self.chain[g]
                flat_union |= union
                nonflat += rest
            else:
                nonflat += (g,)
        return flat_union, nonflat

    def _pre(self, mask: int) -> int:
        """The members with a successor in `mask`."""
        return sum(1 << i for i, sm in enumerate(self.succ_mask) if sm & mask)

    def _graph(self, f: Formula):
        """The conflict graph of `f`, built on first use; None if it has none."""
        if f not in self.graph:
            self.graph[f] = self._build_graph(f)
        return self.graph[f]

    def _build_graph(self, f: Formula):
        m = self.flat[f]
        if m is not None:
            return self.full & ~m, ()
        cls = type(f)
        if cls is And:
            left, right = self._graph(f.left), self._graph(f.right)
            if left is None or right is None:
                return None
            return left[0] | right[0], left[1] + right[1]
        if cls is Or:
            flat_union, nonflat = self.chain[f]
            g = self._graph(nonflat[0]) if len(nonflat) == 1 else None
            if g is None:
                return None
            # members the flat disjuncts absorb neither fail nor conflict
            keep = ~flat_union
            failing, pairs = g
            return failing & keep, tuple(
                (zeros & keep, ones & keep) for zeros, ones in pairs if zeros & keep and ones & keep
            )
        if cls is Box:
            g = self._graph(f.child)
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

    def eval(self, f: Formula, mask: int) -> bool:
        """Team truth of `f` on `mask`, entering `f` on first use."""
        _fold(f, self._add, self.flat)
        return self._eval(f, mask)

    def point_mask(self, f: Formula) -> int:
        """The members where the flat formula `f` holds pointwise."""
        return _fold(f, self._add, self.flat)

    def _eval(self, f: Formula, mask: int) -> bool:
        m = self.flat[f]
        if m is not None:
            return mask & ~m == 0
        memo = self.memo[f]
        hit = memo.get(mask)
        if hit is not None:
            return hit
        cls = type(f)
        if cls is Dep or cls is MDep:
            result = True
            for zeros, ones in self.graph[f][1]:
                if mask & zeros and mask & ones:
                    result = False
                    break
        elif cls is And:
            result = self._eval(f.left, mask) and self._eval(f.right, mask)
        elif cls is IDis:
            result = self._eval(f.left, mask) or self._eval(f.right, mask)
        elif cls is Or:
            result = self._eval_or(f, mask)
        elif cls is Diamond:
            result = self._eval_diamond(f.child, mask)
        else:
            image = 0
            for w in _bits(mask):
                image |= self.succ_mask[w]
            result = self._eval(f.child, image)
        memo[mask] = result
        return result

    def _eval_or(self, f: Formula, mask: int) -> bool:
        flat_union, nonflat = self.chain[f]
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
                f"{self.max_split_rows}; raise max_split_rows to override",
                guard="max_split_rows", requested=count, limit=self.max_split_rows,
            )
        if len(nonflat) == 2 and count >= _TWO_SAT_MIN_ROWS:
            g1 = self._graph(nonflat[0])
            g2 = self._graph(nonflat[1]) if g1 is not None else None
            if g2 is not None:
                return _split_2sat(g1, g2, rest)
        return self._or_rest(f, nonflat, 0, rest)

    def _or_rest(self, node: Formula, nonflat: tuple[Formula, ...], k: int, mask: int) -> bool:
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

    def _eval_diamond(self, child: Formula, mask: int) -> bool:
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
                f"{self.max_choices}; raise max_choices to override",
                guard="max_choices", requested=count, limit=self.max_choices,
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

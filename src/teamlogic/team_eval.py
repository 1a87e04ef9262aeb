"""The bitmask team evaluator shared by propositional and modal teams.

A team is a bitmask over a fixed universe of members: the rows of a
propositional team or the worlds of a Kripke structure. The evaluator
sees a member count, one mask per symbol (the members where it is 1, or
where it holds), and for modal teams each member's successor list. One
instance serves every subset of its universe and memoizes results per
(subformula, member bitmask), which is what makes whole-powerset sweeps
affordable.

A dependence-free, `ior`-free subformula is flat: its team truth is a
subset test against the members satisfying it pointwise, and members
satisfying a flat disjunct can always be absorbed by it. A dependence
atom, `Dep` over symbols or `MDep` over plain modal formulas, compiles
to the pairs of member sets that agree on every component and disagree
on the target. Splitting disjunctions enumerate ordered partitions of
what the flat disjuncts leave over, which is sound because every
formula here is downward closed; exactly two dependence atoms over many
members are decided as a 2-SAT instance on the member-to-disjunct
assignment instead. The diamond ranges over successor-choice images.
"""

from __future__ import annotations

import itertools

from .errors import GuardLimitError
from .formula import And, Atom, Box, Dep, Diamond, Formula, IDis, MDep, NegAtom, Or

DEFAULT_MAX_CHOICES = 1 << 20
DEFAULT_MAX_SPLIT_ROWS = 24

# Member count above which a two-dependence-atom split is decided by
# 2-SAT rather than by subset enumeration.
_TWO_SAT_MIN_ROWS = 6


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _conflict_pairs(components: list[int], target: int, full: int) -> list[tuple[int, int]]:
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
    return pairs


class _TeamEvaluator:
    """Team-semantics evaluation over subsets of `n` members.

    `sym_mask` maps each symbol to the members where it is 1; `succ`
    lists each member's successors by index, or is None for
    propositional teams, which have no modalities.
    """

    def __init__(
        self,
        n: int,
        sym_mask: dict,
        succ: list[tuple[int, ...]] | None,
        root: Formula,
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
        self.flat_mask: dict[Formula, int] = {}
        self.dep_groups: dict[Formula, list[tuple[int, int]]] = {}
        self.or_chain: dict[Formula, tuple[int, tuple[Formula, ...]]] = {}
        self.memo: dict = {}
        self.memo_rest: dict = {}
        self._prepare(root)

    def _prepare(self, f: Formula) -> int | None:
        """Return the pointwise satisfying-member mask when `f` is flat."""
        if f in self.flat_mask:
            return self.flat_mask[f]
        if f in self.dep_groups or f in self.or_chain:
            return None
        if isinstance(f, Atom):
            m = self.sym_mask[f.sym]
        elif isinstance(f, NegAtom):
            m = ~self.sym_mask[f.sym] & self.full
        elif isinstance(f, (And, Or)):
            ml = self._prepare(f.left)
            mr = self._prepare(f.right)
            if ml is None or mr is None:
                if isinstance(f, Or):
                    self._prepare_or(f)
                return None
            m = (ml & mr) if isinstance(f, And) else (ml | mr)
        elif isinstance(f, (Diamond, Box)):
            mc = self._prepare(f.child)
            if mc is None:
                return None
            if isinstance(f, Diamond):
                m = sum(1 << i for i, sm in enumerate(self.succ_mask) if sm & mc)
            else:
                m = sum(1 << i for i, sm in enumerate(self.succ_mask) if not sm & ~mc)
        elif isinstance(f, IDis):
            self._prepare(f.left)
            self._prepare(f.right)
            return None
        elif isinstance(f, Dep):
            components = [self.sym_mask[a] for a in f.args]
            target = self.sym_mask[f.target]
            self.dep_groups[f] = _conflict_pairs(components, target, self.full)
            return None
        elif isinstance(f, MDep):
            # components are plain modal formulas, hence flat
            components = [self._prepare(a) for a in f.args]
            target = self._prepare(f.target)
            self.dep_groups[f] = _conflict_pairs(components, target, self.full)
            return None
        else:
            raise ValueError(f"not a team formula: {type(f).__name__}")
        self.flat_mask[f] = m
        return m

    def _prepare_or(self, f: Or) -> None:
        disjuncts: list[Formula] = []
        stack = [f.right, f.left]
        while stack:
            d = stack.pop()
            if isinstance(d, Or):
                stack.append(d.right)
                stack.append(d.left)
            else:
                disjuncts.append(d)
        flat_union = 0
        nonflat = []
        for d in disjuncts:
            m = self._prepare(d)
            if m is None:
                nonflat.append(d)
            else:
                flat_union |= m
        self.or_chain[f] = (flat_union, tuple(nonflat))

    def eval(self, f: Formula, mask: int) -> bool:
        m = self.flat_mask.get(f)
        if m is not None:
            return mask & ~m == 0
        key = (f, mask)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if isinstance(f, (Dep, MDep)):
            result = True
            for zeros, ones in self.dep_groups[f]:
                if mask & zeros and mask & ones:
                    result = False
                    break
        elif isinstance(f, And):
            result = self.eval(f.left, mask) and self.eval(f.right, mask)
        elif isinstance(f, IDis):
            result = self.eval(f.left, mask) or self.eval(f.right, mask)
        elif isinstance(f, Or):
            result = self._eval_or(f, mask)
        elif isinstance(f, Diamond):
            result = self._eval_diamond(f, mask)
        elif isinstance(f, Box):
            image = 0
            for i in _bits(mask):
                image |= self.succ_mask[i]
            result = self.eval(f.child, image)
        else:
            raise ValueError(f"not a team formula: {type(f).__name__}")
        self.memo[key] = result
        return result

    def _eval_or(self, f: Or, mask: int) -> bool:
        flat_union, nonflat = self.or_chain[f]
        rest = mask & ~flat_union
        if not nonflat:
            return rest == 0
        if len(nonflat) == 1:
            return self.eval(nonflat[0], rest)
        count = rest.bit_count()
        if self.max_split_rows is not None and count > self.max_split_rows:
            noun = "rows" if self.succ is None else "worlds"
            raise GuardLimitError(
                f"team of {count} {noun} exceeds the split guard of "
                f"{self.max_split_rows}; raise max_split_rows to override"
            )
        if (
            len(nonflat) == 2
            and isinstance(nonflat[0], (Dep, MDep))
            and isinstance(nonflat[1], (Dep, MDep))
            and count >= _TWO_SAT_MIN_ROWS
        ):
            return self._dep_split_2sat(nonflat[0], nonflat[1], rest)
        return self._or_rest(f, nonflat, 0, rest)

    def _or_rest(self, node: Or, nonflat: tuple[Formula, ...], i: int, mask: int) -> bool:
        if i == len(nonflat) - 1:
            return self.eval(nonflat[i], mask)
        key = (node, i, mask)
        hit = self.memo_rest.get(key)
        if hit is not None:
            return hit
        result = False
        sub = mask
        while True:
            if self.eval(nonflat[i], sub) and self._or_rest(node, nonflat, i + 1, mask & ~sub):
                result = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & mask
        self.memo_rest[key] = result
        return result

    def _dep_split_2sat(self, d1: Formula, d2: Formula, mask: int) -> bool:
        """Can `mask` split into one part per dependence atom?

        Variable x_r says member r goes to the part for `d1`; the
        complement part gets the rest. A pair violating `d1` must not
        land together in part one, and a pair violating `d2` must not
        land together in part two, which is exactly a 2-SAT instance.
        """
        pos = {r: i for i, r in enumerate(_bits(mask))}
        n = len(pos)
        adj = [0] * (2 * n)  # literal 2i = x_i, literal 2i+1 = not x_i

        def add_clause(a: int, b: int) -> None:
            adj[a ^ 1] |= 1 << b
            adj[b ^ 1] |= 1 << a

        for zeros, ones in self.dep_groups[d1]:
            for u in _bits(zeros & mask):
                for v in _bits(ones & mask):
                    add_clause(2 * pos[u] + 1, 2 * pos[v] + 1)
        for zeros, ones in self.dep_groups[d2]:
            for u in _bits(zeros & mask):
                for v in _bits(ones & mask):
                    add_clause(2 * pos[u], 2 * pos[v])
        reach = list(adj)
        for k in range(2 * n):
            rk = reach[k]
            bit = 1 << k
            for i in range(2 * n):
                if reach[i] & bit:
                    reach[i] |= rk
        for i in range(n):
            t, f = 2 * i, 2 * i + 1
            if reach[t] >> f & 1 and reach[f] >> t & 1:
                return False
        return True

    def _eval_diamond(self, f: Diamond, mask: int) -> bool:
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
            if self.eval(f.child, child_mask):
                return True
        return False

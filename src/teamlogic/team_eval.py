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
on the target. A splitting disjunction divides what its flat disjuncts
leave over among the others. The diamond ranges over successor-choice
images.

Dependence atoms are 2-coherent (Kontinen, Studia Logica 2013): truth
on a team is truth on each of its subteams of at most two members. So
are flat formulas, and 2-coherence is closed under `&`, the box, and a
disjunction whose only non-flat disjunct is 2-coherent. Such a node has
a conflict graph: the members failing alone, plus conflict pairs, kept
as complete bipartite blocks of member masks, and it holds on a team
exactly when the team meets no failing member and no pair. Graphs are
built on a fold the first time a split asks for them. A split among
disjuncts that all have a graph is one `_search` over the pairs'
orientations, the propagation search that finds DQBF Skolem tables.
Only a split with a disjunct without one (the diamond, `ior`, or a
disjunction of two non-flat disjuncts) enumerates ordered partitions,
sound because every formula here is downward closed.
"""

from __future__ import annotations

import itertools

from .errors import GuardLimitError
from .formula import And, Atom, Box, Dep, Diamond, Formula, IDis, MDep, NegAtom, Or, _fold

DEFAULT_MAX_CHOICES = 1 << 20
DEFAULT_MAX_SPLIT_ROWS = 24


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
    none, or a flat node itself. A dependence atom's graph, its atom's
    pairs, is built when the atom is entered, the others on first use.
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
        """The conflict graph of `f`, or None, built on first use on a `_fold`.
        An `ior` has none, so no node above one has one."""
        if f._mask & IDis._bit:
            return None
        return _fold(f, self._add_graph, self.graph, Dep._bit | MDep._bit)

    def _add_graph(self, f: Formula, kids: tuple):
        """The graph of the non-flat `f` from its children's values."""
        cls = type(f)
        flat = self.flat
        if cls is And:
            sides = zip((f.left, f.right), kids)
            parts = [g if flat[c] is None else (self.full & ~flat[c], ()) for c, g in sides]
            if None in parts:
                return None
            (lfail, lpairs), (rfail, rpairs) = parts
            return lfail | rfail, lpairs + rpairs
        if cls is Or:
            lm, rm = flat[f.left], flat[f.right]
            g = kids[0] if rm is not None else kids[1] if lm is not None else None
            if g is None:
                return None
            # members the flat disjunct absorbs neither fail nor conflict
            keep = ~(lm if lm is not None else rm)
            failing, pairs = g
            return failing & keep, tuple((zeros & keep, ones & keep) for zeros, ones in pairs)
        if cls is Box and kids[0] is not None:
            # the box holds on a team when its child holds on the image:
            # a member fails when its successors meet a failing member or
            # both sides of a pair, and two members conflict when their
            # successors meet opposite sides of a pair
            failing, pairs = kids[0]
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
        graphs = []
        for g in nonflat:
            if (graph := self._graph(g)) is None:
                return self._or_rest(f, nonflat, 0, rest)
            graphs.append(graph)
        return _split(graphs, rest)

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


_POS, _NEG, _AND, _OR = range(4)


def _surely_false(program: list[tuple[int, int, int]], ones: list[int], zeros: list[int]) -> int:
    """Rows where `program` is false whatever the unfixed slots become.

    Instruction (_POS or _NEG, v, 0) reads slot v, positively or
    negated; (_AND or _OR, x, y) joins instructions x and y; the root
    comes last. ones[v] and zeros[v] are the rows where slot v is fixed
    to 1 and to 0. In negation normal form a node's surely-false rows
    follow from its children's alone, and fixing more rows only adds to
    them.
    """
    f: list[int] = []
    for op, x, y in program:
        if op == _POS:
            f.append(zeros[x])
        elif op == _NEG:
            f.append(ones[x])
        elif op == _AND:
            f.append(f[x] | f[y])
        else:
            f.append(f[x] & f[y])
    return f[-1]


def _search(full: int, ones: list, zeros: list, bits: list, groups: list, program: list) -> list | None:
    """The least setting of `bits` under which `program` is surely false
    on no row of `full`, or None when there is none.

    Bit (v, r1, r0) makes slot v read it on the rows r1 and its negation
    on the rows r0; `ones` and `zeros` fix every other row of `full`
    before any bit is set. Group (v, first, size) is slot v's bits from
    `first` on; every bit is in one group, and no row reads two bits of
    one group.

    Bits are fixed in order, 0 before 1. Each prefix is first completed
    with every unfixed bit 0, the least candidate under it, and kept if
    that holds. Otherwise each group with unfixed bits is probed with
    all of them 0, then 1. A row surely false both ways refutes the
    prefix; one surely false one way forces the one unfixed bit of the
    group it reads the other way, and a bit forced both ways refutes the
    prefix. Probing repeats until it forces nothing, and the search then
    branches on the lowest unfixed bit. Forcing cuts only subtrees
    without an answer, so the first answer found is the least. The work
    can be exponential in the number of bits.
    """
    # the rows reading each bit, and per slot those reading one negated
    reads, negated = [], [0] * len(ones)
    for v, r1, r0 in bits:
        reads.append(r1 | r0)
        negated[v] |= r0
    value: list[int | None] = [None] * len(bits)
    trail: list[int] = []

    def fix(i: int, b: int) -> None:
        v, r1, r0 = bits[i]
        (ones if b else zeros)[v] |= r1
        (zeros if b else ones)[v] |= r0
        value[i] = b
        trail.append(i)

    def force(first: int, size: int, refuted: int, b: int) -> bool:
        # Fix to b each bit a row in `refuted` reads; False if one is set.
        for i in range(first, first + size):
            if refuted & reads[i]:
                if value[i] is not None:
                    return False
                fix(i, b)
        return True

    def propagate() -> bool:
        # Probe the groups in turn until a full round forces nothing;
        # False when the current prefix is refuted.
        k = quiet = 0
        while quiet < len(groups):
            v, first, size = groups[k]
            k = (k + 1) % len(groups)
            quiet += 1
            free = full & ~(ones[v] | zeros[v])
            if not free:
                continue
            # every unfixed bit 0, then 1, then unfixed again
            one, zero, neg = ones[v], zeros[v], free & negated[v]
            zeros[v], ones[v] = zero | free ^ neg, one | neg
            f0 = _surely_false(program, ones, zeros)
            zeros[v], ones[v] = zero | neg, one | free ^ neg
            f1 = _surely_false(program, ones, zeros)
            ones[v], zeros[v] = one, zero
            if f0 | f1:
                if f0 & f1 or not (force(first, size, f0, 1) and force(first, size, f1, 0)):
                    return False
                quiet = 1
        return True

    def completes() -> bool:
        # Whether the prefix with every unfixed bit set to 0 holds.
        one, zero = ones[:], zeros[:]
        for v, _, _ in groups:
            free = full & ~(ones[v] | zeros[v])
            zero[v] |= free & ~negated[v]
            one[v] |= free & negated[v]
        return not _surely_false(program, one, zero)

    # A prefix that propagation keeps has no surely-false row, which the
    # first group probed would find both ways, and no unfixed bit set
    # either way makes one, or it would have been forced. So a prefix
    # fixing every bit is an answer; without bits `completes` decides.
    # A decision is (bit, trail length before it), its bit set to 0;
    # when that fails, the bit is forced to 1 one level up and stays on
    # the trail, so the scan for the next decision only runs forward.
    decisions: list[tuple[int, int]] = []
    pos = 0
    while not completes():
        if bits and propagate():
            while pos < len(bits) and value[pos] is not None:
                pos += 1
            if pos == len(bits):
                break
            decisions.append((pos, len(trail)))
            fix(pos, 0)
            continue
        if not decisions:
            return None
        pos, mark = decisions.pop()
        while len(trail) > mark:
            i = trail.pop()
            v, r1, r0 = bits[i]
            (ones if value[i] else zeros)[v] ^= r1
            (zeros if value[i] else ones)[v] ^= r0
            value[i] = None
        fix(pos, 1)
    return [b or 0 for b in value]


def _split(graphs: list, rest: int) -> bool:
    """Can `rest` split into one part per conflict graph?

    A part meets one side at most of each pair of its graph, so each
    pair gets a bit naming that side, and a member may join a graph it
    does not fail whose pairs holding it all name its side. In a graph's
    slot a member reads whether that holds for the slot's pair holding
    it: the bit on the ones side, its negation on the zeros side, 1 if
    no pair of the slot holds it, and 0 if it fails the graph. Pairs
    share a slot while they are disjoint, so no member reads two bits of
    one slot. `_search` then asks that each member read 1 in every slot
    of some graph.
    """
    ones, zeros, bits, groups, program = [], [], [], [], []
    root = None
    for failing, pairs in graphs:
        failing &= rest
        keep = rest & ~failing
        # per slot, the members its pairs hold, then the pairs; an `&`
        # of copies of one atom repeats its pairs, which need one bit
        slots = [[0]]
        for z, o in dict.fromkeys([(z & keep, o & keep) for z, o in pairs]):
            if z and o:
                slot = next((slot for slot in slots if not slot[0] & (z | o)), None)
                if slot is None:
                    slots.append(slot := [0])
                slot[0] |= z | o
                slot.append((z, o))
        term = None
        for rows, *slot_pairs in slots:
            v = len(ones)
            ones.append(keep & ~rows)
            zeros.append(failing)
            if slot_pairs:
                groups.append((v, len(bits), len(slot_pairs)))
                bits += [(v, o, z) for z, o in slot_pairs]
            program.append((_POS, v, 0))
            if term is not None:
                program.append((_AND, term, len(program) - 1))
            term = len(program) - 1
        if root is not None:
            program.append((_OR, root, term))
        root = len(program) - 1
    return _search(rest, ones, zeros, bits, groups, program) is not None

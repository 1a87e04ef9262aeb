"""The bitmask team evaluator shared by propositional and modal teams.

A team is a bitmask over a fixed universe of members: the rows of a
propositional team or the worlds of a Kripke structure. The evaluator
sees a member count, one mask per symbol (the members where it is 1, or
where it holds), and for modal teams each member's successor list. One
instance keeps its work per formula node, keyed by the node itself:
interning makes a node its own identity-hashed key, and its class and
children are all the evaluator reads of it. A node is entered once,
children first on a `_fold`, the first time the evaluation needs it.
Several formulas over the same universe, such as those an Invalid EMDL
verdict replays, share one instance and the nodes they have in common.

A dependence-free, `ior`-free subformula is flat, which its class mask
shows: its team truth is a subset test against the members satisfying
it pointwise. A dependence atom, `Dep` over symbols or `MDep` over
plain modal formulas, is kept as the pairs of member sets that agree
on every component and disagree on the target; a team satisfies it
when it meets no pair on both sides.

Evaluation walks the formula top-down on an explicit stack as far as
the first choice point on each path: a `|` with two sides that are not
flat, or a diamond that is not flat. Above it each node has one known
team: `&` hands its own to both sides, the box its image, a `|` with a
flat side what that side leaves to the other, and an `ior` with a flat
side its own to the other side, unless the flat side holds. So a flat
node there is one subset test, entered at that test, and a dependence
atom one test per pair, entered when the walk reaches it. A diamond
that is not flat fails on a team with a member without successors. An
`ior` of two sides that are not flat holds exactly when one side does,
so the walk leaves it as two walks on its team, the right one only
when the left one fails; they run as frames on one explicit stack.

Team truth is in NP (Ebbing and Lohmann, SOFSEM 2012), and a choice
point is decided by `_search`, the propagation search that also finds
DQBF Skolem tables, over certificate bits; its subtree is entered just
before its program is built. Under a setting of the bits, a
pointwise program holds at a member where the subformula may keep it:
- a flat subtree is a slot fixed to its mask;
- `&` is AND, and `|` is OR, exact by downward closure: a split puts
  each member into a part whose disjunct's program holds there;
- an `ior`, here under a split or a diamond, is one bit b, read as
  (not b and left) or (b and right);
- a dependence atom is 2-coherent (Kontinen, Studia Logica 2013): it
  holds on a team that some orientation of its pairs keeps on the
  named side of each, so each pair is one bit;
- the diamond holds where its child's program holds at some
  successor, downward closure again making those successors a
  witness, and the box where it holds at every successor.
The subformula holds on its team exactly when some setting makes the
program hold at every member. A witness gives each occurrence one
team, and occurrences with the same team, those under `&` and `ior`
below the same split part, diamond or box, share their bits.

Shared rules are each written once: `errors._check_guard` refuses
`max_bits` as every other guarded size; `_refine` splits member sets by
masks, for dependence atoms, filtrations and Skolem tables; `_pre`, the
predecessor step, reads both modalities, here and in `_surely_false`.
"""

from __future__ import annotations

from .errors import _check_guard
from .formula import And, Atom, Box, Dep, Diamond, Formula, IDis, MDep, NegAtom, Or, _fold

DEFAULT_MAX_BITS = 24

# the classes whose nodes make a formula not flat
_NONFLAT = Dep._bit | MDep._bit | IDis._bit


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


def _refine(classes: list[int], masks, n: int = 0) -> list[int]:
    """Split each member set of `classes` by each of `masks`, the part inside
    first, dropping empty parts; stop once there are `n` classes."""
    for m in masks:
        if len(classes) == n:
            break
        classes = [part for c in classes for part in (c & m, c & ~m) if part]
    return classes


def _conflict_pairs(components: list[int] | tuple[int, ...], target: int, full: int) -> tuple:
    """(zeros, ones) per class of members agreeing on every component.

    A team violates the dependence atom exactly when it meets both sides
    of one pair; classes constant on the target give no pair.
    """
    pairs = []
    for cls in _refine([full], components):
        zeros, ones = cls & ~target, cls & target
        if zeros and ones:
            pairs.append((zeros, ones))
    return tuple(pairs)


class _TeamEvaluator:
    """Team-semantics evaluation over subsets of `n` members.

    `sym_mask` maps each symbol to the members where it is 1; `succ`
    lists each member's successors by index, or is None for
    propositional teams, which have no modalities. `max_bits` bounds
    the certificate bits of any one search.

    The state is kept per formula node, in dicts keyed by the node: an
    interned node is its own identity-hashed key. `flat` maps every node
    entered to its pointwise mask, or to None when it is not flat; it is
    the `done` of each `_fold` that enters nodes, children first through
    `_add`, so a node shared by several formulas is entered once. `eval`
    enters a flat subformula where its walk tests it, a dependence atom
    where the walk reaches it and a choice point's subtree before its
    search; `point_mask` enters its whole formula. A dependence atom
    also keeps its conflict pairs, each a (zeros, ones) couple of member
    masks. `dead` holds the members without successors.
    """

    def __init__(
        self,
        n: int,
        sym_mask: dict,
        succ: list[tuple[int, ...]] | None,
        max_bits: int | None = DEFAULT_MAX_BITS,
    ):
        self.full = (1 << n) - 1
        self.sym_mask = sym_mask
        self.succ_mask = []
        self.dead = 0
        for i, vs in enumerate(succ or ()):
            sm = 0
            for v in vs:
                sm |= 1 << v
            self.succ_mask.append(sm)
            if not sm:
                self.dead |= 1 << i
        self.max_bits = max_bits
        self.flat: dict[Formula, int | None] = {}
        self.pairs: dict[Formula, tuple[tuple[int, int], ...]] = {}

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
        elif cls is Diamond or cls is Box:
            mc = kids[0]
            if mc is not None:
                return self._pre(mc) if cls is Diamond else self.full & ~self._pre(~mc)
        elif cls is Dep:
            sym_mask = self.sym_mask
            self.pairs[f] = _conflict_pairs([sym_mask[s] for s in f.args], sym_mask[f.target], self.full)
        elif cls is MDep:
            # callers admit their formulas: an MDep's components are flat
            self.pairs[f] = _conflict_pairs(kids[:-1], kids[-1], self.full)
        return None

    def _pre(self, mask: int) -> int:
        """The members with a successor in `mask`."""
        return sum(1 << i for i, sm in enumerate(self.succ_mask) if sm & mask)

    def point_mask(self, f: Formula) -> int:
        """The members where the flat formula `f` holds pointwise."""
        return _fold(f, self._add, self.flat)

    def eval(self, f: Formula, mask: int) -> bool:
        """Team truth of `f` on `mask`, entering each node of `f` on first need.

        The walk of `f` (`_walk`) runs first. What it leaves is decided
        in the order the walk met it, once every test of the walk has
        passed: a choice point by `_holds`, its subtree entered just
        before, and a walk-level `ior` as the walk of its left side or,
        when that fails, of its right. Those walks are frames on one
        explicit stack, a frame waiting while the walk it started runs,
        and each `ior` and choice point is decided once per team.
        """
        work = self._walk(f, mask)
        if not work:
            return work is not None
        memo: dict[tuple[Formula, int], bool] = {}
        # the suspended walks: what each has left to decide, with the
        # `ior`, its team and whether the walk above decides its right side
        frames: list[tuple[list, Formula, int, bool]] = []
        while True:
            held = work is not None
            while held and work:
                g, team = work.pop()
                held = memo.get((g, team))
                if held is not None:
                    continue
                if type(g) is IDis:
                    frames.append((work, g, team, False))
                    work = self._walk(g.left, team)
                    held = work is not None
                else:
                    _fold(g, self._add, self.flat)
                    held = memo[g, team] = self._holds(g, team)
            if not frames:
                return held
            work, g, team, right = frames.pop()
            if held or right:
                memo[g, team] = held
                if not held:
                    work = None
            else:
                frames.append((work, g, team, True))
                work = self._walk(g.right, team)

    def _walk(self, f: Formula, mask: int) -> list[tuple[Formula, int]] | None:
        """The walk of `f` on `mask`: None when one of its tests fails,
        else the choice points and walk-level `ior` it leaves, each with
        its team, the last met first.

        A node is flat when its class mask has no `Dep`, `MDep` or `IDis`
        bit, and the walk enters a flat node, or a dependence atom, only
        when it tests it. A non-flat diamond on a team with a member
        without successors fails at once. A conjunction reached again on
        the same team is skipped.
        """
        flat, pairs = self.flat, self.pairs
        todo, seen, deferred = [(f, mask)], set(), {}
        while todo:
            g, team = todo.pop()
            if not g._mask & _NONFLAT:
                m = flat.get(g)
                if m is None:
                    m = _fold(g, self._add, flat)
                if team & ~m:
                    return None
                continue
            if not team:
                continue
            cls = type(g)
            if cls is And:
                if (g, team) not in seen:
                    seen.add((g, team))
                    todo += ((g.right, team), (g.left, team))
            elif cls is Box:
                image = 0
                for w in _bits(team):
                    image |= self.succ_mask[w]
                todo.append((g.child, image))
            elif cls is Dep or cls is MDep:
                conflicts = pairs.get(g)
                if conflicts is None:
                    _fold(g, self._add, flat)
                    conflicts = pairs[g]
                for zeros, ones in conflicts:
                    if team & zeros and team & ones:
                        return None
            elif cls is Or or cls is IDis:
                side, rest = g.left, g.right
                if side._mask & _NONFLAT:
                    side, rest = rest, side
                    if side._mask & _NONFLAT:
                        deferred[g, team] = None
                        continue
                m = flat.get(side)
                if m is None:
                    m = _fold(side, self._add, flat)
                if cls is Or:
                    todo.append((rest, team & ~m))
                elif team & ~m:
                    todo.append((rest, team))
            elif team & self.dead:
                return None
            else:
                deferred[g, team] = None
        return [*reversed(deferred)]

    def _holds(self, f: Formula, team: int) -> bool:
        """Whether some setting of the certificate bits of `f` makes its
        program hold at every member of `team`.

        The program is built post-order on an explicit stack, one
        instruction per node and team context: a context starts at each
        child of a split, a diamond or a box, and `&` and `ior` pass
        theirs on. Flat subtrees are slots fixed to their masks, shared
        by mask. A dependence atom's pairs are cut down to `team` unless
        an image reads it, and its bits form one group; an image reads
        rows beyond `team`, and each of its bits is a group alone, as
        `_search` asks. The root is ORed with a slot true outside `team`.
        """
        full, flat, pairs = self.full, self.flat, self.pairs
        ones: list[int] = []
        zeros: list[int] = []
        bits: list[tuple[int, int, int]] = []
        groups: list[tuple[int, int, int]] = []
        program: list[tuple] = []
        fixed: dict[int, int] = {}
        done: dict[tuple[Formula, int], int] = {}

        def slot(one: int, zero: int) -> int:
            ones.append(one)
            zeros.append(zero)
            return len(ones) - 1

        def const(mask: int) -> int:
            # the instruction reading a slot fixed to `mask`
            at = fixed.get(mask)
            if at is None:
                program.append((_POS, slot(mask, full & ~mask), 0))
                at = fixed[mask] = len(program) - 1
            return at

        def read(g: Formula, ctx: int) -> int:
            m = flat[g]
            return done[g, ctx] if m is None else const(m)

        contexts = 0
        # (node, context, under an image, None) to visit, or with its
        # children's (node, context) pairs once they are done
        stack: list = [(f, 0, False, None)]
        while stack:
            g, ctx, imaged, kids = stack.pop()
            cls = type(g)
            if kids is not None:
                xs = [read(c, k) for c, k in kids]
                x, y = xs[0], xs[-1]
                if cls is And or cls is Or:
                    program.append((_AND if cls is And else _OR, x, y))
                elif cls is Diamond or cls is Box:
                    program.append((_DIA if cls is Diamond else _BOX, x, self))
                else:
                    v = slot(0, 0)
                    groups.append((v, len(bits), 1))
                    bits.append((v, full, 0))
                    at = len(program)
                    program += [
                        (_NEG, v, 0), (_AND, at, x),
                        (_POS, v, 0), (_AND, at + 2, y),
                        (_OR, at + 1, at + 3),
                    ]
                done[g, ctx] = len(program) - 1
            elif (g, ctx) in done:
                continue
            elif cls is Dep or cls is MDep:
                rows = full if imaged else team
                cut = [(z & rows, o & rows) for z, o in pairs[g] if z & rows and o & rows]
                held = 0
                for z, o in cut:
                    held |= z | o
                v = slot(full & ~held, 0)
                if imaged:
                    groups += [(v, len(bits) + i, 1) for i in range(len(cut))]
                elif cut:
                    groups.append((v, len(bits), len(cut)))
                bits += [(v, o, z) for z, o in cut]
                program.append((_POS, v, 0))
                done[g, ctx] = len(program) - 1
            else:
                if cls is And or cls is IDis:
                    kids = ((g.left, ctx), (g.right, ctx))
                elif cls is Or:
                    kids = ((g.left, contexts + 1), (g.right, contexts + 2))
                    contexts += 2
                else:
                    contexts += 1
                    kids = ((g.child, contexts),)
                    imaged = True
                stack.append((g, ctx, imaged, kids))
                stack += [(c, k, imaged, None) for c, k in reversed(kids) if flat[c] is None]
        root = done[f, 0]
        if team != full:
            program.append((_OR, root, const(full & ~team)))
        _check_guard("max_bits", len(bits), self.max_bits, "certificate bits")
        # a program false somewhere with every bit unfixed needs no search
        if _surely_false(program, ones, zeros):
            return False
        return _search(ones, zeros, bits, groups, program) is not None


_POS, _NEG, _AND, _OR, _DIA, _BOX = range(6)


def _surely_false(program: list[tuple], ones: list[int], zeros: list[int]) -> int:
    """Rows where `program` is false whatever the unfixed slots become.

    Instruction (_POS or _NEG, v, 0) reads slot v, positively or
    negated; (_AND or _OR, x, y) joins instructions x and y; (_DIA or
    _BOX, x, ev) reads instruction x at some or every successor, taken
    by `_pre` of the evaluator `ev`. The root comes last. ones[v]
    and zeros[v] are the rows where slot v is fixed to 1 and to 0. In
    negation normal form a node's surely-false rows follow from its
    children's alone, and fixing more rows only adds to them.
    """
    f: list[int] = []
    for op, x, y in program:
        if op == _POS:
            f.append(zeros[x])
        elif op == _NEG:
            f.append(ones[x])
        elif op == _AND:
            f.append(f[x] | f[y])
        elif op == _OR:
            f.append(f[x] & f[y])
        elif op == _DIA:
            # surely false where every successor is, or there is none
            f.append(y.full & ~y._pre(~f[x]))
        else:
            # surely false where some successor is
            f.append(y._pre(f[x]))
    return f[-1]


def _search(ones: list, zeros: list, bits: list, groups: list, program: list) -> list | None:
    """The least setting of `bits` under which `program` is surely false
    on no row, or None when there is none.

    Bit (v, r1, r0) makes slot v read it on the rows r1 and its negation
    on the rows r0; `ones` and `zeros` fix every other row of a slot
    before any bit is set. Group (v, first, size) is slot v's bits from
    `first` on; every bit is in one group, and no row reads two bits of
    one group. A group of two or more bits must be read by no `_DIA` or
    `_BOX`, so that a row depends on it only through the bit it reads
    itself.

    Bits are fixed in order, 0 before 1. Each prefix is first completed
    with every unfixed bit 0, the least candidate under it, and kept if
    that holds. Otherwise each group with unfixed bits is probed with
    all of them 0, then 1. A row surely false both ways refutes the
    prefix. One surely false one way forces the other way the one
    unfixed bit of the group it reads, or the group's lone bit, whatever
    row is false. A bit forced both ways refutes the prefix. Probing
    repeats until it forces nothing, and the search then branches on
    the lowest unfixed bit. Forcing cuts only subtrees without an
    answer, so the first answer found is the least. The work can be
    exponential in the number of bits.
    """
    # the rows reading each bit, and per slot those reading one negated
    reads, negated = [], [0] * len(ones)
    for v, r1, r0 in bits:
        reads.append(r1 | r0)
        negated[v] |= r0
    # the rows reading each group
    spans = []
    for _, first, size in groups:
        span = 0
        for i in range(first, first + size):
            span |= reads[i]
        spans.append(span)
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
            free = spans[k] & ~(ones[v] | zeros[v])
            k = (k + 1) % len(groups)
            quiet += 1
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
                if size == 1:
                    if f0 and f1:
                        return False
                    fix(first, 0 if f1 else 1)
                elif f0 & f1 or not (force(first, size, f0, 1) and force(first, size, f1, 0)):
                    return False
                quiet = 1
        return True

    def completes() -> bool:
        # Whether the prefix with every unfixed bit set to 0 holds.
        one, zero = ones[:], zeros[:]
        for (v, _, _), span in zip(groups, spans):
            free = span & ~(ones[v] | zeros[v])
            zero[v] |= free & ~negated[v]
            one[v] |= free & negated[v]
        return not _surely_false(program, one, zero)

    # A prefix that propagation keeps has no surely-false row, which the
    # first group probed would find both ways, and no unfixed bit set
    # either way makes one, or it would have been forced: a row depends
    # on a group of two or more bits only through the bit it reads, and
    # on a lone bit through that bit. So a prefix fixing every bit is an
    # answer; without bits `completes` decides.
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

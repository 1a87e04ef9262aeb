"""Parser for the formula grammar, by precedence climbing on explicit
stacks, so nesting depth is bounded by memory and not by recursion.

Grammar (ASCII):

    formula   := iorexpr
    iorexpr   := orexpr ('ior' orexpr)*          modal grammar only
    orexpr    := andexpr ('|' andexpr)*
    andexpr   := unary ('&' unary)*
    unary     := '!' unary | '<>' unary | '[]' unary | atom
    atom      := ident | depatom | '(' formula ')'
    depatom   := 'dep' '(' [arg (',' arg)*] ';' arg ')'

Binary operators are left associative; unary binds tightest, then '&',
then '|', then 'ior'. In the propositional grammar dep arguments are
bare identifiers and the modal tokens are rejected; in the modal grammar
they are formulas without 'ior' or nested dependence atoms. Parsers
return negation normal form: '!' on a literal flips it, '!' on a
compound is pushed inward, and '!' on anything containing a dependence
atom is a syntax error because no normal form exists for it.

The scanner turns the text into two parallel lists, token kinds and
words, from one `findall`, and the parser reads them in place by index;
no object is built per token. Character positions are needed only for
a ParseError, so they are found by scanning the text again then.
"""

from __future__ import annotations

import itertools
import re

from .errors import ParseError
from .formula import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    Formula,
    IDis,
    MDep,
    NegAtom,
    Not,
    Or,
    PropSymbol,
    _DEP,
    _IDENT_RE,
    to_nnf,
)


_KINDS = {
    "!": "BANG",
    "&": "AMP",
    "|": "PIPE",
    "(": "LPAR",
    ")": "RPAR",
    ",": "COMMA",
    ";": "SEMI",
    "<>": "DIA",
    "[]": "BOX",
    "dep": "DEP",
    "ior": "IOR",
}

# Whitespace, then a token: an operator or a word (a symbol name as
# `PropSymbol` accepts it, or a keyword) in the group, or any other
# single character outside it, an error, which leaves the group empty.
_SCAN = re.compile(r"\s*(?:(<>|\[\]|[!&|(),;]|" + _IDENT_RE.pattern + r")|\S)")
# The default of `_KINDS.get` for each word: a word outside it is a name.
_IDENT_KIND = itertools.repeat("IDENT")


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the words of the tokens of `text`, "EOF" last: two
    lists from one `findall`, with no object per token. Positions are
    found by scanning again, only for an error."""
    words = _SCAN.findall(text)
    if "" in words:
        bad = next(m.end() - 1 for m in _SCAN.finditer(text) if m.group(1) is None)
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    kinds = list(map(_KINDS.get, words, _IDENT_KIND))
    kinds.append("EOF")
    words.append("")
    return kinds, words


# Binary operator tokens, by class; `_prec`, the rendering precedence,
# is also the parsing one: higher binds tighter.
_BINARY = {"AMP": And, "PIPE": Or, "IOR": IDis}
_PREFIX = {"BANG": Not, "DIA": Diamond, "BOX": Box}


class _Expr:
    """An expression being parsed: its left operands, each waiting with
    its operator's class for a right operand."""

    __slots__ = ("ior", "pending")

    def __init__(self, ior: bool):
        self.ior = ior  # False in a dependence component: 'ior' ends it
        self.pending: list[tuple[type, Formula]] = []


class _DepAtom:
    """A modal dependence atom being parsed: its finished components and
    the index of the first token of the current one, where an error in
    that component is reported."""

    __slots__ = ("args", "at_target", "start")

    def __init__(self):
        self.args: list[Formula] = []
        self.at_target = False
        self.start = 0


# The frame of an open parenthesis.
_PAREN = object()


class _Parser:
    """The parse of one text: its token lists and `pos`, the index of the
    next token, read and advanced in place."""

    def __init__(self, text: str, modal: bool):
        self.text = text
        self.kinds, self.words = _scan(text)
        self.pos = 0
        self.modal = modal

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token `i`, its character position found by
        scanning the text again."""
        starts = [m.start(1) for m in _SCAN.finditer(self.text)]
        return ParseError(message, starts[i] if i < len(starts) else len(self.text))

    def expected(self, what: str) -> ParseError:
        """The error for a token at `pos` other than `what`."""
        i = self.pos
        found = self.words[i] if self.kinds[i] != "EOF" else "end of input"
        return self.error(f"expected {what}, found {found!r}", i)

    def parse(self) -> Formula:
        f = self.formula()
        if self.kinds[self.pos] != "EOF":
            raise self.error(f"unexpected trailing input {self.words[self.pos]!r}", self.pos)
        return to_nnf(f)

    def formula(self) -> Formula:
        """Parse a `formula` with `frames` as the stack of everything
        waiting for the operand at hand: prefix operators as (class,
        token index), open parentheses, expressions and modal dependence
        atoms. What an operand contains is read off its class mask."""
        frames: list = [_Expr(True)]
        kinds, words = self.kinds, self.words
        while True:
            i = self.pos
            self.pos = i + 1
            kind = kinds[i]
            if kind == "IDENT":
                value = Atom(PropSymbol(words[i]))
            elif kind in _PREFIX:
                if kind != "BANG" and not self.modal:
                    raise self.error(f"{words[i]!r} is not propositional syntax", i)
                frames.append((_PREFIX[kind], i))
                continue
            elif kind == "LPAR":
                frames += (_PAREN, _Expr(True))
                continue
            elif kind == "DEP":
                if kinds[self.pos] != "LPAR":
                    raise self.expected("'(' after 'dep'")
                self.pos += 1
                if not self.modal:
                    value = self.prop_dep()
                else:
                    frame = _DepAtom()
                    frames.append(frame)
                    if kinds[self.pos] == "SEMI":
                        self.dep_target(frame, frames)
                    else:
                        self.dep_component(frame, frames)
                    continue
            else:
                self.pos = i
                raise self.expected("a formula")
            # Hand the operand to the frames until one needs another.
            while True:
                frame = frames[-1]
                if type(frame) is tuple:
                    cls, op = frames.pop()
                    if cls is not Not:
                        value = cls(value)
                    elif value._mask & _DEP:
                        raise self.error("dependence atoms cannot be negated", op)
                    elif isinstance(value, Atom):
                        value = NegAtom(value.sym)
                    elif isinstance(value, NegAtom):
                        value = Atom(value.sym)
                    else:
                        value = Not(value)
                elif type(frame) is _Expr:
                    kind = kinds[self.pos]
                    cls = _BINARY.get(kind)
                    pending = frame.pending
                    if cls is not None and (frame.ior or kind != "IOR"):
                        if kind == "IOR" and not self.modal:
                            raise self.error("'ior' is not propositional syntax", self.pos)
                        self.pos += 1
                        while pending and pending[-1][0]._prec >= cls._prec:
                            op_cls, left = pending.pop()
                            value = op_cls(left, value)
                        pending.append((cls, value))
                        break
                    while pending:
                        op_cls, left = pending.pop()
                        value = op_cls(left, value)
                    frames.pop()
                    if not frames:
                        return value
                elif frame is _PAREN:
                    frames.pop()
                    if kinds[self.pos] != "RPAR":
                        raise self.expected("')'")
                    self.pos += 1
                else:
                    value = self.dep_part_done(frame, value, frames)
                    if value is None:
                        break
                    frames.pop()

    def symbol(self) -> PropSymbol:
        """The proposition symbol at `pos`, taken."""
        if self.kinds[self.pos] != "IDENT":
            raise self.expected("a proposition symbol")
        self.pos += 1
        return PropSymbol(self.words[self.pos - 1])

    def prop_dep(self) -> Dep:
        """The rest of a propositional dependence atom after 'dep('."""
        kinds = self.kinds
        args = []
        if kinds[self.pos] != "SEMI":
            args.append(self.symbol())
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self.symbol())
        self.semi()
        target = self.symbol()
        self.dep_close()
        return Dep(tuple(args), target)

    def no_ior(self) -> None:
        if self.kinds[self.pos] == "IOR":
            raise self.error("'ior' cannot occur inside a dependence atom", self.pos)

    def semi(self) -> None:
        """Take the ';' before a dependence target."""
        self.no_ior()
        if self.kinds[self.pos] != "SEMI":
            raise self.expected("';' before the dependence target")
        self.pos += 1

    def dep_close(self) -> None:
        self.no_ior()
        if self.kinds[self.pos] != "RPAR":
            raise self.expected("')' closing the dependence atom")
        self.pos += 1

    def dep_component(self, frame: _DepAtom, frames: list) -> None:
        """Open the next component of a modal dependence atom."""
        frame.start = self.pos
        frames.append(_Expr(False))

    def dep_target(self, frame: _DepAtom, frames: list) -> None:
        self.semi()
        frame.at_target = True
        self.dep_component(frame, frames)

    def dep_part_done(self, frame: _DepAtom, part: Formula, frames: list) -> Formula | None:
        """Take a finished component; open the next one and return None,
        or close the atom and return it."""
        self.no_ior()
        if part._mask & _DEP:
            raise self.error("dependence atoms cannot be nested", frame.start)
        if part._mask & IDis._bit:
            raise self.error("'ior' cannot occur inside a dependence atom", frame.start)
        if not frame.at_target:
            frame.args.append(part)
            if self.kinds[self.pos] == "COMMA":
                self.pos += 1
                self.dep_component(frame, frames)
            else:
                self.dep_target(frame, frames)
            return None
        self.dep_close()
        return MDep(tuple(frame.args), part)


def parse_prop(text: str) -> Formula:
    """Parse a propositional team-logic formula; returns negation normal form."""
    return _Parser(text, modal=False).parse()


def parse_modal(text: str) -> Formula:
    """Parse a modal team-logic formula; returns negation normal form."""
    return _Parser(text, modal=True).parse()

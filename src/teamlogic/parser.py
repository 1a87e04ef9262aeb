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
return negation normal form: '!' on a compound is pushed inward, and '!'
on anything containing a dependence atom is a syntax error because no
normal form exists for it.
"""

from __future__ import annotations

import re
import string
from typing import NamedTuple

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
    _IDENT_RE,
    to_nnf,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


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

# Whitespace, then a token: an operator, a word (a symbol name as
# `PropSymbol` accepts it, or a keyword), or any other single character,
# which is an error.
_SCAN = re.compile(r"(\s*)(<>|\[\]|[!&|(),;]|" + _IDENT_RE.pattern + r"|\S)")
_LETTERS = frozenset(string.ascii_letters)
# Builds a token without the Python-level constructor of `NamedTuple`.
_make_token = tuple.__new__


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    for space, word in _SCAN.findall(text):
        pos += len(space)
        kind = _KINDS.get(word)
        if kind is None:
            if word[0] not in _LETTERS:
                raise ParseError(f"unexpected character {word!r}", pos)
            kind = "IDENT"
        tokens.append(_make_token(_Token, (kind, word, pos)))
        pos += len(word)
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# Binary operator tokens: (precedence, class); higher binds tighter.
_BINARY = {"AMP": (3, And), "PIPE": (2, Or), "IOR": (1, IDis)}
_PREFIX = {"BANG": Not, "DIA": Diamond, "BOX": Box}


def _shown(tok: _Token) -> str:
    return tok.text if tok.kind != "EOF" else "end of input"


class _Expr:
    """An expression being parsed: its left operands, each waiting with
    its operator's precedence and class for a right operand."""

    __slots__ = ("ior", "pending")

    def __init__(self, ior: bool):
        self.ior = ior  # False in a dependence component: 'ior' ends it
        self.pending: list[tuple[int, type, Formula]] = []


class _DepAtom:
    """A modal dependence atom being parsed, with the parser's counts of
    dependence atoms and `ior` nodes when its current component began."""

    __slots__ = ("args", "at_target", "tok", "deps", "iors")

    def __init__(self):
        self.args: list[Formula] = []
        self.at_target = False
        self.tok: _Token | None = None
        self.deps = self.iors = 0


# The frame of an open parenthesis.
_PAREN = object()


class _Parser:
    def __init__(self, text: str, modal: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.modal = modal
        # Dependence atoms and `ior` nodes built so far: an operand
        # contains one exactly when the count grew while it was parsed.
        self.deps = 0
        self.iors = 0
        # `Not` nodes built: '!' on a literal flips it instead, so a
        # formula without them is in negation normal form already.
        self.nots = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {_shown(tok)!r}", tok.pos)
        return self.advance()

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return to_nnf(f) if self.nots else f

    def formula(self) -> Formula:
        """Parse a `formula` with `frames` as the stack of everything
        waiting for the operand at hand: prefix operators as (class,
        token, dependence count), open parentheses, expressions and
        modal dependence atoms."""
        frames: list = [_Expr(True)]
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            self.pos += 1
            kind = tok.kind
            if kind == "IDENT":
                value = Atom(PropSymbol(tok.text))
            elif kind in _PREFIX:
                if kind != "BANG" and not self.modal:
                    raise ParseError(f"{tok.text!r} is not propositional syntax", tok.pos)
                frames.append((_PREFIX[kind], tok, self.deps))
                continue
            elif kind == "LPAR":
                frames += (_PAREN, _Expr(True))
                continue
            elif kind == "DEP":
                self.expect("LPAR", "'(' after 'dep'")
                if not self.modal:
                    value = self.prop_dep()
                else:
                    frame = _DepAtom()
                    frames.append(frame)
                    if self.peek().kind == "SEMI":
                        self.dep_target(frame, frames)
                    else:
                        self.dep_component(frame, frames)
                    continue
            else:
                raise ParseError(f"expected a formula, found {_shown(tok)!r}", tok.pos)
            # Hand the operand to the frames until one needs another.
            while True:
                frame = frames[-1]
                if type(frame) is tuple:
                    cls, op, deps = frames.pop()
                    if cls is not Not:
                        value = cls(value)
                    elif self.deps > deps:
                        raise ParseError("dependence atoms cannot be negated", op.pos)
                    elif isinstance(value, Atom):
                        value = NegAtom(value.sym)
                    elif isinstance(value, NegAtom):
                        value = Atom(value.sym)
                    else:
                        value = Not(value)
                        self.nots += 1
                elif type(frame) is _Expr:
                    tok = tokens[self.pos]
                    binary = _BINARY.get(tok.kind)
                    pending = frame.pending
                    if binary is not None and (frame.ior or tok.kind != "IOR"):
                        if tok.kind == "IOR" and not self.modal:
                            raise ParseError("'ior' is not propositional syntax", tok.pos)
                        self.pos += 1
                        prec, cls = binary
                        while pending and pending[-1][0] >= prec:
                            value = self.reduce(pending.pop(), value)
                        pending.append((prec, cls, value))
                        break
                    while pending:
                        value = self.reduce(pending.pop(), value)
                    frames.pop()
                    if not frames:
                        return value
                elif frame is _PAREN:
                    frames.pop()
                    self.expect("RPAR", "')'")
                else:
                    value = self.dep_part_done(frame, value, frames)
                    if value is None:
                        break
                    frames.pop()

    def reduce(self, waiting: tuple[int, type, Formula], right: Formula) -> Formula:
        _, cls, left = waiting
        if cls is IDis:
            self.iors += 1
        return cls(left, right)

    def prop_dep(self) -> Dep:
        """The rest of a propositional dependence atom after 'dep('."""
        args = []
        if self.peek().kind != "SEMI":
            args.append(self.expect("IDENT", "a proposition symbol"))
            while self.peek().kind == "COMMA":
                self.advance()
                args.append(self.expect("IDENT", "a proposition symbol"))
        self.no_ior()
        self.expect("SEMI", "';' before the dependence target")
        target = self.expect("IDENT", "a proposition symbol")
        self.dep_close()
        return Dep(tuple(PropSymbol(t.text) for t in args), PropSymbol(target.text))

    def no_ior(self) -> None:
        tok = self.peek()
        if tok.kind == "IOR":
            raise ParseError("'ior' cannot occur inside a dependence atom", tok.pos)

    def dep_close(self) -> None:
        self.no_ior()
        self.expect("RPAR", "')' closing the dependence atom")
        self.deps += 1

    def dep_component(self, frame: _DepAtom, frames: list) -> None:
        """Open the next component of a modal dependence atom."""
        frame.tok = self.peek()
        frame.deps, frame.iors = self.deps, self.iors
        frames.append(_Expr(False))

    def dep_target(self, frame: _DepAtom, frames: list) -> None:
        self.no_ior()
        self.expect("SEMI", "';' before the dependence target")
        frame.at_target = True
        self.dep_component(frame, frames)

    def dep_part_done(self, frame: _DepAtom, part: Formula, frames: list) -> Formula | None:
        """Take a finished component; open the next one and return None,
        or close the atom and return it."""
        self.no_ior()
        if self.deps > frame.deps:
            raise ParseError("dependence atoms cannot be nested", frame.tok.pos)
        if self.iors > frame.iors:
            raise ParseError("'ior' cannot occur inside a dependence atom", frame.tok.pos)
        part = to_nnf(part)
        if not frame.at_target:
            frame.args.append(part)
            if self.peek().kind == "COMMA":
                self.advance()
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

"""Recursive-descent parser for the formula grammar.

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
    Not,
    Or,
    PropSymbol,
    _IDENT_RE,
    to_nnf,
    walk,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_ONE_CHAR = {
    "!": "BANG",
    "&": "AMP",
    "|": "PIPE",
    "(": "LPAR",
    ")": "RPAR",
    ",": "COMMA",
    ";": "SEMI",
}
_TWO_CHAR = {"<>": "DIA", "[]": "BOX"}
_KEYWORDS = {"dep": "DEP", "ior": "IOR"}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        kind = _ONE_CHAR.get(ch)
        if kind is not None:
            tokens.append(_Token(kind, ch, i))
            i += 1
            continue
        lit = text[i : i + 2]
        kind = _TWO_CHAR.get(lit)
        if kind is not None:
            tokens.append(_Token(kind, lit, i))
            i += 2
        else:
            # a word is a symbol name as `PropSymbol` accepts it, or a keyword
            match = _IDENT_RE.match(text, i)
            if match is None:
                raise ParseError(f"unexpected character {ch!r}", i)
            word = match.group()
            tokens.append(_Token(_KEYWORDS.get(word, "IDENT"), word, i))
            i += len(word)
    tokens.append(_Token("EOF", "", n))
    return tokens


def _contains_dep(f: Formula) -> bool:
    return any(isinstance(n, (Dep, MDep)) for n in walk(f))


class _Parser:
    def __init__(self, text: str, modal: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.modal = modal

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", tok.pos)
        return self.advance()

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return to_nnf(f)

    def formula(self) -> Formula:
        f = self.orexpr()
        while self.peek().kind == "IOR":
            tok = self.advance()
            if not self.modal:
                raise ParseError("'ior' is not propositional syntax", tok.pos)
            f = IDis(f, self.orexpr())
        return f

    def orexpr(self) -> Formula:
        f = self.andexpr()
        while self.peek().kind == "PIPE":
            self.advance()
            f = Or(f, self.andexpr())
        return f

    def andexpr(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "AMP":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "BANG":
            self.advance()
            child = self.unary()
            if _contains_dep(child):
                raise ParseError("dependence atoms cannot be negated", tok.pos)
            return Not(child)
        if tok.kind in ("DIA", "BOX"):
            if not self.modal:
                raise ParseError(
                    f"{tok.text!r} is not propositional syntax", tok.pos
                )
            self.advance()
            child = self.unary()
            return Diamond(child) if tok.kind == "DIA" else Box(child)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAR":
            self.advance()
            f = self.formula()
            self.expect("RPAR", "')'")
            return f
        if tok.kind == "DEP":
            return self.depatom()
        if tok.kind == "IDENT":
            self.advance()
            return Atom(PropSymbol(tok.text))
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", tok.pos)

    def depatom(self) -> Formula:
        self.expect("DEP", "'dep'")
        self.expect("LPAR", "'(' after 'dep'")
        args = []
        if self.peek().kind != "SEMI":
            args.append(self.deppart())
            while self.peek().kind == "COMMA":
                self.advance()
                args.append(self.deppart())
        tok = self.peek()
        if tok.kind == "IOR":
            raise ParseError("'ior' cannot occur inside a dependence atom", tok.pos)
        self.expect("SEMI", "';' before the dependence target")
        target = self.deppart()
        tok = self.peek()
        if tok.kind == "IOR":
            raise ParseError("'ior' cannot occur inside a dependence atom", tok.pos)
        self.expect("RPAR", "')' closing the dependence atom")
        if self.modal:
            return MDep(tuple(args), target)
        return Dep(tuple(a.sym for a in args), target.sym)

    def deppart(self) -> Formula:
        """One dep component: an identifier, or a formula in the modal grammar."""
        if not self.modal:
            tok = self.expect("IDENT", "a proposition symbol")
            return Atom(PropSymbol(tok.text))
        tok = self.peek()
        part = self.orexpr()
        if self.peek().kind == "IOR":
            raise ParseError(
                "'ior' cannot occur inside a dependence atom", self.peek().pos
            )
        if _contains_dep(part):
            raise ParseError("dependence atoms cannot be nested", tok.pos)
        if any(isinstance(n, IDis) for n in walk(part)):
            raise ParseError("'ior' cannot occur inside a dependence atom", tok.pos)
        return to_nnf(part)


def parse_prop(text: str) -> Formula:
    """Parse a propositional team-logic formula; returns negation normal form."""
    return _Parser(text, modal=False).parse()


def parse_modal(text: str) -> Formula:
    """Parse a modal team-logic formula; returns negation normal form."""
    return _Parser(text, modal=True).parse()

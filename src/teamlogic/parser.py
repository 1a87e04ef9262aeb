"""Parser for the formula grammar: one operator-precedence loop over the
scanned words, on explicit stacks, so nesting depth is bounded by memory
and not by recursion.

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
return negation normal form and never build a `Not`: every operand is
already in normal form, and '!' takes its dual (`_dual`, through one
memo per parse). '!' on anything containing a dependence atom or an
'ior' is a syntax error at that '!', because no normal form exists for
it.

The scanner turns the text into its words, from one `findall`; the loop
reads them in place by index and looks each up once in `_CODES`, where
a name has no entry, so it builds no object per token. A name becomes
its literal through the symbol table. Character positions are needed
only for a ParseError, so they are found by scanning the text again
then.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .formula import (
    And,
    Box,
    Dep,
    Diamond,
    Formula,
    IDis,
    MDep,
    Not,
    Or,
    PropSymbol,
    _DEP,
    _IDENT_RE,
    _dual,
    _names,
    to_nnf,  # unused here, but `bench/spans.py` traces it by this module's name
)

# Whitespace, then a token: an operator or a word (a symbol name as
# `PropSymbol` accepts it, or a keyword) in the group, or any other
# single character outside it, an error, which leaves the group empty.
_SCAN = re.compile(r"\s*(?:(<>|\[\]|[!&|(),;]|" + _IDENT_RE.pattern + r")|\S)")

# The code of every word that is not a name, "" ending the words; a
# name's is `_NAME`, the default of each lookup. The codes of the
# operators index `_CLASSES`; those of the binary ones also bound the
# operators a level takes, as 'ior' ends a dependence component.
# `_LPAR` and `_DEPATOM` also mark the levels they open.
_AND, _OR, _IOR, _NOT, _DIAMOND, _BOX, _LPAR, _DEPATOM, _OTHER, _NAME = range(10)
_CLASSES = (And, Or, IDis, Not, Diamond, Box)
_CODES = {
    "&": _AND, "|": _OR, "ior": _IOR, "!": _NOT, "<>": _DIAMOND, "[]": _BOX,
    "(": _LPAR, "dep": _DEPATOM, ")": _OTHER, ",": _OTHER, ";": _OTHER, "": _OTHER,
}
_IOR_IN_DEP = "'ior' cannot occur inside a dependence atom"


def _scan(text: str) -> list[str]:
    """The words of the tokens of `text`, "" last: one `findall`, with
    no object per token. Positions are found by scanning again, only for
    an error."""
    words = _SCAN.findall(text)
    if "" in words:
        bad = next(m.end() - 1 for m in _SCAN.finditer(text) if m.group(1) is None)
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    words.append("")
    return words


def _error(text: str, message: str, i: int) -> ParseError:
    """A ParseError at token `i`, its character position found by
    scanning the text again."""
    starts = [m.start(1) for m in _SCAN.finditer(text)]
    return ParseError(message, starts[i] if i < len(starts) else len(text))


def _expected(text: str, words: list[str], what: str, i: int) -> ParseError:
    """The error for a token `i` other than `what`."""
    found = words[i] or "end of input"
    return _error(text, f"expected {what}, found {found!r}", i)


def _dep_word(text: str, words: list[str], i: int, word: str, what: str) -> None:
    """Check that token `i` of a dependence atom is `word`, named `what`."""
    if words[i] != word:
        if words[i] == "ior":
            raise _error(text, _IOR_IN_DEP, i)
        raise _expected(text, words, what, i)


def _symbol(text: str, words: list[str], i: int) -> PropSymbol:
    """The proposition symbol that token `i` names."""
    if words[i] in _CODES:
        raise _expected(text, words, "a proposition symbol", i)
    return PropSymbol(words[i])


def _parse(text: str, modal: bool) -> Formula:
    """Parse `text` in one loop over its words, `i` the index of the next.

    `pending` holds the left operands waiting for a right one, as
    (precedence, class, operand), and under each nested level's the tuple
    that opened it, with precedence 0: (0, _LPAR, base, binary) for a
    parenthesis and (0, _DEPATOM, base, binary, args, start, target) for a
    modal dependence component. There `base` and `binary` are the
    enclosing level's, `args` the atom's finished components, `start` the
    index of the component's first word, where an error in it is
    reported, and `target` whether it is the last. (0, None) at the
    bottom stands for the whole formula. `prefix` holds the prefix
    operators waiting for an operand, as (class, word index); those above
    `base` wait for the operand at hand. `binary` is the highest code of
    a binary operator the current level takes. What an operand contains
    is read off its class mask. `duals` is the memo of the `_dual`s taken.
    """
    words = _scan(text)
    code_of = _CODES.get
    names = _names
    duals: dict = {}
    pending: list[tuple] = [(0, None)]
    prefix: list[tuple[type, int]] = []
    base, binary, i = 0, _IOR, 0
    while True:
        word = words[i]
        code = code_of(word, _NAME)
        i += 1
        if code == _NAME:
            value = (names.get(word) or PropSymbol(word))._literals[0]
        elif code == _NOT and words[i] not in _CODES:  # '!' on a name
            word = words[i]
            i += 1
            value = (names.get(word) or PropSymbol(word))._literals[1]
        elif _NOT <= code <= _BOX:
            if code != _NOT and not modal:
                raise _error(text, f"{word!r} is not propositional syntax", i - 1)
            prefix.append((_CLASSES[code], i - 1))
            continue
        elif code == _LPAR:
            pending.append((0, _LPAR, base, binary))
            base, binary = len(prefix), _IOR
            continue
        elif code == _DEPATOM:
            if words[i] != "(":
                raise _expected(text, words, "'(' after 'dep'", i)
            i += 1
            if modal:
                target = words[i] == ";"
                i += target
                pending.append((0, _DEPATOM, base, binary, [], i, target))
                base, binary = len(prefix), _OR
                continue
            # a propositional atom: its components are names, read here
            args = []
            if words[i] != ";":
                args.append(_symbol(text, words, i))
                i += 1
                while words[i] == ",":
                    args.append(_symbol(text, words, i + 1))
                    i += 2
            _dep_word(text, words, i, ";", "';' before the dependence target")
            target = _symbol(text, words, i + 1)
            _dep_word(text, words, i + 2, ")", "')' closing the dependence atom")
            i += 3
            value = Dep(tuple(args), target)
        else:
            raise _expected(text, words, "a formula", i - 1)
        # Hand the operand up until an operator needs another.
        while True:
            while len(prefix) > base:
                cls, at = prefix.pop()
                if cls is not Not:
                    value = cls(value)
                elif value._mask & _DEP:
                    raise _error(text, "dependence atoms cannot be negated", at)
                elif value._mask & IDis._bit:
                    raise _error(text, "'ior' cannot be negated", at)
                else:
                    value = _dual(value, duals)
            code = code_of(words[i], _NAME)
            if code <= binary:
                if code == _IOR and not modal:
                    raise _error(text, "'ior' is not propositional syntax", i)
                i += 1
                cls = _CLASSES[code]
                prec = cls._prec
                while pending[-1][0] >= prec:
                    _, op, left = pending.pop()
                    value = op(left, value)
                pending.append((prec, cls, value))
                break
            while pending[-1][0]:
                _, op, left = pending.pop()
                value = op(left, value)
            level = pending.pop()
            if level[1] is None:
                if words[i]:
                    raise _error(text, f"unexpected trailing input {words[i]!r}", i)
                return value
            if level[1] == _LPAR:
                if words[i] != ")":
                    raise _expected(text, words, "')'", i)
                i += 1
                _, _, base, binary = level
                continue
            _, _, base, binary, args, start, target = level
            if words[i] == "ior":
                raise _error(text, _IOR_IN_DEP, i)
            if value._mask & _DEP:
                raise _error(text, "dependence atoms cannot be nested", start)
            if value._mask & IDis._bit:
                raise _error(text, _IOR_IN_DEP, start)
            if target:
                _dep_word(text, words, i, ")", "')' closing the dependence atom")
                i += 1
                value = MDep(tuple(args), value)
                continue
            args.append(value)
            if words[i] != ",":
                _dep_word(text, words, i, ";", "';' before the dependence target")
                target = True
            i += 1
            pending.append((0, _DEPATOM, base, binary, args, i, target))
            base, binary = len(prefix), _OR
            break


def parse_prop(text: str) -> Formula:
    """Parse a propositional team-logic formula; returns negation normal form."""
    return _parse(text, modal=False)


def parse_modal(text: str) -> Formula:
    """Parse a modal team-logic formula; returns negation normal form."""
    return _parse(text, modal=True)

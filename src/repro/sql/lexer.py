"""SQL tokenizer.

Produces a flat list of :class:`Token` with kinds: ``keyword``,
``identifier``, ``number``, ``string``, ``operator``, ``punct`` and
``eof``, in one ``re.finditer`` pass.  Keywords are case-insensitive;
identifiers are normalized to lower case (quoted identifiers via double
quotes preserve case).  A token's ``position`` is the offset of its
first character.  Numbers are ASCII digits with an optional fraction
and a complete exponent; any other digit run is a syntax error.

Number and string tokens carry their ordinal among the statement's
literal tokens as ``slot``; :func:`parameterize` lifts them out of a
read statement's token stream, leaving a *shape* that is the same for
every execution of the statement whatever its literals — the plan
cache's key (:mod:`repro.plan.cache`).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = frozenset(
    """
    select distinct from where group by having order asc desc limit offset
    join inner left outer on as and or not null is true false in between
    count sum min max avg
    create drop table patchindex insert into values delete update set
    type mode threshold partitions explain analyze checkpoint
    date integer bigint int float
    double real varchar char text bool boolean string
    unique sorted identifier bitmap auto ascending descending
    scope global partition
    """.split()
)


class Token(NamedTuple):
    kind: str
    value: str
    #: Offset of the token's first character (the text's length for eof).
    position: int
    #: Ordinal among the statement's number/string tokens, else None.
    slot: int | None = None

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.value in words

    def __str__(self) -> str:  # pragma: no cover - error messages
        return f"{self.value!r}" if self.kind != "eof" else "<end of input>"


# One match per token, with the whitespace and comments before it.  A
# character no token starts with lands in ``other`` and the end of the
# text in ``eof``, so the scan never skips a character and never
# backtracks into the prefix.  A string's closing quote is not followed
# by another quote: an unterminated ``'a''`` is an error at its opening
# quote, not the string ``'a'``.  ``\s`` is ``str.isspace`` and ``\w`` is
# ``str.isalnum`` plus ``_``.  Numbers are
# ASCII with a complete exponent; a number or ``.`` directly followed by
# ``e`` or a non-ASCII word character matches a ``_tail`` group, which
# :func:`_rare_token` checks for a malformed number.
_TOKEN = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
        (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
        (?:(?=(?P<number_tail>[eE]|[^\W\x00-\x7f])))?
      | (?P<dot_tail>\.(?=[^\W\x00-\x7f]))
      | (?P<punct>[(),.;])
      | (?P<word>[A-Za-z_]\w*)
      | (?P<operator><>|!=|<=|>=|[-=<>+*/])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<quoted>"[^"]*")
      | (?P<uword>[^\W\d\x00-\x7f]\w*)
      | (?P<eof>\Z)
      | (?P<other>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    literals = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup or "other"  # every alternative is named
        start, end = match.span(kind)
        if kind == "number":
            append(_make(("number", text[start:end], start, literals)))
            literals += 1
        elif kind == "punct":
            append(_make(("punct", text[start], start, None)))
        elif kind == "word":
            word = text[start:end].lower()
            kind = "keyword" if word in KEYWORDS else "identifier"
            append(_make((kind, word, start, None)))
        elif kind == "operator":
            append(_make(("operator", text[start:end], start, None)))
        elif kind == "string":
            value = text[start + 1 : end - 1].replace("''", "'")
            append(_make(("string", value, start, literals)))
            literals += 1
        elif kind == "eof":
            append(Token("eof", "", start))
            break
        else:
            token = _rare_token(text, match, kind, literals)
            if token.slot is not None:
                literals += 1
            append(token)
    return tokens


#: Builds a token from one tuple, skipping the Python-level ``__new__``
#: that ``Token(...)`` runs (a third of a token's cost).
_make = Token._make


def _rare_token(text: str, match: re.Match[str], kind: str, slot: int) -> Token:
    """The token of a match outside :func:`tokenize`'s common kinds."""
    if kind == "number_tail":
        start, end = match.span("number")
        tail = match.group(kind)
        if tail.isdigit() or (tail in "eE" and "e" not in text[start:end].lower()):
            raise SqlSyntaxError(f"malformed number {text[start:end + 1]!r}", start)
        return Token("number", text[start:end], start, slot)
    start, end = match.span(kind)
    if kind == "dot_tail":
        if text[end].isdigit():
            raise SqlSyntaxError(f"malformed number {text[start:end + 1]!r}", start)
        return Token("punct", ".", start)
    if kind == "quoted":
        return Token("identifier", text[start + 1 : end - 1], start)
    char = text[start]
    if kind == "uword" and char.isalpha():
        word = text[start:end].lower()
        return Token("keyword" if word in KEYWORDS else "identifier", word, start)
    if char == "'":
        raise SqlSyntaxError("unterminated string literal", start)
    if char == '"':
        raise SqlSyntaxError("unterminated quoted identifier", start)
    if char.isdigit():
        raise SqlSyntaxError(f"malformed number {char!r}", start)
    raise SqlSyntaxError(f"unexpected character {char!r}", start)


def number_value(text: str) -> int | float:
    """The Python value of a number token's text."""
    return int(text) if text.isdigit() else float(text)


class StatementKey(NamedTuple):
    """A token stream split into what the plan cache keys on and what
    it re-binds per execution."""

    #: The tokens with every lifted literal replaced by its type class.
    shape: tuple[object, ...]
    #: Python value of every number/string token, indexed by ``slot``.
    values: tuple[object, ...]
    #: Slots of the literals lifted out of ``shape``.
    lifted: tuple[int, ...]


def parameterize(tokens: list[Token]) -> StatementKey:
    """Lift the number/string literals out of a read statement's tokens.

    A literal stays in the shape by value where the parser consumes it
    as syntax rather than as an expression: after ``LIMIT`` / ``OFFSET``
    (plan structure) and after ``DATE`` (a typed literal the parser
    folds).  A lifted number keeps its type class (``int`` / ``float``)
    in the shape because binding depends on it.
    """
    shape: list[object] = []
    values: list[object] = []
    lifted: list[int] = []
    previous: Token | None = None
    for token in tokens:
        if token.slot is None:
            shape.append((token.kind, token.value))
        else:
            value: object = (
                token.value
                if token.kind == "string"
                else number_value(token.value)
            )
            values.append(value)
            if previous is not None and previous.is_keyword(
                "limit", "offset", "date"
            ):
                shape.append((token.kind, token.value))
            else:
                shape.append(type(value).__name__)
                lifted.append(token.slot)
        previous = token
    return StatementKey(tuple(shape), tuple(values), tuple(lifted))

"""SQL tokenizer.

Produces a flat list of :class:`Token` with kinds: ``keyword``,
``identifier``, ``number``, ``string``, ``operator``, ``punct`` and
``eof``.  Keywords are case-insensitive; identifiers are normalized to
lower case (quoted identifiers via double quotes preserve case).

Number and string tokens carry their ordinal among the statement's
literal tokens as ``slot``; :func:`parameterize` lifts them out of a
read statement's token stream, leaving a *shape* that is the same for
every execution of the statement whatever its literals — the plan
cache's key (:mod:`repro.plan.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
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

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/")
_PUNCT = "(),.;"


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    position: int
    #: Ordinal among the statement's number/string tokens, else None.
    slot: int | None = None

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.value in words

    def __str__(self) -> str:  # pragma: no cover - error messages
        return f"{self.value!r}" if self.kind != "eof" else "<end of input>"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    position = 0
    length = len(text)
    literals = 0
    while position < length:
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if text.startswith("--", position):
            newline = text.find("\n", position)
            position = length if newline == -1 else newline + 1
            continue
        if char == "'":
            value, position = _read_string(text, position)
            tokens.append(Token("string", value, position, literals))
            literals += 1
            continue
        if char == '"':
            value, position = _read_quoted_identifier(text, position)
            tokens.append(Token("identifier", value, position))
            continue
        if char.isdigit() or (
            char == "." and position + 1 < length and text[position + 1].isdigit()
        ):
            value, position = _read_number(text, position)
            tokens.append(Token("number", value, position, literals))
            literals += 1
            continue
        if char.isalpha() or char == "_":
            start = position
            while position < length and (
                text[position].isalnum() or text[position] == "_"
            ):
                position += 1
            word = text[start:position]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, start))
            else:
                tokens.append(Token("identifier", lowered, start))
            continue
        matched = False
        for operator in _OPERATORS:
            if text.startswith(operator, position):
                tokens.append(Token("operator", operator, position))
                position += len(operator)
                matched = True
                break
        if matched:
            continue
        if char in _PUNCT:
            tokens.append(Token("punct", char, position))
            position += 1
            continue
        raise SqlSyntaxError(f"unexpected character {char!r}", position)
    tokens.append(Token("eof", "", length))
    return tokens


def _read_string(text: str, position: int) -> tuple[str, int]:
    """Read a single-quoted string literal ('' escapes a quote)."""
    start = position
    position += 1
    pieces: list[str] = []
    while position < len(text):
        char = text[position]
        if char == "'":
            if text.startswith("''", position):
                pieces.append("'")
                position += 2
                continue
            return "".join(pieces), position + 1
        pieces.append(char)
        position += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _read_quoted_identifier(text: str, position: int) -> tuple[str, int]:
    start = position
    position += 1
    end = text.find('"', position)
    if end == -1:
        raise SqlSyntaxError("unterminated quoted identifier", start)
    return text[position:end], end + 1


def _read_number(text: str, position: int) -> tuple[str, int]:
    start = position
    seen_dot = False
    seen_exp = False
    while position < len(text):
        char = text[position]
        if char.isdigit():
            position += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            position += 1
        elif char in "eE" and not seen_exp and position > start:
            seen_exp = True
            position += 1
            if position < len(text) and text[position] in "+-":
                position += 1
        else:
            break
    return text[start:position], position


def number_value(text: str) -> int | float:
    """The Python value of a number token's text."""
    if any(char in text for char in ".eE"):
        return float(text)
    return int(text)


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

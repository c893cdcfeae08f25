"""The character-loop SQL tokenizer that ``repro.sql.lexer`` replaced.

Kept verbatim as the oracle for ``tests/test_sql_lexer.py``'s
differential tests; nothing under ``src/`` imports it.  It differs from
the shipped tokenizer on purpose in two ways, each pinned by its own
test: a number token here is any run :meth:`str.isdigit` accepts, with
a possibly incomplete exponent (``1e``, ``²``), and the ``position`` of
a string, number or quoted-identifier token is the offset *after* it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS

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

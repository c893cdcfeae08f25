"""Unit tests for the SQL tokenizer."""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql.lexer import _TOKEN, tokenize
from repro.sql.parser import _INSERT_HEAD, _VALUES_BODY, _VALUES_ITEM, parse_statement
from tests import sql_lexer_reference as reference


def kinds(text):
    return [(token.kind, token.value) for token in tokenize(text)[:-1]]


class TestTokens:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT select SeLeCt") == [("keyword", "select")] * 3

    def test_identifiers_normalized(self):
        assert kinds("Foo_Bar1") == [("identifier", "foo_bar1")]

    def test_quoted_identifier_preserves_case(self):
        assert kinds('"MiXeD"') == [("identifier", "MiXeD")]

    def test_numbers(self):
        assert kinds("1 2.5 1e3 2.5E-2") == [
            ("number", "1"),
            ("number", "2.5"),
            ("number", "1e3"),
            ("number", "2.5E-2"),
        ]

    def test_strings_with_escapes(self):
        assert kinds("'it''s'") == [("string", "it's")]

    def test_operators(self):
        assert [value for __, value in kinds("<= >= <> != = < > + - * /")] == [
            "<=",
            ">=",
            "<>",
            "!=",
            "=",
            "<",
            ">",
            "+",
            "-",
            "*",
            "/",
        ]

    def test_punctuation_and_qualified_names(self):
        assert kinds("t.c") == [
            ("identifier", "t"),
            ("punct", "."),
            ("identifier", "c"),
        ]

    def test_comments_skipped(self):
        assert kinds("select -- a comment\n 1") == [
            ("keyword", "select"),
            ("number", "1"),
        ]

    def test_eof_token(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == "eof"


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")

    def test_comment_body_is_never_lexed(self):
        with pytest.raises(SqlSyntaxError) as raised:
            tokenize("select 1 --'\n$'")
        assert raised.value.position == 13
        with pytest.raises(SqlSyntaxError) as raised:
            tokenize("--$$\n$")
        assert raised.value.position == 5


class TestMalformedNumbers:
    """A number is ASCII digits with a complete exponent; anything else
    the character loop read as a number is a syntax error at its start
    (the reference lexer turned it into a token whose value escaped as a
    bare ``ValueError``, or, for other decimal scripts, parsed it)."""

    @pytest.mark.parametrize(
        "text, position",
        [
            ("SELECT 1e FROM t", 7),
            ("INSERT INTO t VALUES (1e)", 22),
            ("SELECT ² FROM t", 7),
            ("SELECT a FROM t WHERE a = 2.5E-", 26),
            ("SELECT a FROM t WHERE a = .5e+x", 26),
            ("INSERT INTO t VALUES (12², 3)", 22),
            ("SELECT a FROM t WHERE a = 1.²", 26),
            ("SELECT a FROM t WHERE a = .²", 26),
            ("SELECT a FROM t WHERE a = ١٢", 26),
            ("SELECT a FROM t WHERE a = 7١", 26),
        ],
    )
    def test_syntax_error_at_the_number(self, text, position):
        with pytest.raises(SqlSyntaxError, match="malformed number") as raised:
            parse_statement(text)
        assert raised.value.position == position

    def test_well_formed_numbers_still_lex(self):
        assert kinds("1. .5 1.e3 7e+0 1e5e 1e5.5 1x 1_0") == [
            ("number", "1."),
            ("number", ".5"),
            ("number", "1.e3"),
            ("number", "7e+0"),
            ("number", "1e5"),
            ("identifier", "e"),
            ("number", "1e5"),
            ("number", ".5"),
            ("number", "1"),
            ("identifier", "x"),
            ("number", "1"),
            ("identifier", "_0"),
        ]

    def test_other_unicode_is_not_a_number(self):
        assert kinds("x² Straße é.é") == [
            ("identifier", "x²"),
            ("identifier", "straße"),
            ("identifier", "é"),
            ("punct", "."),
            ("identifier", "é"),
        ]
        with pytest.raises(SqlSyntaxError, match="unexpected character '½'"):
            tokenize("select ½")


class TestStartOffsets:
    """Every token's position is its first character; the reference
    lexer stored the offset after a string, number or quoted identifier."""

    def test_literal_positions(self):
        tokens = tokenize("SELECT 'ab', 12, \"Q\" FROM t")
        assert [(token.value, token.position) for token in tokens] == [
            ("select", 0),
            ("ab", 7),
            (",", 11),
            ("12", 13),
            (",", 15),
            ("Q", 17),
            ("from", 21),
            ("t", 26),
            ("", 27),
        ]

    def test_bad_date_literal_reports_its_start(self):
        text = "SELECT a FROM t WHERE d = DATE 'nope'"
        with pytest.raises(SqlSyntaxError) as raised:
            parse_statement(text)
        assert raised.value.position == text.index("'nope'") == 31


# -- differential tests against the character-loop tokenizer ---------------

_STRICT_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_ALPHABET = list("abdeEfkxSELCTIN_ 0123456789.+-*/=<>!(),;'\"\n\t@$") + [
    "é", "ß", "²", "½", "١", "Ⅻ", "ǅ", "İ", "\u212a", "\u00a0", "\u2028", "\x1c",
    "\U0001d7d8",
]
_FRAGMENTS = [
    "select", "SELECT", " from ", "1", "12", "3.5", "1e3", "2.5E-2", ".5", "1e",
    "1e+", "'it''s'", "''", "'", '"Q"', '"', "--", "-- c\n", "<>", "!=", " ",
    "\n", "t.c", "DATE", "'2020-01-02'", "é", "²", "١٢", "e", "x",
]
_TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(_ALPHABET), max_size=30),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
    st.lists(st.sampled_from(_FRAGMENTS + _ALPHABET), max_size=16).map("".join),
)


def _first_malformed(tokens):
    """Start of the reference's first number token that is not one now."""
    for token in tokens:
        if token.kind == "number" and not _STRICT_NUMBER.fullmatch(token.value):
            return token.position - len(token.value)
    return None


def assert_matches_reference(text):
    """``tokenize(text)`` equals the reference's tokens, apart from the
    two intended differences (malformed numbers, start offsets)."""
    try:
        expected = reference.tokenize(text)
    except SqlSyntaxError as error:
        # Both lex the text before the error alike; the reference stopped
        # there, unless the new lexer already stopped at a bad number.
        malformed = _first_malformed(reference.tokenize(text[: error.position]))
        with pytest.raises(SqlSyntaxError) as raised:
            tokenize(text)
        if malformed is None:
            assert str(raised.value) == str(error)
        else:
            assert raised.value.position == malformed
        return
    malformed = _first_malformed(expected)
    if malformed is not None:
        with pytest.raises(SqlSyntaxError, match="malformed number") as raised:
            tokenize(text)
        assert raised.value.position == malformed
        return
    actual = tokenize(text)
    assert [(t.kind, t.value, t.slot) for t in actual] == [
        (t.kind, t.value, t.slot) for t in expected
    ]
    for new, old in zip(actual, expected):
        if new.kind in ("number", "string") or text[new.position : new.position + 1] == '"':
            # The reference's position is the end: the text between the
            # new start and that end is exactly this token.
            alone = reference.tokenize(text[new.position : old.position])
            assert [(t.kind, t.value, t.position) for t in alone[:-1]] == [
                (old.kind, old.value, old.position - new.position)
            ]
        else:
            assert new.position == old.position


class TestMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(_TEXTS)
    @example("INSERT INTO t VALUES (1, -2.5, 'it''s', NULL), (3e2, .5, '', TRUE)")
    @example("SELECT a.b, \"Q\" FROM t -- trailing")
    @example("'ab''")
    @example("'a''b")
    @example("'''")
    @example("'''' ''")
    @example("1e+²")
    def test_random_text(self, text):
        assert_matches_reference(text)

    def test_pattern_has_no_python_3_11_only_syntax(self):
        # Possessive quantifiers and atomic groups need Python 3.11's re;
        # on 3.10 the pattern would not compile and the package would
        # not import.  The parser's VALUES scan patterns too.
        for pattern in (_TOKEN, _INSERT_HEAD, _VALUES_BODY, _VALUES_ITEM):
            assert not re.search(r"[*+?}]\+|\(\?>", pattern.pattern), pattern

    def test_every_kind_of_character(self):
        # One character per combination of the str predicates either
        # lexer branches on, alone and after a letter, a digit and a dot.
        seen = {}
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            key = (
                char.isspace(), char.isalpha(), char.isalnum(), char.isdigit(),
                char.isdecimal(), char.isascii(), char in "'\"-.eE_",
            )
            if key not in seen or char.isascii():
                seen.setdefault(key, [])
                if len(seen[key]) < (128 if char.isascii() else 3):
                    seen[key].append(char)
        for chars in seen.values():
            for char in chars:
                for text in (char, "a" + char, "1" + char, "." + char, char + "1 x"):
                    assert_matches_reference(text)

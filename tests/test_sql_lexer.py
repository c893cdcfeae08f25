"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize


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

"""Tests for the Cypher tokenizer."""

import pytest

from repro.cypher.errors import CypherSyntaxError
from repro.cypher.lexer import _PUNCTUATION, Token, tokenize
from repro.cypher.parser import parse


def kinds(text):
    return [token.kind for token in tokenize(text)]


def values(text):
    return [token.value for token in tokenize(text) if token.kind != "EOF"]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        for text in ("MATCH", "match", "Match"):
            token = tokenize(text)[0]
            assert token.kind == "KEYWORD"
            assert token.value == "MATCH"

    def test_keyword_raw_preserves_spelling(self):
        token = tokenize("As")[0]
        assert token.value == "AS"
        assert token.raw == "As"
        assert token.text == "As"

    def test_identifiers_keep_case(self):
        token = tokenize("myVar")[0]
        assert token.kind == "IDENT"
        assert token.value == "myVar"

    def test_tokens_compare_by_value(self):
        assert tokenize("MATCH (a)") == tokenize("MATCH (a)")
        assert tokenize("As")[0] == Token("KEYWORD", "AS", 0, "As")
        assert tokenize("As")[0] != Token("KEYWORD", "AS", 0, "AS")
        assert len({Token("INT", "1", 0), Token("INT", "1", 0)}) == 1

    def test_backtick_identifier(self):
        token = tokenize("`weird name`")[0]
        assert token.kind == "IDENT"
        assert token.value == "weird name"

    def test_unterminated_backtick(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("`oops")

    def test_eof_token_is_last(self):
        assert tokenize("MATCH")[-1].kind == "EOF"

    def test_is_keyword_helper(self):
        token = Token("KEYWORD", "MATCH", 0)
        assert token.is_keyword("MATCH", "RETURN")
        assert not token.is_keyword("RETURN")


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert (token.kind, token.value) == ("INT", "42")

    def test_float(self):
        token = tokenize("3.14")[0]
        assert (token.kind, token.value) == ("FLOAT", "3.14")

    def test_scientific_notation(self):
        token = tokenize("1e5")[0]
        assert (token.kind, token.value) == ("FLOAT", "1e5")
        token = tokenize("2.5e-3")[0]
        assert (token.kind, token.value) == ("FLOAT", "2.5e-3")

    def test_range_dots_not_consumed_as_float(self):
        assert kinds("1..3")[:3] == ["INT", "DOTDOT", "INT"]

    def test_property_after_int_variable(self):
        # `a.1` is not valid anyway, but `1.prop` must not lex as float.
        assert kinds("1.prop")[:3] == ["INT", "DOT", "IDENT"]


class TestStrings:
    def test_single_and_double_quotes(self):
        assert tokenize("'abc'")[0].value == "abc"
        assert tokenize('"abc"')[0].value == "abc"

    def test_escapes(self):
        assert tokenize(r"'a\nb'")[0].value == "a\nb"
        assert tokenize(r"'it\'s'")[0].value == "it's"
        assert tokenize(r"'back\\slash'")[0].value == "back\\slash"

    def test_unicode_escape(self):
        assert tokenize(r"'\u0041\u00e9'")[0].value == "Aé"

    @pytest.mark.parametrize("text", ["RETURN 'abc' AS x", "RETURN 'a\\'c' AS x"])
    def test_string_position_is_its_opening_quote(self, text):
        assert tokenize(text)[1].position == 7

    def test_error_at_string_names_its_column(self):
        with pytest.raises(CypherSyntaxError, match="column 22"):
            parse("MATCH (a {name: 'x'} 'oops') RETURN a")

    def test_unterminated_string(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("'oops")

    def test_dangling_escape(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("'oops\\")

    @pytest.mark.parametrize("text", [r"RETURN '\uZZZZ' AS x", r"RETURN '\u00' AS x"])
    def test_malformed_unicode_escape_is_syntax_error(self, text):
        with pytest.raises(CypherSyntaxError, match="invalid unicode escape") as exc_info:
            tokenize(text)
        assert exc_info.value.position == 8  # the backslash


class TestNonAsciiInput:
    @pytest.mark.parametrize("text, column", [("RETURN ² AS x", 8), ("RETURN 1² AS x", 9)])
    def test_non_decimal_digit_is_syntax_error(self, text, column):
        with pytest.raises(CypherSyntaxError, match="unexpected character '²'") as exc_info:
            tokenize(text)
        assert f"column {column}" in str(exc_info.value)

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert [(t.kind, t.value) for t in tokenize("٣ ٣٤.٥")[:2]] == [
            ("INT", "٣"), ("FLOAT", "٣٤.٥"),
        ]

    def test_letters_and_numerals_after_the_first_are_identifiers(self):
        assert [(t.kind, t.value) for t in tokenize("é a² naïve")[:3]] == [
            ("IDENT", "é"), ("IDENT", "a²"), ("IDENT", "naïve"),
        ]

    @pytest.mark.parametrize("char", ["½", "Ⅻ"])
    def test_numeral_that_is_not_a_digit_is_unexpected(self, char):
        with pytest.raises(CypherSyntaxError, match="unexpected character"):
            tokenize(f"RETURN {char}")


class TestComments:
    def test_line_comment(self):
        assert values("MATCH // everything after is gone\nRETURN") == ["MATCH", "RETURN"]

    def test_block_comment(self):
        assert values("MATCH /* hi */ RETURN") == ["MATCH", "RETURN"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("MATCH /* oops")


class TestPunctuation:
    def test_two_char_operators(self):
        assert kinds("<> <= >= =~ -> <- ..")[:7] == [
            "NEQ", "LTE", "GTE", "REGEQ", "ARROW_RIGHT", "ARROW_LEFT", "DOTDOT",
        ]

    def test_every_punctuation_lexes_as_its_kind(self):
        for text, kind in _PUNCTUATION.items():
            assert [(t.kind, t.value) for t in tokenize(text)] == [(kind, text), ("EOF", "")]

    def test_pattern_tokens(self):
        assert kinds("(a)-[:X]->(b)")[:10] == [
            "LPAREN", "IDENT", "RPAREN", "MINUS", "LBRACKET", "COLON",
            "IDENT", "RBRACKET", "ARROW_RIGHT", "LPAREN",
        ]

    def test_unexpected_character(self):
        with pytest.raises(CypherSyntaxError) as exc_info:
            tokenize("MATCH @")
        assert "line 1" in str(exc_info.value)

    def test_error_carries_position(self):
        with pytest.raises(CypherSyntaxError) as exc_info:
            tokenize("a\nb @")
        assert "line 2" in str(exc_info.value)

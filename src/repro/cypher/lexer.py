"""Tokenizer for the Cypher subset.

Produces a flat token stream consumed by the recursive-descent parser.
Keywords are case-insensitive (``MATCH`` ≡ ``match``); identifiers keep
their case.  Backtick-quoted identifiers, single/double quoted strings with
escapes, line (``//``) and block (``/* */``) comments are supported.

One compiled master pattern is matched at each position: whitespace and
comments fold into it as leading trivia, the group that matched decides the
token kind (names are checked against ``KEYWORDS``, punctuation is named
through ``_PUNCTUATION``) and the group's start is the token's offset.
"""

from __future__ import annotations

import re

from .errors import CypherSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS", "LITERAL_SPLIT"]

KEYWORDS = frozenset(
    {
        "MATCH", "OPTIONAL", "WHERE", "RETURN", "WITH", "AS", "ORDER", "BY",
        "SKIP", "LIMIT", "ASC", "ASCENDING", "DESC", "DESCENDING", "AND",
        "OR", "XOR", "NOT", "IN", "STARTS", "ENDS", "CONTAINS", "IS", "NULL",
        "TRUE", "FALSE", "DISTINCT", "UNWIND", "UNION", "ALL", "CREATE",
        "MERGE", "SET", "DELETE", "DETACH", "REMOVE", "CASE", "WHEN", "THEN",
        "ELSE", "END", "EXISTS", "COUNT", "ON",
    }
)

_PUNCTUATION = {
    "<>": "NEQ",
    "<=": "LTE",
    ">=": "GTE",
    "=~": "REGEQ",
    "->": "ARROW_RIGHT",
    "<-": "ARROW_LEFT",
    "..": "DOTDOT",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    ".": "DOT",
    ":": "COLON",
    ";": "SEMICOLON",
    "|": "PIPE",
    "=": "EQ",
    "<": "LT",
    ">": "GT",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "%": "PERCENT",
    "^": "CARET",
    "$": "DOLLAR",
}

# The literal token patterns, shared by the master pattern and by
# ``LITERAL_SPLIT``: a new literal form goes into these fragments.
_STRING = r"'[^'\\]*'|\"[^\"\\]*\""  # escapes go through _read_string
# A '.' starts a fraction only when a digit follows, so that `1..3`
# (range) and `n.prop` keep their meaning.
_FLOAT = r"\d*\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_INT = r"\d+"

_TOKEN = re.compile(
    r"(?:\s+|//[^\n]*|/\*.*?\*/)*(?:"
    r"(?P<NAME>[A-Za-z_]\w*)"
    # `.` before a digit starts a number and `/*` an (unterminated) comment.
    r"|(?P<PUNCT><>|<=|>=|=~|->|<-|\.\.|\.(?!\d)|/(?!\*)|[()\[\]{},:;|=<>+\-*%^$])"
    rf"|(?P<STRING>{_STRING})"
    rf"|(?P<FLOAT>{_FLOAT})"
    rf"|(?P<INT>{_INT})"
    r"|(?P<BACKTICK>`[^`]*`)"
    r"|(?P<WORD>[^\W\d]\w*)"  # a non-ASCII start: a letter or a non-decimal numeral
    r"|(?P<EOF>\Z)"
    r"|(?P<OTHER>.))",
    re.DOTALL,
)

#: Cuts a text into its literal substrings and the text between them:
#: ``LITERAL_SPLIT.split(text)`` is ``[text, literal, text, ..., text]``.
#: The leading lookahead rejects, in C, every position no literal starts
#: at.  A number starts only where a token can (not inside a name, and a
#: '.'-led fraction not after another '.', which `..` claims), so on text
#: without backslashes the literals are the STRING/INT/FLOAT tokens'
#: spellings, except where a comment holds quotes or digits or a name
#: precedes a '.'-led fraction (`n.5`).  :meth:`~.parser.LiteralForm.of`
#: checks them against the tokens once per form.
LITERAL_SPLIT = re.compile(
    rf"(?=[\d.'\"])({_STRING}|(?<!\w)(?:(?<!\.)|(?=\d))(?:{_FLOAT}|{_INT}))"
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"', "`": "`"}


class Token:
    """One lexical token: its category, normalised text and source offset.

    For keywords ``value`` is the upper-cased canonical form while ``raw``
    preserves the source spelling (needed when a keyword doubles as a label,
    e.g. IYP's ``:AS``).
    """

    __slots__ = ("kind", "value", "position", "raw")

    def __init__(self, kind: str, value: str, position: int, raw: str = "") -> None:
        self.kind = kind  # KEYWORD, IDENT, INT, FLOAT, STRING, EOF or a punctuation name
        self.value = value
        self.position = position
        self.raw = raw

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.position!r}, {self.raw!r})"

    def _key(self) -> tuple:
        return (self.kind, self.value, self.position, self.raw)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Token) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def text(self) -> str:
        """Source spelling (falls back to ``value`` for non-keywords)."""
        return self.raw or self.value

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.kind == "KEYWORD" and self.value in names


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`CypherSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "NAME" or kind == "WORD" and text[start].isalpha():
            word = text[start:pos]
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token("KEYWORD", upper, start, word))
            else:
                append(Token("IDENT", word, start))
        elif kind == "PUNCT":
            value = text[start:pos]
            append(Token(_PUNCTUATION[value], value, start))
        elif kind == "STRING":
            append(Token("STRING", text[start + 1 : pos - 1], start))
        elif kind == "INT" or kind == "FLOAT":
            append(Token(kind, text[start:pos], start))
        elif kind == "EOF":
            append(Token("EOF", "", pos))
            return tokens
        elif kind == "BACKTICK":
            append(Token("IDENT", text[start + 1 : pos - 1], start))
        elif text[start] in "'\"":
            value, pos = _read_string(text, start)
            append(Token("STRING", value, start))
        elif text[start] == "`":
            raise CypherSyntaxError("unterminated backtick identifier", start, text)
        elif text.startswith("/*", start):
            raise CypherSyntaxError("unterminated block comment", start, text)
        else:
            raise CypherSyntaxError(f"unexpected character {text[start]!r}", start, text)


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a quoted string starting at ``start``; returns (value, next index)."""
    quote = text[start]
    i = start + 1
    parts: list[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise CypherSyntaxError("dangling escape in string", i, text)
            nxt = text[i + 1]
            if nxt == "u" and i + 5 < len(text):
                try:
                    parts.append(chr(int(text[i + 2 : i + 6], 16)))
                except ValueError:
                    raise CypherSyntaxError("invalid unicode escape in string", i, text) from None
                i += 6
                continue
            parts.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        if ch == quote:
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise CypherSyntaxError("unterminated string literal", start, text)

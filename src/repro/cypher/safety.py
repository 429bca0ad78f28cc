"""Query safety helpers for exposing the engine over a network."""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import UnsupportedWrite
from .parser import parse

__all__ = ["is_read_only", "tree_is_read_only", "WRITE_CLAUSES"]

WRITE_CLAUSES = (ast.CreateClause, ast.SetClause)


def is_read_only(query: str) -> bool:
    """True when ``query`` parses and contains no write clause; False also
    for a write the engine does not run (:class:`UnsupportedWrite`).

    Raises:
        CypherSyntaxError: if the query does not parse at all (callers
            usually want to surface that as a 400, not treat it as a write).
    """
    try:
        return tree_is_read_only(parse(query))
    except UnsupportedWrite:
        return False


def tree_is_read_only(tree: ast.Query) -> bool:
    """True when no UNION branch of the parsed ``tree`` has a write clause."""
    queries = tree.queries if isinstance(tree, ast.UnionQuery) else (tree,)
    return not any(
        isinstance(clause, WRITE_CLAUSES) for single in queries for clause in single.clauses
    )

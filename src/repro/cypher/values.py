"""Cypher value semantics: null-aware equality, comparison and ordering.

Cypher uses ternary logic — any comparison involving ``null`` yields
``null``, and ``WHERE`` keeps only rows whose predicate is exactly ``true``.
These helpers centralise those rules for the evaluator, the pattern matcher
and ORDER BY.
"""

from __future__ import annotations

from math import isnan
from typing import Any, Optional

from ..graph.model import Node, Path, Relationship
from .errors import CypherTypeError

__all__ = [
    "cypher_equals",
    "equality_key",
    "cypher_compare",
    "sort_key",
    "sort_keys",
    "is_truthy",
    "ensure_number",
]

#: the exact classes of Cypher numbers and strings (``bool`` is neither)
_NUMBERS = frozenset((int, float))
_STRINGS = frozenset((str,))


def cypher_equals(left: Any, right: Any) -> Optional[bool]:
    """Three-valued equality: returns True, False, or None (unknown)."""
    cls = left.__class__
    if cls is right.__class__ and (cls is str or cls is int or cls is float):
        return left == right if cls is str else float(left) == float(right)
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left == right
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return False
        saw_null = False
        for a, b in zip(left, right):
            result = cypher_equals(a, b)
            if result is None:
                saw_null = True
            elif not result:
                return False
        return None if saw_null else True
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left) != set(right):
            return False
        saw_null = False
        for key in left:
            result = cypher_equals(left[key], right[key])
            if result is None:
                saw_null = True
            elif not result:
                return False
        return None if saw_null else True
    if isinstance(left, (Node, Relationship, Path)) or isinstance(
        right, (Node, Relationship, Path)
    ):
        return left == right if type(left) is type(right) else False
    return False


def equality_key(value: Any) -> Any:
    """Hashable key with ``equality_key(a) == equality_key(b)`` exactly when
    ``cypher_equals(a, b) is True``.

    Returns None for values equal to nothing: null, NaN, and any list or
    map holding one.  Numbers key on ``float(v)`` (so ``1 = 1.0``) and
    booleans carry their own tag (so ``true <> 1``).
    """
    cls = value.__class__
    if cls is str or cls is Node or cls is Relationship or value is None:
        return value
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        key = float(value)
        return None if key != key else key
    if isinstance(value, list):
        keys = []
        for item in value:
            key = equality_key(item)
            if key is None:
                return None
            keys.append(key)
        return ("list", tuple(keys))
    if isinstance(value, dict):
        entries = []
        for name, item in value.items():
            key = equality_key(item)
            if key is None:
                return None
            entries.append((name, key))
        return ("map", frozenset(entries))
    if isinstance(value, (Node, Relationship, Path)):
        return value
    return None


def cypher_compare(left: Any, right: Any) -> Optional[int]:
    """Ordering comparison for ``< > <= >=``: -1/0/1 or None (unknown).

    Only numbers compare with numbers, strings with strings and booleans
    with booleans; everything else is incomparable (None), matching
    Cypher's null result for cross-type inequality.
    """
    if left.__class__ in _NUMBERS and right.__class__ in _NUMBERS:
        return (left > right) - (left < right)
    if left is None or right is None:
        return None
    if isinstance(left, bool) and isinstance(right, bool):
        return (left > right) - (left < right)
    if isinstance(left, bool) or isinstance(right, bool):
        return None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, list) and isinstance(right, list):
        for a, b in zip(left, right):
            result = cypher_compare(a, b)
            if result is None:
                return None
            if result != 0:
                return result
        return (len(left) > len(right)) - (len(left) < len(right))
    return None


_TYPE_RANK = {
    "number": 0,
    "string": 1,
    "boolean": 2,
    "list": 3,
    "map": 4,
    "node": 5,
    "relationship": 6,
    "path": 7,
    "null": 8,  # nulls sort last ascending
}


# NaN orders after every number, +Infinity included, and before strings
# (Neo4j's rule); a plain ``float("nan")`` key would compare unordered with
# everything and scramble the whole sort.
_NAN_KEY = (_TYPE_RANK["number"], float("inf"), 1)


def sort_key(value: Any) -> tuple:
    """Total-order key used by ORDER BY (nulls last, stable across types)."""
    cls = value.__class__
    if cls is float or cls is int:  # the common case, ahead of the bool check
        return (_TYPE_RANK["number"], float(value)) if value == value else _NAN_KEY
    if cls is str:
        return (_TYPE_RANK["string"], value)
    if value is None:
        return (_TYPE_RANK["null"], 0)
    if isinstance(value, bool):
        return (_TYPE_RANK["boolean"], value)
    if isinstance(value, (int, float)):
        if value != value:
            return _NAN_KEY
        return (_TYPE_RANK["number"], float(value))
    if isinstance(value, str):
        return (_TYPE_RANK["string"], value)
    if isinstance(value, list):
        return (_TYPE_RANK["list"], tuple(sort_key(item) for item in value))
    if isinstance(value, dict):
        return (
            _TYPE_RANK["map"],
            tuple(sorted((key, sort_key(val)) for key, val in value.items())),
        )
    if isinstance(value, Node):
        return (_TYPE_RANK["node"], value.node_id)
    if isinstance(value, Relationship):
        return (_TYPE_RANK["relationship"], value.rel_id)
    if isinstance(value, Path):
        return (_TYPE_RANK["path"], tuple(n.node_id for n in value.nodes))
    raise CypherTypeError(f"cannot order value of type {type(value).__name__}")


def sort_keys(values: list[Any]) -> list[Any]:
    """ORDER BY keys for a whole column, in :func:`sort_key`'s order and
    equality.  A column of numbers without NaN keys as floats and a column
    of strings as the strings, which ``list.sort`` compares natively; any
    other column keys as :func:`sort_key` tuples."""
    classes = set(map(type, values))
    if classes <= _NUMBERS:
        keys = list(map(float, values))  # an int past float range raises as in sort_key
        if not any(map(isnan, keys)):
            return keys
    elif classes == _STRINGS:
        return values
    return list(map(sort_key, values))


def is_truthy(value: Any) -> Optional[bool]:
    """Interpret a value as a WHERE predicate result (True/False/None)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise CypherTypeError(
        f"predicate must be a boolean, got {type(value).__name__}: {value!r}"
    )


def ensure_number(value: Any, context: str) -> float | int:
    """Require a non-boolean number, raising :class:`CypherTypeError` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CypherTypeError(f"{context} expects a number, got {value!r}")
    return value

"""Query result containers: :class:`Record` and :class:`ResultSet`.

Shaped after the Neo4j Python driver: a result has ordered column ``keys``
and a list of records; each record supports access by key or position.
``ResultSet.to_table()`` renders the aligned text table the examples and
benchmarks print.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..graph.model import Node, Path, Relationship

__all__ = ["Record", "ResultSet", "render_value"]


def render_value(value: Any) -> str:
    """Render a Cypher value for display (nodes/rels get a compact form)."""
    # Exact-class checks first: strings and ints are 78-88% of the values
    # the served benchmark workloads render (``bool`` is an ``int``
    # subclass, so it still takes the chain below).
    cls = value.__class__
    if cls is str:
        return value
    if cls is int:
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return f"{value:.1f}"
        return f"{value:g}"
    if isinstance(value, str):
        return value
    if isinstance(value, Node):
        labels = ":".join(sorted(value.labels))
        props = ", ".join(f"{k}: {render_value(v)}" for k, v in sorted(value.properties.items()))
        return f"(:{labels} {{{props}}})"
    if isinstance(value, Relationship):
        props = ", ".join(f"{k}: {render_value(v)}" for k, v in sorted(value.properties.items()))
        return f"[:{value.rel_type} {{{props}}}]"
    if isinstance(value, Path):
        return f"<path length={value.length}>"
    if isinstance(value, list):
        return "[" + ", ".join(render_value(item) for item in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {render_value(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    return str(value)


class Record:
    """One result row: ordered (key, value) pairs."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: list[str], values: list[Any]) -> None:
        if len(keys) != len(values):
            raise ValueError("keys and values length mismatch")
        self._keys = list(keys)
        self._values = list(values)

    @classmethod
    def of(cls, keys: list[str], values: list[Any]) -> "Record":
        """Adopt ``keys``/``values`` without copying.

        The engine's result materialisation shares one keys list across
        every record of a result set and hands over freshly built value
        lists; both are safe to adopt because every accessor copies on
        the way out.
        """
        record = cls.__new__(cls)
        record._keys = keys
        record._values = values
        return record

    def keys(self) -> list[str]:
        return list(self._keys)

    def values(self) -> list[Any]:
        return list(self._values)

    def items(self) -> list[tuple[str, Any]]:
        return list(zip(self._keys, self._values))

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except (KeyError, IndexError):
            return default

    def to_dict(self) -> dict[str, Any]:
        return dict(zip(self._keys, self._values))

    def __getitem__(self, key: str | int) -> Any:
        if isinstance(key, int):
            return self._values[key]
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and other._keys == self._keys
            and other._values == self._values
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Record({inner})"


class ResultSet:
    """An executed query's full output: column keys plus records.

    Also carries write-op counters so callers can report what a mutating
    query changed (à la Neo4j's result summary), and — when execution ran
    with ``profile=True`` — the executed physical operator tree as a
    JSON-safe dict on ``profile`` (rows produced + wall-time per operator).
    """

    def __init__(
        self,
        keys: list[str],
        records: list[Record],
        nodes_created: int = 0,
        relationships_created: int = 0,
        properties_set: int = 0,
    ) -> None:
        self.keys = list(keys)
        self.records = list(records)
        self.nodes_created = nodes_created
        self.relationships_created = relationships_created
        self.properties_set = properties_set
        #: executed operator tree (dict), set by ``execute(profile=True)``
        self.profile: dict[str, Any] | None = None

    def single(self) -> Record:
        """Return the only record; raises if there is not exactly one."""
        if len(self.records) != 1:
            raise ValueError(f"expected exactly one record, got {len(self.records)}")
        return self.records[0]

    def value(self, column: int | str = 0, default: Any = None) -> Any:
        """First record's value in ``column`` (or ``default`` when empty)."""
        if not self.records:
            return default
        return self.records[0][column]

    def values(self, column: int | str = 0) -> list[Any]:
        """All records' values in ``column``."""
        return [record[column] for record in self.records]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Records as plain dicts (JSON-friendly once rendered)."""
        return [record.to_dict() for record in self.records]

    def to_table(self, max_rows: int | None = 20) -> str:
        """Render an aligned text table; truncated beyond ``max_rows``."""
        if not self.keys:
            return "(no columns)"
        rows = self.records if max_rows is None else self.records[:max_rows]
        cells = [[render_value(value) for value in record.values()] for record in rows]
        widths = [len(key) for key in self.keys]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(key.ljust(widths[i]) for i, key in enumerate(self.keys))
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in cells:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        hidden = len(self.records) - len(rows)
        if hidden > 0:
            lines.append(f"... ({hidden} more rows)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __repr__(self) -> str:
        return f"ResultSet(keys={self.keys}, rows={len(self.records)})"

"""Relations: the storage substrate (Section 2's source relations).

A :class:`Relation` is a named, schema-checked bag of tuples (dicts).  It
is deliberately minimal — the paper's algorithms never touch storage; the
engine exists so translations can be *executed* and verified end-to-end
(Eq. 1 vs Eq. 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.core.errors import SchemaError

__all__ = ["Relation"]


class Relation:
    """A named relation with a fixed attribute schema."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[str],
        rows: Iterable[Mapping] = (),
    ):
        self.name = name
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"relation {name!r} has duplicate attributes")
        self._rows: list[dict] = []
        for row in rows:
            self.insert(row)

    def insert(self, row: Mapping) -> None:
        """Add a tuple; its keys must exactly match the schema."""
        if set(row) != set(self.attributes):
            missing = set(self.attributes) - set(row)
            extra = set(row) - set(self.attributes)
            raise SchemaError(
                f"relation {self.name!r}: bad tuple "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        self._rows.append(dict(row))

    def rows(self) -> list[dict]:
        """A copy-safe view of the tuples."""
        return list(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)}) [{len(self)} rows]"

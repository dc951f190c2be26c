"""Ordered, keyed collections of components.

A ComponentCollection is an insertion-ordered ``dict[str, item]`` with
checked insertion: keys must be non-empty and unique, and addressing a
missing key raises :class:`MissingKeyError`.  Iteration yields the items
in insertion order.
"""

from __future__ import annotations

from typing import Any, Iterator


class DuplicateKeyError(KeyError):
    """Raised when inserting a key that is already present."""


class MissingKeyError(KeyError):
    """Raised when addressing a key that is not present."""


class ComponentCollection:
    """Insertion-ordered map of components by id."""

    def __init__(self) -> None:
        self._items: dict[str, Any] = {}

    def insert(self, key: str, item: Any) -> None:
        if not key:
            raise ValueError("collection keys must be non-empty strings")
        if key in self._items:
            raise DuplicateKeyError(key)
        self._items[key] = item

    def get(self, key: str, default: Any = None) -> Any:
        return self._items.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._items[key]
        except KeyError:
            raise MissingKeyError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items.values())

    def keys(self) -> Iterator[str]:
        return iter(self._items)

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(self._items.items())

    def __repr__(self) -> str:
        return f"ComponentCollection({list(self._items)!r})"

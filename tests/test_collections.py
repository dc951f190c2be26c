import re

import pytest
from hypothesis import given, strategies as st

from gridsim.core import (
    ComponentCollection,
    DuplicateKeyError,
    MissingKeyError,
)


def test_insertion_order_preserved():
    coll = ComponentCollection()
    for key in ("b", "a", "c"):
        coll.insert(key, key.upper())
    assert list(coll.keys()) == ["b", "a", "c"]
    assert list(coll) == ["B", "A", "C"]
    assert list(coll.items()) == [("b", "B"), ("a", "A"), ("c", "C")]


def test_positional_and_key_access():
    coll = ComponentCollection()
    coll.insert("x", 1)
    coll.insert("y", 2)
    assert coll["x"] == 1
    assert coll["y"] == 2
    assert coll.get("missing") is None
    assert coll.get("missing", 42) == 42
    assert "x" in coll
    assert len(coll) == 2


def test_duplicate_key_rejected():
    coll = ComponentCollection()
    coll.insert("x", 1)
    with pytest.raises(DuplicateKeyError):
        coll.insert("x", 2)
    assert coll["x"] == 1
    assert len(coll) == 1


def test_missing_key_errors():
    coll = ComponentCollection()
    with pytest.raises(MissingKeyError):
        coll["nope"]
    coll.insert("x", 1)
    with pytest.raises(MissingKeyError):
        coll["nope"]


def test_empty_key_rejected():
    coll = ComponentCollection()
    with pytest.raises(ValueError):
        coll.insert("", 1)


@given(st.lists(st.text(min_size=1, max_size=5), unique=True, max_size=20))
def test_order_matches_insertion(keys):
    coll = ComponentCollection()
    for i, key in enumerate(keys):
        coll.insert(key, i)
    assert list(coll.keys()) == keys
    assert list(coll) == list(range(len(keys)))
    assert list(coll.items()) == [(key, i) for i, key in enumerate(keys)]
    for i, key in enumerate(keys):
        assert coll[key] == i


@given(st.lists(st.text(max_size=2), max_size=4),
       st.lists(st.text(max_size=2), max_size=6))
def test_insert_all_checks_as_insert_does_and_inserts_all_or_nothing(
        present, keys):
    coll, loop = ComponentCollection(), ComponentCollection()
    for key in dict.fromkeys(k for k in present if k):
        coll.insert(key, "old")
        loop.insert(key, "old")
    before = list(coll.items())
    try:  # the reference: one insert per key
        for i, key in enumerate(keys):
            loop.insert(key, i)
    except (ValueError, DuplicateKeyError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            coll.insert_all(keys, list(range(len(keys))))
        assert list(coll.items()) == before
    else:
        coll.insert_all(keys, list(range(len(keys))))
        assert list(coll.items()) == list(loop.items())

"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def constructor_calls(monkeypatch):
    """count(cls) patches the own __new__ of the NamedTuple `cls`; it returns the list of calls.

    The hot paths build their tuples by tuple.__new__(cls, values), which never
    passes through the patched __new__: an empty list proves it.
    """

    def count(cls):
        calls = []
        original = cls.__new__

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
        return calls

    return count

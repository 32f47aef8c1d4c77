"""Shared fixtures."""

import pytest

from cmfactor import numeric


@pytest.fixture(autouse=True)
def empty_class_value_table():
    # every test starts from an empty table of class values, so a test that
    # replaces an evaluator or the rounding sees it called, not the table
    numeric._table.clear()


@pytest.fixture
def force_prec(monkeypatch):
    """force_prec(bits, *discs) makes numeric.auto_prec return bits for
    exactly these discriminants; every other call gets the real bound."""
    forced = {}
    bound = numeric.auto_prec
    monkeypatch.setattr(numeric, "auto_prec", lambda *discs, **kw:
                        forced.get(discs) or bound(*discs, **kw))
    return lambda bits, *discs: forced.__setitem__(discs, bits)

"""Shared fixtures."""

import pytest

from cmfactor import numeric


@pytest.fixture(autouse=True)
def empty_class_value_table():
    # every test starts from an empty table of class values, so a test that
    # replaces an evaluator or the rounding sees it called, not the table
    numeric._table.clear()

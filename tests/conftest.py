"""Shared fixtures."""

import importlib
import inspect
import sys
import textwrap

import pytest

from cmfactor import numeric


def clear_class_tables():
    """Empty numeric's tables of class values and of class polynomials."""
    numeric._values.clear()
    numeric._polys.clear()


@pytest.fixture(autouse=True)
def empty_class_value_table():
    # every test starts from empty tables of class values and polynomials,
    # so a test that replaces an evaluator or the rounding sees it called,
    # not the tables
    clear_class_tables()


def forced_prec(monkeypatch):
    """The function force_prec(bits, *discs), which makes numeric.auto_prec
    return bits for exactly these discriminants while monkeypatch holds;
    every other call gets the real bound."""
    forced = {}
    bound = numeric.auto_prec
    monkeypatch.setattr(numeric, "auto_prec", lambda *discs, **kw:
                        forced.get(discs) or bound(*discs, **kw))
    return lambda bits, *discs: forced.__setitem__(discs, bits)


@pytest.fixture
def force_prec(monkeypatch):
    """forced_prec for the test."""
    return forced_prec(monkeypatch)


@pytest.fixture
def mutate(monkeypatch):
    """mutate(name, old, new) replaces the cmfactor function or method
    name, "<module>.<function>" or "<module>.<class>.<method>", by its own
    source with the one occurrence of old put as new, compiled against the
    live module, until the test ends.  Every cmfactor module or class that
    holds the function gets the mutant, so the copies that
    ``from ... import`` made are replaced too."""
    def apply(name, old, new):
        mod_name, *path = name.split(".")
        module = importlib.import_module(f"cmfactor.{mod_name}")
        fn = module
        for attr in path:
            fn = vars(fn)[attr]
        src = textwrap.dedent(inspect.getsource(fn))
        assert src.count(old) == 1, (name, old)
        ns = {}
        exec(compile(src.replace(old, new), module.__file__, "exec"),
             vars(module), ns)
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "cmfactor" or n.startswith("cmfactor.")]:
            owners = [mod] + [c for c in vars(mod).values()
                              if isinstance(c, type)
                              and c.__module__ == mod.__name__]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        monkeypatch.setattr(owner, attr, ns[path[-1]])
    return apply

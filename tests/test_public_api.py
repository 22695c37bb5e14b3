"""The package's public names: each module's ``__all__`` against what it
defines, and the package's ``__all__`` as the union of those lists.

Tools that wrap every ``__all__`` entry with ``getattr`` (the benchmark's
tracer does) crash on one stale name, so a deleted function must leave every
list and the package namespace together.
"""

import types

import pytest

import ltoeplitz
from ltoeplitz import factorization, operator, spectral, symbol

LISTED = (symbol, operator, factorization, spectral)


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_listed_by_their_module():
    listed = [name for m in LISTED for name in m.__all__]
    exported = {
        name
        for name, value in vars(ltoeplitz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(listed)) == len(listed)  # no name is declared by two modules
    assert set(ltoeplitz.__all__) == set(listed) == exported
    assert [n for m in LISTED for n in m.__all__ if getattr(ltoeplitz, n) is not getattr(m, n)] == []


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from ltoeplitz import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for m in LISTED for name in m.__all__}

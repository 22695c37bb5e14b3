"""The package's public names: each module's ``__all__`` against what it defines.

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
    exported = {
        name: value
        for name, value in vars(ltoeplitz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    unlisted = [
        name
        for name, value in exported.items()
        if not any(name in m.__all__ and getattr(m, name) is value for m in LISTED)
    ]
    assert exported and unlisted == []

"""The package's public names: each module's ``__all__`` against what it
defines, and the package's ``__all__`` as the union of those lists.

Tools that wrap every ``__all__`` entry with ``getattr`` (the benchmark's
tracer does) crash on one stale name, so a deleted function must leave every
list and the package namespace together.
"""

import ast
import inspect
import pickle
import types
from pathlib import Path

import numpy as np
import pytest

import ltoeplitz
from ltoeplitz import factorization, operator, spectral, symbol

LISTED = (symbol, operator, factorization, spectral)


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_listed_by_their_module():
    # dir() and getattr, not vars(): the package binds a name on first access,
    # so what vars() holds depends on what was read before
    listed = [name for m in LISTED for name in m.__all__]
    exported = {
        name
        for name in dir(ltoeplitz)
        if not name.startswith("_") and not isinstance(getattr(ltoeplitz, name), types.ModuleType)
    }
    assert len(set(listed)) == len(listed)  # no name is declared by two modules
    assert ltoeplitz.__all__ == listed
    assert set(listed) == exported
    assert [n for m in LISTED for n in m.__all__ if getattr(ltoeplitz, n) is not getattr(m, n)] == []


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from ltoeplitz import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for m in LISTED for name in m.__all__}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_function_has_a_caller():
    """A listed function is read somewhere in the package, as a bare name or
    as an attribute of a package module, or is one the acceptance tests
    import; ``entry``, the scalar closed-form oracle, is the one exception.
    A package module is a name bound by ``from . import X`` or, loaded on
    first use, by ``X = loader("X")`` with X a module of the package. An
    attribute of any other object (``x.support``) does not count."""
    paths = list(Path(ltoeplitz.__file__).parent.glob("*.py"))
    nodes = [n for p in paths for n in ast.walk(_tree(p))]
    modules = {
        a.asname or a.name
        for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module is None
        for a in n.names
    }
    modules |= {
        t.id
        for n in nodes if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
        for t in n.targets
        if isinstance(t, ast.Name) and t.id in {p.stem for p in paths}
        and [getattr(a, "value", None) for a in n.value.args] == [t.id]
    }
    named = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    named |= {
        n.attr for n in nodes
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
    }
    acceptance = _tree(Path(__file__).with_name("test_acceptance.py"))
    imported = {a.name for n in ast.walk(acceptance) if isinstance(n, ast.ImportFrom) for a in n.names}
    uncalled = [
        name for m in LISTED for name in m.__all__
        if inspect.isfunction(getattr(m, name)) and name not in named | imported | {"entry"}
    ]
    assert uncalled == []


def test_only_charge_reads_the_budget():
    """``operator._charge`` is the one check against ``LT_MEM_BUDGET_MB``: no
    other code calls ``resolve_budget_mb`` or makes a ``MemoryBudgetExceeded``
    (a bare ``raise`` only passes one on)."""
    budget_names = {"resolve_budget_mb", "MemoryBudgetExceeded"}

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    inside, outside = [], []
    for path in sorted(Path(ltoeplitz.__file__).parent.glob("*.py")):
        tree = _tree(path)
        charge = {
            id(n) for f in ast.walk(tree)
            if path.name == "operator.py" and isinstance(f, ast.FunctionDef) and f.name == "_charge"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            used = (node.func if isinstance(node, ast.Call)
                    else node.exc if isinstance(node, ast.Raise) else None)
            if used is not None and name(used) in budget_names:
                (inside if id(node) in charge else outside).append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert len(inside) == 2  # the budget read and the exception it raises


def test_fft_layout_is_decided_in_one_place():
    """In ``operator.py`` only ``_kernel_hat``, which lays a kernel out
    cyclically, and ``_convolve``, which applies one, reach ``np.fft``."""

    def np_fft(node):
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    tree = _tree(Path(operator.__file__))
    callers = sorted(f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                     for n in ast.walk(f) if np_fft(n))
    assert callers == ["_convolve", "_convolve", "_kernel_hat"]
    assert sum(map(np_fft, ast.walk(tree))) == 3  # nothing at module level


RECORDS = [
    (operator.LambdaToeplitzSpec, (0.5 + 0j, symbol.FourierSymbol({0: 1.0})), True),
    (factorization.WeightedCompositionSpec, (symbol.FourierSymbol({1: 2.0}), 0.5 + 0j), True),
    (factorization.VerificationResult, ("unitary", 3, 0.1, 0.2, True, None), True),
    (operator.TruncatedOperator, (2, np.eye(2), ""), False),
    (spectral.SpectralReport, (1, np.ones(1), 1.0, 1.0, 1.0, 1, np.zeros(0)), False),
]


@pytest.mark.parametrize("record, values, by_value", RECORDS, ids=lambda r: getattr(r, "__name__", ""))
def test_records_are_immutable(record, values, by_value):
    """The five records are __slots__ classes built by position or keyword,
    named field by field in ``repr``; three compare and hash by value, two
    only by identity, and none takes an assignment."""
    made = record(*values)
    same = record(**dict(zip(record.__slots__, values)))
    assert not hasattr(made, "__dict__")
    assert [getattr(made, name) is value for name, value in zip(record.__slots__, values)] == (
        [True] * len(values))
    assert (made == same) is by_value and made == made
    if by_value:
        assert hash(made) == hash(same)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record.__slots__, values))
    assert repr(made) == f"{record.__name__}({fields})"
    for name in (record.__slots__[0], "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(made, name, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(made, record.__slots__[0])
    restored = pickle.loads(pickle.dumps(made))
    assert type(restored) is record and repr(restored) == repr(made)


def test_record_defaults_and_checks():
    assert operator.TruncatedOperator(1, np.ones((1, 1))).provenance == ""
    assert factorization.VerificationResult("unitary", 1, 0.0, 1.0, True).variant is None
    assert repr(operator.LambdaToeplitzSpec(0.5, symbol.FourierSymbol({0: 1.0}))) == (
        "LambdaToeplitzSpec(lam=(0.5+0j), symbol=FourierSymbol({0: 1+0j}))")
    with pytest.raises(ValueError, match=r"^\|lambda\| = 2\.0 lies outside the closed unit disc$"):
        operator.LambdaToeplitzSpec(2, symbol.FourierSymbol())
    with pytest.raises(ValueError, match="^weight must be analytic; found index -1$"):
        factorization.WeightedCompositionSpec(symbol.FourierSymbol({-1: 1.0}), 0.5)
    with pytest.raises(ValueError, match=r"^multiplier = \(nan\+0j\) is not finite$"):
        factorization.WeightedCompositionSpec(symbol.FourierSymbol({1: 1.0}), float("nan"))

"""Numerical toolkit for lambda-Toeplitz operators on the Hardy space.

Builds finite truncations of the operator with matrix entries
lambda^min(n,m) * a_{n-m} from a Fourier symbol {a_n}, applies them fast via
FFT convolution, and verifies the quantitative laws the construction obeys:
factorization identities, Hilbert-Schmidt and trace-norm bounds,
singular-value decay, spectra of the weighted-composition factors, and the
finite-rank dichotomy.

``symbol``, ``operator``, ``factorization`` and ``spectral`` are bound here,
and put in ``sys.modules``, as an import would leave them, but each module
runs only when one of its attributes is first read
(``importlib.util.LazyLoader``): the other modules import them plainly, and
``import ltoeplitz`` and ``python -m ltoeplitz`` run nothing a command does
not read. The names in their ``__all__`` are the package's, looked up on
first access (PEP 562): a name runs the modules in that order up to the one
that lists it, and ``__all__`` or ``dir()`` runs all four.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"


def _bind(name: str):
    """The package module ``name``, put in ``sys.modules`` unexecuted."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULES = symbol, operator, factorization, spectral = tuple(
    map(_bind, ("symbol", "operator", "factorization", "spectral")))


def __getattr__(name: str):
    """``__all__`` (the four modules' lists joined in order), or a name one
    of them lists, bound here from then on."""
    if name == "__all__":
        value = [listed for module in _MODULES for listed in module.__all__]
    else:
        home = next((m for m in _MODULES if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names an eager package would hold: the four modules (and those
    they import), ``__all__`` and its names, and the module's own dunders."""
    own = {"_util", "_sys", "_bind", "_MODULES", "__getattr__", "__dir__"}
    listed = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *listed} - own)

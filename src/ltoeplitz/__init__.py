"""Numerical toolkit for lambda-Toeplitz operators on the Hardy space.

Builds finite truncations of the operator with matrix entries
lambda^min(n,m) * a_{n-m} from a Fourier symbol {a_n}, applies them fast via
FFT convolution, and verifies the quantitative laws the construction obeys:
factorization identities, Hilbert-Schmidt and trace-norm bounds,
singular-value decay, spectra of the weighted-composition factors, and the
finite-rank dichotomy.

The names in the ``__all__`` of ``symbol``, ``operator``, ``factorization``
and ``spectral`` are the package's, but they are looked up on first access
(PEP 562): a name imports the modules in that order up to the one that lists
it, and ``__all__`` or ``dir()`` imports all four. So ``import ltoeplitz``
and ``python -m ltoeplitz`` compile nothing a command does not run.
"""

from importlib import import_module as _import_module

_MODULES = ("symbol", "operator", "factorization", "spectral")

__version__ = "0.1.0"


def _module(name: str):
    return _import_module(f".{name}", __name__)


def __getattr__(name: str):
    """One of the four modules, ``__all__`` (their lists joined in order), or
    a name one of them lists, bound here from then on."""
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        value = [listed for module in _MODULES for listed in _module(module).__all__]
    else:
        home = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names an eager package would hold: the four modules (and those
    they import), ``__all__`` and its names, and the module's own dunders."""
    own = {"_import_module", "_MODULES", "_module", "__getattr__", "__dir__"}
    listed = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *listed} - own)

"""Spans around the public functions of every ltoeplitz module.

Spans are recorded from the benchmark's side only: `install` wraps each
public function once and rebinds the wrapper in every ltoeplitz namespace
that holds the original (``cli`` imports the output writers by name,
``spectral`` and ``factorization`` import ``truncate`` and the builders), so
a call is traced whichever module makes it. A span records its name, its
parent span and its start and end; a layer's self time is its span minus the
spans nested in it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("symbol", "operator", "factorization", "spectral", "output", "cli")
# Called once per formatted number: a span each would cost more than the call,
# so its time stays in the writer that calls it.
UNWRAPPED = {"output.fmt_float"}
SYMBOL_METHODS = ("evaluate_on_grid", "sup_norm_estimate")


def _work_counts(name, args):
    """Work counts that repeat exactly, from a finished call's arguments."""
    if name == "spectral.singular_values":
        return {"spectral.svd_n3": args[0].size ** 3}
    if name == "symbol.evaluate_on_grid":
        return {"symbol.eval_terms": len(args[0].support) * int(args[1])}
    if name == "factorization.build_kernel_grid":
        return {"factorization.kernel_points": int(args[1]) ** 2}
    if name == "factorization.build_kernel_grid_sampled_tau":
        return {"factorization.kernel_points": len(args[1]) ** 2}
    if name == "operator.truncate":
        return {"operator.dense_bytes": 16 * int(args[1]) ** 2}
    if name == "output.write_text" and args[0] is not None:
        return {"output.bytes_written": os.path.getsize(args[0])}
    return {}


class Tracer:
    """In-memory span log: one ``[name, parent, start, end]`` per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            for key, value in _work_counts(name, args).items():
                self.counts[key] += value
            return result

        return traced

    def take(self) -> dict:
        """Self seconds per span name plus the counts; clears the log."""
        self_s: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            self_s[name] += end - start
        for _, parent, start, end in self.spans:
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        out = {"self_s": dict(self_s), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out


def install(tracer: Tracer) -> None:
    """Wrap every public function of the six modules, and two symbol methods."""
    import ltoeplitz.cli  # noqa: F401  (loads all six modules)

    mods = {m: sys.modules[f"ltoeplitz.{m}"] for m in MODULES}
    namespaces = [sys.modules["ltoeplitz"], *mods.values()]
    for short, mod in mods.items():
        public = getattr(mod, "__all__", [a for a in vars(mod) if not a.startswith("_")])
        for attr in public:
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            if f"{short}.{attr}" in UNWRAPPED:
                continue
            wrapper = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
    cls = mods["symbol"].FourierSymbol
    for attr in SYMBOL_METHODS:
        setattr(cls, attr, tracer.wrap(f"symbol.{attr}", getattr(cls, attr)))

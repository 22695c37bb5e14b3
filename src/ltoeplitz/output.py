"""Deterministic text output and input for the `ltoep` CLI and symbol files.

Every floating-point number is rendered with 17 significant digits, so a
fixed configuration always yields byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

FLOAT_FORMAT = ".17g"


def fmt_float(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"cannot write the non-finite number {float(value)!r}")
    return value


_LAZY = "\x00"  # a Records in rendered JSON, where json.dumps escapes this character
_ROW, _COL = "\x01", "\x02"  # the row and column parts of the index in a record's cells
_RUN = 1000  # vector records per chunk: k = 1000 q + j is str(q), then j in three digits


class Records:
    """The records of a complex vector or matrix, one per entry in row-major
    order: its index fields (``k`` for a vector, ``n`` and ``m`` for a
    matrix), ``re`` and ``im``.

    A non-finite part raises ``ValueError`` naming the column and the
    record's row, so neither JSON nor CSV can hold one; nothing is formatted
    before ``chunks`` is iterated. ``json_chunks`` writes a ``Records`` as the
    list of objects with sorted keys that it writes for the equivalent list
    of dicts.
    """

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim not in (1, 2):
            raise ValueError(f"records need a vector or a matrix, not {self.values.ndim}-D values")
        index = ("k",) if self.values.ndim == 1 else ("n", "m")
        self.fields = (*index, "re", "im")
        self.size = self.values.size
        for name, part in (("re", self.values.real), ("im", self.values.imag)):
            bad = np.flatnonzero(~np.isfinite(part))
            if bad.size:
                raise ValueError(
                    f"cannot write the non-finite number {float(part.flat[bad[0]])!r} "
                    f"in column {name!r}, row {bad[0]}"
                )

    def chunks(self, level: int | None = None) -> Iterator[str]:
        """The CSV table, or the JSON list at indent ``level``, one matrix
        row or ``_RUN`` vector records per chunk.

        Each column has a zero cell, the constant text of a record whose re
        and im are both +0.0 (told by the sign bit: ``%.17g`` writes -0.0 as
        ``-0``), and a cell template that formats re and im by ``FLOAT_FORMAT``.
        A row formats only its other records, one template each, or, where
        they are the majority, fills one template for the whole row. Cells
        hold the column part of the index, ``m`` or the last three digits of
        ``k``. The row part, ``n`` or the rest of ``k``, goes in the separator
        where it starts the record (CSV), else in the cells as ``_ROW``,
        replaced in each row's text.
        """
        values = self.values
        if level is None:
            names, sep, record = self.fields, "\n", ",".join
            head, tail = ",".join(names) + ("\n" if self.size else ""), "\n"
        else:
            inner = "  " * (level + 1)
            names, sep = sorted(self.fields), ",\n"
            keys = [f'{inner}  "{name}": ' for name in names]
            record = lambda texts: f"{inner}{{\n" + ",\n".join(map(str.__add__, keys, texts)) + f"\n{inner}}}"
            head, tail = ("[\n", "\n" + "  " * level + "]") if self.size else ("[", "]")
        yield head
        formatted = (values != 0) | np.signbit(values.real) | np.signbit(values.imag)
        lead = names[0] in ("n", "k")  # the row part starts each record: it goes in the separator
        mark = "" if lead else _ROW
        if values.ndim == 2:
            index, rows = {"n": mark, "m": _COL}, zip(values, formatted)
        else:
            index = {"k": mark + _COL}
            rows = ((values[i : i + _RUN], formatted[i : i + _RUN]) for i in range(0, self.size, _RUN))
        parts = [{"re": "real", "im": "imag"}[name] for name in names if name in ("re", "im")]
        cells = {}
        for q, (row, mask) in enumerate(rows):
            digits = len(str(_RUN)) - 1 if q and values.ndim == 1 else 0
            if (digits, row.size) not in cells:
                halves = [record([{**index, "re": p, "im": p}[name] for name in names]).split(_COL)
                          for p in ("0", "%" + FLOAT_FORMAT)]
                col = [str(j).zfill(digits) for j in range(row.size)]
                cells[digits, row.size] = [[a + c + b for c in col] for a, b in halves]
            zero, full = cells[digits, row.size]
            n = str(q) if digits or values.ndim == 2 else ""
            joiner = sep + n if lead else sep
            picked = np.flatnonzero(mask)
            flat = np.column_stack([getattr(row[picked], p) for p in parts]).ravel().tolist()
            if 2 * picked.size > row.size:
                chosen = full.copy()
                for j in np.flatnonzero(~mask).tolist():
                    chosen[j] = zero[j]
                text = joiner.join(chosen) % tuple(flat)
            else:
                chosen = zero.copy()
                for j, x, y in zip(picked.tolist(), flat[::2], flat[1::2]):
                    chosen[j] = full[j] % (x, y)
                text = joiner.join(chosen)
            yield (sep if q else "") + (n if lead else "")
            yield text if lead else text.replace(_ROW, n)
        yield tail


def _render_json(obj, level: int, lazy: list) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(_finite(obj))
    if isinstance(obj, Records):
        lazy.append(obj.chunks(level))
        return _LAZY
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_render_json(obj[key], level + 1, lazy)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_render_json(item, level + 1, lazy)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_chunks(obj) -> Iterator[str]:
    """Deterministic JSON of ``obj`` in chunks: sorted keys, fixed float
    formatting, trailing newline. Everything but the records is rendered, and
    every value checked, before this returns; the records are formatted as
    the chunks are taken."""
    lazy: list = []
    head, *tails = (_render_json(obj, 0, lazy) + "\n").split(_LAZY)
    return chain([head], *chain.from_iterable(zip(lazy, ([t] for t in tails))))


def csv_text(header: str, rows: Iterable[Sequence]) -> str:
    """A table of strings, written as they are, and numbers and booleans, written as in JSON."""
    lines = [header]
    lines.extend(",".join(c if isinstance(c, str) else _render_json(c, 0, []) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _read_csv_table(path, columns: tuple[str, ...], what: str) -> np.ndarray:
    """Rows of a numeric CSV headed by exactly the given columns, in order;
    every field must be finite."""
    with warnings.catch_warnings():  # an empty table gets its own error below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no {what} entries")
    # read apart: loadtxt reads a path faster than an open file
    header = ",".join(columns)
    with open(path) as fh:
        if fh.readline().rstrip("\n") != header:
            raise ValueError(f"{path}: expected columns {header}")
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: expected columns {header}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{path}: field {columns[col]!r} of data row {row + 1} is not finite ({data[row, col]!r})"
        )
    return data


def read_vector_csv(path) -> np.ndarray:
    data = _read_csv_table(path, ("k", "re", "im"), "vector")
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ValueError(f"{path}: vector indices must run 0..N-1 in order")
    return data[:, 1] + 1j * data[:, 2]


def read_matrix_csv(path) -> np.ndarray:
    data = _read_csv_table(path, ("n", "m", "re", "im"), "matrix")
    size = int(data[:, :2].max()) + 1
    if data.shape[0] != size * size:
        raise ValueError(f"{path}: expected {size * size} entries for an {size}x{size} matrix")
    index = data[:, :2]
    if np.any(index < 0) or np.any(index != np.floor(index)):
        raise ValueError(f"{path}: fields 'n' and 'm' must be nonnegative integers")
    rows, cols = index.astype(int).T
    flat, counts = np.unique(rows * size + cols, return_counts=True)
    if flat.size != data.shape[0]:
        dup = flat[counts > 1][0]
        gap = np.setdiff1d(np.arange(size * size), flat)[0]
        raise ValueError(
            f"{path}: (n, m) row ({dup // size}, {dup % size}) is repeated and "
            f"({gap // size}, {gap % size}) is missing; fields 'n', 'm' must name "
            "every entry exactly once"
        )
    out = np.zeros((size, size), dtype=complex)
    out[rows, cols] = data[:, 2] + 1j * data[:, 3]
    return out


def write_text(path: str | None, chunks: str | Iterable[str]) -> None:
    """Write a text, or its chunks as they are made, to ``path`` or stdout."""
    chunks = [chunks] if isinstance(chunks, str) else chunks
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)

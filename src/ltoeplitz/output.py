"""Deterministic text output and input for CLI and scripts.

Every floating-point number is rendered with 17 significant digits, so a
fixed configuration always yields byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

FLOAT_FORMAT = ".17g"


def fmt_float(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _render_json(obj, level: int) -> str:
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
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite number {float(obj)!r} as JSON")
        return fmt_float(obj)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_render_json(obj[key], level + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_render_json(item, level + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, trailing newline."""
    return _render_json(obj, 0) + "\n"


def _fmt_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return fmt_float(cell)
    return str(cell)


def csv_text(header: str, rows: Iterable[Sequence]) -> str:
    lines = [header]
    lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_csv_text(entries: np.ndarray) -> str:
    """Row-major dump of a complex matrix, header ``n,m,re,im``."""
    n_rows, n_cols = entries.shape
    rows = (
        (n, m, entries[n, m].real, entries[n, m].imag)
        for n in range(n_rows)
        for m in range(n_cols)
    )
    return csv_text("n,m,re,im", rows)


def vector_csv_text(values: np.ndarray) -> str:
    rows = ((k, v.real, v.imag) for k, v in enumerate(values))
    return csv_text("k,re,im", rows)


def _read_csv_table(path, columns: tuple[str, ...], what: str) -> np.ndarray:
    """Rows of a numeric CSV with the given columns; every field must be finite."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no {what} entries")
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: expected columns {','.join(columns)}")
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


def write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")

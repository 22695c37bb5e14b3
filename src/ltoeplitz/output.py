"""Deterministic text output and input for CLI and scripts.

Every floating-point number is rendered with 17 significant digits, so a
fixed configuration always yields byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

FLOAT_FORMAT = ".17g"


def fmt_float(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"cannot write the non-finite number {float(value)!r}")
    return value


class Records:
    """Equal-length named 1-D integer or float columns, one record per row.

    The writers format every row with one %-template, ``%d`` for an integer
    column and ``%.17g`` for a float column (the bytes of ``fmt_float`` for
    every finite float). A non-finite float raises ``ValueError`` naming the
    column and the first bad row, so neither JSON nor CSV can hold one.
    ``dumps_json`` writes a ``Records`` as the list of objects with sorted
    keys that it writes for the equivalent list of dicts.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        self.columns = {name: np.asarray(col) for name, col in columns.items()}
        shapes = {col.shape for col in self.columns.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError("records need equal-length 1-D columns")
        self.size = next(iter(shapes))[0]
        self.codes = {}
        for name, col in self.columns.items():
            if col.dtype.kind in "iu":
                self.codes[name] = "%d"
            elif col.dtype.kind == "f":
                bad = np.flatnonzero(~np.isfinite(col))
                if bad.size:
                    raise ValueError(
                        f"cannot write the non-finite number {float(col[bad[0]])!r} "
                        f"in column {name!r}, row {bad[0]}"
                    )
                self.codes[name] = "%.17g"
            else:
                raise TypeError(f"column {name!r} has unsupported dtype {col.dtype}")

    def rows(self, template: str, names: Sequence[str], sep: str) -> str:
        """Every row through ``template``, whose fields take the ``names`` columns in order."""
        flat = chain.from_iterable(zip(*(self.columns[name].tolist() for name in names)))
        return sep.join([template] * self.size) % tuple(flat)


def matrix_records(entries: np.ndarray) -> Records:
    """Row-major records ``n, m, re, im`` of a complex matrix."""
    n_rows, n_cols = entries.shape
    return Records({
        "n": np.repeat(np.arange(n_rows), n_cols),
        "m": np.tile(np.arange(n_cols), n_rows),
        "re": entries.real.ravel(),
        "im": entries.imag.ravel(),
    })


def vector_records(values: np.ndarray) -> Records:
    """Records ``k, re, im`` of a complex vector."""
    return Records({"k": np.arange(values.size), "re": values.real, "im": values.imag})


def _records_json(records: Records, level: int) -> str:
    if not records.size:
        return "[]"
    inner = "  " * (level + 1)
    keys = sorted(records.columns)
    fields = ",\n".join(
        f"{inner}  {json.dumps(str(key))}: ".replace("%", "%%") + records.codes[key] for key in keys
    )
    body = records.rows(f"{inner}{{\n{fields}\n{inner}}}", keys, ",\n")
    return "[\n" + body + "\n" + "  " * level + "]"


def _records_csv(records: Records) -> str:
    names = list(records.columns)
    template = "\n" + ",".join(records.codes[name] for name in names)
    return ",".join(names) + records.rows(template, names, "") + "\n"


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
        return fmt_float(_finite(obj))
    if isinstance(obj, Records):
        return _records_json(obj, level)
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
        return fmt_float(_finite(cell))
    return str(cell)


def csv_text(header: str, rows: Iterable[Sequence]) -> str:
    lines = [header]
    lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_csv_text(entries: np.ndarray) -> str:
    """Row-major dump of a complex matrix, header ``n,m,re,im``."""
    return _records_csv(matrix_records(entries))


def vector_csv_text(values: np.ndarray) -> str:
    """Dump of a complex vector, header ``k,re,im``."""
    return _records_csv(vector_records(values))


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

"""Byte identity of the column-template writers against a per-entry oracle.

The oracle below is the writer the package used before the column
formatter: a recursive renderer that formats one Python value at a time,
fed with lists of dicts, and CSV rows formatted one cell at a time. The
dense outputs of ``build``, ``solve-recurrence`` and ``apply`` must match it
byte for byte.
"""

import json
import math
from collections.abc import Mapping

import numpy as np
import pytest

from ltoeplitz import FourierSymbol, LambdaToeplitzSpec
from ltoeplitz.cli import main
from ltoeplitz.operator import apply_fast, solve_recurrence, truncate, truncation_borders
from ltoeplitz.output import (
    Records,
    csv_text,
    dumps_json,
    matrix_csv_text,
    matrix_records,
    read_vector_csv,
    vector_csv_text,
    vector_records,
)

SIZES = (1, 2, 7, 64)
# -0.0, subnormals, a huge value and integral floats (1.0 is written "1")
PLANTED = (-0.0, 5e-324, 1e-310, 1e300, -1e300, 1.0, -3.0, 1e16, 1e17, 1.7976931348623157e308)


# -- per-entry oracle ---------------------------------------------------------------


def _oracle_json(obj, level=0):
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
        assert math.isfinite(obj)
        return format(float(obj), ".17g")
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_oracle_json(obj[key], level + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_oracle_json(item, level + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(type(obj).__name__)


def oracle_dumps(obj):
    return _oracle_json(obj) + "\n"


def _oracle_cell(cell):
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return format(float(cell), ".17g")


def oracle_csv(header, rows):
    return "\n".join([header, *(",".join(_oracle_cell(c) for c in row) for row in rows)]) + "\n"


def oracle_matrix_dicts(a):
    return [
        {"n": n, "m": m, "re": a[n, m].real, "im": a[n, m].imag}
        for n in range(a.shape[0])
        for m in range(a.shape[1])
    ]


def oracle_matrix_csv(a):
    rows = ((d["n"], d["m"], d["re"], d["im"]) for d in oracle_matrix_dicts(a))
    return oracle_csv("n,m,re,im", rows)


def oracle_vector_dicts(v):
    return [{"k": k, "re": x.real, "im": x.imag} for k, x in enumerate(v)]


def oracle_vector_csv(v):
    return oracle_csv("k,re,im", ((k, x.real, x.imag) for k, x in enumerate(v)))


# -- inputs ------------------------------------------------------------------------


def planted_matrix(size, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    flat = a.reshape(-1)
    for i, value in enumerate(PLANTED[: 2 * flat.size]):
        if i % 2:
            flat[i // 2] = complex(flat[i // 2].real, value)
        else:
            flat[i // 2] = complex(value, flat[i // 2].imag)
    return a


@pytest.fixture
def special_symbol(tmp_path):
    """Coefficients -0.0, subnormal, 1e300 and integral values, written by hand to keep -0.0."""
    path = tmp_path / "special.json"
    path.write_text(
        '{"coefficients": ['
        '{"n": -2, "re": 3.0, "im": -1.0}, {"n": -1, "re": -0.0, "im": 5e-324}, '
        '{"n": 0, "re": 1e300, "im": -0.0}, {"n": 1, "re": 1e-310, "im": 2.0}, '
        '{"n": 3, "re": 0.25, "im": -0.75}]}'
    )
    return path


def _spec(path, lam):
    text = json.loads(path.read_text())
    coeffs = {c["n"]: complex(c["re"], c["im"]) for c in text["coefficients"]}
    return LambdaToeplitzSpec(lam, FourierSymbol(coeffs))


def _lam_args(lam):
    return ["--lambda-re", repr(lam.real), "--lambda-im", repr(lam.imag)]


def _run(*args):
    assert main([str(a) for a in args]) == 0


# -- tests --------------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_writers_match_oracle_on_planted_values(size):
    a = planted_matrix(size)
    assert matrix_csv_text(a) == oracle_matrix_csv(a)
    assert dumps_json({"N": size, "entries": matrix_records(a)}) == oracle_dumps(
        {"N": size, "entries": oracle_matrix_dicts(a)}
    )
    v = a.reshape(-1)
    assert vector_csv_text(v) == oracle_vector_csv(v)
    # a record list nested one level deeper keeps the oracle's indentation
    assert dumps_json([{"values": vector_records(v)}]) == oracle_dumps(
        [{"values": oracle_vector_dicts(v)}]
    )


def test_empty_records_match_oracle():
    empty = np.zeros(0, dtype=complex)
    assert vector_csv_text(empty) == oracle_vector_csv(empty)
    assert dumps_json({"values": vector_records(empty)}) == oracle_dumps({"values": []})


@pytest.mark.parametrize("lam", [0j, 0.6 + 0.6j], ids=["lambda0", "lambda0.6+0.6i"])
@pytest.mark.parametrize("size", SIZES)
def test_cli_outputs_match_oracle(special_symbol, tmp_path, size, lam):
    spec = _spec(special_symbol, lam)
    base = ["--symbol", special_symbol, *_lam_args(lam), "--sizes", size]

    op = truncate(spec, size)
    _run("build", *base, "--out", tmp_path / "b.json")
    _run("build", *base, "--format", "csv", "--out", tmp_path / "b.csv")
    assert (tmp_path / "b.json").read_text() == oracle_dumps(
        {"N": size, "provenance": op.provenance, "entries": oracle_matrix_dicts(op.entries)}
    )
    assert (tmp_path / "b.csv").read_text() == oracle_matrix_csv(op.entries)

    zero = np.zeros((size, size), complex)
    solved = solve_recurrence(spec.lam, zero, *truncation_borders(spec, size))
    diff = float(np.max(np.abs(solved - op.entries)))
    _run("solve-recurrence", *base, "--out", tmp_path / "s.json")
    _run("solve-recurrence", *base, "--format", "csv", "--out", tmp_path / "s.csv")
    assert (tmp_path / "s.json").read_text() == oracle_dumps(
        {"N": size, "entries": oracle_matrix_dicts(solved), "max_diff_vs_truncate": diff}
    )
    assert (tmp_path / "s.csv").read_text() == oracle_matrix_csv(solved)

    # no huge entries here: 1e300 times the 1e300 coefficient would overflow
    x = np.random.default_rng(1).standard_normal(size) + 0j
    x[: min(size, 3)] = [complex(-0.0, 2.0), complex(1e-310, -0.0), 4.0][:size]
    vec_path = tmp_path / "x.csv"
    vec_path.write_text(oracle_vector_csv(x))
    result = apply_fast(spec, read_vector_csv(vec_path))
    args = ["apply", "--symbol", special_symbol, *_lam_args(lam), "--vector", vec_path]
    _run(*args, "--out", tmp_path / "a.json")
    _run(*args, "--format", "csv", "--out", tmp_path / "a.csv")
    assert (tmp_path / "a.json").read_text() == oracle_dumps(
        {"N": size, "method": "fast", "values": oracle_vector_dicts(result)}
    )
    assert (tmp_path / "a.csv").read_text() == oracle_vector_csv(result)


def test_percent_g_matches_format_on_random_bit_patterns():
    rng = np.random.default_rng(20141)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist()
    values += [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1e16, 1e17, 1.0, -2.0]
    assert len(values) >= 100_000
    joined = "\n".join(["%.17g"] * len(values)) % tuple(values)
    assert joined.split("\n") == [format(v, ".17g") for v in values]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_records_refuse_non_finite_naming_column_and_row(bad):
    values = np.array([1.0, 2.0, bad, bad])
    with pytest.raises(ValueError, match=r"non-finite .* column 'im', row 2"):
        Records({"k": np.arange(4), "re": np.zeros(4), "im": values})


def test_records_reject_ragged_columns():
    with pytest.raises(ValueError, match="equal-length"):
        Records({"k": np.arange(3), "re": np.zeros(4)})


def test_generic_csv_refuses_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        csv_text("N,value", [(8, 1.0), (16, math.inf)])

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    MemoryBudgetExceeded,
    apply_fast,
    apply_naive,
    entry,
    powers,
    prepare,
    recurrence_residual,
    solve_recurrence,
    truncate,
    truncation_borders,
)
from ltoeplitz.operator import _charge
from ltoeplitz.output import Records, read_matrix_csv, read_vector_csv

from conftest import CIRCLE_CASES, CIRCLE_LAMBDAS, disc_lambdas, random_spec, symbols

RNG = np.random.default_rng(1234)
TINY = np.finfo(float).tiny


def _spec(lam, coeffs):
    return LambdaToeplitzSpec(lam, FourierSymbol(coeffs))


class TestEntry:
    # entries hand-read off the matrix pattern: column 0 carries a_n, row 0
    # carries a_{-m}, and each step down-right multiplies by lambda.
    def test_matches_matrix_pattern(self):
        lam = 0.7 + 0.2j
        a = {0: 1.5, 1: -2j, 2: 0.5, -2: 3.0, -4: 1j}
        spec = _spec(lam, a)
        assert entry(spec, 3, 3) == lam * lam * lam * a[0]
        assert entry(spec, 0, 4) == a[-4]
        assert entry(spec, 1, 1) == lam * a[0]
        assert entry(spec, 4, 2) == lam * lam * a[2]
        assert entry(spec, 2, 4) == lam * lam * a[-2]

    def test_classical_toeplitz_at_lambda_one(self):
        spec = _spec(1.0, {1: 2.0, -1: 3.0})
        for n in range(5):
            for m in range(5):
                assert entry(spec, n, m) == spec.symbol.coefficient(n - m)

    def test_zero_lambda_conventions(self):
        spec = _spec(0.0, {0: 1.0, 2: 5.0})
        assert entry(spec, 2, 2) == 0
        assert entry(spec, 2, 0) == 5.0
        assert entry(spec, 0, 0) == 1.0

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            entry(_spec(0.5, {0: 1.0}), -1, 0)

    def test_power_below_the_normal_range_is_zero(self):
        # 0.8^3300 is subnormal; powers and truncate give an exact 0 there
        spec = _spec(0.8, {0: 1.0})
        assert entry(spec, 3300, 3300) == 0
        assert entry(spec, 3300, 3300) == powers(0.8, 3301)[3300]
        assert entry(spec, 3000, 3000) == pytest.approx(0.8**3000, rel=1e-12)


class TestSpecValidation:
    def test_rejects_lambda_outside_disc(self):
        with pytest.raises(ValueError, match="disc"):
            _spec(1.5, {0: 1.0})

    def test_accepts_rounded_circle_points(self):
        _spec(cmath.exp(1j * math.pi / 3), {0: 1.0})

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_rejects_non_finite_lambda(self, bad):
        with pytest.raises(ValueError, match="lambda"):
            _spec(bad, {0: 1.0, 1: 0.5})


def test_truncation_matches_literal_five_by_five_pattern():
    # the full corner layout, transcribed cell by cell
    lam = 0.31 - 0.77j
    rng = np.random.default_rng(6)
    a = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(-4, 5)}
    expected = np.array(
        [
            [a[0], a[-1], a[-2], a[-3], a[-4]],
            [a[1], lam * a[0], lam * a[-1], lam * a[-2], lam * a[-3]],
            [a[2], lam * a[1], lam**2 * a[0], lam**2 * a[-1], lam**2 * a[-2]],
            [a[3], lam * a[2], lam**2 * a[1], lam**3 * a[0], lam**3 * a[-1]],
            [a[4], lam * a[3], lam**2 * a[2], lam**3 * a[1], lam**4 * a[0]],
        ]
    )
    got = truncate(_spec(lam, a), 5).entries
    assert np.max(np.abs(got - expected)) < 1e-15


def test_default_dense_limit_is_8192(monkeypatch):
    # the default budget of 1024 MB holds a dense N = 8192 complex matrix
    # and no larger; the charge comes before the allocation
    monkeypatch.delenv("LT_MEM_BUDGET_MB", raising=False)
    assert _charge(16 * 8192**2, "N=8192") == 2**30
    with pytest.raises(MemoryBudgetExceeded, match=r"^N=8193 dense truncation needs 1\.02e\+03 MB; "
                                                    r"budget 1024 MB \(LT_MEM_BUDGET_MB\)$"):
        truncate(_spec(0.5, {0: 1.0}), 8193)


class TestTruncate:
    def test_size_one(self):
        op = truncate(_spec(0.3, {0: 5.0}), 1)
        assert op.entries.shape == (1, 1)
        assert op.entries[0, 0] == 5.0

    def test_zero_lambda_border_structure(self):
        op = truncate(_spec(0.0, {1: 1.0, -1: 2.0, 0: 3.0}), 5)
        interior = op.entries[1:, 1:]
        assert np.max(np.abs(interior)) == 0.0
        assert op.entries[1, 0] == 1.0
        assert op.entries[0, 1] == 2.0

    def test_matches_entry_formula(self):
        spec = random_spec(RNG)
        op = truncate(spec, 12)
        expected = np.array(
            [[entry(spec, n, m) for m in range(12)] for n in range(12)]
        )
        assert np.max(np.abs(op.entries - expected)) < 1e-13

    def test_nesting_is_exact(self):
        for _ in range(5):
            spec = random_spec(RNG)
            small = truncate(spec, 4).entries
            large = truncate(spec, 8).entries
            assert np.array_equal(small, large[:4, :4])

    def test_memory_budget_rejection(self, monkeypatch):
        spec = _spec(0.5, {0: 1.0})
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        with pytest.raises(MemoryBudgetExceeded, match=r"^N=10000 dense truncation needs 1\.53e\+03 MB; "
                                                        r"budget 1 MB \(LT_MEM_BUDGET_MB\)$"):
            truncate(spec, 10_000)

    def test_memory_budget_env(self, monkeypatch):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        with pytest.raises(MemoryBudgetExceeded):
            truncate(_spec(0.5, {0: 1.0}), 10_000)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            truncate(_spec(0.5, {0: 1.0}), 0)


class TestPowers:
    def test_values(self):
        lam = 0.5 + 0.5j
        p = powers(lam, 5)
        assert p[0] == 1.0
        for k in range(1, 5):
            assert p[k] == p[k - 1] * lam

    def test_zero_base_convention(self):
        assert list(powers(0.0, 3)) == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("lam, count", [(0.8, 4000), (0.6 + 0.6j, 32768)])
    def test_underflow_gives_exact_zeros(self, lam, count):
        p = powers(lam, count)
        modulus = np.abs(p)
        assert not np.any((modulus > 0) & (modulus < TINY))
        cut = int(np.argmax(p == 0))
        assert cut > 0 and np.all(p[cut:] == 0) and np.all(p[:cut] != 0)
        # the first zero sits where |lambda|^k crosses the smallest normal float
        assert abs(cut - math.log(TINY) / math.log(abs(lam))) <= 1
        # up to the cut, each power is the one before times lambda, bit for bit
        assert all(p[k + 1] == p[k] * lam for k in range(cut - 1))

    @pytest.mark.parametrize("lam", [0.8, 0.6 + 0.6j, 1j, -1.0, 0.0, 0.999])
    def test_stopped_products_match_the_full_cumprod(self, lam):
        def full(count):
            # every product, then zeros from the first one below tiny
            out = np.empty(count, dtype=complex)
            if count:
                out[0] = 1.0
                out[1:] = lam
                np.cumprod(out, out=out)
                below = np.abs(out) < TINY
                if below.any():
                    out[below.argmax():] = 0.0
            return out

        reference = full(720_000)
        cut = int(np.count_nonzero(reference))
        for count in {0, 1, 2, 3, 100, cut - 2, cut - 1, cut, cut + 1, cut + 2, cut + 50}:
            if count >= 0:
                assert powers(lam, count).tobytes() == full(count).tobytes(), count
        assert powers(lam, reference.size).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("lam", [0.8, 0.6 + 0.6j])
    def test_products_carry_on_past_a_short_estimate(self, monkeypatch, lam):
        # the cut read off logarithms could fall short of the products'
        # own; a quarter of it must still give every power, bit for bit
        reference = powers(lam, 5000)
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: log(x) * (4.0 if x == abs(lam) else 1.0))
        for count in (100, 2000, 5000):
            assert powers(lam, count).tobytes() == reference[:count].tobytes()


class TestApplyNaive:
    def test_diagonal_case(self):
        lam = 0.3 + 0.4j
        spec = _spec(lam, {0: 1.0})
        op = truncate(spec, 8)
        for k in (0, 3, 7):
            e_k = np.zeros(8, dtype=complex)
            e_k[k] = 1.0
            out = apply_naive(op, e_k)
            assert out[k] == lam**k or abs(out[k] - lam**k) < 1e-15
            assert np.count_nonzero(out) <= 1

    def test_zero_vector(self):
        op = truncate(random_spec(RNG), 8)
        assert np.max(np.abs(apply_naive(op, np.zeros(8)))) == 0.0

    def test_dimension_mismatch(self):
        op = truncate(_spec(0.5, {0: 1.0}), 8)
        with pytest.raises(ValueError, match="size"):
            apply_naive(op, np.zeros(7))


class TestApplyFast:
    @pytest.mark.parametrize(
        "lam", [0.0, 0.3, 0.7j, 1.0, cmath.exp(1j * math.pi / 3)]
    )
    @pytest.mark.parametrize("size", [16, 64, 256])
    def test_agrees_with_naive(self, lam, size):
        rng = np.random.default_rng(99)
        spec = LambdaToeplitzSpec(lam, FourierSymbol(
            {n: complex(rng.standard_normal(), rng.standard_normal())
             for n in (-5, -2, 0, 1, 3, 7)}
        ))
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        fast = apply_fast(spec, x)
        naive = apply_naive(truncate(spec, size), x)
        assert np.max(np.abs(fast - naive)) <= 1e-10 * np.max(np.abs(naive))

    def test_zero_lambda_first_basis_vector_gives_column(self):
        spec = _spec(0.0, {0: 1.0, 1: 2.0, 2: 3.0, -1: 9.0})
        e0 = np.zeros(6, dtype=complex)
        e0[0] = 1.0
        out = apply_fast(spec, e0)
        expected = np.array([spec.symbol.coefficient(n) for n in range(6)])
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_coanalytic_only_symbol(self):
        spec = _spec(0.5, {-1: 1.0})
        x = np.arange(1.0, 9.0)
        fast = apply_fast(spec, x)
        naive = apply_naive(truncate(spec, 8), x)
        assert np.max(np.abs(fast - naive)) < 1e-12

    def test_rejects_bad_input(self):
        spec = _spec(0.5, {0: 1.0})
        with pytest.raises(ValueError):
            apply_fast(spec, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            apply_fast(spec, np.zeros(0))

    def test_unit_lambda_against_scipy_toeplitz_matvec(self):
        # independent third route: scipy's circulant-embedded Toeplitz matvec
        from scipy.linalg import matmul_toeplitz

        rng = np.random.default_rng(17)
        coeffs = {n: complex(rng.standard_normal(), rng.standard_normal())
                  for n in (-4, -1, 0, 2, 6)}
        spec = _spec(1.0, coeffs)
        size = 128
        col = np.array([spec.symbol.coefficient(n) for n in range(size)])
        row = np.array([spec.symbol.coefficient(-m) for m in range(size)])
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        reference = matmul_toeplitz((col, row), x)
        assert np.max(np.abs(apply_fast(spec, x) - reference)) < 1e-11


class TestPrepare:
    @pytest.mark.parametrize("lam", [0.0, 0.4 - 0.3j, -1.0])
    @pytest.mark.parametrize("size", [1, 3, 9])
    def test_products_against_dense(self, lam, size):
        # bands at |d| >= N must drop out: d = 9 and d = -12 reach no size
        # here; inside the disc an analytic or a coanalytic symbol is one term
        for coeffs in ({-12: 4.0, -2: 1.0 - 1.0j, 0: 0.5, 1: 2.0j, 9: -3.0},
                       {0: 0.5, 1: 2.0j, 2: -1.0 + 0.5j, 9: -3.0},
                       {-12: 4.0, -2: 1.0 - 1.0j, -1: 0.25j}):
            spec = _spec(lam, coeffs)
            dense = truncate(spec, size).entries
            matvec, rmatvec = prepare(spec, size)
            x = RNG.standard_normal(size) + 1j * RNG.standard_normal(size)
            # every entry of either product is at most sum |a_d| * max |x|
            tol = 1e-14 * sum(abs(v) for _, v in spec.symbol.items()) * np.max(np.abs(x))
            assert np.max(np.abs(matvec(x) - dense @ x)) <= tol
            assert np.max(np.abs(rmatvec(x) - dense.conj().T @ x)) <= tol

    def test_adjoint_is_the_conjugate_symbol_operator(self):
        # rmatvec takes the conjugate kernel FFTs, the operator of the
        # conjugate symbol its own: they agree to rounding, not bit for bit
        spec = _spec(0.6 + 0.7j, {-3: 1.0j, 0: 2.0, 2: -1.5 + 0.5j, 40: 1.0})
        adjoint = LambdaToeplitzSpec(spec.lam.conjugate(), spec.symbol.conjugate())
        y = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
        _, rmatvec = prepare(spec, 32)
        want = apply_fast(adjoint, y)
        scale = sum(abs(a) for _, a in spec.symbol.items()) * np.max(np.abs(y))
        assert np.max(np.abs(rmatvec(y) - want)) <= 1e-14 * scale

    def test_rows_past_the_cut_are_exact_zeros(self):
        # the apply of the dense-io workload: N = 32768, only the first
        # U + 5 rows can be nonzero
        rng = np.random.default_rng(5)
        lam, size = 0.6 + 0.6j, 32768
        coeffs = {d: complex(*rng.standard_normal(2)) for d in range(-5, 6)}
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        y = apply_fast(_spec(lam, coeffs), x)
        live = int(np.count_nonzero(powers(lam, size)))
        assert live <= math.log(TINY) / math.log(abs(lam)) + 1
        assert np.all(y[live + 5 :] == 0)
        # band-sum oracle: y[r] = sum_d a_d lambda^min(r, r-d) x[r-d]
        pw = np.array([lam**k for k in range(size)])
        ref = np.zeros(size, dtype=complex)
        for d, a in coeffs.items():
            if d >= 0:
                ref[d:] += a * pw[: size - d] * x[: size - d]
            else:
                ref[:d] += a * pw[:d] * x[-d:]
        scale = sum(abs(a) for a in coeffs.values()) * np.max(np.abs(x))
        assert np.max(np.abs(y - ref)) <= 1e-13 * scale

    def test_adjoint_identity_on_the_leading_block(self):
        # |lambda|^k leaves the normal range at k = 616, so only a 619 x 619
        # block of the 800 x 800 truncation is applied
        spec = _spec(0.3 - 0.1j, {-3: 1.0j, 0: 2.0, 1: -1.5 + 0.5j})
        size = 800
        assert np.count_nonzero(powers(spec.lam, size)) + 3 < size
        matvec, rmatvec = prepare(spec, size)
        x = RNG.standard_normal(size) + 1j * RNG.standard_normal(size)
        y = RNG.standard_normal(size) + 1j * RNG.standard_normal(size)
        norm1 = sum(abs(a) for _, a in spec.symbol.items())
        scale = norm1 * size * np.max(np.abs(x)) * np.max(np.abs(y))
        assert abs(np.vdot(y, matvec(x)) - np.vdot(rmatvec(y), x)) <= 1e-13 * scale
        dense = truncate(spec, size).entries
        assert np.max(np.abs(matvec(x) - dense @ x)) <= 1e-13 * norm1 * np.max(np.abs(x))

    def test_zero_lambda_applies_a_block_of_side_one_plus_k(self):
        spec = _spec(0.0, {-2: 1.0, 0: 0.5j, 3: -2.0})
        x = RNG.standard_normal(20) + 1j * RNG.standard_normal(20)
        y = apply_fast(spec, x)
        # row 0 holds a_{-m}, column 0 holds a_n, everything else is 0
        expected = np.zeros(20, dtype=complex)
        expected[0] = 0.5j * x[0] + 1.0 * x[2]
        expected[3] = -2.0 * x[0]
        assert np.max(np.abs(y - expected)) <= 1e-15
        assert np.all(y[4:] == 0)

    def test_rejects_wrong_length(self):
        matvec, rmatvec = prepare(_spec(0.5, {0: 1.0}), 4)
        for product in (matvec, rmatvec):
            with pytest.raises(ValueError, match="truncation size 4"):
                product(np.zeros(5))


class TestUnitCircleProducts:
    """Near the circle each product is one convolution: T_N = D Toeplitz_N(psi)."""

    @pytest.mark.parametrize("lam", CIRCLE_LAMBDAS)
    @pytest.mark.parametrize("case", CIRCLE_CASES)
    def test_products_match_the_truncation(self, lam, case):
        coeffs, size = CIRCLE_CASES[case]
        spec = _spec(lam, coeffs)
        dense = truncate(spec, size).entries
        x = RNG.standard_normal(size) + 1j * RNG.standard_normal(size)
        matvec, rmatvec = prepare(spec, size)
        for got, want in ((apply_fast(spec, x), dense @ x), (matvec(x), dense @ x),
                          (rmatvec(x), dense.conj().T @ x)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_truncation_gives_exact_zeros(self):
        # the only band lies outside the truncation
        y = apply_fast(_spec(1j, {9: 1.0}), np.ones(4))
        assert np.array_equal(y, np.zeros(4)) and not np.signbit(y.view(float)).any()


class TestRecurrenceResidual:
    def test_truncations_satisfy_recurrence(self):
        for _ in range(10):
            spec = random_spec(RNG)
            op = truncate(spec, 32)
            assert recurrence_residual(op, spec.lam) <= 1e-14

    def test_classical_toeplitz_with_unit_lambda(self):
        op = truncate(_spec(1.0, {0: 1.0, 2: -1j}), 16)
        assert recurrence_residual(op, 1.0) == 0.0

    def test_wrong_lambda_detected(self):
        # identity matrix is 1-Toeplitz; against lambda=0.5 the residual is 0.5
        op = truncate(_spec(1.0, {0: 1.0}), 8)
        assert recurrence_residual(op, 0.5) == pytest.approx(0.5)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            recurrence_residual(truncate(_spec(0.5, {0: 1.0}), 1), 0.5)


class TestSolveRecurrence:
    def test_zero_forcing_reproduces_truncation(self):
        for _ in range(5):
            spec = random_spec(RNG)
            n = 16
            row, col = truncation_borders(spec, n)
            solved = solve_recurrence(spec.lam, np.zeros((n, n)), row, col)
            assert np.max(np.abs(solved - truncate(spec, n).entries)) < 1e-13

    def test_zero_lambda_shifts_forcing(self):
        n = 6
        rng = np.random.default_rng(7)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        row = np.zeros(n, dtype=complex)
        col = np.zeros(n, dtype=complex)
        solved = solve_recurrence(0.0, b, row, col)
        assert np.array_equal(solved[1:, 1:], b[:-1, :-1])

    def test_substitution_oracle(self):
        n = 12
        rng = np.random.default_rng(21)
        lam = 0.4 - 0.3j
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col[0] = row[0]
        solved = solve_recurrence(lam, b, row, col)
        assert np.array_equal(solved[0, :], row)
        assert np.array_equal(solved[:, 0], col)
        shifted = solved[1:, 1:] - lam * solved[:-1, :-1]
        assert np.max(np.abs(shifted - b[:-1, :-1])) < 1e-12

    @pytest.mark.parametrize("size", [0, -2])
    def test_borders_reject_empty_truncation(self, size):
        with pytest.raises(ValueError, match="truncation size must be >= 1"):
            truncation_borders(_spec(0.5, {0: 1.0, -1: 2.0}), size)

    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            solve_recurrence(0.5, np.zeros((2, 2)), [1.0, 0.0], [2.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_recurrence(0.5, np.zeros((3, 3)), [1.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize(
        "row, col, message",
        [([], [], "borders must be nonempty"),
         ([1.0, 0.0], [1.0, 0.0, 0.0], "first_row has length 2 but first_col has length 3")],
        ids=["empty", "lengths"],
    )
    def test_border_errors_name_the_borders(self, row, col, message):
        with pytest.raises(ValueError) as err:
            solve_recurrence(0.5, np.zeros((2, 2)), row, col)
        assert str(err.value) == message


class TestAdjointSymmetry:
    def test_conjugate_transpose_matches_conjugate_spec(self):
        for _ in range(5):
            spec = random_spec(RNG)
            adjoint_spec = LambdaToeplitzSpec(
                spec.lam.conjugate(), spec.symbol.conjugate()
            )
            lhs = truncate(spec, 10).entries.conj().T
            rhs = truncate(adjoint_spec, 10).entries
            assert np.max(np.abs(lhs - rhs)) == 0.0


class TestCsvFormats:
    def test_matrix_roundtrip(self, tmp_path):
        op = truncate(random_spec(RNG), 5)
        path = tmp_path / "m.csv"
        path.write_text("".join(Records(op.entries).chunks()))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,m,re,im"
        assert len(lines) == 1 + 25
        assert np.max(np.abs(read_matrix_csv(path) - op.entries)) == 0.0

    def test_vector_roundtrip(self, tmp_path):
        vec = np.array([1 + 2j, -0.5, 1j / 3])
        path = tmp_path / "v.csv"
        path.write_text("".join(Records(vec).chunks()))
        assert np.max(np.abs(read_vector_csv(path) - vec)) == 0.0


@given(symbols(max_terms=4), disc_lambdas)
@settings(max_examples=30, deadline=None)
def test_recurrence_residual_property(phi, lam):
    spec = LambdaToeplitzSpec(lam, phi)
    assert recurrence_residual(truncate(spec, 9), lam) <= 1e-13


def _random_vector(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@given(symbols(), disc_lambdas, st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(FourierSymbol({1: 5e-324}), 1j, 3, 0)
@example(FourierSymbol({0: 1e-320, 2: 3e-322j}), -1 + 0j, 2, 0)
@settings(max_examples=60, deadline=None)
def test_apply_fast_matches_dense_product_property(phi, lam, n, seed):
    spec = LambdaToeplitzSpec(lam, phi)
    x = _random_vector(seed, n)
    # every output entry is a sum of |a_k| |lambda|^j |x_i| <= sum_k |a_k| max|x|
    scale = sum(abs(v) for _, v in phi.items()) * float(np.max(np.abs(x)))
    err = float(np.max(np.abs(apply_fast(spec, x) - truncate(spec, n).entries @ x)))
    # for subnormal symbols 1e-11 * scale underflows, while the FFT still
    # rounds each sum to whole subnormal units: allow a few of them per term
    floor = 8 * n * max(float(np.max(np.abs(x))), 1.0) * np.nextafter(0.0, 1.0)
    assert err <= 1e-11 * scale + floor


@given(symbols(), disc_lambdas, st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(FourierSymbol({1: 5e-324}), 0j, 2, 0)
@settings(max_examples=60, deadline=None)
def test_apply_fast_adjoint_property(phi, lam, n, seed):
    """<T x, y> = <x, T* y>, with T* the operator for (conj lambda, conj phi)."""
    spec = LambdaToeplitzSpec(lam, phi)
    adjoint = LambdaToeplitzSpec(complex(lam).conjugate(), phi.conjugate())
    x, y = _random_vector(seed, n), _random_vector(seed + 1, n)
    lhs = np.vdot(y, apply_fast(spec, x))
    rhs = np.vdot(apply_fast(adjoint, y), x)
    vectors = float(np.max(np.abs(x)) * np.max(np.abs(y)))
    scale = sum(abs(v) for _, v in phi.items()) * n * vectors
    # for subnormal symbols 1e-11 * scale underflows, while each sum still
    # rounds to whole subnormal units: allow a few of them per term
    floor = 8 * n * max(vectors, 1.0) * np.nextafter(0.0, 1.0)
    assert abs(lhs - rhs) <= 1e-11 * scale + floor

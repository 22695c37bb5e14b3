import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ltoeplitz import FourierSymbol, read_symbol_file, sawtooth, write_symbol_file
from ltoeplitz.symbol import is_unimodular

from conftest import symbols, unimodular_lambdas


def ramp_coefficient_oracle(n):
    """(1/2pi) integral of theta e^{-i n theta} over [0, 2pi), by adaptive quadrature."""
    re, _ = quad(lambda t: t * math.cos(n * t), 0.0, 2.0 * math.pi, limit=200)
    im, _ = quad(lambda t: -t * math.sin(n * t), 0.0, 2.0 * math.pi, limit=200)
    return complex(re, im) / (2.0 * math.pi)


class TestFromCoefficients:
    def test_constant(self):
        phi = FourierSymbol.from_coefficients([(0, 1)])
        assert phi.coefficient(0) == 1
        assert phi.support == (0,)

    def test_two_cos(self):
        phi = FourierSymbol.from_coefficients([(1, 1), (-1, 1)])
        assert phi.coefficient(1) == 1
        assert phi.coefficient(-1) == 1
        assert phi.coefficient(2) == 0

    def test_empty_is_zero(self):
        phi = FourierSymbol.from_coefficients([])
        assert phi.is_zero
        assert phi.l2_norm() == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_l2_norm_squares_neither_underflow_nor_overflow(self, scale):
        phi = FourierSymbol({0: 3.0 * scale, 2: 4.0j * scale})
        assert math.isclose(phi.l2_norm(), 5.0 * scale, rel_tol=1e-15)

    def test_zero_values_dropped(self):
        phi = FourierSymbol.from_coefficients([(3, 0.0), (1, 2.0)])
        assert phi.support == (1,)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="3"):
            FourierSymbol.from_coefficients([(3, 1.0), (3, 2.0)])


class TestFromSamples:
    def test_single_mode(self):
        theta = 2.0 * np.pi * np.arange(8) / 8
        phi = FourierSymbol.from_samples(np.exp(1j * theta), bandlimit=2)
        assert abs(phi.coefficient(1) - 1.0) < 1e-12
        for n in (-2, -1, 0, 2):
            assert abs(phi.coefficient(n)) < 1e-12

    def test_constant(self):
        phi = FourierSymbol.from_samples([3.0] * 8, bandlimit=2)
        assert abs(phi.coefficient(0) - 3.0) < 1e-12

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            FourierSymbol.from_samples([1.0] * 4, bandlimit=2)

    def test_ramp_against_quadrature_oracle(self):
        m = 4096
        theta = 2.0 * np.pi * np.arange(m) / m
        phi = FourierSymbol.from_samples(theta, bandlimit=16)
        for n in (0, 1, 2, 7, 16):
            oracle = ramp_coefficient_oracle(n)
            closed = complex(math.pi) if n == 0 else 1j / n
            assert abs(oracle - closed) < 1e-9
            # discrete coefficients of the jump carry O(1/M) quadrature error
            assert abs(phi.coefficient(n) - oracle) < 2e-3

    @given(symbols(max_index=5))
    def test_roundtrip_on_trig_polynomials(self, phi):
        m = 11
        recovered = FourierSymbol.from_samples(phi.evaluate_on_grid(m), bandlimit=5)
        for n in range(-5, 6):
            assert abs(recovered.coefficient(n) - phi.coefficient(n)) < 1e-9

    @given(st.lists(st.floats(-3, 3), min_size=9, max_size=9))
    def test_real_samples_hermitian(self, values):
        phi = FourierSymbol.from_samples(values, bandlimit=4)
        for n in range(1, 5):
            assert abs(phi.coefficient(-n) - phi.coefficient(n).conjugate()) < 1e-12


class TestProjections:
    def test_two_cos_split(self):
        phi = FourierSymbol({1: 1, -1: 1})
        assert phi.analytic_part().support == (1,)
        assert phi.coanalytic_part().support == (-1,)

    def test_analytic_symbol_has_no_coanalytic_part(self):
        phi = FourierSymbol({0: 2, 3: 1j})
        assert phi.coanalytic_part().is_zero

    @given(symbols())
    def test_partition_reconstructs(self, phi):
        assert phi.analytic_part() + phi.coanalytic_part() == phi

    @given(symbols())
    def test_parseval_split(self, phi):
        total = phi.l2_norm() ** 2
        parts = phi.analytic_part().l2_norm() ** 2 + phi.coanalytic_part().l2_norm() ** 2
        assert math.isclose(total, parts, rel_tol=1e-12, abs_tol=1e-15)


class TestConjugateFlip:
    def test_single_coefficient(self):
        phi = FourierSymbol({-1: 1j})
        assert phi.conjugate_flip().coefficient(1) == -1j

    def test_zero(self):
        assert FourierSymbol().conjugate_flip().is_zero

    def test_rejects_nonnegative_support(self):
        with pytest.raises(ValueError, match="n < 0"):
            FourierSymbol({0: 1.0}).conjugate_flip()

    @given(symbols(max_terms=4))
    def test_involution_with_index_negation(self, phi):
        minus = phi.coanalytic_part()

        def negate(sym):
            return FourierSymbol({-n: v for n, v in sym.items()})

        assert negate(negate(minus.conjugate_flip()).conjugate_flip()) == minus


class TestTwists:
    def test_twist_plus_single_mode(self):
        phi = FourierSymbol({1: 1.0})
        assert phi.twist_plus(1j).coefficient(1) == -1j

    def test_twist_plus_identity_at_one(self):
        phi = FourierSymbol({2: 1j, -3: 2.0})
        assert phi.twist_plus(1.0) == phi

    def test_twist_plus_sawtooth_alternates(self):
        phi = sawtooth(6)
        twisted = phi.twist_plus(-1.0)
        for n in range(0, 7):
            assert twisted.coefficient(n) == (-1.0) ** n * phi.coefficient(n)
        for n in range(-6, 0):
            assert twisted.coefficient(n) == phi.coefficient(n)

    @given(symbols(), unimodular_lambdas)
    def test_twist_plus_unimodular_preserves_l2(self, phi, lam):
        assert math.isclose(
            phi.twist_plus(lam).l2_norm(), phi.l2_norm(), rel_tol=1e-12, abs_tol=1e-15
        )


class TestDilate:
    def test_single_mode(self):
        assert FourierSymbol({1: 1.0}).dilate(0.5).coefficient(1) == 0.5

    def test_identity_at_one(self):
        phi = FourierSymbol({0: 1.0, 4: 2j})
        assert phi.dilate(1.0) == phi

    def test_zero_multiplier_keeps_constant_term(self):
        phi = FourierSymbol({0: 2.0, 3: 1.0})
        assert phi.dilate(0.0) == FourierSymbol({0: 2.0})

    @given(
        symbols(analytic=True),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )
    def test_semigroup(self, psi, c, d):
        twice = psi.dilate(c).dilate(d)
        once = psi.dilate(c * d)
        for n in set(twice.support) | set(once.support):
            a, b = twice.coefficient(n), once.coefficient(n)
            assert abs(a - b) <= 1e-9 * abs(b) + 1e-12

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError, match="analytic"):
            FourierSymbol({-1: 1.0}).dilate(0.5)

    def test_rejects_large_multiplier(self):
        with pytest.raises(ValueError):
            FourierSymbol({1: 1.0}).dilate(2.0)


class TestNorms:
    def test_two_cos(self):
        phi = FourierSymbol({1: 1.0, -1: 1.0})
        assert math.isclose(phi.l2_norm(), math.sqrt(2))
        assert math.isclose(phi.sup_norm_estimate(256), 2.0, rel_tol=1e-3)

    def test_zero(self):
        assert FourierSymbol().l2_norm() == 0.0
        assert FourierSymbol().sup_norm_estimate(16) == 0.0

    def test_fejer_like_peak(self):
        phi = FourierSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        # oracle: direct dense evaluation of 2 + 2 cos(theta)
        theta = np.linspace(0.0, 2.0 * np.pi, 100001)
        target = np.max(np.abs(2.0 + 2.0 * np.cos(theta)))
        assert math.isclose(target, 4.0, rel_tol=1e-12)
        assert math.isclose(phi.sup_norm_estimate(4096), 4.0, rel_tol=1e-6)

    def test_sup_estimate_is_lower_bound_for_trig_polys(self):
        phi = FourierSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        assert phi.sup_norm_estimate(64) <= 4.0 + 1e-12


class TestSawtooth:
    def test_bandlimit_one(self):
        phi = sawtooth(1)
        assert phi.coefficient(0) == complex(math.pi)
        assert phi.coefficient(1) == 1j
        assert phi.coefficient(-1) == -1j

    def test_hermitian_symmetry(self):
        phi = sawtooth(9)
        for n in range(1, 10):
            assert phi.coefficient(-n) == phi.coefficient(n).conjugate()

    def test_l2_norm_formula(self):
        k = 12
        expected_sq = math.pi**2 + 2.0 * sum(1.0 / n**2 for n in range(1, k + 1))
        assert math.isclose(sawtooth(k).l2_norm() ** 2, expected_sq, rel_tol=1e-12)

    def test_l2_norm_approaches_mean_square_of_ramp(self):
        # Parseval target: (1/2pi) integral of theta^2 = 4 pi^2 / 3
        target, _ = quad(lambda t: t * t, 0.0, 2.0 * math.pi)
        target /= 2.0 * math.pi
        assert abs(sawtooth(200).l2_norm() ** 2 - target) < 0.011

    def test_rejects_zero_bandlimit(self):
        with pytest.raises(ValueError):
            sawtooth(0)


class TestJsonFormat:
    def test_roundtrip(self, tmp_path):
        phi = FourierSymbol({-2: 1j, 0: math.pi, 5: -0.25})
        path = tmp_path / "sym.json"
        write_symbol_file(phi, path)
        assert read_symbol_file(path) == phi

    def test_written_sorted_by_index(self, tmp_path):
        phi = FourierSymbol({3: 1.0, -1: 2.0, 0: 3.0})
        data = phi.to_json_dict()
        assert [e["n"] for e in data["coefficients"]] == [-1, 0, 3]

    def test_write_is_deterministic(self, tmp_path):
        phi = FourierSymbol({-1: 1 / 3, 2: math.sqrt(2)})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_symbol_file(phi, a)
        write_symbol_file(phi, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            FourierSymbol.from_json_dict({"coefficients": [{"re": 1.0}]})


def test_is_unimodular_tolerance():
    assert is_unimodular(cmath.exp(1j * math.pi / 3))
    assert not is_unimodular(0.5)
    assert not is_unimodular(1.0 + 1e-6)

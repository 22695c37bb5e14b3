import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    read_symbol_file,
    sawtooth,
    top_singular_value,
    write_symbol_file,
)
from ltoeplitz.symbol import is_unimodular

from conftest import symbols, unimodular_lambdas


def ramp_coefficient_oracle(n):
    """(1/2pi) integral of theta e^{-i n theta} over [0, 2pi), by adaptive quadrature."""
    re, _ = quad(lambda t: t * math.cos(n * t), 0.0, 2.0 * math.pi, limit=200)
    im, _ = quad(lambda t: -t * math.sin(n * t), 0.0, 2.0 * math.pi, limit=200)
    return complex(re, im) / (2.0 * math.pi)


class TestFromCoefficients:
    """The constructor: a mapping of integer indices to finite values."""

    def test_constant(self):
        phi = FourierSymbol({0: 1})
        assert phi.coefficient(0) == 1
        assert phi.support == (0,)

    def test_two_cos(self):
        phi = FourierSymbol({1: 1, -1: 1})
        assert phi.coefficient(1) == 1
        assert phi.coefficient(-1) == 1
        assert phi.coefficient(2) == 0

    def test_empty_is_zero(self):
        phi = FourierSymbol({})
        assert phi.support == ()
        assert phi.l2_norm() == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_l2_norm_squares_neither_underflow_nor_overflow(self, scale):
        phi = FourierSymbol({0: 3.0 * scale, 2: 4.0j * scale})
        assert math.isclose(phi.l2_norm(), 5.0 * scale, rel_tol=1e-15)

    def test_zero_values_dropped(self):
        phi = FourierSymbol({3: 0.0, 1: 2.0})
        assert phi.support == (1,)

    def test_numpy_integer_index(self):
        phi = FourierSymbol({np.int64(3): 1.0, np.int32(-2): 2.0})
        assert phi.support == (-2, 3)
        assert all(type(n) is int for n in phi.support)
        assert phi == FourierSymbol({3: 1.0, -2: 2.0})

    @pytest.mark.parametrize(
        "coefficients, message",
        [({1: complex(math.nan, 0.0)}, "coefficient a_1 = (nan+0j) is not finite"),
         ({0: complex(0.0, -math.inf)}, "coefficient a_0 = -infj is not finite"),
         # the two symbols svd_study once refused at N=256, now refused here
         ({0: 1.0, 1: np.nan}, "coefficient a_1 = (nan+0j) is not finite"),
         ({0: 1.0, 1: np.inf}, "coefficient a_1 = (inf+0j) is not finite"),
         ({1.5: 1.0}, "coefficient index 1.5 is not an integer"),
         ({0: 1.0, "2": 1.0}, "coefficient index '2' is not an integer")],
        ids=["nan-re", "inf-im", "nan-after-finite", "inf-after-finite", "float-index",
             "string-index"],
    )
    def test_bad_coefficient_names_its_index(self, coefficients, message):
        with pytest.raises(ValueError) as info:
            FourierSymbol(coefficients)
        assert str(info.value) == message


class TestFromSamples:
    """Coefficients from grid samples by a discrete Fourier transform, the
    inverse of ``evaluate_on_grid``: a_n = (1/M) sum_k f(theta_k) e^{-i n theta_k}."""

    @staticmethod
    def coefficients(samples, bandlimit):
        spectrum = np.fft.fft(np.asarray(samples, dtype=complex)) / len(samples)
        return {n: spectrum[n % len(samples)] for n in range(-bandlimit, bandlimit + 1)}

    def test_single_mode(self):
        theta = 2.0 * np.pi * np.arange(8) / 8
        values = FourierSymbol({1: 1.0}).evaluate_on_grid(8)
        assert np.max(np.abs(values - np.exp(1j * theta))) < 1e-15
        coeffs = self.coefficients(values, bandlimit=2)
        assert abs(coeffs[1] - 1.0) < 1e-12
        for n in (-2, -1, 0, 2):
            assert abs(coeffs[n]) < 1e-12

    def test_constant(self):
        assert np.array_equal(FourierSymbol({0: 3.0}).evaluate_on_grid(8), np.full(8, 3.0 + 0j))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError) as err:
            FourierSymbol({0: 3.0}).evaluate_on_grid(0)
        assert str(err.value) == "grid_size must be >= 1"

    def test_ramp_against_quadrature_oracle(self):
        m = 4096
        theta = 2.0 * np.pi * np.arange(m) / m
        coeffs = self.coefficients(theta, bandlimit=16)
        ramp = sawtooth(16)
        for n in (0, 1, 2, 7, 16):
            oracle = ramp_coefficient_oracle(n)
            assert abs(oracle - ramp.coefficient(n)) < 1e-9
            # discrete coefficients of the jump carry O(1/M) quadrature error
            assert abs(coeffs[n] - oracle) < 2e-3

    @given(symbols(max_index=5))
    def test_roundtrip_on_trig_polynomials(self, phi):
        m = 11
        recovered = self.coefficients(phi.evaluate_on_grid(m), bandlimit=5)
        for n in range(-5, 6):
            assert abs(recovered[n] - phi.coefficient(n)) < 1e-9

    @given(st.lists(st.floats(-3, 3), min_size=9, max_size=9))
    def test_real_samples_hermitian(self, values):
        coeffs = self.coefficients(values, bandlimit=4)
        for n in range(1, 5):
            assert abs(coeffs[-n] - coeffs[n].conjugate()) < 1e-12
        # a Hermitian symbol evaluates to its real samples
        back = FourierSymbol(coeffs).evaluate_on_grid(9)
        assert np.max(np.abs(back - np.asarray(values))) < 1e-12


class TestProjections:
    def test_two_cos_split(self):
        phi = FourierSymbol({1: 1, -1: 1})
        assert phi.analytic_part().support == (1,)
        assert phi.coanalytic_part().support == (-1,)

    def test_analytic_symbol_has_no_coanalytic_part(self):
        phi = FourierSymbol({0: 2, 3: 1j})
        assert phi.coanalytic_part() == FourierSymbol()

    @given(symbols())
    def test_partition_reconstructs(self, phi):
        plus, minus = dict(phi.analytic_part().items()), dict(phi.coanalytic_part().items())
        assert not plus.keys() & minus.keys()
        assert FourierSymbol({**plus, **minus}) == phi

    @given(symbols())
    def test_parseval_split(self, phi):
        total = phi.l2_norm() ** 2
        parts = phi.analytic_part().l2_norm() ** 2 + phi.coanalytic_part().l2_norm() ** 2
        assert math.isclose(total, parts, rel_tol=1e-12, abs_tol=1e-15)


class TestConjugateFlip:
    """``conjugate`` of a coanalytic symbol: the analytic symbol b_n = conj(a_{-n})
    that the wco-sum check builds."""

    def test_single_coefficient(self):
        phi = FourierSymbol({-1: 1j})
        assert phi.conjugate().coefficient(1) == -1j

    def test_zero(self):
        assert FourierSymbol().conjugate() == FourierSymbol()

    @given(symbols(max_terms=4))
    def test_involution_with_index_negation(self, phi):
        minus = phi.coanalytic_part()

        def negate(sym):
            return FourierSymbol({-n: v for n, v in sym.items()})

        assert negate(negate(minus.conjugate()).conjugate()) == minus


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

    @pytest.mark.parametrize(
        "phi, lam, n",
        [(FourierSymbol({-1: 1.0, 1: 1.5e308 + 1.5e308j}), cmath.exp(0.25j * math.pi), 1),
         # 1 + 5e-13 lies on the circle up to UNIT_CIRCLE_TOL; its 10^20-th power does not
         (FourierSymbol({0: 1.0, 10**20: 1.0}), 1.0 + 5e-13, 10**20)],
        ids=["product", "power"],
    )
    def test_twist_plus_names_an_overflowing_coefficient(self, phi, lam, n):
        with pytest.raises(ValueError) as exc:
            phi.twist_plus(lam)
        assert str(exc.value) == f"twist_plus: conj(lambda)**{n} * a_{n} overflows at lambda={lam!r}"

    @given(symbols(), unimodular_lambdas)
    def test_twist_plus_unimodular_preserves_l2(self, phi, lam):
        assert math.isclose(
            phi.twist_plus(lam).l2_norm(), phi.l2_norm(), rel_tol=1e-12, abs_tol=1e-15
        )


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

    def test_subnormal_symbol_estimate_bounds_sigma_1(self):
        # ||T_N|| <= sup |phi|; folded unscaled, the subnormal sums lose
        # their digits and the estimate, 4.047e-320, falls below sigma_1(64)
        phi = FourierSymbol({0: 3e-320, 1: complex(1e-320, 2e-321), -1: 5e-321})
        estimate = phi.sup_norm_estimate(64)
        assert estimate >= top_singular_value(LambdaToeplitzSpec(1.0, phi), 64)
        scaled = FourierSymbol({n: complex(math.ldexp(a.real, 1070), math.ldexp(a.imag, 1070))
                                for n, a in phi.items()})
        assert abs(estimate - math.ldexp(scaled.sup_norm_estimate(64), -1070)) <= 5e-324

    def test_overflowing_values_are_inf(self):
        # 3e308 at theta = 0 and -1e308 at theta = pi; no numpy warning
        # arises, which this suite's filters would turn into an error
        values = FourierSymbol({-1: 1e308, 0: 1e308, 1: 1e308}).evaluate_on_grid(2)
        assert values[0].real == math.inf
        assert values[1].real == -1e308

    @given(symbols(max_index=6), st.integers(-1000, 1000), st.integers(1, 20))
    # the real part at 2pi/3 is -2^-1075, which rounds to -0.0; times 2^52 it
    # is -2^-1023, a subnormal the scaled symbol gives exactly
    @example(FourierSymbol({1: 5e-324}), 52, 3)
    def test_evaluate_on_grid_commutes_with_powers_of_two(self, phi, k, m):
        # exact while every part of 2^k phi and each compared value is normal
        # or 0 on both sides; both symbols are stored in one order, since the
        # fold sums in it. A value that underflowed to 0 only bounds the scaled
        # one: it lies below tiny before the scaling, so below 2^k tiny after.
        phi, tiny = FourierSymbol(dict(phi.items())), np.finfo(float).tiny
        parts = [x for _, a in phi.items() for x in (a.real, a.imag) if x != 0.0]
        assume(all(abs(math.ldexp(x, k)) >= tiny for x in parts))
        scaled = FourierSymbol({n: complex(math.ldexp(a.real, k), math.ldexp(a.imag, k))
                                for n, a in phi.items()})
        values = phi.evaluate_on_grid(m).view(float)
        got, want = scaled.evaluate_on_grid(m).view(float), np.ldexp(values, k)
        zero = values == 0.0
        exact = (zero & (got == 0.0)) | ((np.abs(values) >= tiny) & (np.abs(want) >= tiny))
        assert np.array_equal(got[exact], want[exact])
        assert np.all(np.abs(got[zero & (got != 0.0)]) < math.ldexp(tiny, k))


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

    def test_one_walk_keeps_the_constructor_semantics(self):
        entries = [{"n": 4, "re": 0.5}, {"n": -3, "im": -2.0}, {"n": 0, "re": 0.0, "im": -0.0},
                   {"n": 7, "re": 1, "im": 2}]
        phi = FourierSymbol.from_json_dict({"coefficients": entries})
        pairs = [(e["n"], complex(e.get("re", 0.0), e.get("im", 0.0))) for e in entries]
        assert phi == FourierSymbol(dict(pairs))
        assert phi.support == (-3, 4, 7)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({}, "bad symbol JSON: field 'coefficients' must be a list of objects"),
            ({"coefficients": [{"n": 0}, {"re": 1.0}]},
             "bad symbol JSON: field 'n' of coefficients[1] is missing"),
            ({"coefficients": [{"n": 0, "re": "x"}]},
             'bad symbol JSON: field \'re\' of coefficient n=0 must be a JSON number, not "x"'),
            ({"coefficients": [{"n": 0, "re": 1.0}, {"n": 2, "re": math.nan}]},
             "bad symbol JSON: field 're' of coefficient n=2 is not finite (nan)"),
            ({"coefficients": [{"n": 1, "re": 1.0, "im": -math.inf}]},
             "bad symbol JSON: field 'im' of coefficient n=1 is not finite (-inf)"),
            ({"coefficients": [{"n": 1, "re": 1.0}, {"n": 2}, {"n": 1, "im": 3.0}]},
             "duplicate coefficient index 1"),
            # a zero value is dropped, but its index still counts
            ({"coefficients": [{"n": 1, "re": 0.0}, {"n": 1, "re": 2.0}]},
             "duplicate coefficient index 1"),
            # an index is a JSON integer: not a float, even a whole one, nor a bool
            ({"coefficients": [{"n": 1.5, "re": 1.0}]},
             "bad symbol JSON: field 'n' of coefficients[0] must be a JSON integer, not 1.5"),
            ({"coefficients": [{"n": 0, "re": 1.0}, {"n": 7.0}]},
             "bad symbol JSON: field 'n' of coefficients[1] must be a JSON integer, not 7.0"),
            ({"coefficients": [{"n": True, "re": 1.0}]},
             "bad symbol JSON: field 'n' of coefficients[0] must be a JSON integer, not true"),
            ({"coefficients": [{"n": "2", "re": 1.0}]},
             'bad symbol JSON: field \'n\' of coefficients[0] must be a JSON integer, not "2"'),
            ({"coefficients": [{"n": None}]},
             "bad symbol JSON: field 'n' of coefficients[0] must be a JSON integer, not null"),
            # a value is a JSON number: not a string, nor a bool
            ({"coefficients": [{"n": 2, "re": "1e0"}]},
             'bad symbol JSON: field \'re\' of coefficient n=2 must be a JSON number, not "1e0"'),
            ({"coefficients": [{"n": 2, "re": 1.0, "im": False}]},
             "bad symbol JSON: field 'im' of coefficient n=2 must be a JSON number, not false"),
            ({"coefficients": [{"n": 0, "re": 10**400}]},
             "bad symbol JSON: field 're' of coefficient n=0 lies outside the float range"),
            # the structure around the entries
            ({"coefficients": {"0": {"re": 1.0}}},
             "bad symbol JSON: field 'coefficients' must be a list of objects"),
            ({"coefficients": [{"n": 0, "re": 1.0}, [1, 1.0]]},
             "bad symbol JSON: coefficients[1] must be an object"),
            # a misspelt field would otherwise read as a zero coefficient
            ({"coefficients": [{"n": 0, "re": 1.0}, {"n": 1, "real": 2.0}]},
             "bad symbol JSON: coefficients[1] has unknown field 'real'; "
             "an entry holds only 'n', 're' and 'im'"),
            ({"coefficients": [{"n": 0, "re": 1.0, "im": 0.0, "Im": 1.0}]},
             "bad symbol JSON: coefficients[0] has unknown field 'Im'; "
             "an entry holds only 'n', 're' and 'im'"),
            ([{"n": 0, "re": 1.0}],
             "bad symbol JSON: field 'coefficients' must be a list of objects"),
        ],
        ids=["no-coefficients", "no-index", "bad-float", "nan-re", "inf-im", "duplicate",
             "duplicate-of-zero", "float-index", "whole-float-index", "bool-index",
             "string-index", "null-index", "string-value", "bool-value", "huge-int-value",
             "coefficients-object", "entry-list", "unknown-field", "unknown-field-with-all-three",
             "top-level-list"],
    )
    def test_each_fault_keeps_its_message(self, data, message):
        with pytest.raises(ValueError) as info:
            FourierSymbol.from_json_dict(data)
        assert str(info.value) == message


def test_is_unimodular_tolerance():
    assert is_unimodular(cmath.exp(1j * math.pi / 3))
    assert not is_unimodular(0.5)
    assert not is_unimodular(1.0 + 1e-6)

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
    WeightedCompositionSpec,
    build_diag_unitary,
    build_toeplitz,
    build_weighted_comp,
    entry,
    kernel_hs_norm,
    powers,
    quadrature_apply,
    truncate,
    verify_toeplitz_comp_factorization,
    verify_unitary_factorization,
    verify_wco_sum,
    wco_hs_norm_closed_form,
    wco_spectrum_check,
)

from conftest import (
    disc_lambdas,
    peak_traced_mb,
    random_spec,
    random_symbol,
    symbols,
    unimodular_lambdas,
)

RNG = np.random.default_rng(4321)


class TestDiagUnitary:
    def test_identity_at_one(self):
        assert np.array_equal(build_diag_unitary(1.0, 5).entries, np.eye(5))

    def test_powers_of_i(self):
        got = np.diagonal(build_diag_unitary(1j, 4).entries)
        assert np.array_equal(got, np.array([1, 1j, -1, -1j]))

    def test_unitarity_on_circle(self):
        for phase in (0.3, 1.7, 4.0):
            u = build_diag_unitary(cmath.exp(1j * phase), 32).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-14

    def test_rejects_lambda_outside_disc(self):
        with pytest.raises(ValueError, match="disc"):
            build_diag_unitary(2.0, 3)

    def test_rejects_empty_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            build_diag_unitary(0.5, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: build_diag_unitary(0.5, n),
        lambda n: build_toeplitz(FourierSymbol({1: 1.0}), n),
        lambda n: build_weighted_comp(WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.5), n),
    ],
    ids=["diag-unitary", "toeplitz", "weighted-comp"],
)
def test_builders_are_charged_against_the_budget(monkeypatch, build):
    monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
    assert build(256).size == 256
    with pytest.raises(MemoryBudgetExceeded, match=r"N=257 .* allows N <= 256"):
        build(257)


class TestBuildToeplitz:
    def test_constant_symbol_gives_identity(self):
        assert np.array_equal(build_toeplitz(FourierSymbol({0: 1.0}), 4).entries, np.eye(4))

    def test_shift_matrix(self):
        t = build_toeplitz(FourierSymbol({1: 1.0}), 4).entries
        assert np.array_equal(t, np.diag(np.ones(3), -1))

    def test_matches_unit_lambda_truncation(self):
        phi = random_symbol(RNG)
        lhs = build_toeplitz(phi, 10).entries
        rhs = truncate(LambdaToeplitzSpec(1.0, phi), 10).entries
        assert np.max(np.abs(lhs - rhs)) == 0.0


class TestBuildWeightedComp:
    def test_weightless_case_is_composition_operator(self):
        lam = 0.4 + 0.5j
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), lam)
        got = build_weighted_comp(w, 6).entries
        assert np.array_equal(got, np.diag([lam**m for m in range(6)]))

    def test_monomial_weight(self):
        lam = 0.5 - 0.25j
        w = WeightedCompositionSpec(FourierSymbol({1: 1.0}), lam.conjugate())
        got = build_weighted_comp(w, 5).entries
        expected = np.zeros((5, 5), dtype=complex)
        for m in range(4):
            expected[m + 1, m] = lam.conjugate() ** m
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_zero_multiplier_structure(self):
        psi = FourierSymbol({0: 2.0, 1: 3.0, 4: -1j})
        got = build_weighted_comp(WeightedCompositionSpec(psi, 0.0), 6).entries
        expected = np.zeros((6, 6), dtype=complex)
        expected[:, 0] = [psi.coefficient(n) for n in range(6)]
        assert np.array_equal(got, expected)

    def test_rejects_coanalytic_weight(self):
        with pytest.raises(ValueError, match="analytic"):
            WeightedCompositionSpec(FourierSymbol({-1: 1.0}), 0.5)

    def test_rejects_large_multiplier(self):
        with pytest.raises(ValueError, match="disc"):
            WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.5)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_rejects_non_finite_multiplier(self, bad):
        with pytest.raises(ValueError, match="multiplier"):
            WeightedCompositionSpec(FourierSymbol({0: 1.0}), bad)

    def test_composition_semigroup(self):
        for lam, mu in ((0.5, 0.3j), (0.9, -0.7), (0.2 + 0.1j, 0.4 - 0.4j)):
            one = FourierSymbol({0: 1.0})
            product = (
                build_weighted_comp(WeightedCompositionSpec(one, lam), 8).entries
                @ build_weighted_comp(WeightedCompositionSpec(one, mu), 8).entries
            )
            combined = build_weighted_comp(WeightedCompositionSpec(one, lam * mu), 8).entries
            assert np.max(np.abs(product - combined)) < 1e-12


# Re(lambda) < 0, so a product 0j * lambda^m off the stored bands would give -0.0.
LAM_LEFT = -0.6 + 0.3j
# bands 9 and -8 lie outside every tested N
PHI = FourierSymbol(
    {-8: 1.0, -3: 0.5 - 1j, -1: 2.0, 0: 1.5j, 1: -0.7, 2: 0.25 + 0.5j, 5: 1j, 9: -2.0}
)


def _a(d):
    return PHI.coefficient(d)


BUILDER_CASES = {
    "truncate": (
        lambda n: truncate(LambdaToeplitzSpec(LAM_LEFT, PHI), n),
        lambda i, j: entry(LambdaToeplitzSpec(LAM_LEFT, PHI), i, j),
    ),
    "toeplitz-twist_plus": (
        lambda n: build_toeplitz(PHI.twist_plus(LAM_LEFT), n),
        lambda i, j: LAM_LEFT.conjugate() ** (i - j) * _a(i - j) if i >= j else _a(i - j),
    ),
    "toeplitz-conjugate": (
        lambda n: build_toeplitz(PHI.conjugate(), n),
        lambda i, j: _a(j - i).conjugate(),
    ),
    "toeplitz-conjugate_flip": (
        lambda n: build_toeplitz(PHI.coanalytic_part().conjugate_flip(), n),
        lambda i, j: _a(j - i).conjugate() if i > j else 0j,
    ),
    "wco-analytic": (
        lambda n: build_weighted_comp(WeightedCompositionSpec(PHI.analytic_part(), LAM_LEFT), n),
        lambda i, j: LAM_LEFT**j * _a(i - j) if i >= j else 0j,
    ),
    "wco-flipped": (
        lambda n: build_weighted_comp(
            WeightedCompositionSpec(PHI.coanalytic_part().conjugate_flip(), LAM_LEFT.conjugate()), n
        ),
        lambda i, j: LAM_LEFT.conjugate() ** j * _a(j - i).conjugate() if i > j else 0j,
    ),
}


@pytest.mark.parametrize("size", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(BUILDER_CASES))
def test_builder_matches_scalar_closed_form(case, size):
    """Every builder against a Python loop of coefficient() * power.

    The verify_* checks compare outputs of one band builder with each other,
    so this is what ties that builder to the closed forms.
    """
    build, closed_form = BUILDER_CASES[case]
    got = build(size).entries
    expected = np.array(
        [[closed_form(i, j) for j in range(size)] for i in range(size)], dtype=complex
    )
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    off_band = expected == 0
    assert not np.any(np.signbit(got.real[off_band]) | np.signbit(got.imag[off_band]))


class TestUnitaryFactorization:
    def test_unit_lambda_is_plain_toeplitz(self):
        spec = LambdaToeplitzSpec(1.0, FourierSymbol({1: 2.0, -2: 1j}))
        result = verify_unitary_factorization(spec, 16)
        assert result.passed
        assert result.residual == 0.0

    def test_two_cos_with_lambda_i(self):
        spec = LambdaToeplitzSpec(1j, FourierSymbol({1: 1.0, -1: 1.0}))
        result = verify_unitary_factorization(spec, 64)
        assert result.residual < 1e-13

    def test_entrywise_oracle_small(self):
        # independent reconstruction: lambda^n * twistplus-coefficient vs
        # lambda^min(n,m) * a_{n-m}, evaluated with scalar powers
        lam = cmath.exp(0.9j)
        phi = random_symbol(RNG, max_index=3)
        spec = LambdaToeplitzSpec(lam, phi)
        n_size = 6
        for n in range(n_size):
            for m in range(n_size):
                b = phi.twist_plus(lam).coefficient(n - m)
                lhs = lam**n * b
                rhs = lam ** min(n, m) * phi.coefficient(n - m)
                assert abs(lhs - rhs) < 1e-13
        assert verify_unitary_factorization(spec, n_size).passed

    @pytest.mark.parametrize("phase", [0.0, 0.5, 2.2, 3.9, 5.6])
    def test_random_circle_specs_pass(self, phase):
        spec = LambdaToeplitzSpec(cmath.exp(1j * phase), random_symbol(RNG))
        assert verify_unitary_factorization(spec, 48).passed

    def test_rejects_interior_lambda(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="lambda"):
            verify_unitary_factorization(spec, 8)


class TestWcoSum:
    def test_analytic_symbol_is_single_weighted_comp(self):
        phi = FourierSymbol({0: 1.0, 2: -1j, 5: 0.3})
        lam = 0.6 + 0.2j
        spec = LambdaToeplitzSpec(lam, phi)
        w = build_weighted_comp(WeightedCompositionSpec(phi, lam), 12).entries
        assert np.max(np.abs(truncate(spec, 12).entries - w)) < 1e-15
        assert verify_wco_sum(spec, 12).residual < 1e-15

    def test_single_superdiagonal(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
        result = verify_wco_sum(spec, 8)
        assert result.residual < 1e-15
        entries = truncate(spec, 8).entries
        for n in range(7):
            assert entries[n, n + 1] == 0.5**n

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9j])
    def test_random_symbols_pass(self, lam):
        for _ in range(3):
            spec = LambdaToeplitzSpec(lam, random_symbol(RNG))
            result = verify_wco_sum(spec, 24)
            assert result.passed and result.residual < 1e-14

    @given(symbols(max_terms=4), disc_lambdas)
    @settings(max_examples=30, deadline=None)
    def test_exact_for_all_disc_lambdas(self, phi, lam):
        spec = LambdaToeplitzSpec(lam, phi)
        assert verify_wco_sum(spec, 9).residual < 1e-14


class TestToeplitzCompFactorization:
    def test_analytic_symbol_both_variants_exact(self):
        spec = LambdaToeplitzSpec(0.7, FourierSymbol({0: 1.0, 3: 2.0}))
        stated, corrected = verify_toeplitz_comp_factorization(spec, 10)
        assert stated.residual == 0.0
        assert corrected.residual == 0.0

    def test_counterexample_single_coanalytic_mode(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
        stated, corrected = verify_toeplitz_comp_factorization(spec, 4)
        assert stated.variant == "as-stated"
        assert stated.residual == pytest.approx(0.75, abs=1e-12)
        assert not stated.passed
        assert corrected.variant == "corrected"
        assert corrected.residual < 1e-15
        assert corrected.passed

    def test_random_coanalytic_symbols_corrected_variant(self):
        for _ in range(5):
            phi = random_symbol(RNG, max_index=4)
            spec = LambdaToeplitzSpec(0.6, phi)
            _, corrected = verify_toeplitz_comp_factorization(spec, 12)
            assert corrected.residual < 1e-12

    @pytest.mark.parametrize("lam", [0.5 + 0.1j, 1.0, 0.0, -0.5])
    def test_rejects_lambda_outside_open_real_interval(self, lam):
        spec = LambdaToeplitzSpec(lam, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="real lambda"):
            verify_toeplitz_comp_factorization(spec, 4)


# -- band-wise residuals against the dense formulas -----------------------------


def _dense_max(lhs, rhs) -> float:
    return float(np.max(np.abs(lhs - rhs)))


def dense_unitary_residual(spec, n):
    rhs = build_toeplitz(spec.symbol.twist_plus(spec.lam), n).entries
    return _dense_max(truncate(spec, n).entries, powers(spec.lam, n)[:, np.newaxis] * rhs)


def dense_wco_sum_residual(spec, n):
    lower = build_weighted_comp(WeightedCompositionSpec(spec.symbol.analytic_part(), spec.lam), n)
    flipped = spec.symbol.coanalytic_part().conjugate_flip()
    upper = build_weighted_comp(WeightedCompositionSpec(flipped, spec.lam.conjugate()), n)
    return _dense_max(truncate(spec, n).entries, lower.entries + upper.entries.conj().T)


def dense_toeplitz_comp_residuals(spec, n):
    lam, residuals = spec.lam, []
    for exponent_sign in (-1, +1):
        tilde = {
            k: (lam ** (exponent_sign * k)) * v if k < 0 else v for k, v in spec.symbol.items()
        }
        rhs = build_toeplitz(FourierSymbol(tilde), n).entries * powers(lam, n)[np.newaxis, :]
        residuals.append(_dense_max(truncate(spec, n).entries, rhs))
    return residuals


def dense_spectrum_residual(w, n):
    """Diagonal errors relative to the predicted points, absolute below the normal range."""
    diag = np.diagonal(build_weighted_comp(w, n).entries)
    predicted = powers(w.multiplier, n) * w.weight.coefficient(0)
    magnitude = np.abs(predicted)
    scale = np.where(magnitude >= np.finfo(float).tiny, magnitude, 1.0)
    return float(np.max(np.abs(diag - predicted) / scale))


@given(
    phi=symbols(max_index=45, max_terms=8),
    n=st.integers(1, 40),
    unit=unimodular_lambdas,
    disc=disc_lambdas,
    real=st.floats(0.05, 0.95),
)
# support -45..44 is wider than N = 35, and as-stated lambda^30 * 1e-300
# underflows to 0: band -30 is stored on the left side of toeplitz-comp only,
# and sets that residual, since band 0 matches exactly
@example(
    phi=FourierSymbol({-45: 2.0, -30: 1e-300, 0: 0.5, 44: 3.0}),
    n=35, unit=cmath.exp(0.3j), disc=0.4 - 0.7j, real=0.05,
)
@settings(max_examples=150, deadline=None)
def test_band_residuals_equal_dense_residuals(phi, n, unit, disc, real):
    """Each band-wise residual is the very float the dense N x N formula gives."""
    assert verify_unitary_factorization(LambdaToeplitzSpec(unit, phi), n).residual == (
        dense_unitary_residual(LambdaToeplitzSpec(unit, phi), n)
    )
    assert verify_wco_sum(LambdaToeplitzSpec(disc, phi), n).residual == (
        dense_wco_sum_residual(LambdaToeplitzSpec(disc, phi), n)
    )
    spec = LambdaToeplitzSpec(real, phi)
    got = [r.residual for r in verify_toeplitz_comp_factorization(spec, n)]
    assert got == dense_toeplitz_comp_residuals(spec, n)
    w = WeightedCompositionSpec(phi.analytic_part(), disc)
    assert wco_spectrum_check(w, n).residual == dense_spectrum_residual(w, n)


def test_toeplitz_comp_names_an_overflowing_power():
    spec = LambdaToeplitzSpec(0.01, FourierSymbol({-200: 1.0, 0: 1.0}))
    with pytest.raises(ValueError, match=r"lambda\*\*-200 overflows for coefficient index -200"):
        verify_toeplitz_comp_factorization(spec, 300)
    # band -200 misses the 200 x 200 truncation, so its power is never taken
    assert verify_toeplitz_comp_factorization(spec, 200)[1].passed


def closed_kernel(spec, m):
    """M x M kernel (phi_plus(z_j) + phi_minus(z_k)) / (1 - lambda z_j conj(z_k)).

    Built from direct sums a_n z^n on the grid z_j = e^{2 pi i j / M}, as the
    oracle for the row-blocked kernel functions.
    """
    z = np.exp(2j * np.pi * np.arange(m) / m)
    plus = np.zeros(m, dtype=complex) + sum(a * z**n for n, a in spec.symbol.items() if n >= 0)
    minus = np.zeros(m, dtype=complex) + sum(a * z**n for n, a in spec.symbol.items() if n < 0)
    return (plus[:, None] + minus[None, :]) / (1.0 - spec.lam * np.outer(z, z.conj()))


class TestKernelGrids:
    def test_zero_lambda_kernel_splits(self):
        # at lambda = 0 the kernel is phi_plus(z_j) + phi_minus(z_k), so the
        # rule gives phi_plus * mean(f) + mean(phi_minus * f)
        phi = FourierSymbol({1: 2.0, -1: 3.0, 0: 1.0})
        z = np.exp(2j * np.pi * np.arange(32) / 32)
        f = np.random.default_rng(3).standard_normal(32)
        expected = (1.0 + 2.0 * z) * np.mean(f) + np.mean(3.0 * z.conj() * f)
        applied = quadrature_apply(LambdaToeplitzSpec(0.0, phi), f)
        assert np.max(np.abs(applied - expected)) < 1e-14

    def test_constant_symbol_plugin_values(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0}))
        theta = 2.0 * np.pi * np.arange(16) / 16
        for j, k in ((0, 0), (3, 5), (15, 2)):
            # M e_k picks out column k of the kernel
            column = quadrature_apply(spec, 16.0 * (np.arange(16) == k))
            expected = 1.0 / (1.0 - 0.5 * np.exp(1j * theta[j]) * np.exp(-1j * theta[k]))
            assert abs(column[j] - expected) < 1e-14

    def test_quadrature_apply_matches_naive_columns(self):
        rng = np.random.default_rng(5)
        phi = FourierSymbol(
            {n: complex(rng.standard_normal(), rng.standard_normal())
             for n in (-2, -1, 0, 1, 3)}
        )
        spec = LambdaToeplitzSpec(0.6, phi)
        m_grid = 512
        theta = 2.0 * np.pi * np.arange(m_grid) / m_grid
        for m in (0, 5):
            applied = quadrature_apply(spec, np.exp(1j * m * theta))
            n_col = m + 4  # column support ends at m + max positive index
            column = truncate(spec, n_col + 1).entries[:, m]
            synthesized = sum(
                column[n] * np.exp(1j * n * theta) for n in range(n_col + 1)
            )
            assert np.max(np.abs(applied - synthesized)) < 1e-8

    @pytest.mark.parametrize("grid_size", [1, 127, 129, 300])
    def test_blocked_apply_matches_full_kernel(self, grid_size):
        # 127, 129 and 300 leave a partial last block of rows
        rng = np.random.default_rng(grid_size)
        spec = LambdaToeplitzSpec(0.7 * cmath.exp(-1.1j), random_symbol(rng))
        f = rng.standard_normal(grid_size) + 1j * rng.standard_normal(grid_size)
        expected = closed_kernel(spec, grid_size) @ f / grid_size
        applied = quadrature_apply(spec, f)
        assert applied.shape == (grid_size,)
        assert np.max(np.abs(applied - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_apply_memory_grows_like_m(self):
        # a 4096 x 4096 complex kernel would need 256 MiB
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0, -1: 1.0}))
        applied, peak = peak_traced_mb(quadrature_apply, spec, np.ones(4096))
        # the operator of (lambda, 1 + conj(z)) maps 1 to 1; the rule adds
        # only aliased terms of order lambda^(M-1)
        assert np.max(np.abs(applied - 1.0)) < 1e-12
        # about three 128-row blocks of 8 MiB live at once
        assert peak < 32.0

    def test_rejects_boundary_lambda(self):
        spec = LambdaToeplitzSpec(1.0, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="lambda"):
            quadrature_apply(spec, np.ones(8))

    def test_wco_kernel_rejects_boundary_multiplier(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.0)
        with pytest.raises(ValueError, match="multiplier"):
            kernel_hs_norm(w, 8)

    def test_rejects_empty_samples(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="M must be >= 1"):
            quadrature_apply(spec, [])


class TestKernelHsNorm:
    def test_identity_weight_no_composition(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.0)
        assert kernel_hs_norm(w, 64) == pytest.approx(1.0, abs=1e-14)

    def test_half_multiplier_closed_form(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.5)
        target = math.sqrt(4.0 / 3.0)
        assert abs(kernel_hs_norm(w, 1024) - target) < 1e-9
        # Frobenius oracle: diag((1/2)^m) has squared norm sum 4^-m
        frob = math.sqrt(sum(0.25**m for m in range(512)))
        assert abs(frob - target) < 1e-12

    def test_three_way_agreement(self):
        for _ in range(2):
            psi = random_symbol(RNG, analytic=True)
            w = WeightedCompositionSpec(psi, 0.8)
            closed = wco_hs_norm_closed_form(w)
            quadrature = kernel_hs_norm(w, 1024)
            frob = float(np.linalg.norm(build_weighted_comp(w, 512).entries))
            assert abs(quadrature - closed) < 1e-6
            assert abs(frob - closed) < 1e-6

    def test_frobenius_monotone_to_kernel_value(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0, 2: 0.5}), 0.5)
        closed = wco_hs_norm_closed_form(w)
        norms = [
            float(np.linalg.norm(build_weighted_comp(w, n).entries))
            for n in (8, 16, 32, 64)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= closed + 1e-12
        assert abs(norms[-1] - closed) < 1e-12

    @pytest.mark.parametrize("grid_size", [1, 7, 64, 127, 129, 300, 1000])
    def test_blocked_sum_matches_full_grid(self, grid_size):
        # the kernel of W(psi, c) for tau(z) = c z is psi(z_j) / (1 - c z_j conj(z_k))
        rng = np.random.default_rng(grid_size)
        w = WeightedCompositionSpec(random_symbol(rng, analytic=True), 0.7 * cmath.exp(0.3j))
        z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
        psi = sum(a * z**n for n, a in w.weight.items())
        kernel = psi[:, None] / (1.0 - w.multiplier * np.outer(z, z.conj()))
        full = math.sqrt(np.mean(np.abs(kernel) ** 2))
        assert kernel_hs_norm(w, grid_size) == pytest.approx(full, rel=1e-13, abs=0.0)

    def test_rejects_empty_grid(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.5)
        with pytest.raises(ValueError, match="M must be >= 1"):
            kernel_hs_norm(w, 0)

    def test_closed_form_rejects_boundary(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.0)
        with pytest.raises(ValueError):
            wco_hs_norm_closed_form(w)


class TestFrobeniusInvariance:
    def test_unimodular_twist_preserves_frobenius(self):
        for phase in (0.9, 2.5):
            lam = cmath.exp(1j * phase)
            phi = random_symbol(RNG)
            spec = LambdaToeplitzSpec(lam, phi)
            lhs = float(np.linalg.norm(truncate(spec, 20).entries))
            rhs = float(np.linalg.norm(build_toeplitz(phi.twist_plus(lam), 20).entries))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_verification_result_json_schema():
    spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
    result = verify_wco_sum(spec, 4)
    data = result.to_json_dict()
    assert set(data) == {"identity", "N", "residual", "tolerance", "pass", "variant"}
    assert data["pass"] is True
    assert data["variant"] is None

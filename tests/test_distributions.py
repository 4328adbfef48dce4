import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate
from scipy.linalg import solve_triangular
from scipy.stats import invgauss, ks_2samp

from bowl.distributions import (
    MvnParams,
    _all_true,
    _gig_half_draw_vec,
    _invgauss_draw,
    cholesky,
    inv,
    sample_mvn,
    solve,
)
from bowl.rng import substream

N = 100_000


def log_density_gig_half(x: float, psi: float, chi: float) -> float:
    """Log density of GIG(1/2, psi, chi) at x, including normalization.

    The density is proportional to x^{-1/2} exp{-(chi/x + psi*x)/2} on x > 0,
    with C(1/2, psi, chi) = (psi/chi)^{1/4} / (2 K_{1/2}(sqrt(psi*chi))) and
    the half-order Bessel function in closed form,
    K_{1/2}(z) = sqrt(pi/(2z)) exp(-z).
    """
    if not (x > 0):
        raise ValueError(f"x must be positive, got {x}")
    if not (psi > 0):
        raise ValueError(f"psi must be positive, got {psi}")
    if not (chi > 0):
        raise ValueError("log density requires chi > 0")
    z = math.sqrt(psi * chi)
    log_k_half = 0.5 * (math.log(math.pi) - math.log(2.0) - math.log(z)) - z
    log_c = 0.25 * math.log(psi / chi) - math.log(2.0) - log_k_half
    return log_c - 0.5 * math.log(x) - 0.5 * (chi / x + psi * x)


def ig_density(x, mu, lam):
    return np.sqrt(lam / (2.0 * np.pi * x**3)) * np.exp(-lam * (x - mu) ** 2 / (2.0 * mu**2 * x))


def rejection_sample_ig(mu, lam, size, rng):
    """Independent oracle: uniform-envelope rejection on a truncated domain.

    The truncation point is far enough out that the discarded tail mass is
    below 1e-8, negligible at the KS tolerances used here.
    """
    hi = mu + 50.0 * max(mu, mu**2) / lam + 20.0 * math.sqrt(mu**3 / lam)
    grid = np.linspace(1e-9, hi, 200_001)
    dens = ig_density(grid, mu, lam)
    bound = 1.001 * dens.max()
    assert dens[-1] * hi < 1e-8, "truncation point too close"
    out = np.empty(size)
    filled = 0
    while filled < size:
        m = max(4 * (size - filled) * int(bound * hi + 1), 10_000)
        x = rng.uniform(1e-12, hi, size=m)
        keep = x[rng.uniform(0, bound, size=m) < ig_density(x, mu, lam)]
        take = min(keep.size, size - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


class TestInverseGaussian:
    def test_mean_matches_formula(self):
        rng = substream(1)
        draws = _invgauss_draw(np.full(N, 2.0), rng)
        se = math.sqrt(2.0**3 / 1.0 / N)
        assert abs(draws.mean() - 2.0) < 3 * se

    def test_variance_matches_formula(self):
        rng = substream(2)
        draws = _invgauss_draw(np.full(N, 0.5), rng)
        assert abs(draws.var() - 0.125) < 0.1 * 0.125

    def test_matches_rejection_oracle(self):
        rng = substream(4)
        ours = _invgauss_draw(np.full(50_000, 2.0), rng)
        oracle = rejection_sample_ig(2.0, 1.0, 50_000, substream(5))
        assert ks_2samp(ours, oracle).statistic < 0.02

    def test_scalar_api_and_validation(self):
        # A 0-d mean gives one draw; the lambda draws reach the sampler through
        # _gig_half_draw_vec, which validates (through chi) the IG mean sqrt(1/chi).
        x = _invgauss_draw(np.float64(2.0), substream(6))
        assert x.shape == () and x > 0
        with pytest.raises(ValueError, match="chi"):
            _gig_half_draw_vec(np.array([1.0, -1.0]), substream(6))


class TestGigHalf:
    def test_chi_zero_is_chisquare_one(self):
        # Gamma(1/2, rate 1/2) has mean 1 and variance 2.
        rng = substream(10)
        draws = _gig_half_draw_vec(np.zeros(N), rng)
        assert abs(draws.mean() - 1.0) < 3 * math.sqrt(2.0 / N)

    def test_reciprocal_mean_chi_four(self):
        rng = substream(11)
        draws = _gig_half_draw_vec(np.full(N, 4.0), rng)
        se = math.sqrt(4.0**-1.5 / N)
        assert abs((1.0 / draws).mean() - 0.5) < 3 * se

    def test_reciprocal_mean_chi_one(self):
        rng = substream(12)
        draws = _gig_half_draw_vec(np.full(N, 1.0), rng)
        assert abs((1.0 / draws).mean() - 1.0) < 3 * math.sqrt(1.0 / N)

    @pytest.mark.parametrize("chi", [0.5, 2.0])
    def test_reciprocal_identity_ks(self, chi):
        # 1/GIG(1/2, 1, chi) should be IG(1/sqrt(chi), 1); scipy provides
        # the independent comparison stream.
        rng = substream(13)
        recip = 1.0 / _gig_half_draw_vec(np.full(N, chi), rng)
        oracle = invgauss.rvs(chi**-0.5, scale=1.0, size=N, random_state=np.random.default_rng(77))
        assert ks_2samp(recip, oracle).statistic < 0.02

    def test_tiny_chi_clamps_to_degenerate_branch(self):
        rng_a, rng_b = substream(15), substream(15)
        a = _gig_half_draw_vec(np.full(100, 1e-13), rng_a)
        b = _gig_half_draw_vec(np.zeros(100), rng_b)
        np.testing.assert_array_equal(a, b)

    def test_scalar_api_and_validation(self):
        x = _gig_half_draw_vec(np.array([4.0]), substream(16))
        assert x.shape == (1,) and x[0] > 0
        with pytest.raises(ValueError, match="chi"):
            _gig_half_draw_vec(np.array([1.0, -0.1]), substream(16))


class TestGigHalfLogDensity:
    @pytest.mark.parametrize("psi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("chi", [0.5, 1.0, 2.0])
    def test_normalizes_to_one(self, psi, chi):
        total, _ = integrate.quad(
            lambda x: math.exp(log_density_gig_half(x, psi, chi)), 0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-6

    def test_mode_location(self):
        # Stationarity: d/dx log density flips sign at (-1/2 + sqrt(1/4 + psi chi)) / psi.
        psi, chi = 1.0, 4.0
        x_star = (-0.5 + math.sqrt(0.25 + psi * chi)) / psi
        h = 1e-5

        def f(x):
            return log_density_gig_half(x, psi, chi)

        left = f(x_star - h) - f(x_star - 2 * h)
        right = f(x_star + 2 * h) - f(x_star + h)
        assert left > 0 > right

    def test_value_matches_quadrature_normalized_kernel(self):
        kernel = lambda x: x**-0.5 * math.exp(-0.5 * (1.0 / x + x))
        z, _ = integrate.quad(kernel, 0, np.inf, limit=200)
        expected = math.log(kernel(1.0) / z)
        assert log_density_gig_half(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            log_density_gig_half(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_density_gig_half(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            log_density_gig_half(1.0, 1.0, -0.1)
        for psi in (0.0, -1.0):
            with pytest.raises(ValueError, match="psi"):
                log_density_gig_half(1.0, psi, 1.0)


class TestMvn:
    def test_identity_precision(self):
        params = MvnParams(np.zeros(3), np.eye(3))
        rng = substream(20)
        draws = np.array([sample_mvn(params, rng) for _ in range(N // 2)])
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - np.eye(3)) < 0.02)

    def test_diagonal_precision_variances(self):
        params = MvnParams(np.array([1.0, 2.0]), np.diag([4.0, 1.0]))
        rng = substream(21)
        draws = np.array([sample_mvn(params, rng) for _ in range(N // 2)])
        for j, target in enumerate((0.25, 1.0)):
            assert abs(draws[:, j].var() - target) < 0.05 * target
        assert np.allclose(draws.mean(axis=0), [1.0, 2.0], atol=0.02)

    def test_offdiagonal_matches_closed_form_inverse(self):
        prec = np.array([[1.0, 0.5], [0.5, 1.0]])
        # inv([[a, b], [b, a]]) = [[a, -b], [-b, a]] / (a^2 - b^2)
        target = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
        params = MvnParams(np.zeros(2), prec)
        rng = substream(22)
        draws = np.array([sample_mvn(params, rng) for _ in range(N // 2)])
        assert np.all(np.abs(np.cov(draws.T) - target) < 0.05)

    def test_non_pd_precision_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            MvnParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_precision_rejected(self):
        with pytest.raises(ValueError):
            MvnParams(np.zeros(2), np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_symmetry_check_agrees_with_allclose(self):
        def accepted(precision):
            try:
                MvnParams(np.zeros(len(precision)), precision)
            except np.linalg.LinAlgError:  # a ValueError subclass, raised after the check
                pass
            except ValueError as exc:
                assert "symmetric" in str(exc)
                return False
            return True

        # Mirror entries pushed to within a few ulps of allclose's tolerance,
        # atol + rtol * |b| with b the transposed entry, on either side.
        rng = substream(23)
        outcomes = []
        for _ in range(400):
            a = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-9, 4)
            precision = a @ a.T + np.eye(4)
            i, j = rng.choice(4, size=2, replace=False)
            b = precision[j, i]
            edge = (1e-8 + 1e-5 * abs(b)) * (1.0 + int(rng.integers(-6, 7)) * 2.0**-52)
            precision[i, j] = b + rng.choice([-1.0, 1.0]) * edge
            outcomes.append(accepted(precision))
            assert outcomes[-1] == np.allclose(precision, precision.T)
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize(
        "i, j, value, mirror",
        [(0, 0, np.inf, np.inf), (0, 1, np.inf, np.inf), (0, 1, np.inf, -np.inf),
         (0, 1, np.nan, np.nan), (0, 1, 1.0, np.inf)],
    )
    def test_nonfinite_precision_rejected(self, i, j, value, mirror):
        # Symmetric inf entries pass np.allclose; they must fail here, with no warning.
        precision = np.eye(2)
        precision[i, j], precision[j, i] = value, mirror
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                MvnParams(np.zeros(2), precision)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_mean_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            MvnParams(np.array([0.0, value]), np.eye(2))

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-6, 6))
    def test_draw_bit_identical_to_solve_triangular(self, p, seed, log_scale):
        rng = substream(seed)
        a = rng.standard_normal((p, p)) * 10.0**log_scale
        params = MvnParams(rng.standard_normal(p), a @ a.T + 1e-3 * np.eye(p))
        draw = sample_mvn(params, substream(seed, 1))
        z = substream(seed, 1).standard_normal(p)
        reference = params.mean + solve_triangular(params.chol_lower, z, trans="T", lower=True)
        np.testing.assert_array_equal(draw, reference)

    @settings(max_examples=500, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-6, 6),
           log_spread=st.integers(0, 4))
    def test_solve_bit_identical_to_solve_triangular(self, p, seed, log_scale, log_spread):
        """The noise solve L^{-T} z, on SPD precisions with columns scaled apart by up to 10^log_spread."""
        rng = substream(seed)
        scale = 10.0 ** (log_scale + rng.uniform(-log_spread, log_spread, p))
        a = rng.standard_normal((p, p)) * scale
        params = MvnParams(np.zeros(p), a @ a.T + 1e-3 * np.diag(scale**2))
        z = substream(seed, 1).standard_normal(p)
        reference = solve_triangular(params.chol_lower, z, lower=True, trans="T")
        assert solve(params.chol_lower.T, z).tobytes() == reference.tobytes()
        np.testing.assert_array_equal(sample_mvn(params, substream(seed, 1)), reference)

    def test_singular_factor_raises_linalg_error(self):
        params = MvnParams(np.zeros(3), np.eye(3))
        params.chol_lower = params.chol_lower.copy()
        params.chol_lower[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            sample_mvn(params, substream(24))

    def test_nonfinite_factor_or_noise_raises(self):
        params = MvnParams(np.zeros(3), np.eye(3))
        params.chol_lower = params.chol_lower.copy()
        params.chol_lower[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sample_mvn(params, substream(25))

        class InfNoise:
            def standard_normal(self, size):
                return np.array([0.0, np.inf, 0.0])[:size]

        with pytest.raises(ValueError, match="finite"):
            sample_mvn(MvnParams(np.zeros(3), np.eye(3)), InfNoise())


class TestLinalgHelpers:
    """`cholesky`, `solve`, `inv` and `_all_true` are np.linalg.cholesky, solve, inv and ndarray.all."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-6, 6))
    def test_bit_identical_to_numpy(self, p, seed, log_scale):
        rng = substream(seed)
        a = rng.standard_normal((p, p)) * 10.0**log_scale
        spd = a @ a.T + 1e-3 * np.eye(p)
        general, b = rng.standard_normal((p, p)), rng.standard_normal(p)
        np.testing.assert_array_equal(cholesky(spd), np.linalg.cholesky(spd))
        np.testing.assert_array_equal(solve(spd, b), np.linalg.solve(spd, b))
        np.testing.assert_array_equal(solve(general, b), np.linalg.solve(general, b))
        np.testing.assert_array_equal(inv(spd), np.linalg.inv(spd))
        np.testing.assert_array_equal(inv(general), np.linalg.inv(general))

    @pytest.mark.parametrize("ours, numpys, operands, message", [
        (cholesky, np.linalg.cholesky, (np.array([[1.0, 2.0], [2.0, 1.0]]),), "Matrix is not positive definite"),
        (cholesky, np.linalg.cholesky, (-np.eye(3),), "Matrix is not positive definite"),
        (solve, np.linalg.solve, (np.zeros((2, 2)), np.ones(2)), "Singular matrix"),
        (solve, np.linalg.solve, (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)), "Singular matrix"),
        (inv, np.linalg.inv, (np.zeros((3, 3)),), "Singular matrix"),
    ])
    def test_failure_is_numpys_error_without_a_warning(self, ours, numpys, operands, message):
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            numpys(*operands)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
                ours(*operands)
            with np.errstate(all="raise"), pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
                ours(*operands)
        assert np.geterr() == before

    @pytest.mark.parametrize("mask", [
        np.zeros(0, dtype=bool), np.zeros((0, 3), dtype=bool), np.ones(5, dtype=bool),
        np.array([True, False, True]), np.zeros(4, dtype=bool), np.ones((3, 3), dtype=bool),
        np.array([[True, True], [True, False]]), np.bool_(True), np.bool_(False),
    ])
    def test_all_true_is_all(self, mask):
        assert _all_true(mask) == bool(mask.all())

    @settings(max_examples=300, deadline=None)
    @given(mask=hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
    def test_all_true_is_all_on_random_shapes(self, mask):
        assert _all_true(mask) == bool(mask.all())
        assert _all_true(mask.T) == bool(mask.all())


class TestDeterminism:
    def test_identical_seeds_reproduce_streams(self):
        a = [_gig_half_draw_vec(np.array([2.0]), substream(99, i))[0] for i in range(5)]
        b = [_gig_half_draw_vec(np.array([2.0]), substream(99, i))[0] for i in range(5)]
        assert a == b
        assert len(set(a)) == 5

    def test_vectorized_draws_reproduce(self):
        chi = substream(7).uniform(0.0, 5.0, size=1000)
        x = _gig_half_draw_vec(chi, substream(8))
        y = _gig_half_draw_vec(chi, substream(8))
        np.testing.assert_array_equal(x, y)
        assert np.all(x > 0)

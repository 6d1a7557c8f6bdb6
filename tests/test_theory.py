import math

import numpy as np
import pytest

from ddlab.selfconsistent import kappa_at_dof, kappa_of_lambda
from ddlab.spectrum import (
    SignalMeasure,
    Spectrum,
    df2,
    make_isotropic,
    make_two_dirac,
    signal_functional,
)
from ddlab.theory import fixed_design_ridge_risk, minnorm_risk, ridge_risk, rp_risk


def uniform_signal(s, strength=1.0):
    """Signal mass spread over atoms proportionally to their weight."""
    masses = s.weights / s.d
    masses = masses * (strength / float(np.sum(masses * s.eigenvalues)))
    return SignalMeasure(masses=masses)


def assemble_ridge_oracle(s, v, n, sigma, lam):
    """Ridge equivalent rebuilt from scratch out of scalar primitives."""
    kappa = kappa_of_lambda(s, n, lam).kappa
    e, w, m = s.eigenvalues, s.weights, v.masses
    d2 = float(np.sum(w * (e / (e + kappa)) ** 2))
    inflation = 1.0 / (1.0 - d2 / n)
    variance = sigma**2 / n * d2 * inflation
    bias = kappa**2 * float(np.sum(m * e / (e + kappa) ** 2)) * inflation
    return bias, variance


def assemble_rp_oracle(s, v, n, m_proj, sigma):
    """Projection equivalent rebuilt from scratch out of scalar primitives."""
    e, w, mass = s.eigenvalues, s.weights, v.masses
    if m_proj < n:
        kappa = kappa_at_dof(s, float(m_proj)).kappa
        variance = sigma**2 * m_proj / (n - m_proj)
        bias = kappa * float(np.sum(mass * e / (e + kappa))) / (1.0 - m_proj / n)
        return bias, variance
    kappa = kappa_at_dof(s, float(n)).kappa
    d2 = float(np.sum(w * (e / (e + kappa)) ** 2))
    inflation = 1.0 / (1.0 - d2 / n)
    variance = sigma**2 / n * d2 * inflation + sigma**2 * n / (m_proj - n)
    bias = (
        kappa**2 * float(np.sum(mass * e / (e + kappa) ** 2)) * inflation
        + kappa * float(np.sum(mass * e / (e + kappa))) * n / (m_proj - n)
    )
    return bias, variance


class TestFixedDesign:
    def test_infinite_shrinkage(self):
        s = make_two_dirac(10, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        br = fixed_design_ridge_risk(s, v, 20, 1.0, 1e9)
        target_bias = float(np.sum(v.masses * s.eigenvalues))
        assert br.bias == pytest.approx(target_bias, rel=1e-6)
        assert br.variance == pytest.approx(0.0, abs=1e-6)

    def test_unregularized_full_rank(self):
        s = make_isotropic(10, 2.0)
        v = uniform_signal(s)
        br = fixed_design_ridge_risk(s, v, 40, 0.5, 0.0)
        assert br.bias == 0.0
        assert br.variance == pytest.approx(0.5**2 * 10 / 40)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        eigs = rng.uniform(0.1, 3.0, size=10)
        s = Spectrum.from_eigenvalues(eigs)
        basis = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        theta = rng.standard_normal(10)
        v = SignalMeasure(masses=(basis.T @ theta) ** 2)
        shat = basis @ np.diag(eigs) @ basis.T
        n, sigma, lam = 25, 0.7, 0.4
        br = fixed_design_ridge_risk(s, v, n, sigma, lam)
        resolvent = np.linalg.inv(shat + lam * np.eye(10))
        bias_dense = lam**2 * theta @ resolvent @ resolvent @ shat @ theta
        var_dense = sigma**2 / n * np.trace(shat @ shat @ resolvent @ resolvent)
        assert br.bias == pytest.approx(bias_dense, rel=1e-10)
        assert br.variance == pytest.approx(var_dense, rel=1e-10)

    def test_singular_at_zero_rejected(self):
        s = Spectrum.from_eigenvalues(np.array([1.0, 0.0]))
        v = SignalMeasure(masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            fixed_design_ridge_risk(s, v, 4, 1.0, 0.0)


class TestRidge:
    def test_infinite_shrinkage_total_signal(self):
        s = make_two_dirac(100, 0.3, 0.5, 2.0)
        v = uniform_signal(s)
        br = ridge_risk(s, v, 50, 1.0, 1e10)
        assert br.bias == pytest.approx(float(np.sum(v.masses * s.eigenvalues)), rel=1e-6)
        assert br.variance == pytest.approx(0.0, abs=1e-8)

    def test_ridgeless_limit_matches_ols_equivalent(self):
        # gamma = 1/2: variance tends to sigma^2 gamma/(1-gamma).
        s = make_isotropic(500, 1.0)
        v = uniform_signal(s)
        br = ridge_risk(s, v, 1000, 1.0, 0.0)
        assert br.variance == pytest.approx(1.0, rel=1e-12)
        assert br.bias == 0.0

    def test_matches_assembly_oracle(self):
        s = make_two_dirac(300, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        for n, lam in [(150, 0.1), (600, 0.1), (150, 2.0)]:
            br = ridge_risk(s, v, n, 0.8, lam)
            bias, variance = assemble_ridge_oracle(s, v, n, 0.8, lam)
            assert br.bias == pytest.approx(bias, rel=1e-10)
            assert br.variance == pytest.approx(variance, rel=1e-10)

    def test_critical_point_diverges(self):
        s = make_isotropic(64, 1.0)
        br = ridge_risk(s, uniform_signal(s), 64, 1.0, 0.0)
        assert br.diverged
        assert math.isinf(br.total)


class TestMinNorm:
    def test_underparam_values(self):
        s = make_isotropic(500, 1.0)
        br = minnorm_risk(s, uniform_signal(s), 1000, 1.0)
        assert br.bias == 0.0
        assert br.variance == pytest.approx(1.0, rel=1e-12)

    def test_overparam_hand_computation(self):
        # Single atom at 1, d = 2n: kappa(0) = 1, df2 = d/4 = n/2, so the
        # variance is sigma^2 * (1/2) / (1/2) = 1.
        s = make_isotropic(1000, 1.0)
        v = uniform_signal(s)
        br = minnorm_risk(s, v, 500, 1.0)
        assert br.kappa == pytest.approx(1.0, abs=1e-10)
        assert br.df2_at_kappa == pytest.approx(250.0, rel=1e-10)
        assert br.variance == pytest.approx(1.0, rel=1e-10)

    def test_noiseless_overparam(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        br = minnorm_risk(s, v, 100, 0.0)
        assert br.variance == 0.0
        kappa = br.kappa
        expected = kappa**2 * signal_functional(s, v, kappa, 2) / (1 - df2(s, kappa) / 100)
        assert br.bias == pytest.approx(expected, rel=1e-10)
        assert br.bias > 0

    def test_interpolation_threshold_diverges(self):
        s = make_isotropic(100, 1.0)
        br = minnorm_risk(s, uniform_signal(s), 100, 1.0)
        assert br.diverged and math.isinf(br.total)


class TestRandomProjections:
    def test_half_n_variance_exact(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        br = rp_risk(s, uniform_signal(s), 200, 100, 1.0)
        assert br.variance == 1.0

    def test_large_m_matches_minnorm(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        br = rp_risk(s, v, 200, 10**9 * 200, 1.0)
        mn = minnorm_risk(s, v, 200, 1.0)
        assert br.bias == pytest.approx(mn.bias, rel=1e-6)
        assert br.variance == pytest.approx(mn.variance, rel=1e-6)

    def test_null_model_limit(self):
        s = make_two_dirac(4000, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        n = 2000
        br = rp_risk(s, v, n, 1, 1.0)
        strength = float(np.sum(v.masses * s.eigenvalues))
        assert br.variance == pytest.approx(1.0 / (n - 1), rel=1e-12)
        assert br.bias == pytest.approx(strength / (1 - 1 / n), rel=1e-3)

    def test_matches_assembly_oracle_on_grid(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        n = 200
        for m in (10, 50, 120, 199, 201, 240, 400, 800):
            br = rp_risk(s, v, n, m, 0.7)
            bias, variance = assemble_rp_oracle(s, v, n, m, 0.7)
            assert br.bias == pytest.approx(bias, rel=1e-9)
            assert br.variance == pytest.approx(variance, rel=1e-9)

    def test_monotone_tail_beyond_n(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        grid = range(210, 1000, 10)
        breakdowns = [rp_risk(s, v, 200, m, 1.0) for m in grid]
        biases = [b.bias for b in breakdowns]
        variances = [b.variance for b in breakdowns]
        assert all(a >= b for a, b in zip(biases, biases[1:]))
        assert all(a >= b for a, b in zip(variances, variances[1:]))

    def test_divergence_at_interpolation(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        n = 200
        assert rp_risk(s, v, n, n, 1.0).diverged
        for sign in (-1, +1):
            near = rp_risk(s, v, n, n + sign, 1.0).total
            far = rp_risk(s, v, n, n + sign * n // 4, 1.0).total
            assert near >= 10 * far

    def test_three_way_ridgeless_consistency(self):
        s = make_two_dirac(500, 0.5, 1.0, 4.0)
        v = uniform_signal(s)
        n = 250
        a = rp_risk(s, v, n, 10**9 * n, 1.0)
        b = minnorm_risk(s, v, n, 1.0)
        c = ridge_risk(s, v, n, 1.0, 0.0)
        for x, y in [(a, b), (b, c)]:
            assert x.bias == pytest.approx(y.bias, rel=1e-6)
            assert x.variance == pytest.approx(y.variance, rel=1e-6)

    def test_variance_signal_independent_bias_noise_independent(self):
        s = make_two_dirac(400, 0.5, 1.0, 4.0)
        v1 = uniform_signal(s, strength=1.0)
        v2 = uniform_signal(s, strength=7.0)
        for m in (50, 300):
            r11 = rp_risk(s, v1, 200, m, 0.5)
            r21 = rp_risk(s, v2, 200, m, 0.5)
            r12 = rp_risk(s, v1, 200, m, 2.0)
            assert r11.variance == r21.variance
            assert r11.bias == r12.bias

    def test_isotropic_underparam_bias_monotone(self):
        s = make_isotropic(400, 1.0 / 400)
        v = uniform_signal(s)
        biases = [rp_risk(s, v, 200, m, 1.0).bias for m in range(5, 200, 5)]
        assert all(a < b for a, b in zip(biases, biases[1:]))

    def test_surjective_projection_collapses_to_ols(self):
        # d < n and m >= d: the projection spans everything, m = n included.
        s = make_isotropic(100, 1.0)
        v = uniform_signal(s)
        mn = minnorm_risk(s, v, 400, 1.0)
        for m in (100, 150, 399, 400, 401, 500):
            br = rp_risk(s, v, 400, m, 1.0)
            assert br.bias == mn.bias
            assert br.variance == mn.variance
            assert not br.diverged

    def test_d_equal_n_overparam_diverges(self):
        s = make_isotropic(100, 1.0)
        br = rp_risk(s, uniform_signal(s), 100, 150, 1.0)
        assert br.diverged

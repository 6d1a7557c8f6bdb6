import numpy as np
import pytest
import scipy.stats

from ddlab.config import SweepConfig
from ddlab.empirical import (
    RankDeficientDesignError,
    build_design,
    build_instance,
    child_seed,
    conditional_risk_projected,
    conditional_risk_ridge,
    empirical_kappa_lambda,
    empirical_kappa_m,
    probe_trace_equivalents,
    run_replications,
    sample_matrix,
)
from ddlab.empirical import _clamp
from ddlab.selfconsistent import kappa_at_dof, kappa_isotropic_closed
from ddlab.spectrum import make_isotropic


def small_instance(n=6, d=4, sigma_noise=0.7, seed=42, eigs=None):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if eigs is None:
        eigs = rng.uniform(0.25, 2.0, size=d)
    theta = rng.standard_normal(d)
    from ddlab.empirical import ProblemInstance

    return ProblemInstance(
        n=n, d=d, sigma_noise=sigma_noise, sigma_basis=q,
        sigma_eigs=np.asarray(eigs, dtype=float), theta_star=theta,
    )


def epsilon_sampling_oracle(inst, coef_map, offset, n_draws=100_000, seed=0):
    """Monte Carlo excess risk over the noise for theta_hat = offset + coef_map @ eps."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_draws, inst.n)) * inst.sigma_noise
    dev = (offset - inst.theta_star)[None, :] + eps @ coef_map.T
    risks = np.einsum("ij,ij->i", dev, inst.apply_covariance(dev.T).T)
    return float(risks.mean()), float(risks.std() / np.sqrt(n_draws))


class TestSampleMatrix:
    def test_deterministic_given_seed(self):
        a = sample_matrix(20, 30, "gaussian", 99)
        b = sample_matrix(20, 30, "gaussian", 99)
        assert np.array_equal(a, b)
        c = sample_matrix(20, 30, "gaussian", 100)
        assert not np.array_equal(a, c)

    def test_rademacher_moments(self):
        z = sample_matrix(1000, 1000, "rademacher", 7)
        assert set(np.unique(z)) == {-1.0, 1.0}
        assert abs(z.mean()) <= 4 / np.sqrt(1_000_000)
        assert abs(z.var() - 1.0) <= 0.01

    def test_gaussian_ks(self):
        z = sample_matrix(1000, 1, "gaussian", 11).ravel()
        stat = scipy.stats.kstest(z, "norm").statistic
        assert stat < 0.05

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            sample_matrix(2, 2, "uniform", 0)


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
        seeds = {child_seed(5, gi, r, s) for gi in range(8) for r in range(8) for s in (0, 1)}
        assert len(seeds) == 8 * 8 * 2

    def test_order_sensitivity(self):
        assert child_seed(1, 2, 3) != child_seed(1, 3, 2)


class TestBuildDesign:
    def test_identity_covariance(self):
        inst = small_instance(d=4, eigs=np.ones(4), seed=1)
        z = np.random.default_rng(0).standard_normal((6, 4))
        assert np.allclose(build_design(inst, z), z, atol=1e-12)

    def test_diagonal_covariance_scales_columns(self):
        from ddlab.empirical import ProblemInstance

        eigs = np.array([4.0, 1.0, 0.25])
        inst = ProblemInstance(
            n=5, d=3, sigma_noise=1.0, sigma_basis=np.eye(3),
            sigma_eigs=eigs, theta_star=np.zeros(3),
        )
        z = np.random.default_rng(1).standard_normal((5, 3))
        assert np.allclose(build_design(inst, z), z * np.sqrt(eigs)[None, :])

    def test_empirical_covariance_converges(self):
        inst = small_instance(n=10_000, d=10, seed=3)
        z = sample_matrix(10_000, 10, "gaussian", 5)
        x = build_design(inst, z)
        dev = np.abs(x.T @ x / 10_000 - inst.covariance())
        assert dev.max() <= 0.1


class TestProblemInstance:
    def test_signal_parseval_total_mass(self):
        inst = small_instance(d=12, seed=23)
        theta = inst.theta_star
        assert inst.signal().total_mass == pytest.approx(float(theta @ theta), rel=1e-10)

    def test_signal_eigenvector_alignment(self):
        inst = small_instance(d=3, seed=24)
        object.__setattr__(inst, "theta_star", inst.sigma_basis[:, 0].copy())
        assert np.allclose(inst.signal().masses, [1.0, 0.0, 0.0], atol=1e-14)

    def test_theta_dimension_mismatch(self):
        from ddlab.empirical import ProblemInstance

        with pytest.raises(ValueError, match="theta"):
            ProblemInstance(
                n=4, d=3, sigma_noise=1.0, sigma_basis=np.eye(3),
                sigma_eigs=np.ones(3), theta_star=np.ones(4),
            )


class TestInstanceFromFiles:
    def test_file_spectrum_with_aligned_signal(self, tmp_path):
        from ddlab.spectrum import SignalMeasure, Spectrum, spectrum_to_json

        spec = Spectrum(
            eigenvalues=np.array([0.5, 2.0]), weights=np.array([4.0, 2.0]), d=6
        )
        signal = SignalMeasure(masses=np.array([0.8, 1.2]))
        path = tmp_path / "measures.json"
        path.write_text(spectrum_to_json(spec, signal))
        cfg = SweepConfig(
            n=12, d=6, spectrum_kind="file", spectrum_path=str(path),
            signal_kind="aligned_file", m_grid=[3], mode="theory",
        )
        inst = build_instance(cfg)
        assert np.allclose(inst.sigma_eigs, [2.0, 2.0, 0.5, 0.5, 0.5, 0.5])
        # Atom masses spread uniformly over their eigendirections.
        assert np.allclose(np.sort(inst.signal().masses)[::-1][:2], [0.6, 0.6])
        assert inst.signal_strength() == pytest.approx(1.2 * 2.0 + 0.8 * 0.5)

    def test_signal_file_without_masses_rejected(self, tmp_path):
        from ddlab.spectrum import spectrum_to_json
        from ddlab.spectrum import Spectrum

        spec = Spectrum(eigenvalues=np.array([1.0]), weights=np.array([4.0]), d=4)
        path = tmp_path / "spec_only.json"
        path.write_text(spectrum_to_json(spec))
        cfg = SweepConfig(
            n=8, d=4, spectrum_kind="file", spectrum_path=str(path),
            signal_kind="aligned_file", m_grid=[2], mode="theory",
        )
        with pytest.raises(ValueError, match="signal"):
            build_instance(cfg)


class TestInstanceEigenvalues:
    """The per-direction eigenvalues build_instance draws for each kind."""

    @staticmethod
    def eigs(kind, params, d):
        cfg = SweepConfig(
            n=10, d=d, spectrum_kind=kind, spectrum_params=params, m_grid=[3], mode="theory"
        )
        return build_instance(cfg).sigma_eigs

    @pytest.mark.parametrize("params, tau", [([1.5], 1.0), ([2.0, 0.7], 0.7)])
    def test_power_law_multiset(self, params, tau):
        d = 12
        k = np.arange(1, d + 1, dtype=float)
        expected = tau * (d / k) ** params[0]
        assert np.array_equal(self.eigs("power_law", params, d), expected)

    def test_two_dirac_rounds_half_to_even(self):
        # 0.3 * 15 = 4.5 directions at sigma1 = 1: rounds to 4, leaving 11
        # at sigma2 = 4; eigenvalues come out in descending order.
        eigs = self.eigs("two_dirac", [0.3, 1.0, 4.0], 15)
        assert np.array_equal(eigs, np.array([4.0] * 11 + [1.0] * 4))

    @pytest.mark.parametrize("pi1, value", [(0.0, 4.0), (1.0, 1.0)])
    def test_two_dirac_single_atom_ends(self, pi1, value):
        eigs = self.eigs("two_dirac", [pi1, 1.0, 4.0], 15)
        assert np.array_equal(eigs, np.full(15, value))

    def test_file_spectrum_needs_integer_weights(self, tmp_path):
        from ddlab.spectrum import Spectrum, spectrum_to_json

        spec = Spectrum(eigenvalues=np.array([1.0, 2.0]), weights=np.array([2.5, 1.5]), d=4)
        path = tmp_path / "fractional.json"
        path.write_text(spectrum_to_json(spec))
        cfg = SweepConfig(
            n=8, d=4, spectrum_kind="file", spectrum_path=str(path), m_grid=[2], mode="theory"
        )
        with pytest.raises(ValueError, match="integer"):
            build_instance(cfg)


class TestConditionalProjected:
    def test_identity_projection_is_ols(self):
        inst = small_instance(n=30, d=5, seed=8)
        z = sample_matrix(30, 5, "gaussian", 9)
        x = build_design(inst, z)
        bias, variance = conditional_risk_projected(inst, x, np.eye(5))
        shat = x.T @ x / 30
        oracle = inst.sigma_noise**2 / 30 * np.trace(
            inst.covariance() @ np.linalg.inv(shat)
        )
        assert bias == pytest.approx(0.0, abs=1e-10)
        assert variance == pytest.approx(oracle, rel=1e-8)

    def test_zero_signal_zero_bias(self):
        inst = small_instance(n=12, d=6, seed=13)
        object.__setattr__(inst, "theta_star", np.zeros(6))
        z = sample_matrix(12, 6, "gaussian", 14)
        x = build_design(inst, z)
        s = sample_matrix(6, 3, "rademacher", 15)
        bias, _ = conditional_risk_projected(inst, x, s)
        assert bias == 0.0

    def test_matches_epsilon_sampling(self):
        inst = small_instance(n=6, d=4, seed=42)
        z = sample_matrix(6, 4, "gaussian", 43)
        x = build_design(inst, z)
        s = sample_matrix(4, 2, "gaussian", 44)
        bias, variance = conditional_risk_projected(inst, x, s)
        pinv = np.linalg.pinv(x @ s)
        coef_map = s @ pinv
        offset = coef_map @ (x @ inst.theta_star)
        mc, se = epsilon_sampling_oracle(inst, coef_map, offset, seed=4)
        assert bias + variance == pytest.approx(mc, abs=3 * se)

    def test_rank_deficient_projection_flagged(self):
        inst = small_instance(n=10, d=5, seed=21)
        z = sample_matrix(10, 5, "gaussian", 22)
        x = build_design(inst, z)
        s = sample_matrix(5, 3, "gaussian", 23)
        s[:, 2] = s[:, 1]  # duplicate column kills one rank
        with pytest.raises(RankDeficientDesignError):
            conditional_risk_projected(inst, x, s)


class TestConditionalRidge:
    def test_infinite_shrinkage(self):
        inst = small_instance(n=20, d=6, seed=31)
        z = sample_matrix(20, 6, "gaussian", 32)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, x, 1e12)
        strength = inst.signal_strength()
        assert bias == pytest.approx(strength, rel=1e-6)
        assert variance == pytest.approx(0.0, abs=1e-10)

    def test_ols_exact_conditional_variance(self):
        inst = small_instance(n=25, d=6, seed=33)
        z = sample_matrix(25, 6, "gaussian", 34)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, x, 0.0)
        shat = x.T @ x / 25
        oracle = inst.sigma_noise**2 / 25 * np.trace(
            inst.covariance() @ np.linalg.inv(shat)
        )
        assert bias == 0.0
        assert variance == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_matches_epsilon_sampling(self, lam):
        inst = small_instance(n=7, d=4, seed=51)
        z = sample_matrix(7, 4, "gaussian", 52)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, x, lam)
        if lam == 0.0:
            coef_map = np.linalg.pinv(x)
        else:
            coef_map = np.linalg.solve(x.T @ x + 7 * lam * np.eye(4), x.T)
        offset = coef_map @ (x @ inst.theta_star)
        mc, se = epsilon_sampling_oracle(inst, coef_map, offset, seed=6)
        assert bias + variance == pytest.approx(mc, abs=3 * se)

    def test_minnorm_route_overparameterized(self):
        inst = small_instance(n=4, d=9, seed=61, eigs=np.linspace(0.5, 2.0, 9))
        z = sample_matrix(4, 9, "gaussian", 62)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, x, 0.0)
        coef_map = np.linalg.pinv(x)
        offset = coef_map @ (x @ inst.theta_star)
        dev = offset - inst.theta_star
        assert bias == pytest.approx(float(dev @ inst.apply_covariance(dev)), rel=1e-8)
        oracle_var = inst.sigma_noise**2 * np.trace(
            coef_map.T @ inst.covariance() @ coef_map
        )
        assert variance == pytest.approx(oracle_var, rel=1e-8)

    def test_gaussian_ols_identity_small(self):
        # Exact inverse-Wishart mean: sigma^2 d / (n - d - 1); 300 draws at 4 SE.
        inst = small_instance(n=40, d=10, sigma_noise=1.0, seed=71)
        values = []
        for rep in range(300):
            z = sample_matrix(40, 10, "gaussian", child_seed(71, rep))
            x = build_design(inst, z)
            values.append(conditional_risk_ridge(inst, x, 0.0)[1])
        values = np.array(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert values.mean() == pytest.approx(10 / 29, abs=4 * se)


class TestEmpiricalKappa:
    def test_zero_design_returns_lambda(self):
        assert empirical_kappa_lambda(np.zeros((8, 3)), 8, 0.25) == pytest.approx(0.25)

    def test_matches_closed_form_isotropic(self):
        z = sample_matrix(2000, 4000, "rademacher", 81)
        kap = empirical_kappa_lambda(z, 2000, 0.1)
        assert kap == pytest.approx(kappa_isotropic_closed(1.0, 2.0, 0.1), rel=0.03)

    def test_large_lambda_asymptote(self):
        z = sample_matrix(300, 150, "gaussian", 82)
        trace = np.trace(z.T @ z / 300)
        lam = 100.0 * trace
        kap = empirical_kappa_lambda(z, 300, lam)
        assert kap == pytest.approx(lam + trace / 300 * 150 / 150, rel=0.02 * 150)
        # dominant behaviour: kappa ~ lambda + tr(Sigma)/n
        assert kap == pytest.approx(lam + trace / 300, rel=0.02)

    def test_kappa_m_orthonormal_identity(self):
        s = np.eye(50)[:, :10]
        assert empirical_kappa_m(np.eye(50), s) == pytest.approx(1.0 / 10)

    def test_kappa_m_concentrates_on_dof_solver(self):
        sigma = np.eye(2000) * 0.5
        s = sample_matrix(2000, 200, "rademacher", 83)
        kap = empirical_kappa_m(sigma, s)
        target = kappa_at_dof(make_isotropic(2000, 0.5), 200.0).kappa
        assert kap == pytest.approx(target, rel=0.05)

    def test_kappa_m_single_projection(self):
        sigma = np.diag(np.full(100, 2.0))
        draws = []
        for rep in range(2000):
            s = sample_matrix(100, 1, "gaussian", child_seed(9, rep))
            draws.append(1.0 / empirical_kappa_m(sigma, s))
        kap_hat = 1.0 / np.mean(draws)
        target = kappa_at_dof(make_isotropic(100, 2.0), 1.0).kappa
        assert kap_hat == pytest.approx(target, rel=0.05)


@pytest.fixture(scope="module")
def medium_setup():
    cfg = SweepConfig(
        n=800, d=800, sigma_noise=1.0, spectrum_kind="isotropic",
        spectrum_params=[1.0], mode="probe", master_seed=3,
    )
    inst = build_instance(cfg)
    z = sample_matrix(800, 800, "rademacher", child_seed(3, 0, 0))
    return inst, z @ inst.sqrt_covariance()


class TestTraceProbes:

    def test_identity_pair_reduces_to_df(self, medium_setup):
        inst, x = medium_setup
        lam = 0.5
        probes = {p.name: p for p in probe_trace_equivalents(
            inst, x, np.eye(800), np.eye(800), lam
        )}
        # The linear shrink probe is exactly the empirical df1 against df1(kappa).
        shat_eigs = np.linalg.eigvalsh(x.T @ x / 800)
        df1_hat = float(np.sum(shat_eigs / (shat_eigs + lam)))
        assert probes["shrink_linear"].lhs == pytest.approx(df1_hat, rel=1e-10)
        assert probes["shrink_linear"].rel_gap <= 0.05

    def test_all_gaps_small_sigma_identity_pair(self, medium_setup):
        inst, x = medium_setup
        for lam in (0.5, 1.0):
            for p in probe_trace_equivalents(
                inst, x, inst.covariance(), np.eye(800), lam
            ):
                assert p.rel_gap <= 0.05, (p.name, lam, p.rel_gap)

    def test_rank_one_signal_pair(self, medium_setup):
        # The pieces of the ridge bias derivation: A = theta theta', B = Sigma.
        inst, x = medium_setup
        outer = np.outer(inst.theta_star, inst.theta_star)
        for p in probe_trace_equivalents(inst, x, outer, inst.covariance(), 0.5):
            assert p.rel_gap <= 0.10, (p.name, p.rel_gap)

    def test_requires_positive_lambda(self, medium_setup):
        inst, x = medium_setup
        with pytest.raises(ValueError):
            probe_trace_equivalents(inst, x, np.eye(800), np.eye(800), 0.0)


class TestRunReplications:
    def config(self, reps=3, mode="empirical", m_grid=(5, 10), master_seed=77):
        return SweepConfig(
            n=24, d=12, sigma_noise=1.0, spectrum_kind="two_dirac",
            spectrum_params=[0.5, 1.0, 4.0], m_grid=list(m_grid),
            replications=reps, sampler="rademacher", master_seed=master_seed,
            mode=mode,
        )

    @staticmethod
    def run(cfg):
        return run_replications(cfg, build_instance(cfg))

    def test_zero_replications(self):
        sweep = self.run(self.config(reps=0))
        assert sweep.results == {}
        assert all(a.reps_used == 0 for a in sweep.aggregates)
        assert all(np.isnan(a.bias_mean) for a in sweep.aggregates)

    def test_deterministic_stream(self):
        a = self.run(self.config())
        b = self.run(self.config())
        keys = sorted(a.results)
        assert keys == sorted(b.results)
        for key in keys:
            assert a.results[key].bias == b.results[key].bias
            assert a.results[key].variance == b.results[key].variance

    def test_thread_count_does_not_change_results(self, monkeypatch):
        base = self.run(self.config())
        monkeypatch.setenv("DDLAB_THREADS", "4")
        threaded = self.run(self.config())
        for key in base.results:
            assert base.results[key].bias == threaded.results[key].bias
            assert base.results[key].variance == threaded.results[key].variance

    def test_ridge_grid_sweep(self):
        cfg = SweepConfig(
            n=24, d=12, sigma_noise=1.0, spectrum_kind="isotropic",
            spectrum_params=[0.5], lambda_grid=[0.1, 1.0], replications=4,
            sampler="gaussian", master_seed=5, mode="empirical",
        )
        sweep = self.run(cfg)
        assert sweep.grid_kind == "lambda"
        assert [a.grid_value for a in sweep.aggregates] == [0.1, 1.0]
        assert all(a.reps_used == 4 for a in sweep.aggregates)
        # More shrinkage, less variance.
        assert sweep.aggregates[1].var_mean < sweep.aggregates[0].var_mean

    def test_aggregate_magnitudes(self):
        # Variance at m = n/2 should sit near its sigma^2 m/(n-m) equivalent
        # even at this small size.
        cfg = self.config(reps=50, m_grid=(12,), master_seed=11)
        sweep = self.run(cfg)
        agg = sweep.aggregates[0]
        assert agg.reps_used + agg.excluded == 50
        assert agg.var_mean == pytest.approx(1.0, rel=0.35)

    def test_clamp_rules(self):
        assert _clamp(1.0) == (1.0, False, False)
        assert _clamp(-5e-11) == (0.0, True, False)
        value, clamped, error = _clamp(-1e-6)
        assert value == -1e-6 and not clamped and error

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from ddlab.config import SweepConfig
from ddlab.empirical import (
    RankDeficientDesignError,
    SeededRotation,
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
    seeded_instance,
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


def svd_ridge_reference(inst, x, lam):
    """Ridge (bias, variance) from a full SVD of X, no Gram matrix formed.

    theta_hat - theta = -V diag(f) V' theta + P eps with P = V diag(s/(s^2 +
    n lam)) U'; f = n lam/(s^2 + n lam) on the row space of X and 1 on its
    null space (also at lam = 0, where ridge becomes min-norm).
    """
    n, d = x.shape
    u, s, vt = np.linalg.svd(x)
    k = s.size
    s2 = np.zeros(d)
    s2[:k] = s**2
    f = np.ones(d)
    f[:k] = n * lam / (s2[:k] + n * lam)
    resid = -vt.T @ (f * (vt @ inst.theta_star))
    P = vt[:k].T @ ((s / (s**2 + n * lam))[:, None] * u[:, :k].T)
    sigma = inst.covariance()
    bias = float(resid @ sigma @ resid)
    variance = inst.sigma_noise**2 * float(np.sum(P * (sigma @ P)))
    return bias, variance


def eigh_probe_reference(inst, x, A, B, lam):
    """The six probe left-hand sides through an eigendecomposition of Shat
    and the whitened draw Z = X Sigma^(-1/2)."""
    n = x.shape[0]
    ew, u = np.linalg.eigh(x.T @ x / n)
    ew = np.maximum(ew, 0.0)
    au = u.T @ A @ u
    bu = u.T @ B @ u
    lhs = {}
    for name, diag in (("shrink", ew / (ew + lam)), ("resolvent", 1.0 / (ew + lam))):
        lhs[f"{name}_linear"] = float(np.sum(np.diag(au) * diag))
        lhs[f"{name}_quadratic"] = float(
            np.sum((au * diag[None, :]) * (bu * diag[None, :]).T)
        )
    b, e = inst.sigma_basis, inst.sigma_eigs
    z = ((x @ b) / np.sqrt(e)[None, :]) @ b.T
    wmat = z.T @ np.linalg.solve(x @ x.T + n * lam * np.eye(n), z)
    lhs["kernel_linear"] = float(np.sum(A * wmat))
    lhs["kernel_quadratic"] = float(np.sum((A @ wmat) * (B @ wmat).T))
    return lhs


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
        from ddlab.empirical import ProblemInstance

        base = small_instance(d=3, seed=24)
        inst = ProblemInstance(
            n=base.n, d=3, sigma_noise=base.sigma_noise, sigma_basis=base.sigma_basis,
            sigma_eigs=base.sigma_eigs, theta_star=base.sigma_basis[:, 0].copy(),
        )
        assert np.allclose(inst.signal().masses, [1.0, 0.0, 0.0], atol=1e-14)

    def test_immutable(self):
        inst = small_instance(d=3, seed=25)
        with pytest.raises(AttributeError):
            inst.theta_star = np.zeros(3)

    def test_orthonormality_rule(self):
        # The rule of np.allclose(Q'Q, I, atol=1e-8): |g - 1| <= 1e-8 + 1e-5 on
        # the diagonal, |g| <= 1e-8 off it, and NaN rejected.
        from ddlab.empirical import _check_orthonormal

        q = np.linalg.qr(np.random.default_rng(26).standard_normal((6, 6)))[0]
        cases = [(q, True)]
        for scale, ok in ((1 + 4e-6, True), (1 + 6e-6, False)):
            basis = q.copy()
            basis[:, 0] *= scale
            cases.append((basis, ok))
        for tilt, ok in ((5e-9, True), (2e-8, False)):
            basis = q.copy()
            basis[:, 1] += tilt * q[:, 0]
            cases.append((basis, ok))
        basis = q.copy()
        basis[2, 3] = np.nan
        cases.append((basis, False))
        for basis, ok in cases:
            if ok:
                _check_orthonormal(basis)
            else:
                with pytest.raises(ValueError, match="orthonormal"):
                    _check_orthonormal(basis)

    def test_theta_dimension_mismatch(self):
        from ddlab.empirical import ProblemInstance

        with pytest.raises(ValueError, match="theta"):
            ProblemInstance(
                n=4, d=3, sigma_noise=1.0, sigma_basis=np.eye(3),
                sigma_eigs=np.ones(3), theta_star=np.ones(4),
            )


def old_seeded_basis(d, seed):
    """The basis kernel before the reflector form: a full QR with the column
    signs fixed by diag(R), kept as the reference the rotation must match."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q *= np.sign(np.diag(r))[None, :]
    return q


class TestSeededRotation:
    @pytest.mark.parametrize("d", [1, 2, 7, 64, 300])
    def test_matrix_matches_old_kernel(self, d):
        assert np.array_equal(SeededRotation(d, 5).matrix(), old_seeded_basis(d, 5))

    @pytest.mark.parametrize("d", [1, 7, 300])
    def test_apply_matches_matrix(self, d):
        rotation = SeededRotation(d, 6)
        q = rotation.matrix()
        v = np.random.default_rng(7).standard_normal(d)
        assert np.allclose(rotation.apply(v), q @ v, rtol=0, atol=1e-12)
        assert np.allclose(rotation.apply(v, transpose=True), q.T @ v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 300])
    def test_seeded_instance_matches_old_kernel(self, d):
        eigs = np.sort(np.random.default_rng(d).uniform(0.1, 2.0, d))[::-1].copy()
        inst = seeded_instance(10, 1.0, eigs, basis_seed=5, theta_seed=8)
        q = old_seeded_basis(d, 5)
        theta = np.random.default_rng(8).standard_normal(d)
        theta = theta / np.sqrt(theta @ (q @ (eigs * (q.T @ theta))))
        np.testing.assert_allclose(inst.theta_star, theta, rtol=1e-12)
        np.testing.assert_allclose(inst.signal().masses, (q.T @ theta) ** 2, rtol=1e-12)
        assert inst.signal_strength() == pytest.approx(
            float(theta @ (q @ (eigs * (q.T @ theta)))), rel=1e-12
        )
        assert np.array_equal(inst.sigma_basis, q)

    @pytest.mark.parametrize("signal_kind", ["random_gaussian_normalized", "aligned_file"])
    def test_corrupted_reflectors_fail_at_build(self, tmp_path, monkeypatch, signal_kind):
        import ddlab.empirical as emp
        from ddlab.spectrum import SignalMeasure, Spectrum, spectrum_to_json

        class Corrupted(SeededRotation):
            def __init__(self, d, seed):
                super().__init__(d, seed)
                self.tau[0] *= 0.5

        spec = Spectrum(eigenvalues=np.array([0.5, 2.0]), weights=np.array([4.0, 2.0]), d=6)
        path = tmp_path / "measures.json"
        path.write_text(spectrum_to_json(spec, SignalMeasure(masses=np.array([0.8, 1.2]))))
        cfg = SweepConfig(
            n=12, d=6, spectrum_kind="file", spectrum_path=str(path),
            signal_kind=signal_kind, m_grid=[3], mode="theory",
        )
        build_instance(cfg)
        monkeypatch.setattr(emp, "SeededRotation", Corrupted)
        with pytest.raises(ValueError, match="orthonormal"):
            build_instance(cfg)

    def test_basis_formed_once_under_threads(self, monkeypatch):
        import sys
        import threading

        import ddlab.empirical as emp

        calls = []
        matrix = emp.SeededRotation.matrix

        def counting(self):
            calls.append(1)
            return matrix(self)

        monkeypatch.setattr(emp.SeededRotation, "matrix", counting)
        inst = seeded_instance(10, 1.0, np.linspace(2.0, 0.5, 64), 3, 4)
        seen = []
        barrier = threading.Barrier(8)

        def reach():
            barrier.wait(timeout=30)
            seen.append(inst.sigma_basis)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reach) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(seen) == 8 and all(b is seen[0] for b in seen)
        assert np.array_equal(seen[0], old_seeded_basis(64, 3))


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
        assert not np.signbit(bias)  # a -0.0 would print as -0 in the CSV
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

    @pytest.mark.parametrize("n, d", [(7, 12), (12, 7), (9, 9)])
    @pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-4, 0.1, 1.0, 1e12])
    def test_matches_svd_reference(self, n, d, lam):
        inst = small_instance(n=n, d=d, seed=n * d)
        x = build_design(inst, sample_matrix(n, d, "gaussian", n + d))
        bias, variance = conditional_risk_ridge(inst, x, lam)
        ref_bias, ref_variance = svd_ridge_reference(inst, x, lam)
        assert bias == pytest.approx(ref_bias, rel=1e-10, abs=0.0)
        assert variance == pytest.approx(ref_variance, rel=1e-10, abs=0.0)

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
    return inst, (z @ inst.sigma_basis) * np.sqrt(inst.sigma_eigs)


class TestTraceProbes:

    def test_identity_pair_reduces_to_df(self, medium_setup):
        inst, x = medium_setup
        lam = 0.5
        [probes] = probe_trace_equivalents(inst, x, np.eye(800), np.eye(800), [lam])
        probes = {p.name: p for p in probes}
        # The linear shrink probe is exactly the empirical df1 against df1(kappa).
        shat_eigs = np.linalg.eigvalsh(x.T @ x / 800)
        df1_hat = float(np.sum(shat_eigs / (shat_eigs + lam)))
        assert probes["shrink_linear"].lhs == pytest.approx(df1_hat, rel=1e-10)
        assert probes["shrink_linear"].rel_gap <= 0.05

    def test_all_gaps_small_sigma_identity_pair(self, medium_setup):
        inst, x = medium_setup
        lams = (0.5, 1.0)
        for lam, probes in zip(lams, probe_trace_equivalents(
            inst, x, inst.sigma_eigs, np.ones(800), lams
        )):
            for p in probes:
                assert p.rel_gap <= 0.05, (p.name, lam, p.rel_gap)

    def test_rank_one_signal_pair(self, medium_setup):
        # The pieces of the ridge bias derivation: A = theta theta', B = Sigma.
        inst, x = medium_setup
        coords = inst.sigma_basis.T @ inst.theta_star
        [probes] = probe_trace_equivalents(inst, x, np.outer(coords, coords), inst.sigma_eigs, [0.5])
        for p in probes:
            assert p.rel_gap <= 0.10, (p.name, p.rel_gap)

    # The spread spectrum covers four decades, so a penalty far above most of
    # it makes W = I - lam R cancel; a square design at a tiny penalty makes
    # W = R X'X lose digits to the large entries of R.
    @pytest.mark.parametrize("n, d, lams, spread", [
        pytest.param(60, 100, (1e-3, 1e-2, 0.1, 1.0), False, id="60-100"),
        pytest.param(100, 60, (1e-3, 1e-2, 0.1, 1.0), False, id="100-60"),
        pytest.param(80, 80, (1e-4, 1e-3, 1e-2, 0.1, 1.0), False, id="80-80"),
        pytest.param(100, 60, (0.1, 1.0, 10.0), True, id="100-60-spread"),
        pytest.param(400, 200, (0.1, 1.0, 10.0), True, id="400-200-spread"),
    ])
    def test_lhs_matches_eigh_reference(self, n, d, lams, spread):
        eigs = np.logspace(-3.0, 1.0, d) if spread else None
        inst = small_instance(n=n, d=d, seed=n + d, eigs=eigs)
        x = build_design(inst, sample_matrix(n, d, "rademacher", n * d))
        q, e = inst.sigma_basis, inst.sigma_eigs
        sym = sample_matrix(d, d, "gaussian", 5)
        sigma, outer = inst.covariance(), np.outer(inst.theta_star, inst.theta_star)
        tilt = np.diag(np.linspace(-1.0, 2.0, d))
        coords = q.T @ inst.theta_star
        # (A, B) in the original basis, then the probe's (a, b) in Sigma's
        # eigenbasis: rotated matrices, the vector pair and two mixed pairs.
        pairs = [
            (sigma, np.eye(d), q.T @ sigma @ q, q.T @ np.eye(d) @ q),
            (outer, sigma, q.T @ outer @ q, q.T @ sigma @ q),
            (sym + sym.T, tilt, q.T @ (sym + sym.T) @ q, q.T @ tilt @ q),
            (sigma, np.eye(d), e, np.ones(d)),
            (sigma, tilt, e, q.T @ tilt @ q),
            (outer, sigma, np.outer(coords, coords), e),
        ]
        for A, B, a, b in pairs:
            rows = probe_trace_equivalents(inst, x @ q, a, b, lams)
            for lam, probes in zip(lams, rows, strict=True):
                ref = eigh_probe_reference(inst, x, A, B, lam)
                for p in probes:
                    assert p.lhs == pytest.approx(ref[p.name], rel=1e-10), (p.name, lam)

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_rhs_matches_two_atom_sums(self, lam):
        # Sigma with d/2 eigenvalues at 1 and d/2 at 4, A = Sigma, B = I: in
        # Sigma's eigenbasis every equivalent is a sum over the two atoms.
        n, d = 60, 100
        atoms, mass = np.array([1.0, 4.0]), np.array([d / 2, d / 2])
        inst = small_instance(n=n, d=d, seed=17, eigs=np.repeat(atoms, d // 2))
        x = (sample_matrix(n, d, "gaussian", 18) @ inst.sigma_basis) * np.sqrt(inst.sigma_eigs)
        [probes] = probe_trace_equivalents(inst, x, inst.sigma_eigs, np.ones(d), [lam])

        def lam_of(k):
            return k * (1.0 - np.sum(mass * atoms / (atoms + k)) / n) - lam

        kappa = scipy.optimize.brentq(lam_of, lam, lam + np.sum(mass * atoms) / n + 1.0,
                                      xtol=1e-16, rtol=4 * np.finfo(float).eps)
        rs = 1.0 / (atoms + kappa)
        corr = 1.0 / (n - np.sum(mass * (atoms * rs) ** 2))
        a_sig, b_sig = np.sum(mass * atoms**2 * rs**2), np.sum(mass * atoms * rs**2)
        b_plain = np.sum(mass * rs**2)
        expected = {
            "shrink_linear": np.sum(mass * atoms**2 * rs),
            "shrink_quadratic": np.sum(mass * atoms**3 * rs**2) + kappa**2 * a_sig * b_sig * corr,
            "resolvent_linear": kappa / lam * np.sum(mass * atoms * rs),
            "resolvent_quadratic": (kappa / lam) ** 2 * (b_sig + a_sig * b_sig * corr),
            "kernel_linear": np.sum(mass * atoms * rs),
            "kernel_quadratic": b_sig + kappa**2 * b_sig * b_plain * corr,
        }
        assert [p.name for p in probes] == list(expected)
        for p in probes:
            assert p.rhs == pytest.approx(expected[p.name], rel=1e-12), p.name

    @pytest.mark.parametrize("n, d", [(30, 50), (50, 30)])
    def test_vector_operands_match_diagonal_matrices(self, n, d):
        # A d-vector stands for the diagonal matrix it spans, alone or next to
        # a matrix, in the traces and in their equivalents alike.
        inst = small_instance(n=n, d=d, seed=31)
        x = sample_matrix(n, d, "gaussian", 32)
        sym = sample_matrix(d, d, "gaussian", 33)
        u, v = np.linspace(0.5, 2.0, d), inst.sigma_eigs
        for a, b in ((u, v), (u, sym + sym.T), (sym + sym.T, v)):
            dense = [np.diag(m) if m.ndim == 1 else m for m in (a, b)]
            got = probe_trace_equivalents(inst, x, a, b, (0.1, 1.0))
            want = probe_trace_equivalents(inst, x, *dense, (0.1, 1.0))
            for row, ref_row in zip(got, want, strict=True):
                for p, ref in zip(row, ref_row, strict=True):
                    assert p.rhs == pytest.approx(ref.rhs, rel=1e-12), (p.name, a.ndim, b.ndim)
                    assert p.lhs == pytest.approx(ref.lhs, rel=1e-10), (p.name, a.ndim, b.ndim)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_rejects_bad_operands(self, which):
        n, d = 20, 30
        inst = small_instance(n=n, d=d, seed=34)
        x = sample_matrix(n, d, "gaussian", 35)
        ones = np.ones(d)
        for bad in (np.ones(d - 1), np.eye(d + 1), np.where(np.arange(d) == 3, np.nan, 1.0),
                    np.where(np.arange(d) == 3, np.inf, 1.0), np.ones((d, 2))):
            pair = (bad, ones) if which == "A" else (ones, bad)
            with pytest.raises(ValueError, match=f"^{which} "):
                probe_trace_equivalents(inst, x, *pair, [0.5])
        with pytest.raises(ValueError, match="xq"):
            probe_trace_equivalents(inst, x.T, ones, ones, [0.5])

    def test_requires_positive_lambda(self, medium_setup):
        inst, x = medium_setup
        for lams in ([0.0], [0.5, np.inf], [np.nan]):
            with pytest.raises(ValueError):
                probe_trace_equivalents(inst, x, np.eye(800), np.eye(800), lams)


def test_one_shifted_solve_per_draw(monkeypatch):
    import ddlab.empirical as emp

    calls = {"solve_shifted": 0, "eigh": 0}
    shapes = []
    solve, eigh = emp.solve_shifted, np.linalg.eigh

    def counting_solve(a, shift, rhs):
        calls["solve_shifted"] += 1
        shapes.append((np.shape(a), np.shape(rhs)))
        return solve(a, shift, rhs)

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def no_dense_covariance(self):
        raise AssertionError("dense covariance built")

    draws = []
    for n, d in ((30, 50), (50, 30)):
        probe_inst = small_instance(n=n, d=d, seed=91)
        probe_x = build_design(probe_inst, sample_matrix(n, d, "rademacher", 92))
        draws.append((probe_inst, probe_x @ probe_inst.sigma_basis))
    monkeypatch.setattr(emp, "solve_shifted", counting_solve)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(emp.ProblemInstance, "covariance", no_dense_covariance)
    for n, d in ((8, 13), (13, 8)):
        inst = small_instance(n=n, d=d, seed=93)
        x = build_design(inst, sample_matrix(n, d, "gaussian", 94))
        for lam in (0.0, 0.5):
            before = calls["solve_shifted"]
            conditional_risk_ridge(inst, x, lam)
            assert calls["solve_shifted"] - before == 1, (n, d, lam)

    def no_basis(self):
        raise AssertionError("the probes read the eigenbasis their inputs are in")

    monkeypatch.setattr(emp.ProblemInstance, "sigma_basis", property(no_basis))
    for probe_inst, probe_x in draws:
        side = min(probe_x.shape)
        ones = np.ones(probe_inst.d)
        for lams in ((0.5,), (0.1, 0.5, 1.0)):
            calls["solve_shifted"] = 0
            shapes.clear()
            probes = probe_trace_equivalents(probe_inst, probe_x, probe_inst.sigma_eigs, ones, lams)
            assert len(probes) == len(lams)
            assert calls == {"solve_shifted": len(lams), "eigh": 0}
            # Every solve is on the smaller Gram matrix, with a square right-hand side.
            assert shapes == [((side, side), (side, side))] * len(lams), probe_x.shape


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

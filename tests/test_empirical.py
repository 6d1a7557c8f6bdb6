import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from ddlab.config import SweepConfig
from ddlab.empirical import (
    ProblemInstance,
    RankDeficientDesignError,
    build_design,
    build_instance,
    child_seed,
    conditional_risk_projected,
    conditional_risk_ridge,
    empirical_kappa_lambda,
    empirical_kappa_m,
    guarded_draw,
    map_draws,
    probe_trace_equivalents,
    projected_draw,
    ridge_draw,
    run_replications,
    sample_matrix,
    seeded_basis,
    seeded_instance,
    seeded_reflectors,
)
from ddlab.numkernel import householder_apply, solve_shifted
from ddlab.selfconsistent import kappa_at_dof, kappa_isotropic_closed
from ddlab.spectrum import make_isotropic


def small_instance(d=4, sigma_noise=0.7, seed=42, eigs=None):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if eigs is None:
        eigs = rng.uniform(0.25, 2.0, size=d)
    theta = rng.standard_normal(d)
    return ProblemInstance(
        sigma_noise=sigma_noise, sigma_eigs=eigs, signal_coords=q.T @ theta, basis=q
    )


def epsilon_sampling_oracle(inst, coef_map, offset, n_draws=100_000, seed=0):
    """Monte Carlo excess risk over the noise for theta_hat = offset + coef_map @ eps."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_draws, coef_map.shape[1])) * inst.sigma_noise
    dev = (offset - inst.theta_star)[None, :] + eps @ coef_map.T
    risks = np.einsum("ij,ij->i", dev, dev @ inst.covariance())
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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (400, 400), (401, 33)])
    def test_rademacher_matches_int64_draw(self, shape):
        # The sampler draws int32; numpy's bounded draw for a range of two
        # gives the int64 stream's bits, and the stream depends on it.
        for seed in (0, 1, 2**63 + 5, child_seed(7, 3, 1)):
            ref = np.random.default_rng(seed).integers(0, 2, shape).astype(float) * 2.0 - 1.0
            assert np.array_equal(sample_matrix(*shape, "rademacher", seed), ref)


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


def design_route_ridge(inst, x, lam):
    """Ridge (bias, variance) at d > n by the route that formed the design:
    one shifted solve with X as its right-hand side, mapped by Sigma^(1/2)
    and scored in Sigma^(1/2) coordinates."""
    n = x.shape[0]
    map_root = inst.sqrt_covariance() @ solve_shifted(x @ x.T, n * lam, x).T
    resid = map_root @ (x @ inst.theta_star) - inst.root_signal()
    return float(resid @ resid), inst.sigma_noise**2 * float(np.vdot(map_root, map_root))


def svd_projected_reference(inst, x, s):
    """Projected (bias, variance) with P = S pinv(XS), the pseudo-inverse from
    a thin SVD truncated at the generic rank min(n, m, d), scored against
    the dense covariance."""
    n, m = x.shape[0], s.shape[1]
    u, sv, vt = np.linalg.svd(x @ s, full_matrices=False)
    r = min(n, m, inst.d)
    P = s @ (vt[:r].T @ (u[:, :r] / sv[:r]).T)
    sigma = inst.covariance()
    resid = P @ (x @ inst.theta_star) - inst.theta_star
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
        eigs = np.array([4.0, 1.0, 0.25])
        inst = ProblemInstance(
            sigma_noise=1.0, sigma_eigs=eigs, signal_coords=np.zeros(3), basis=np.eye(3)
        )
        z = np.random.default_rng(1).standard_normal((5, 3))
        assert np.allclose(build_design(inst, z), z * np.sqrt(eigs)[None, :])

    def test_empirical_covariance_converges(self):
        inst = small_instance(d=10, seed=3)
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
        base = small_instance(d=3, seed=24)
        inst = ProblemInstance(
            sigma_noise=base.sigma_noise, sigma_eigs=base.sigma_eigs,
            signal_coords=[1.0, 0.0, 0.0], basis=base.sigma_basis,
        )
        assert np.array_equal(inst.signal().masses, [1.0, 0.0, 0.0])
        assert np.array_equal(inst.theta_star, base.sigma_basis[:, 0])

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
        with pytest.raises(ValueError, match="signal coordinates"):
            ProblemInstance(
                sigma_noise=1.0, sigma_eigs=np.ones(3), signal_coords=np.ones(4),
                basis=np.eye(3),
            )

    @pytest.mark.parametrize("field, value", [
        ("sigma_eigs", [np.nan, 1.0, 1.0]),
        ("sigma_eigs", [np.inf, 1.0, 1.0]),
        ("signal_coords", [1.0, np.nan, 0.0]),
        ("signal_coords", [1.0, -np.inf, 0.0]),
        ("sigma_noise", np.inf),
        ("sigma_noise", np.nan),
    ])
    def test_non_finite_input_rejected(self, field, value):
        args = dict(sigma_noise=1.0, sigma_eigs=np.ones(3), signal_coords=np.ones(3))
        args[field] = value
        for basis in (np.eye(3), 7):
            with pytest.raises(ValueError, match="finite"):
                ProblemInstance(**args, basis=basis)

    def test_basis_matrix_or_seed(self):
        # A seed and the matrix it seeds give the same instance, bit for bit;
        # a draw rotated before Q is formed agrees at roundoff.
        eigs = np.linspace(2.0, 0.5, 16)
        coords = np.random.default_rng(3).standard_normal(16)
        seeded, given = (
            ProblemInstance(sigma_noise=0.5, sigma_eigs=eigs, signal_coords=coords, basis=b)
            for b in (11, seeded_basis(16, 11))
        )
        z = sample_matrix(5, 16, "gaussian", 4)
        np.testing.assert_allclose(seeded.rotate(z), given.rotate(z), rtol=0.0, atol=1e-14)
        assert np.array_equal(seeded.sigma_basis, given.sigma_basis)
        assert np.array_equal(seeded.theta_star, given.theta_star)
        assert np.array_equal(seeded.covariance(), given.covariance())
        assert np.array_equal(seeded.sqrt_covariance(), given.sqrt_covariance())
        assert np.array_equal(seeded.rotate(z), z @ given.sigma_basis)

    def test_signal_coords_read_only(self):
        coords = np.ones(3)
        inst = ProblemInstance(
            sigma_noise=1.0, sigma_eigs=np.ones(3), signal_coords=coords, basis=5
        )
        with pytest.raises(ValueError, match="read-only"):
            inst.signal_coords[0] = 2.0
        coords[0] = 2.0
        assert np.array_equal(inst.signal_coords, np.ones(3))


def complete_qr_basis(d, seed):
    """The reference every seeded basis must match: numpy's complete-mode QR
    of the seeded Gaussian matrix, with the column signs fixed by diag(R)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q *= np.sign(np.diag(r))[None, :]
    return q


def assert_same_basis(q, ref):
    """The equivalence rule of the raw-factor basis: within 1e-14 of the
    complete-QR reference, entry by entry, and orthonormal to 1e-13."""
    np.testing.assert_allclose(q, ref, rtol=0.0, atol=1e-14)
    gram = q.T @ q
    gram.flat[:: q.shape[0] + 1] -= 1.0
    assert np.abs(gram).max(initial=0.0) <= 1e-13


class TestSeededBasis:
    # 129 and 1025 = 8 * 128 + 1 are one column past an edge of the
    # 128-reflector blocks.  TestHouseholderQ covers small sizes.
    @pytest.mark.parametrize("d", [1, 2, 7, 64, 128, 129, 300, 1025, 2000])
    def test_matrix_matches_complete_qr(self, d):
        assert_same_basis(seeded_basis(d, 5), complete_qr_basis(d, 5))

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 300])
    def test_seeded_instance_matches_complete_qr(self, d):
        eigs = np.sort(np.random.default_rng(d).uniform(0.1, 2.0, d))[::-1].copy()
        inst = seeded_instance(1.0, eigs, basis_seed=5, theta_seed=8)
        coords = np.random.default_rng(8).standard_normal(d)
        coords = coords / math.sqrt(float(eigs @ coords**2))
        assert np.array_equal(inst.signal().masses, coords**2)
        assert inst.signal_strength() == pytest.approx(1.0, rel=1e-12)
        q = complete_qr_basis(d, 5)
        assert_same_basis(inst.sigma_basis, q)
        np.testing.assert_allclose(inst.theta_star, q @ coords, rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 7, 128, 129, 300, 1025, 2000])
    def test_apply_matches_complete_qr(self, d):
        # Q'y from the reflectors, with the column signs, against the
        # complete-QR reference, for a matrix and a vector y.
        raw, tau, signs = seeded_reflectors(d, 5)
        ref = complete_qr_basis(d, 5)
        for scale in (1.0, 1e6):
            y = scale * np.random.default_rng(d).standard_normal((d, 3))
            got = signs[:, None] * householder_apply(raw, tau, y)
            np.testing.assert_allclose(got, ref.T @ y, rtol=0.0, atol=1e-13 * scale)
            got = signs * householder_apply(raw, tau, y[:, 0])
            np.testing.assert_allclose(got, ref.T @ y[:, 0], rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("sampler", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("d", [1, 7, 129, 300])
    def test_rotate_matches_formed_basis(self, d, sampler):
        # rotate reads only the reflectors until Q is formed, and then Q.
        eigs = np.linspace(2.0, 0.5, d)
        inst, formed = (seeded_instance(1.0, eigs, basis_seed=5, theta_seed=8) for _ in range(2))
        z = sample_matrix(40, d, sampler, 6)
        ref = z @ formed.sigma_basis
        np.testing.assert_allclose(inst.rotate(z), ref, rtol=0.0, atol=1e-13)
        assert inst.__dict__["_formed"] is None
        assert np.array_equal(formed.rotate(z), ref)
        assert_same_basis(inst.sigma_basis, complete_qr_basis(d, 5))
        assert np.array_equal(inst.rotate(z), z @ inst.sigma_basis)
        with pytest.raises(ValueError, match="z has shape"):
            inst.rotate(z[:, 1:])

    @pytest.mark.parametrize("corrupt", ["tau", "diagonal", "nan"])
    @pytest.mark.parametrize("first", ["sigma_basis", "theta_star", "rotate"])
    def test_reflector_check(self, monkeypatch, corrupt, first):
        # Perturbed reflectors fail on the first access to the basis, before
        # Q is formed, whichever access comes first.
        import ddlab.empirical as emp

        draw = emp.seeded_reflectors

        def corrupted(d, seed):
            raw, tau, signs = draw(d, seed)
            if corrupt == "tau":
                tau[3] *= 1.0 + 1e-6
            elif corrupt == "diagonal":
                raw[2, 2] = 0.0
            else:
                raw[4, 6] = np.nan
            return raw, tau, signs

        def unchecked(raw, tau):
            raise AssertionError("Q formed from unchecked reflectors")

        monkeypatch.setattr(emp, "seeded_reflectors", corrupted)
        monkeypatch.setattr(emp, "householder_q", unchecked)
        inst = seeded_instance(1.0, np.linspace(2.0, 0.5, 12), basis_seed=5, theta_seed=8)
        reads = {
            "sigma_basis": lambda: inst.sigma_basis,
            "theta_star": lambda: inst.theta_star,
            "rotate": lambda: inst.rotate(np.ones((2, 12))),
        }
        for name in (first, *reads):
            with pytest.raises(ValueError, match="orthonormal"):
                reads[name]()

    @pytest.mark.parametrize("signal_kind", ["random_gaussian_normalized", "aligned_file"])
    def test_corrupted_reflectors_fail_at_build(self, tmp_path, monkeypatch, signal_kind):
        # A seeded basis that is not orthonormal fails on the first access to
        # the basis or to the target, which is formed with it.
        import ddlab.empirical as emp
        from ddlab.spectrum import SignalMeasure, Spectrum, spectrum_to_json

        matrix = emp.seeded_reflectors

        def corrupted(d, seed):
            raw, tau, signs = matrix(d, seed)
            signs[0] *= 0.5
            return raw, tau, signs

        spec = Spectrum(eigenvalues=np.array([0.5, 2.0]), weights=np.array([4.0, 2.0]), d=6)
        path = tmp_path / "measures.json"
        path.write_text(spectrum_to_json(spec, SignalMeasure(masses=np.array([0.8, 1.2]))))
        cfg = SweepConfig(
            n=12, d=6, spectrum_kind="file", spectrum_path=str(path),
            signal_kind=signal_kind, m_grid=[3], mode="theory",
        )
        build_instance(cfg).sigma_basis
        monkeypatch.setattr(emp, "seeded_reflectors", corrupted)
        for name in ("sigma_basis", "theta_star"):
            inst = build_instance(cfg)
            with pytest.raises(ValueError, match="orthonormal"):
                getattr(inst, name)

    def test_basis_formed_once_under_threads(self, monkeypatch):
        import sys
        import threading

        import ddlab.empirical as emp

        calls = []
        matrix = emp.seeded_reflectors

        def counting(d, seed):
            calls.append(1)
            return matrix(d, seed)

        monkeypatch.setattr(emp, "seeded_reflectors", counting)
        inst = seeded_instance(1.0, np.linspace(2.0, 0.5, 64), 3, 4)
        z = sample_matrix(5, 64, "gaussian", 9)
        seen, thetas, roots, rotated = [], [], [], []
        barrier = threading.Barrier(8)

        def reach(k):
            barrier.wait(timeout=30)
            # The threads rotate a draw and reach the basis, the target and
            # Sigma^(1/2), in four different orders.
            reads = [
                lambda: rotated.append(inst.rotate(z)),
                lambda: seen.append(inst.sigma_basis),
                lambda: thetas.append(inst.theta_star),
                lambda: roots.append(inst.sqrt_covariance()),
            ]
            for read in reads[k % 4:] + reads[:k % 4]:
                read()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reach, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(seen) == 8 and all(b is seen[0] for b in seen)
        assert len(thetas) == 8 and all(t is thetas[0] for t in thetas)
        assert len(roots) == 8 and all(r is roots[0] for r in roots)
        assert len(rotated) == 8
        for x in rotated:
            np.testing.assert_allclose(x, z @ seen[0], rtol=0.0, atol=1e-13)
        assert_same_basis(seen[0], complete_qr_basis(64, 3))
        assert np.array_equal(thetas[0], seen[0] @ inst.signal_coords)


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
        inst = small_instance(d=5, seed=8)
        z = sample_matrix(30, 5, "gaussian", 9)
        x = build_design(inst, z)
        bias, variance = conditional_risk_projected(inst, z, np.eye(5))
        shat = x.T @ x / 30
        oracle = inst.sigma_noise**2 / 30 * np.trace(
            inst.covariance() @ np.linalg.inv(shat)
        )
        assert bias == pytest.approx(0.0, abs=1e-10)
        assert variance == pytest.approx(oracle, rel=1e-8)

    def test_zero_signal_zero_bias(self):
        base = small_instance(d=6, seed=13)
        inst = ProblemInstance(
            sigma_noise=base.sigma_noise, sigma_eigs=base.sigma_eigs,
            signal_coords=np.zeros(6), basis=base.sigma_basis,
        )
        z = sample_matrix(12, 6, "gaussian", 14)
        s = sample_matrix(6, 3, "rademacher", 15)
        bias, _ = conditional_risk_projected(inst, z, s)
        assert bias == 0.0

    def test_matches_epsilon_sampling(self):
        inst = small_instance(d=4, seed=42)
        z = sample_matrix(6, 4, "gaussian", 43)
        x = build_design(inst, z)
        s = sample_matrix(4, 2, "gaussian", 44)
        bias, variance = conditional_risk_projected(inst, z, s)
        pinv = np.linalg.pinv(x @ s)
        coef_map = s @ pinv
        offset = coef_map @ (x @ inst.theta_star)
        mc, se = epsilon_sampling_oracle(inst, coef_map, offset, seed=4)
        assert bias + variance == pytest.approx(mc, abs=3 * se)

    @staticmethod
    def reference_gap(n, d, m, rtol):
        # Scored from z alone, and with the design the caller formed (which
        # fig2 passes, and which is used from m = n on).
        inst = small_instance(d=d, seed=n + d + m)
        z = sample_matrix(n, d, "rademacher", n * d)
        x = build_design(inst, z)
        s = sample_matrix(d, m, "rademacher", d * m)
        ref_bias, ref_variance = svd_projected_reference(inst, x, s)
        floor = 1e-20 * inst.signal_strength() if m >= d >= 1 and d <= n else 0.0
        for design in (None, x):
            bias, variance = conditional_risk_projected(inst, z, s, x=design)
            assert bias == pytest.approx(ref_bias, rel=rtol, abs=floor)
            assert variance == pytest.approx(ref_variance, rel=rtol, abs=0.0)

    # (n, d, m) with |m - n| >= n/2: m < n, n <= m <= d and m > d, for
    # d > n and for d <= n, where m >= d gives a zero bias; and the route
    # switch, n < m < 2n (scored from Z) against m = 2n and m = 2n + 1
    # (scored through the design).
    @pytest.mark.parametrize("n, d, m", [
        (20, 60, 4), (20, 60, 10), (20, 60, 30), (20, 60, 60), (20, 60, 90),
        (40, 20, 5), (40, 20, 20), (40, 20, 60), (40, 20, 100),
        (200, 400, 50), (200, 400, 300), (200, 400, 800),
        (20, 60, 35), (20, 60, 40), (20, 60, 41),
        (40, 20, 70), (40, 20, 80), (40, 20, 81),
        (200, 400, 400), (200, 400, 401),
    ])
    def test_matches_svd_reference(self, n, d, m):
        self.reference_gap(n, d, m, rtol=1e-10)

    # One step from the interpolation threshold A is nearly square and the
    # reference itself is good to only about 1e-12.  The bound is about 3x
    # the largest gap (6.7e-12) that scoring in Sigma's eigenbasis left at
    # these shapes.
    @pytest.mark.parametrize("n, d, m", [
        (20, 60, 19), (20, 60, 21), (40, 20, 39), (40, 20, 41), (200, 400, 199), (200, 400, 201),
    ])
    def test_matches_svd_reference_next_to_threshold(self, n, d, m):
        self.reference_gap(n, d, m, rtol=2e-11)

    @pytest.mark.parametrize("m", [10, 30, 50])
    def test_gaussian_design_exact_mean(self, m):
        # For Gaussian X and a fixed S of full rank m < n, A = XS has rows
        # N(0, S'Sigma S), so (A'A)^-1 has mean (S'Sigma S)^-1/(n - m - 1):
        # E[variance] = sigma^2 m/(n - m - 1) and E[bias] = r'Sigma r
        # (n - 1)/(n - m - 1), with r = theta - S (S'Sigma S)^-1 S'Sigma theta
        # the part of theta the projection misses.
        n, d, draws = 60, 120, 6000
        inst = small_instance(d=d, sigma_noise=1.0, seed=19)
        s = sample_matrix(d, m, "rademacher", child_seed(19, m))
        sigma = inst.covariance()
        r = inst.theta_star - s @ np.linalg.solve(s.T @ sigma @ s, s.T @ (sigma @ inst.theta_star))
        c = inst.sqrt_covariance() @ s
        values = np.array([
            conditional_risk_projected(
                inst, sample_matrix(n, d, "gaussian", child_seed(19, m, rep)), s, c=c
            )
            for rep in range(draws)
        ])
        exact = (float(r @ sigma @ r) * (n - 1) / (n - m - 1), m / (n - m - 1))
        mean, se = values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - exact) <= 3 * se), (mean, exact, se)

    def test_draw_calls_no_scipy_lapack(self, monkeypatch):
        # numpy and scipy each link their own OpenBLAS, and the two thread
        # pools slow each other down; the projected and ridge draws stay on
        # numpy's.
        import scipy.linalg

        import ddlab.empirical as emp
        import ddlab.numkernel as nk

        def no_scipy(*args, **kwargs):
            raise AssertionError("scipy LAPACK reached from a draw")

        assert not hasattr(nk, "scipy")
        assert not hasattr(emp, "dormqr")
        for name in ("cho_factor", "cho_solve", "cholesky", "solve", "solve_triangular", "inv"):
            monkeypatch.setattr(scipy.linalg, name, no_scipy)
        for n, d in ((20, 30), (30, 20)):
            inst = small_instance(d=d, seed=5)
            z = sample_matrix(n, d, "rademacher", 6)
            for m in (5, 20, 40, 70):
                conditional_risk_projected(inst, z, sample_matrix(d, m, "rademacher", m))
            for lam in (0.0, 0.1):
                conditional_risk_ridge(inst, z, lam)

    def test_rank_deficient_projection_flagged(self):
        inst = small_instance(d=5, seed=21)
        z = sample_matrix(10, 5, "gaussian", 22)
        s = sample_matrix(5, 3, "gaussian", 23)
        s[:, 2] = s[:, 1]  # duplicate column kills one rank
        with pytest.raises(RankDeficientDesignError):
            conditional_risk_projected(inst, z, s)


class TestConditionalRidge:
    def test_infinite_shrinkage(self):
        inst = small_instance(d=6, seed=31)
        z = sample_matrix(20, 6, "gaussian", 32)
        bias, variance = conditional_risk_ridge(inst, z, 1e12)
        strength = inst.signal_strength()
        assert bias == pytest.approx(strength, rel=1e-6)
        assert variance == pytest.approx(0.0, abs=1e-10)

    def test_ols_exact_conditional_variance(self):
        inst = small_instance(d=6, seed=33)
        z = sample_matrix(25, 6, "gaussian", 34)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, z, 0.0)
        shat = x.T @ x / 25
        oracle = inst.sigma_noise**2 / 25 * np.trace(
            inst.covariance() @ np.linalg.inv(shat)
        )
        assert bias == 0.0
        assert not np.signbit(bias)  # a -0.0 would print as -0 in the CSV
        assert variance == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_matches_epsilon_sampling(self, lam):
        inst = small_instance(d=4, seed=51)
        z = sample_matrix(7, 4, "gaussian", 52)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, z, lam)
        if lam == 0.0:
            coef_map = np.linalg.pinv(x)
        else:
            coef_map = np.linalg.solve(x.T @ x + 7 * lam * np.eye(4), x.T)
        offset = coef_map @ (x @ inst.theta_star)
        mc, se = epsilon_sampling_oracle(inst, coef_map, offset, seed=6)
        assert bias + variance == pytest.approx(mc, abs=3 * se)

    def test_minnorm_route_overparameterized(self):
        inst = small_instance(d=9, seed=61, eigs=np.linspace(0.5, 2.0, 9))
        z = sample_matrix(4, 9, "gaussian", 62)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, z, 0.0)
        coef_map = np.linalg.pinv(x)
        offset = coef_map @ (x @ inst.theta_star)
        dev = offset - inst.theta_star
        assert bias == pytest.approx(float(dev @ inst.covariance() @ dev), rel=1e-8)
        oracle_var = inst.sigma_noise**2 * np.trace(
            coef_map.T @ inst.covariance() @ coef_map
        )
        assert variance == pytest.approx(oracle_var, rel=1e-8)

    @pytest.mark.parametrize("n, d", [(7, 12), (12, 7), (9, 9)])
    @pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-4, 0.1, 1.0, 1e12])
    def test_matches_svd_reference(self, n, d, lam):
        inst = small_instance(d=d, seed=n * d)
        z = sample_matrix(n, d, "gaussian", n + d)
        x = build_design(inst, z)
        bias, variance = conditional_risk_ridge(inst, z, lam)
        ref_bias, ref_variance = svd_ridge_reference(inst, x, lam)
        assert bias == pytest.approx(ref_bias, rel=1e-10, abs=0.0)
        assert variance == pytest.approx(ref_variance, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n, d", [(200, 400), (50, 80), (30, 45)])
    @pytest.mark.parametrize("lam", [0.0, 1e-4, 1e-2, 1.0])
    def test_matches_design_route(self, n, d, lam):
        inst = small_instance(d=d, seed=n + d, eigs=1.0 / np.arange(1, d + 1))
        z = sample_matrix(n, d, "rademacher", n * d)
        bias, variance = conditional_risk_ridge(inst, z, lam)
        ref_bias, ref_variance = design_route_ridge(inst, build_design(inst, z), lam)
        assert bias == pytest.approx(ref_bias, rel=1e-10, abs=0.0)
        assert variance == pytest.approx(ref_variance, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [30, 200])
    @pytest.mark.parametrize("sampler", ["gaussian", "rademacher"])
    def test_next_to_threshold_within_squared_condition(self, n, sampler):
        # At d = n + 1 and lam = 0 the solve on XX' resolves the risk to
        # about cond(X)^2 eps; over 32 such draws of the 1/k spectrum the
        # error stayed below 0.2 cond(X)^2 eps, on this route and on the
        # design route alike.
        d = n + 1
        for seed in range(4):
            inst = small_instance(d=d, seed=seed, eigs=1.0 / np.arange(1, d + 1))
            z = sample_matrix(n, d, sampler, 100 + seed)
            x = build_design(inst, z)
            tol = np.linalg.cond(x) ** 2 * np.finfo(float).eps
            risks = conditional_risk_ridge(inst, z, 0.0)
            for value, ref in zip(risks, svd_ridge_reference(inst, x, 0.0), strict=True):
                assert value == pytest.approx(ref, rel=tol, abs=0.0), (seed, tol)

    def test_gaussian_ols_identity_small(self):
        # Exact inverse-Wishart mean: sigma^2 d / (n - d - 1); 300 draws at 4 SE.
        inst = small_instance(d=10, sigma_noise=1.0, seed=71)
        values = []
        for rep in range(300):
            z = sample_matrix(40, 10, "gaussian", child_seed(71, rep))
            values.append(conditional_risk_ridge(inst, z, 0.0)[1])
        values = np.array(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert values.mean() == pytest.approx(10 / 29, abs=4 * se)

    def test_rejects_infinite_lambda(self):
        inst = small_instance(d=4, seed=51)
        z = sample_matrix(7, 4, "gaussian", 52)
        with pytest.raises(ValueError, match="finite"):
            conditional_risk_ridge(inst, z, np.inf)


class TestEmpiricalKappa:
    def test_zero_design_returns_lambda(self):
        # Both Gram matrices of a zero 8 x 3 design.
        for gram in (np.zeros((3, 3)), np.zeros((8, 8))):
            assert empirical_kappa_lambda(gram, 8, 0.25) == pytest.approx(0.25)

    def test_rejects_infinite_lambda(self):
        with pytest.raises(ValueError, match="finite"):
            empirical_kappa_lambda(np.eye(3), 8, np.inf)

    def test_rejects_gram_larger_than_n(self):
        with pytest.raises(ValueError, match="n = 3"):
            empirical_kappa_lambda(np.eye(4), 3, 0.1)

    @pytest.mark.parametrize("n, d", [(12, 20), (20, 12), (15, 15)])
    def test_either_gram_matrix(self, n, d):
        # X'X stands in for XX' when it is the smaller one.
        x = sample_matrix(n, d, "gaussian", n * d)
        grams = [x @ x.T] + ([x.T @ x] if d <= n else [])
        for lam in (1e-3, 0.1):
            ref = 1.0 / np.trace(np.linalg.inv(x @ x.T + n * lam * np.eye(n)))
            for gram in grams:
                assert empirical_kappa_lambda(gram, n, lam) == pytest.approx(ref, rel=1e-12)
        # At lam = 0 below rank n the trace is infinite.
        expect = 0.0 if d < n else 1.0 / np.trace(np.linalg.inv(x @ x.T))
        assert empirical_kappa_lambda(grams[-1], n, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_matches_closed_form_isotropic(self):
        z = sample_matrix(2000, 4000, "rademacher", 81)
        kap = empirical_kappa_lambda(z @ z.T, 2000, 0.1)
        assert kap == pytest.approx(kappa_isotropic_closed(1.0, 2.0, 0.1), rel=0.03)

    def test_large_lambda_asymptote(self):
        z = sample_matrix(300, 150, "gaussian", 82)
        trace = np.trace(z.T @ z / 300)
        lam = 100.0 * trace
        kap = empirical_kappa_lambda(z.T @ z, 300, lam)
        assert kap == pytest.approx(lam + trace / 300 * 150 / 150, rel=0.02 * 150)
        # dominant behaviour: kappa ~ lambda + tr(Sigma)/n
        assert kap == pytest.approx(lam + trace / 300, rel=0.02)

    def test_kappa_m_orthonormal_identity(self):
        s = np.eye(50)[:, :10]
        assert empirical_kappa_m(s.T @ np.eye(50) @ s) == pytest.approx(1.0 / 10)

    def test_kappa_m_concentrates_on_dof_solver(self):
        sigma = np.eye(2000) * 0.5
        s = sample_matrix(2000, 200, "rademacher", 83)
        kap = empirical_kappa_m(s.T @ sigma @ s)
        target = kappa_at_dof(make_isotropic(2000, 0.5), 200.0).kappa
        assert kap == pytest.approx(target, rel=0.05)

    def test_kappa_m_single_projection(self):
        sigma = np.diag(np.full(100, 2.0))
        draws = []
        for rep in range(2000):
            s = sample_matrix(100, 1, "gaussian", child_seed(9, rep))
            draws.append(1.0 / empirical_kappa_m(s.T @ sigma @ s))
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
        inst = small_instance(d=d, seed=n + d, eigs=eigs)
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
        inst = small_instance(d=d, seed=17, eigs=np.repeat(atoms, d // 2))
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
        inst = small_instance(d=d, seed=31)
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
        inst = small_instance(d=d, seed=34)
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


def reference_sandwiches(xq, a, b, inv_root):
    """The d > n sandwiches before each was formed once per weight vector:
    C_a, C_b, C_ab, K_a and K_b as plain products, kept as the reference."""
    def times(m, p):
        return m * p if p.ndim == 1 else m @ p

    xa, xb = times(xq, a), times(xq, b)
    xw = xq * inv_root
    return [xa @ xq.T, xb @ xq.T, xa @ xb.T, times(xw, a) @ xw.T, times(xw, b) @ xw.T]


def reference_probe_lhs(inst, xq, a, b, lams):
    """The six probe traces per penalty as the kernels before the shifted
    inverse computed them: a solve against the identity, every trace through
    its own product G C.  Kept as the reference for both sides."""
    def times(m, p):
        return m * p if p.ndim == 1 else m @ p

    def probe_pair(m, p, s):
        mp = times(m, p)
        return float(np.trace(mp)), float(np.sum(mp * times(m, s).T))

    n, d = xq.shape
    e = inst.sigma_eigs
    inv_root = 1.0 / np.sqrt(e)
    rows = []
    for lam in lams:
        if d > n:
            c_a, c_b, c_ab, k_a, k_b = reference_sandwiches(xq, a, b, inv_root)
            g = solve_shifted(xq @ xq.T, n * lam, np.eye(n))
            lin, quad = probe_pair(g, c_a, c_b)
            cross = float(np.sum(g * c_ab))
            diag_a, diag_b = (m if m.ndim == 1 else np.diagonal(m) for m in (a, b))
            tr_a = float(np.sum(diag_a))
            vector = a.ndim == 1 or b.ndim == 1
            inner = float(np.sum(diag_a * diag_b)) if vector else float(np.sum(a * b.T))
            rows.append((
                lin, quad, (tr_a - lin) / lam, (inner - 2.0 * cross + quad) / lam**2,
                *probe_pair(g, k_a, k_b),
            ))
            continue
        gram = xq.T @ xq
        r = solve_shifted(gram, n * lam, np.eye(d))
        w = r @ gram
        r *= n
        gap = -lam * r
        gap.flat[:: d + 1] += 1.0
        gap -= w
        w += gap @ w
        traces = (*probe_pair(w, a, b), *probe_pair(r, a, b))
        w *= inv_root[:, None]
        w *= inv_root
        rows.append((*traces, *probe_pair(w, a, b)))
    return rows


def probe_operand_pairs(inst, d):
    """(a, b) pairs in Sigma's eigenbasis: A = Sigma with B = I, two
    nonnegative vectors, a vector with a negative entry, a vector with a
    matrix, and two matrices."""
    e = inst.sigma_eigs
    sym = sample_matrix(d, d, "gaussian", 7)
    sym = sym + sym.T
    signed = np.linspace(-0.5, 2.0, d)
    return [
        (e, np.ones(d)), (np.linspace(0.5, 2.0, d), e), (signed, np.ones(d)), (e, signed),
        (e, sym), (sym, np.ones(d)), (sym, np.diag(e)),
    ]


class TestProbeKernelsAgainstReference:
    @pytest.mark.parametrize("n, d", [(60, 100), (100, 60), (80, 80)])
    def test_traces_match_reference(self, n, d):
        inst = small_instance(d=d, seed=n + 2 * d)
        xq = (sample_matrix(n, d, "rademacher", d) @ inst.sigma_basis) * np.sqrt(inst.sigma_eigs)
        lams = (1e-2, 0.1, 1.0)
        for a, b in probe_operand_pairs(inst, d):
            rows = probe_trace_equivalents(inst, xq, a, b, lams)
            for row, ref in zip(rows, reference_probe_lhs(inst, xq, a, b, lams), strict=True):
                for p, want in zip(row, ref, strict=True):
                    assert p.lhs == pytest.approx(want, rel=1e-10), (p.name, a.ndim, b.ndim)

    def test_sandwiches_match_reference(self):
        from ddlab.empirical import _kernel_sandwiches

        n, d = 40, 70
        inst = small_instance(d=d, seed=5)
        e = inst.sigma_eigs
        xq = sample_matrix(n, d, "gaussian", 6) * np.sqrt(e)
        for a, b in probe_operand_pairs(inst, d):
            gram, *sandwiches = _kernel_sandwiches(xq, a, b, e)
            assert np.array_equal(gram, xq @ xq.T)
            for got, want in zip(sandwiches, reference_sandwiches(xq, a, b, 1.0 / np.sqrt(e)),
                                 strict=True):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
        # A = Sigma and B = I weigh by e, 1 and 1/e: three sandwiches, each
        # formed once and shared.
        gram, c_a, c_b, c_ab, k_a, k_b = _kernel_sandwiches(xq, e, np.ones(d), e)
        assert c_b is gram and k_a is gram and c_ab is c_a
        assert len({id(gram), id(c_a), id(k_b)}) == 3


def test_one_shifted_solve_per_draw(monkeypatch):
    import ddlab.empirical as emp

    calls = {"solve_shifted": 0, "eigh": 0}
    shapes = []
    solve, eigh = emp.solve_shifted, np.linalg.eigh

    def counting_solve(a, shift, rhs=None):
        calls["solve_shifted"] += 1
        shapes.append((np.shape(a), None if rhs is None else np.shape(rhs)))
        return solve(a, shift, rhs)

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    forms = []
    form_cov = emp.ProblemInstance._form_cov

    def counting_form_cov(self):
        forms.append(self)
        return form_cov(self)

    draws = []
    for n, d in ((30, 50), (50, 30)):
        probe_inst = small_instance(d=d, seed=91)
        probe_x = build_design(probe_inst, sample_matrix(n, d, "rademacher", 92))
        draws.append((probe_inst, probe_x @ probe_inst.sigma_basis))
    monkeypatch.setattr(emp, "solve_shifted", counting_solve)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(emp.ProblemInstance, "_form_cov", counting_form_cov)
    for n, d in ((8, 13), (13, 8)):
        # Over several ridge draws on one instance, Sigma is formed at most
        # once, and each draw takes one shifted solve.
        inst = small_instance(d=d, seed=93)
        for rep, lam in enumerate((0.0, 0.5, 0.0)):
            before = calls["solve_shifted"]
            conditional_risk_ridge(inst, sample_matrix(n, d, "gaussian", 94 + rep), lam)
            assert calls["solve_shifted"] - before == 1, (n, d, lam)
        assert sum(formed is inst for formed in forms) <= 1, (n, d)

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
            # Every solve is on the smaller Gram matrix and asks for its
            # shifted inverse, with no right-hand side.
            assert shapes == [((side, side), None)] * len(lams), probe_x.shape


class TestMapDraws:
    @pytest.mark.parametrize("raw", ["0", "-1", "abc"])
    def test_threads_below_one_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("DDLAB_THREADS", raw)
        with pytest.raises(ValueError, match="DDLAB_THREADS"):
            map_draws(abs, [-1, 2])

    @pytest.mark.parametrize("raw, keys, pool", [("64", 3, 3), ("2", 5, 2), ("64", 1, None)])
    def test_pool_never_larger_than_the_keys(self, monkeypatch, raw, keys, pool):
        import ddlab.empirical as emp

        sizes = []

        class SerialPool:
            # Records the pool size and maps in the calling thread.
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, keys):
                return map(task, keys)

        monkeypatch.setattr(emp, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setenv("DDLAB_THREADS", raw)
        assert map_draws(lambda k: -k, range(keys)) == [-k for k in range(keys)]
        assert sizes == ([] if pool is None else [pool])

    def test_sweep_draws_do_not_fault_the_heap_in_again(self, tmp_path):
        # A fresh process runs one sweep to warm its heap, then the same
        # sweep again.  Unpinned, glibc maps each draw's n x d temporaries
        # afresh or trims them off the heap top, and faults them in again:
        # about 100 minor faults per draw at this shape.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ddlab
        from ddlab.numkernel import pin_heap_thresholds

        script = """
import os, resource, sys
from ddlab.cli import main
os.chdir(sys.argv[1])
argv = ["empirical", "--n", "100", "--d", "200", "--spectrum", "inverse_index",
        "--m-grid", "50,150,300", "--reps", "4", "--out"]
main([*argv, "warm.csv"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main([*argv, "sweep.csv"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        if pin_heap_thresholds() != "applied":
            pytest.skip(pin_heap_thresholds())
        src = str(Path(ddlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        draws = 3 * 4
        assert int(proc.stdout.splitlines()[-1]) <= 5 * draws


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

    def test_designs_formed_only_above_twice_n(self, monkeypatch):
        # Up to m = 2n a projected draw is scored from Z alone; above it,
        # each draw forms its own design.  No draw reads the eigenbasis once
        # the instance holds Sigma^(1/2) and Sigma^(1/2) theta.  fig2 forms
        # at most one design per realization, shared by its draws from
        # m = n on.
        import ddlab.cli as cli
        import ddlab.empirical as emp

        calls = []
        original = emp.build_design

        def counting(inst, z):
            calls.append(z.shape)
            return original(inst, z)

        def no_basis(self):
            raise AssertionError("a draw read the eigenbasis")

        cfg = self.config(reps=3, m_grid=(5, 24, 30, 48))
        inst = build_instance(cfg)
        inst.sqrt_covariance(), inst.root_signal()
        monkeypatch.setattr(emp, "build_design", counting)
        monkeypatch.setattr(cli, "build_design", counting)
        with monkeypatch.context() as patch:
            patch.setattr(emp.ProblemInstance, "sigma_basis", property(no_basis))
            run_replications(cfg, inst, record_kappa=True)
            assert calls == []
            run_replications(replace(cfg, m_grid=[10, 49, 60]), inst)
            assert calls == [(24, 12)] * 6
        for deltas, designs in (((0.4, 0.8), 0), ((0.4, 2.0, 3.0), 3)):
            calls.clear()
            cli.run_fig2(n_values=(10,), deltas=deltas, realizations=3)
            assert calls == [(10, 20)] * designs

    def test_record_kappa_matches_dense_covariance(self):
        cfg = self.config(reps=3, m_grid=(3, 7, 12))
        inst = build_instance(cfg)
        sweep = run_replications(cfg, inst, record_kappa=True)
        sigma = inst.covariance()
        for (gi, r), res in sweep.results.items():
            s = sample_matrix(
                inst.d, int(res.m), cfg.sampler, child_seed(cfg.master_seed, gi, r, 1)
            )
            assert res.kappa_hat == pytest.approx(
                empirical_kappa_m(s.T @ sigma @ s), rel=1e-10, abs=0.0
            )

    def test_failed_kappa_estimate_keeps_the_draw(self, monkeypatch):
        # A repeated column of S makes S' Sigma S singular, so the kappa
        # estimate fails; at m > n the projected design still has its full
        # rank n, and the draw's risk stands.
        import ddlab.empirical as emp

        inst = small_instance(d=12, seed=3)
        z = sample_matrix(5, 12, "gaussian", 4)
        draw_s = emp.sample_matrix

        def repeated_column(rows, cols, sampler, seed):
            s = draw_s(rows, cols, sampler, seed)
            s[:, -1] = s[:, 0]
            return s

        monkeypatch.setattr(emp, "sample_matrix", repeated_column)
        plain = guarded_draw(projected_draw, inst, z, 0, 8, "gaussian", 5)
        recorded = guarded_draw(projected_draw, inst, z, 0, 8, "gaussian", 5, record_kappa=True)
        assert plain is not None and recorded is not None
        assert recorded.kappa_hat is None
        assert (recorded.bias, recorded.variance) == (plain.bias, plain.variance)

    @pytest.mark.parametrize("n, d", [(12, 20), (20, 12)])
    def test_ridge_draw_records_kappa_from_its_gram(self, n, d):
        # The estimate reads the Gram matrix the solve then reuses, so the
        # risk keeps its bits.
        inst = small_instance(d=d, seed=n + d)
        z = sample_matrix(n, d, "gaussian", 7)
        x = build_design(inst, z)
        for lam in (0.0, 0.1):
            plain = ridge_draw(inst, z, 2, lam)
            recorded = ridge_draw(inst, z, 2, lam, record_kappa=True)
            assert plain.kappa_hat is None
            assert (recorded.bias, recorded.variance) == (plain.bias, plain.variance)
            if d < n and lam == 0.0:
                expect = 0.0
            else:
                expect = 1.0 / np.trace(np.linalg.inv(x @ x.T + n * lam * np.eye(n)))
            assert recorded.kappa_hat == pytest.approx(expect, rel=1e-10)

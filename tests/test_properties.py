"""Randomized invariant suite over 100 seeded problem instances.

Covers the solver bracketing and monotonicity bounds, the dof ordering, the
cross-estimator consistency limits, noise-exactness of the conditional risk
formulas against noise-sampling oracles on tiny instances, the collapse
of surjective projections onto ordinary least squares, and the sign of every
conditional risk a draw returns next to the interpolation threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.config import SAMPLERS
from ddlab.empirical import (
    ProblemInstance,
    build_design,
    conditional_risk_projected,
    conditional_risk_ridge,
    sample_matrix,
)
from ddlab.numkernel import NumericalError
from ddlab.selfconsistent import kappa_isotropic_closed, kappa_of_lambda
from ddlab.spectrum import SignalMeasure, Spectrum, df1, df2
from ddlab.theory import minnorm_risk, ridge_risk, rp_risk

N_INSTANCES = 100
SEEDS = range(N_INSTANCES)


def random_measures(seed):
    """Random atomic spectrum (fractional weights) with a random signal."""
    rng = np.random.default_rng(1000 + seed)
    n_atoms = int(rng.integers(2, 9))
    d = int(rng.integers(5, 41))
    eigs = np.sort(rng.uniform(0.05, 5.0, size=n_atoms))[::-1]
    weights = rng.dirichlet(np.ones(n_atoms)) * d
    s = Spectrum(eigenvalues=eigs, weights=weights, d=d)
    masses = rng.uniform(0.0, 1.0, size=n_atoms)
    return s, SignalMeasure(masses=masses), rng


def random_tiny_instance(seed, max_dim=8):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(3, max_dim + 1))
    d = int(rng.integers(2, max_dim + 1))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    eigs = rng.uniform(0.2, 2.5, size=d)
    theta = rng.standard_normal(d)
    sigma_noise = float(rng.uniform(0.3, 1.5))
    inst = ProblemInstance(
        sigma_noise=sigma_noise, sigma_eigs=eigs, signal_coords=q.T @ theta, basis=q
    )
    return inst, n, rng


def epsilon_oracle(inst, coef_map, offset, rng, n_draws=100_000):
    eps = rng.standard_normal((n_draws, coef_map.shape[1])) * inst.sigma_noise
    dev = (offset - inst.theta_star)[None, :] + eps @ coef_map.T
    risks = np.einsum("ij,ij->i", dev, dev @ inst.covariance())
    return float(risks.mean()), float(risks.std() / np.sqrt(n_draws))


@pytest.mark.parametrize("seed", SEEDS)
def test_kappa_and_df_invariants(seed):
    s, v, rng = random_measures(seed)
    n = int(rng.integers(3, 50))
    lams = np.sort(rng.uniform(1e-4, 5.0, size=3))

    kappas = [kappa_of_lambda(s, n, lam).kappa for lam in lams]
    assert all(a < b for a, b in zip(kappas, kappas[1:]))

    trace = s.trace
    gamma = s.d / n
    for lam, kap in zip(lams, kappas):
        assert lam - 1e-12 <= kap <= lam + trace / n + 1e-12
        if s.d < n:
            assert kap <= lam / (1.0 - s.d / n) + 1e-12
        assert kap <= kappa_isotropic_closed(trace / s.d, gamma, lam) + 1e-10
        assert df2(s, kap) <= df1(s, kap) + 1e-12

    if s.d > n:
        k0 = kappa_of_lambda(s, n, 0.0).kappa
        assert k0 <= trace / n * (1.0 - n / s.d) + 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_estimator_limits(seed):
    s, v, rng = random_measures(seed)
    n = int(rng.integers(3, 50))
    sigma = float(rng.uniform(0.2, 2.0))
    mn = minnorm_risk(s, v, n, sigma)
    rl = ridge_risk(s, v, n, sigma, 0.0)
    assert mn.bias == rl.bias and mn.variance == rl.variance
    if s.d == n:
        assert mn.diverged
        return
    huge = rp_risk(s, v, n, 10**9 * n, sigma)
    assert huge.bias == pytest.approx(mn.bias, rel=1e-6, abs=1e-12)
    assert huge.variance == pytest.approx(mn.variance, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_risks_match_noise_sampling(seed):
    inst, n, rng = random_tiny_instance(seed)
    z = sample_matrix(n, inst.d, "gaussian", 3000 + seed)
    x = build_design(inst, z)

    for lam in (0.0, 0.1, 1.0):
        bias, variance = conditional_risk_ridge(inst, z, lam)
        if lam == 0.0:
            coef_map = np.linalg.pinv(x)
        else:
            coef_map = np.linalg.solve(
                x.T @ x + n * lam * np.eye(inst.d), x.T
            )
        offset = coef_map @ (x @ inst.theta_star)
        mc, se = epsilon_oracle(inst, coef_map, offset, rng)
        assert bias + variance == pytest.approx(mc, abs=4 * se + 1e-12)

    m = int(rng.integers(1, min(n, inst.d) + 1))
    s_mat = sample_matrix(inst.d, m, "gaussian", 4000 + seed)
    bias, variance = conditional_risk_projected(inst, z, s_mat)
    coef_map = s_mat @ np.linalg.pinv(x @ s_mat)
    offset = coef_map @ (x @ inst.theta_star)
    mc, se = epsilon_oracle(inst, coef_map, offset, rng)
    assert bias + variance == pytest.approx(mc, abs=4 * se + 1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_surjective_projection_collapses_to_ols(seed):
    rng = np.random.default_rng(5000 + seed)
    d = int(rng.integers(2, 7))
    n = int(rng.integers(d + 2, 14))
    m = int(rng.integers(d, d + 5))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    inst = ProblemInstance(
        sigma_noise=1.0, sigma_eigs=rng.uniform(0.3, 2.0, size=d),
        signal_coords=q.T @ rng.standard_normal(d), basis=q,
    )
    z = sample_matrix(n, d, "gaussian", 6000 + seed)
    # Gaussian projections span R^d almost surely; discrete +-1 columns can
    # genuinely lose rank at these tiny sizes.
    s_mat = sample_matrix(d, m, "gaussian", 7000 + seed)
    bias_p, var_p = conditional_risk_projected(inst, z, s_mat)
    bias_o, var_o = conditional_risk_ridge(inst, z, 0.0)
    assert var_p == pytest.approx(var_o, rel=1e-8)
    assert bias_p <= 1e-8 * max(1.0, inst.signal_strength())
    assert bias_o == 0.0


def _instance(d, rng, spread):
    """A tiny instance with eigenvalues spread over ``spread`` decades."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return ProblemInstance(
        sigma_noise=float(rng.uniform(0.3, 1.5)), sigma_eigs=10.0 ** -rng.uniform(0.0, spread, d),
        signal_coords=rng.standard_normal(d), basis=q,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), d=st.integers(1, 12),
    sampler=st.sampled_from(SAMPLERS), spread=st.floats(0.0, 6.0),
)
def test_returned_risks_are_nonnegative(seed, n, d, sampler, spread):
    # Every conditional risk is a squared norm, so summarize_point counts a
    # draw only when both of its risks are >= 0, and no roundoff band exists.
    # Checked where the designs are worst conditioned: projections next to
    # m = n and above 2n, and square ridge designs at no or a tiny penalty.
    rng = np.random.default_rng(seed)
    inst = _instance(d, rng, spread)
    z = sample_matrix(n, d, sampler, seed)
    risks = []
    for m in (n - 1, n, n + 1, 2 * n + 1):
        try:
            risks += conditional_risk_projected(inst, z, sample_matrix(d, m, sampler, seed + m))
        except (NumericalError, np.linalg.LinAlgError):
            pass
    square = _instance(n, rng, spread)
    square_z = sample_matrix(n, n, sampler, seed + 1)
    for lam in (0.0, 1e-12):
        try:
            risks += conditional_risk_ridge(square, square_z, lam)
        except (NumericalError, np.linalg.LinAlgError):
            pass
    assert all(risk >= 0 for risk in risks), risks

import numpy as np
import pytest

from ddlab import selfconsistent
from ddlab.selfconsistent import (
    REGIME_CRITICAL,
    REGIME_OVER,
    REGIME_UNDER,
    kappa_at_dof,
    kappa_isotropic_closed,
    kappa_of_lambda,
    kappa_two_dirac_closed,
)
from ddlab.spectrum import (
    SignalMeasure, Spectrum, df1, make_inverse_index, make_isotropic, make_two_dirac,
)
from ddlab.theory import ridge_risk


def bisect_df1_oracle(s, target, iters=120):
    """Independent plain bisection on the monotone df1, for cross-checking."""
    lo, hi = 0.0, s.trace / target * 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if df1(s, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_spectrum(seed, d_atoms=12):
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.05, 4.0, size=d_atoms)
    return Spectrum.from_eigenvalues(eigs)


class TestKappaOfLambda:
    def test_overparam_limit_is_gamma_minus_one(self):
        # Single-atom spectrum at 1 with d = 2n gives kappa(0) = 1.
        s = make_isotropic(1000, 1.0)
        sol = kappa_of_lambda(s, 500, 0.0)
        assert sol.kappa == pytest.approx(1.0, abs=1e-10)
        assert sol.regime == REGIME_OVER
        assert not sol.diverged

    def test_underparam_zero(self):
        s = make_isotropic(500, 1.0)
        sol = kappa_of_lambda(s, 1000, 0.0)
        assert sol.kappa == 0.0
        assert sol.regime == REGIME_UNDER

    def test_large_lambda_asymptote(self):
        # kappa approaches lambda + gamma * sigma for large lambda.
        s = make_isotropic(1000, 1.0)
        sol = kappa_of_lambda(s, 500, 10.0)
        assert sol.kappa == pytest.approx(12.0, rel=0.02)

    def test_bracket_on_random_spectra(self):
        for seed in range(6):
            s = random_spectrum(seed)
            n = 8
            for lam in (1e-4, 0.1, 1.0, 25.0):
                k = kappa_of_lambda(s, n, lam).kappa
                assert lam <= k <= lam + s.trace / n + 1e-12

    def test_residual_contract(self):
        for seed in range(4):
            s = random_spectrum(seed + 50)
            for lam in (0.0, 0.05, 1.0):
                sol = kappa_of_lambda(s, 7, lam)
                assert abs(sol.residual) <= 1e-10 * max(1.0, lam, sol.kappa)

    def test_monotone_in_lambda(self):
        s = random_spectrum(3)
        lams = [0.0, 0.01, 0.1, 1.0, 10.0]
        kappas = [kappa_of_lambda(s, 6, lam).kappa for lam in lams]
        assert all(a < b for a, b in zip(kappas, kappas[1:]))

    def test_critical_point_flagged(self):
        s = make_isotropic(64, 2.0)
        sol = kappa_of_lambda(s, 64, 0.0)
        assert sol.kappa == 0.0
        assert sol.regime == REGIME_CRITICAL
        assert sol.diverged

    def test_rejects_bad_arguments(self):
        s = make_isotropic(4, 1.0)
        with pytest.raises(ValueError):
            kappa_of_lambda(s, 4, -0.5)
        with pytest.raises(ValueError):
            kappa_of_lambda(s, 0, 0.5)

    def test_rejects_infinite_lambda(self):
        s = make_inverse_index(50)
        v = SignalMeasure(masses=np.full(50, 0.02))
        for lam in (np.inf, [0.1, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                kappa_of_lambda(s, 20, lam)
            with pytest.raises(ValueError, match="finite"):
                ridge_risk(s, v, 20, 1.0, lam)

    def test_underparam_refined_bracket(self):
        # kappa(lambda) <= lambda / (1 - d/n) below the threshold.
        for seed in range(4):
            s = random_spectrum(seed + 9, d_atoms=10)
            n = 25
            for lam in (0.01, 0.3, 2.0):
                k = kappa_of_lambda(s, n, lam).kappa
                assert k <= lam / (1.0 - 10 / 25) + 1e-12

    def test_jensen_upper_bound(self):
        # Isotropic closed form with the mean eigenvalue dominates.
        for seed in range(5):
            s = random_spectrum(seed + 70, d_atoms=14)
            n = 6
            gamma = 14 / n
            sbar = s.trace / 14
            for lam in (1e-3, 0.2, 3.0):
                k = kappa_of_lambda(s, n, lam).kappa
                assert k <= kappa_isotropic_closed(sbar, gamma, lam) + 1e-10

    def test_kappa_zero_bound_overparam(self):
        for seed in range(5):
            s = random_spectrum(seed + 90, d_atoms=20)
            n = 10
            k0 = kappa_of_lambda(s, n, 0.0).kappa
            assert k0 <= s.trace / n * (1.0 - n / 20) + 1e-10


class TestKappaAtDof:
    def test_isotropic_half(self):
        s = make_isotropic(100, 1.0)
        sol = kappa_at_dof(s, 50.0)
        assert sol.kappa == pytest.approx(1.0, abs=1e-12)

    def test_target_near_rank_gives_small_kappa(self):
        s = make_isotropic(100, 1.0)
        assert kappa_at_dof(s, 99.999).kappa == pytest.approx(0.0, abs=1e-3)

    def test_matches_independent_bisection(self):
        s = make_two_dirac(100, 0.5, 1.0, 4.0)
        for target in (10.0, 50.0, 90.0):
            got = kappa_at_dof(s, target).kappa
            assert got == pytest.approx(bisect_df1_oracle(s, target), abs=1e-9)

    def test_monotone_in_target(self):
        s = random_spectrum(44, d_atoms=30)
        targets = [3.0, 10.0, 20.0, 29.0]
        kappas = [kappa_at_dof(s, t).kappa for t in targets]
        assert all(a > b for a, b in zip(kappas, kappas[1:]))

    def test_residual_tolerance(self):
        s = random_spectrum(45, d_atoms=50)
        for target in (1.0, 12.5, 49.0):
            sol = kappa_at_dof(s, target)
            assert abs(sol.residual) <= 1e-10 * target

    def test_target_exceeding_rank_rejected(self):
        s = make_isotropic(10, 1.0)
        with pytest.raises(ValueError, match="rank"):
            kappa_at_dof(s, 10.0)
        with pytest.raises(ValueError):
            kappa_at_dof(s, -1.0)


class TestClosedForms:
    def test_isotropic_at_zero(self):
        assert kappa_isotropic_closed(1.0, 2.0, 0.0) == pytest.approx(1.0)

    def test_isotropic_critical_sqrt_behavior(self):
        assert kappa_isotropic_closed(1.0, 1.0, 1e-4) == pytest.approx(0.01, rel=0.02)

    def test_isotropic_underparam_slope(self):
        # kappa'(0) = 1/(1-gamma) = 2 at gamma = 1/2.
        assert kappa_isotropic_closed(1.0, 0.5, 1e-3) == pytest.approx(0.002, rel=2e-3)

    def test_isotropic_agrees_with_solver(self):
        for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
            d = int(gamma * 1000)
            s = make_isotropic(d, 1.3)
            for lam in (1e-4, 0.1, 1.0, 10.0):
                solver = kappa_of_lambda(s, 1000, lam).kappa
                closed = kappa_isotropic_closed(1.3, gamma, lam)
                assert solver == pytest.approx(closed, rel=1e-9)

    def test_isotropic_rejects_negative(self):
        with pytest.raises(ValueError):
            kappa_isotropic_closed(-1.0, 2.0, 0.0)

    def test_two_dirac_matches_dof_solver(self):
        s = make_two_dirac(1000, 0.5, 1.0, 4.0)
        n = 500  # gamma = 2
        for delta in (0.05, 0.25, 0.5, 0.75, 1.0):
            closed = kappa_two_dirac_closed(0.5, 0.5, 1.0, 4.0, 2.0, delta)
            solver = kappa_at_dof(s, delta * n).kappa
            assert closed == pytest.approx(solver, rel=1e-8)

    def test_two_dirac_degenerates_to_isotropic(self):
        for delta in (0.2, 0.6, 1.0):
            closed = kappa_two_dirac_closed(1.0, 0.0, 1.7, 0.4, 2.0, delta)
            iso = kappa_isotropic_closed(1.7, 2.0 / delta, 0.0)
            assert closed == pytest.approx(iso, rel=1e-12)

    def test_two_dirac_equal_atoms_formula(self):
        # Both atoms equal reduces to (gamma/delta - 1) * sigma.
        got = kappa_two_dirac_closed(0.3, 0.7, 2.5, 2.5, 3.0, 0.5)
        assert got == pytest.approx((3.0 / 0.5 - 1.0) * 2.5, rel=1e-12)

    def test_two_dirac_delta_zero_diverges(self):
        assert kappa_two_dirac_closed(0.5, 0.5, 1.0, 4.0, 2.0, 0.0) == np.inf

    def test_two_dirac_validation(self):
        with pytest.raises(ValueError):
            kappa_two_dirac_closed(0.6, 0.6, 1.0, 4.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            kappa_two_dirac_closed(0.5, 0.5, 1.0, 4.0, 0.5, 0.9)  # delta > gamma


class TestCertifiedBracket:
    """Newton steps certify a bracket; the bisection calls df1 only inside it."""

    S = make_inverse_index(4000)
    N = 2000
    TARGETS = np.arange(10.0, 2000.0, 10.0)
    LAMS = np.geomspace(1e-6, 1.0, 400)

    def solve(self):
        return kappa_at_dof(self.S, self.TARGETS), kappa_of_lambda(self.S, self.N, self.LAMS)

    @staticmethod
    def without_newton(monkeypatch):
        """Every Newton step NaN, as from a NaN derivative."""
        bracket = selfconsistent._certified_bracket

        def nan_steps(x, v, side, value, holds, newton):
            return bracket(x, v, side, value, holds, lambda k, *_: np.full(k.shape, np.nan))

        monkeypatch.setattr(selfconsistent, "_certified_bracket", nan_steps)

    @staticmethod
    def count_rows(monkeypatch):
        """Table rows (points with kappa > 0) evaluated by df1 and the slopes."""
        rows = [0]
        for name in ("df1", "df2", "support_sums"):
            def counted(s, kappa, *args, _f=getattr(selfconsistent, name)):
                rows[0] += int(np.count_nonzero(kappa))
                return _f(s, kappa, *args)

            monkeypatch.setattr(selfconsistent, name, counted)
        return rows

    def assert_same(self, got, want):
        for a, b in zip(got, want):
            assert np.array_equal(a.kappa, b.kappa)
            assert np.array_equal(a.residual, b.residual)
            assert np.array_equal(a.diverged, b.diverged)
            assert a.iterations == b.iterations

    def test_nan_newton_steps_fall_back_to_full_bisection(self, monkeypatch):
        certified = self.solve()
        self.without_newton(monkeypatch)
        self.assert_same(self.solve(), certified)

    def test_newton_cap_zero_gives_same_bits(self, monkeypatch):
        certified = self.solve()
        monkeypatch.setattr(selfconsistent, "_NEWTON_CAP", 0)
        self.assert_same(self.solve(), certified)

    def test_at_most_half_the_rows_of_a_full_bisection(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        kappa_at_dof(self.S, self.TARGETS)
        dof = rows[0]
        kappa_of_lambda(self.S, self.N, self.LAMS)
        lam = rows[0] - dof
        self.without_newton(monkeypatch)
        rows[0] = 0
        kappa_at_dof(self.S, self.TARGETS)
        full_dof = rows[0]
        kappa_of_lambda(self.S, self.N, self.LAMS)
        full_lam = rows[0] - full_dof
        # Every bisection step, the roundoff nudges of hi, the Newton polish
        # and the residuals: 9,725 df1 rows and 471 slope rows for the m
        # grid, 17,352 df1 rows for the lambda grid.
        assert (full_dof, full_lam) == (10196, 17352)
        assert 2 * dof <= full_dof
        assert 2 * lam <= full_lam

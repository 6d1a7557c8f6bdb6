import numpy as np
import pytest

from ddlab.numkernel import IndefiniteMatrixError, pseudo_inverse, solve_shifted


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a @ a.T + 0.1 * np.eye(dim)


class TestSolveShifted:
    def test_identity_shift_one(self):
        rhs = np.array([1.0, 0.0, 0.0, 0.0])
        x = solve_shifted(np.eye(4), 1.0, rhs)
        assert np.allclose(x, 0.5 * rhs)

    def test_diagonal_unshifted(self):
        x = solve_shifted(np.diag([1.0, 2.0]), 0.0, np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.5])

    def test_random_spd_residual(self):
        a = random_spd(6, seed=11)
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal((6, 3))
        x = solve_shifted(a, 0.7, rhs)
        resid = np.linalg.norm((a + 0.7 * np.eye(6)) @ x - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_indefinite_error_carries_eigenvalue(self):
        a = np.diag([1.0, -2.0])
        with pytest.raises(IndefiniteMatrixError) as err:
            solve_shifted(a, 0.0, np.ones(2))
        assert err.value.min_eigenvalue == pytest.approx(-2.0, abs=1e-10)

    def test_shift_absorption_identity(self):
        # solve(A, 0, rhs) == solve(A - lam I, lam, rhs) for lam below the
        # smallest eigenvalue.
        a = random_spd(7, seed=21)
        lam = 0.5 * np.linalg.eigvalsh(a).min()
        rhs = np.random.default_rng(22).standard_normal(7)
        x0 = solve_shifted(a, 0.0, rhs)
        x1 = solve_shifted(a - lam * np.eye(7), lam, rhs)
        assert np.linalg.norm(x0 - x1) <= 1e-9 * np.linalg.norm(x0)

    @pytest.mark.parametrize("dim, shift, cols", [
        (6, 0.7, 3), (40, 0.0, 1), (130, 1e-3, 130), (200, 0.0, 400), (200, 200.0, 0),
    ])
    def test_matches_scipy_cholesky(self, dim, shift, cols):
        # The route before the numpy factor: scipy's cho_factor/cho_solve
        # with the same refinement, kept as the reference the new one must
        # match.
        import scipy.linalg

        rng = np.random.default_rng(dim + cols)
        z = rng.standard_normal((dim, 2 * dim))
        a = z @ z.T / (2 * dim)
        rhs = rng.standard_normal((dim, cols)) if cols else rng.standard_normal(dim)
        shifted = a + shift * np.eye(dim)
        chol = scipy.linalg.cho_factor(shifted, lower=True)
        ref = scipy.linalg.cho_solve(chol, rhs)
        for _ in range(3):
            resid = rhs - shifted @ ref
            if np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(rhs):
                break
            ref = ref + scipy.linalg.cho_solve(chol, resid)
        x = solve_shifted(a, shift, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            solve_shifted(np.ones((2, 3)), 1.0, np.ones(2))
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_shifted(bad, 1.0, np.ones(2))
        for shift in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_shifted(np.eye(2), shift, np.ones(2))


def old_eigh_pseudo_inverse(design, tol=1e-12):
    """The kernel before the Cholesky route: the Gram eigendecomposition
    alone, kept as the reference the new route must match."""
    design = np.asarray(design, dtype=float)
    n, p = design.shape
    cols = p <= n
    w, v = np.linalg.eigh(design.T @ design if cols else design @ design.T)
    w = np.maximum(w, 0.0)
    top = float(w.max(initial=0.0))
    if top == 0.0:
        return np.zeros((p, n)), 0
    keep = w > top * max(tol**2, np.finfo(float).eps * max(n, p))
    w, v = w[keep], v[:, keep]
    if cols:
        return (v / w) @ (v.T @ design.T), int(keep.sum())
    return design.T @ ((v / w) @ v.T), int(keep.sum())


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts Gram eigendecompositions, i.e. the eigh fallback's runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestPseudoInverse:
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6)])
    def test_matches_numpy(self, shape):
        rng = np.random.default_rng(31)
        a = rng.standard_normal(shape)
        pinv, rank = pseudo_inverse(a)
        assert rank == min(shape)
        assert np.allclose(pinv, np.linalg.pinv(a), atol=1e-9)

    def test_detects_rank_deficiency(self, eigh_calls):
        rng = np.random.default_rng(32)
        base = rng.standard_normal((6, 3))
        a = np.hstack([base, base[:, :2]])  # rank 3, five columns
        _, rank = pseudo_inverse(a)
        assert rank == 3
        assert eigh_calls == [(5, 5)]

    def test_zero_design(self, eigh_calls):
        pinv, rank = pseudo_inverse(np.zeros((4, 6)))
        assert rank == 0
        assert np.array_equal(pinv, np.zeros((6, 4)))
        assert eigh_calls == [(4, 4)]


class TestPseudoInverseRoutes:
    @pytest.mark.parametrize("shape", [(40, 10), (10, 40), (200, 100), (100, 200), (200, 400), (1, 3)])
    def test_cholesky_route_matches_eigh_route(self, shape, eigh_calls):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        pinv, rank = pseudo_inverse(a)
        assert eigh_calls == []
        ref, ref_rank = old_eigh_pseudo_inverse(a)
        assert rank == ref_rank == min(shape)
        np.testing.assert_allclose(pinv, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("n, d, m, seed", [(30, 12, 60, 1), (30, 12, 60, 2), (200, 100, 400, 3)])
    def test_rank_deficient_products_match_eigh_rank(self, n, d, m, seed, eigh_calls):
        # X S with X of rank d < min(n, m): the smaller Gram is n x n of rank d.
        rng = np.random.default_rng(seed)
        a = rng.choice([-1.0, 1.0], size=(n, d)) @ rng.choice([-1.0, 1.0], size=(d, m))
        pinv, rank = pseudo_inverse(a)
        assert eigh_calls, "a rank-deficient Gram must take the eigh fallback"
        ref, ref_rank = old_eigh_pseudo_inverse(a)
        assert rank == ref_rank == d
        np.testing.assert_allclose(pinv, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("k", [10, 60])
    def test_rank_agrees_across_the_cutoff(self, k):
        # One singular value walks from 1e-1 down past the rank cutoff
        # (about 1e-7 for these shapes), through the region where the
        # Cholesky certificate stops holding.
        rng = np.random.default_rng(k)
        for ratio in np.logspace(-1, -10, 28):
            u = np.linalg.qr(rng.standard_normal((2 * k, k)))[0]
            v = np.linalg.qr(rng.standard_normal((k, k)))[0]
            sv = np.ones(k)
            sv[-1] = ratio
            a = (u * sv) @ v.T
            for design in (a, a.T):
                assert pseudo_inverse(design)[1] == old_eigh_pseudo_inverse(design)[1], ratio

    def test_non_finite_design_takes_the_fallback(self, eigh_calls):
        design = np.full((3, 2), np.nan)
        assert pseudo_inverse(design)[1] == old_eigh_pseudo_inverse(design)[1]
        assert eigh_calls[0] == (2, 2)

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

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            solve_shifted(np.ones((2, 3)), 1.0, np.ones(2))
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_shifted(bad, 1.0, np.ones(2))


class TestPseudoInverse:
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6)])
    def test_matches_numpy(self, shape):
        rng = np.random.default_rng(31)
        a = rng.standard_normal(shape)
        pinv, rank = pseudo_inverse(a)
        assert rank == min(shape)
        assert np.allclose(pinv, np.linalg.pinv(a), atol=1e-9)

    def test_detects_rank_deficiency(self):
        rng = np.random.default_rng(32)
        base = rng.standard_normal((6, 3))
        a = np.hstack([base, base[:, :2]])  # rank 3, five columns
        _, rank = pseudo_inverse(a)
        assert rank == 3

    def test_zero_design(self):
        pinv, rank = pseudo_inverse(np.zeros((4, 6)))
        assert rank == 0
        assert np.array_equal(pinv, np.zeros((6, 4)))

"""Dense symmetric linear-algebra kernels.

The Monte Carlo risks and probes reduce to two primitives: shifted
positive-definite solves with symmetric matrices, and Moore-Penrose
pseudo-inverses with their numerical rank.  All functions are pure and
operate on plain float64 ndarrays; there is no shared state, so they are
safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Rank cutoff for pseudo-inverses, relative to the largest singular value.
# Exposed as a parameter of pseudo_inverse because projected designs
# just above the interpolation threshold are genuinely ill-conditioned.
DEFAULT_RANK_TOL = 1e-12


class NumericalError(RuntimeError):
    """A linear-algebra routine could not meet its accuracy contract."""


class IndefiniteMatrixError(NumericalError):
    """Shifted solve attempted on a matrix that is not positive definite."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def as_sym_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and return a square symmetric float64 matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(a, a.T):
        # Tolerate roundoff-level asymmetry from accumulated products.
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError(f"{name} is not symmetric")
        a = 0.5 * (a + a.T)
    return a


def solve_shifted(a, shift: float, rhs) -> np.ndarray:
    """Solve (a + shift*I) x = rhs for SPD a + shift*I.

    Accepts a vector or matrix right-hand side and returns the same shape.
    One step of iterative refinement keeps the residual at roundoff level
    even for badly conditioned systems.
    """
    a = as_sym_matrix(a)
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {a.shape[0]}")
    shifted = a if shift == 0 else a + shift * np.eye(a.shape[0])
    try:
        chol = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(shifted).min())
        raise IndefiniteMatrixError(
            f"matrix plus shift {shift} is not positive definite "
            f"(smallest eigenvalue estimate {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    x = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
    # Iterative refinement: usually one pass, capped at three.
    rhs_norm = float(np.linalg.norm(rhs))
    for _ in range(3):
        resid = rhs - shifted @ x
        if float(np.linalg.norm(resid)) <= 1e-13 * max(rhs_norm, 1e-300):
            break
        x = x + scipy.linalg.cho_solve(chol, resid, check_finite=False)
    return x


def pseudo_inverse(design, tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse via the smaller Gram eigendecomposition.

    Returns (pinv, numerical_rank); pinv has shape (p, n) for an n x p input.
    The cutoff drops singular values below tol times the largest one; Gram
    eigenvalues at the machine-noise level eps * max(n, p) relative to the
    top are always dropped, which is the resolution limit of this route.
    An all-zero design has rank 0 and a zero pseudo-inverse.
    """
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

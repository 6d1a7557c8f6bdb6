"""Dense symmetric linear-algebra kernels.

The Monte Carlo risks and probes reduce to two primitives: shifted
positive-definite solves with symmetric matrices, and Moore-Penrose
pseudo-inverses with their numerical rank.  All functions are pure and
operate on plain float64 ndarrays; there is no shared state, so they are
safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

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


# Side at or below which _lower_inverse inverts a block with LAPACK.
_INVERSE_BLOCK = 64


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halving it into 2 x 2 blocks,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], so that most
    of the work is matrix products rather than a general LU inverse."""
    k = low.shape[0]
    if k <= _INVERSE_BLOCK:
        return np.linalg.inv(low)
    h = k // 2
    out = np.zeros_like(low)
    out[:h, :h] = top = _lower_inverse(low[:h, :h])
    out[h:, h:] = bottom = _lower_inverse(low[h:, h:])
    out[h:, :h] = -(bottom @ low[h:, :h]) @ top
    return out


def solve_shifted(a, shift: float, rhs) -> np.ndarray:
    """Solve (a + shift*I) x = rhs for SPD a + shift*I.

    Accepts a vector or matrix right-hand side and returns the same shape.
    One step of iterative refinement keeps the residual at roundoff level
    even for badly conditioned systems.

    The solve applies the inverse of numpy's Cholesky factor L twice,
    x = L^-T (L^-1 rhs), on numpy's OpenBLAS, the only BLAS ddlab loads.
    """
    a = as_sym_matrix(a)
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {a.shape[0]}")
    shifted = a if shift == 0 else a + shift * np.eye(a.shape[0])
    try:
        factor_inv = _lower_inverse(np.linalg.cholesky(shifted))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(shifted).min())
        raise IndefiniteMatrixError(
            f"matrix plus shift {shift} is not positive definite "
            f"(smallest eigenvalue estimate {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    x = factor_inv.T @ (factor_inv @ rhs)
    # Iterative refinement: usually one pass, capped at three.
    rhs_norm = float(np.linalg.norm(rhs))
    for _ in range(3):
        resid = rhs - shifted @ x
        if float(np.linalg.norm(resid)) <= 1e-13 * max(rhs_norm, 1e-300):
            break
        x = x + factor_inv.T @ (factor_inv @ resid)
    return x


def pseudo_inverse(design, tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse through the smaller Gram matrix G.

    Returns (pinv, numerical_rank); pinv has shape (p, n) for an n x p input.
    The cutoff drops singular values below tol times the largest one; Gram
    eigenvalues at the machine-noise level eps * max(n, p) relative to the
    top are always dropped, which is the resolution limit of this route.
    An all-zero design has rank 0 and a zero pseudo-inverse.

    A Cholesky factor G = LL' gives the inverse directly when it certifies
    full rank: lambda_min(G) >= 1/||L^-1||_F^2 and lambda_max(G) <= tr G, so
    a ratio of these bounds above _CERTIFY_MARGIN times the cutoff places
    every eigenvalue well inside the kept range.  Otherwise (a failed
    factorization, or no certificate) the Gram eigendecomposition decides
    the rank, so both routes report the same numerical rank.
    """
    design = np.asarray(design, dtype=float)
    n, p = design.shape
    cols = p <= n
    gram = design.T @ design if cols else design @ design.T
    cutoff = max(tol**2, np.finfo(float).eps * max(n, p))
    inverse = _certified_inverse(gram, cutoff)
    if inverse is None:
        return _eigh_pseudo_inverse(design, gram, cols, cutoff)
    if cols:
        return inverse @ design.T, gram.shape[0]
    return design.T @ inverse, gram.shape[0]


# Factor between the Cholesky certificate and the rank cutoff.  It absorbs
# the rounding of the factor and of its inverse, so that a certified Gram
# matrix is one whose eigendecomposition keeps every eigenvalue.
_CERTIFY_MARGIN = 1e3


def _certified_inverse(gram: np.ndarray, cutoff: float) -> np.ndarray | None:
    """G^-1 when a Cholesky factor of G certifies that all eigenvalues exceed
    cutoff times the largest, else None."""
    try:
        factor_inv = _lower_inverse(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return None
    # Negated, so that a NaN from a non-finite design falls back.
    bound = float(np.vdot(factor_inv, factor_inv)) * float(np.trace(gram))
    if not bound * cutoff * _CERTIFY_MARGIN < 1.0:
        return None
    return factor_inv.T @ factor_inv


def _eigh_pseudo_inverse(
    design: np.ndarray, gram: np.ndarray, cols: bool, cutoff: float
) -> tuple[np.ndarray, int]:
    """The pseudo-inverse from the eigendecomposition of the Gram matrix,
    keeping eigenvalues above cutoff times the largest."""
    n, p = design.shape
    w, v = np.linalg.eigh(gram)
    w = np.maximum(w, 0.0)
    top = float(w.max(initial=0.0))
    if top == 0.0:
        return np.zeros((p, n)), 0
    keep = w > top * cutoff
    w, v = w[keep], v[:, keep]
    if cols:
        return (v / w) @ (v.T @ design.T), int(keep.sum())
    return design.T @ ((v / w) @ v.T), int(keep.sum())

"""Dense symmetric linear-algebra kernels.

The Monte Carlo risks and probes reduce to two primitives: shifted
positive-definite solves with symmetric matrices (or the shifted inverse
itself), and Moore-Penrose pseudo-inverses with their numerical rank.  A
third kernel forms the orthogonal factor of a QR factorization from its
raw Householder reflectors, for the seeded eigenbases.  All functions are
pure and operate on plain float64 ndarrays; there is no shared state, so
they are safe to call from multiple threads.

One helper is not a kernel: pin_heap_thresholds sets glibc's allocator
thresholds for the whole process, once, so that the draws' temporaries
are recycled on the heap instead of being faulted in again on every draw.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np


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


def solve_shifted(a, shift: float, rhs=None) -> np.ndarray:
    """Solve (a + shift*I) x = rhs for SPD a + shift*I; with no rhs, return
    the inverse (a + shift*I)^-1.

    Accepts a vector or matrix right-hand side and returns the same shape.
    Iterative refinement, usually one pass and at most three, keeps the
    residual at roundoff level even for badly conditioned systems; the
    inverse is refined as the solution for rhs = I.

    The shifted inverse is formed first, as F'F from the inverse F of
    numpy's Cholesky factor L (one symmetric product), on numpy's OpenBLAS,
    the only BLAS ddlab loads.  A solve applies it, x = (F'F) rhs, and so
    does each refinement pass, x += (F'F) r: one product with the
    right-hand side where F' (F rhs) takes two, which pays for forming F'F
    once rhs has about k/2 columns, as every caller's has.
    """
    a = as_sym_matrix(a)
    if not 0 <= shift < math.inf:
        raise ValueError(f"shift must be finite and nonnegative, got {shift}")
    k = a.shape[0]
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != k:
            raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {k}")
    shifted = a
    if shift != 0:
        shifted = a.copy()
        shifted.flat[:: k + 1] += shift
    try:
        factor_inv = _lower_inverse(np.linalg.cholesky(shifted))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(shifted).min())
        raise IndefiniteMatrixError(
            f"matrix plus shift {shift} is not positive definite "
            f"(smallest eigenvalue estimate {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    inverse = factor_inv.T @ factor_inv
    del factor_inv
    if rhs is None:
        x = inverse
        rhs_norm = math.sqrt(k)
    else:
        x = inverse @ rhs
        rhs_norm = float(np.linalg.norm(rhs))
    for _ in range(3):
        resid = shifted @ x
        if rhs is None:
            np.negative(resid, out=resid)
            resid.flat[:: k + 1] += 1.0
        else:
            np.subtract(rhs, resid, out=resid)
        if float(np.linalg.norm(resid)) <= 1e-13 * max(rhs_norm, 1e-300):
            break
        x = x + inverse @ resid
    return x


def pseudo_inverse(design) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse through the smaller Gram matrix G.

    Returns (pinv, numerical_rank); pinv has shape (p, n) for an n x p input.
    The rank cutoff is the resolution limit of this route: Gram eigenvalues
    below eps * max(n, p) times the largest are dropped, so singular values
    below sqrt(eps * max(n, p)) times the largest one are cut (about 2.1e-7
    at max(n, p) = 200).
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
    cutoff = np.finfo(float).eps * max(n, p)
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


# Reflectors per block of the compact-WY form, and rows per product when a
# block updates its operand, which bounds that product's temporary.
_REFLECTOR_BLOCK = 128
_UPDATE_ROWS = 512


def _wy_block(a: np.ndarray, tau: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The compact-WY form H_start ... H_(stop-1) = I - V T V' of a block of
    the reflectors in LAPACK's layout a = raw', acting on rows start:.  V
    holds the reflectors with their unit diagonal, and the upper-triangular T
    is built by dlarft's recurrence."""
    v = np.tril(a[start:, start:stop], -1)
    np.fill_diagonal(v, 1.0)
    vtv = v.T @ v
    t = np.zeros((stop - start, stop - start))
    for i, tau_i in enumerate(tau[start:stop]):
        t[i, i] = tau_i
        t[:i, i] = -tau_i * (t[:i, :i] @ vtv[:i, i])
    return v, t


def householder_q(raw: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The complete m x m orthogonal factor Q = H_1 ... H_k of a QR
    factorization given as np.linalg.qr(a, mode="raw") = (raw, tau) for an
    m x k input a, k <= m.

    raw' holds LAPACK's reflectors below its diagonal (the diagonal and
    above are R), and H_i = I - tau_i v_i v_i'.  Q is accumulated as LAPACK's
    dorgqr does: from the identity, backward over blocks of reflectors, each
    block applied to the trailing rows and columns in its compact-WY form.
    A reflector with tau = 0 is the identity.
    """
    a = raw.T
    m, k = a.shape
    q = np.zeros((m, m))
    q.flat[:: m + 1] = 1.0
    for start in range(((k - 1) // _REFLECTOR_BLOCK) * _REFLECTOR_BLOCK, -1, -_REFLECTOR_BLOCK):
        v, t = _wy_block(a, tau, start, min(start + _REFLECTOR_BLOCK, k))
        w = t @ (v.T @ q[start:, start:])
        for row in range(0, m - start, _UPDATE_ROWS):
            q[start + row:start + row + _UPDATE_ROWS, start:] -= v[row:row + _UPDATE_ROWS] @ w
    return q


def householder_apply(raw: np.ndarray, tau: np.ndarray, y) -> np.ndarray:
    """Q'y for the Q = H_1 ... H_k of np.linalg.qr(a, mode="raw") = (raw, tau),
    as in householder_q, without forming Q.  y is an m-vector or has m rows;
    the result is a new array of y's shape.

    Q' = H_k ... H_1 is applied forward over blocks of reflectors, each block
    to the trailing rows as y[s:] -= V (T' (V' y[s:])).  For p columns of y
    and a square input that is about 2 m^2 p flops, as many as the product
    Q'y itself, and Q's own (4/3) m^3 are never spent.
    """
    a = raw.T
    m, k = a.shape
    out = np.array(y, dtype=float, order="C")
    if out.ndim not in (1, 2) or out.shape[0] != m:
        raise ValueError(f"y has shape {out.shape}, expected ({m},) or ({m}, *)")
    for start in range(0, k, _REFLECTOR_BLOCK):
        v, t = _wy_block(a, tau, start, min(start + _REFLECTOR_BLOCK, k))
        w = t.T @ (v.T @ out[start:])
        for row in range(0, m - start, _UPDATE_ROWS):
            out[start + row:start + row + _UPDATE_ROWS] -= v[row:row + _UPDATE_ROWS] @ w
    return out


# glibc's mallopt parameter numbers (malloc.h), and the values
# pin_heap_thresholds sets: requests up to 32 MiB, glibc's own cap for its
# dynamic mmap threshold, come from the heap, and the heap top is handed
# back only once more than twice that is free, as glibc's dynamic rule does
# at the cap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


@functools.cache
def pin_heap_thresholds() -> str:
    """Pin glibc's mmap and trim thresholds for the whole process, on the
    first call; return "applied", or why nothing was set.

    glibc maps every request above its mmap threshold afresh, and trims the
    heap top once more than its trim threshold is free.  Both start at
    128 KiB and rise only as far as the largest mapped chunk freed so far,
    so Monte Carlo draws whose temporaries outgrow them fault every page in
    again on each draw.  The setting is process-global: it holds for every
    allocation that follows, in every thread, and it turns glibc's dynamic
    rule off.  Elsewhere than on glibc it does nothing.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        libc_version = None
    if not libc_version or not libc_version.startswith("glibc"):
        return f"not applied: the C library is not glibc ({libc_version})"
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            return f"not applied: mallopt({param}, {value}) failed"
    return "applied"

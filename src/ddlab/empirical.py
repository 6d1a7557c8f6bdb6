"""Finite-sample experiments: designs, exact conditional risks, probes.

The Monte Carlo side of the library.  A ProblemInstance fixes one concrete
prediction problem (covariance eigenstructure, target coefficients, noise
level); replications then draw design and projection matrices and evaluate
the excess risk conditionally on them, exactly in the noise (the noise
expectation is carried out in closed form, never sampled).  All sampling is
seed-pure: samplers take explicit seeds and no global RNG state is touched,
so replications can run concurrently and merge deterministically.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dormqr

from .config import SweepConfig
from .numkernel import (
    DEFAULT_RANK_TOL,
    NumericalError,
    as_sym_matrix,
    pseudo_inverse,
    solve_shifted,
)
from .selfconsistent import kappa_of_lambda
from .spectrum import SignalMeasure, Spectrum, df2, spectrum_for, spectrum_from_json

__all__ = [
    "ProblemInstance",
    "SeededRotation",
    "ReplicationResult",
    "GridAggregate",
    "SweepEmpirical",
    "RankDeficientDesignError",
    "TraceProbe",
    "child_seed",
    "sample_matrix",
    "build_design",
    "build_instance",
    "seeded_instance",
    "conditional_risk_projected",
    "conditional_risk_ridge",
    "empirical_kappa_lambda",
    "empirical_kappa_m",
    "probe_trace_equivalents",
    "run_replications",
]

# Negative risk values above this threshold are roundoff and clamped to zero;
# anything below it is a genuine numerical failure.
CLAMP_FLOOR = -1e-10

THREADS_ENV_VAR = "DDLAB_THREADS"

_MASK64 = (1 << 64) - 1

# Stream tags separating the design draw from the projection draw.
_STREAM_Z = 0
_STREAM_S = 1
_STREAM_BASIS = 0x0BA5
_STREAM_THETA = 0x7E7A


class RankDeficientDesignError(NumericalError):
    """A projected design lost rank beyond the pseudo-inverse tolerance."""


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: full-avalanche 64-bit scramble."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit child seed by mixing the master seed with indices.

    Every index is scrambled before being absorbed and the running state is
    re-scrambled after each absorption, so nearby index tuples land on
    unrelated seeds.  Bit-exact reproducibility is promised for identical
    inputs within this implementation.
    """
    state = master_seed & _MASK64
    for ix in indices:
        state = _mix64(state ^ _mix64(ix & _MASK64))
    return state


def sample_matrix(rows: int, cols: int, sampler: str, seed: int) -> np.ndarray:
    """Matrix with i.i.d. zero-mean unit-variance entries, fixed by seed."""
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape must be nonnegative, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    if sampler == "gaussian":
        return rng.standard_normal((rows, cols))
    if sampler == "rademacher":
        return rng.integers(0, 2, size=(rows, cols)).astype(float) * 2.0 - 1.0
    raise ValueError(f"unknown sampler {sampler!r}")


class SeededRotation:
    """Seeded uniformly random d x d orthogonal matrix Q, kept as Householder
    reflectors until a caller needs it as a matrix.

    Q is the Q factor of a seeded Gaussian draw G = QR, column signs fixed by
    the diagonal of R.  The factorization is LAPACK's raw one (dgeqrf), and
    Q or Q' reaches a vector through the reflectors in O(d^2) (dormqr).
    """

    def __init__(self, d: int, seed: int):
        # A Fortran-ordered G gives the same factors as a C-ordered one, and
        # gives them in Fortran order, which dormqr reads without a copy.
        g = np.asfortranarray(np.random.default_rng(seed).standard_normal((d, d)))
        h, self.tau = np.linalg.qr(g, mode="raw")
        # LAPACK layout: R on and above the diagonal, the reflectors below it.
        self.reflectors = h.T
        self.signs = np.sign(np.diag(self.reflectors))

    def apply(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Q v, or Q' v when transpose is set."""
        v = np.asarray(v, dtype=float)
        if not transpose:
            v = self.signs * v
        # The minimal workspace (one column) selects the unblocked dorm2r,
        # which reads each reflector once: the cheapest form for one vector.
        out, _, info = dormqr(
            "L", "T" if transpose else "N", self.reflectors, self.tau, v[:, None], lwork=1
        )
        if info != 0:
            raise NumericalError(f"dormqr failed with info {info}")
        return self.signs * out[:, 0] if transpose else out[:, 0]

    def matrix(self) -> np.ndarray:
        """Q as a d x d array, bit-identical to np.linalg.qr(G)[0] * signs.

        np.linalg.qr forms Q with this gufunc (LAPACK dorgqr, its workspace
        queried, so blocked) from the same raw factors; scipy's dorgqr links
        another OpenBLAS and differs from it in the last bits under threads.
        """
        q = _umath_linalg.qr_reduced(self.reflectors, self.tau, signature="dd->d")
        q *= self.signs
        return q


class ProblemInstance:
    """One concrete prediction problem under the i.i.d. design model.

    Sigma = Q diag(sigma_eigs) Q'.  The eigenbasis is given either as the
    d x d matrix Q or as a SeededRotation, which is formed into a matrix
    only on the first covariance action; the target's eigen-coordinates
    Q' theta_star are computed once, here, and serve the signal measure and
    the signal strength.  Instances are immutable.
    """

    def __init__(
        self,
        n: int,
        d: int,
        sigma_noise: float,
        sigma_basis,
        sigma_eigs: np.ndarray,
        theta_star: np.ndarray,
        signal_coords: np.ndarray | None = None,
    ):
        """``signal_coords`` is Q' theta_star when the caller already has it."""
        eigs = np.asarray(sigma_eigs, dtype=float)
        theta = np.asarray(theta_star, dtype=float)
        if isinstance(sigma_basis, SeededRotation):
            rotation, basis, shape = sigma_basis, None, sigma_basis.reflectors.shape
        else:
            rotation, basis = None, np.asarray(sigma_basis, dtype=float)
            shape = basis.shape
        if shape != (d, d):
            raise ValueError(f"basis has shape {shape}, expected ({d}, {d})")
        if eigs.shape != (d,) or theta.shape != (d,):
            raise ValueError("eigenvalues and theta must be d-vectors")
        if (eigs <= 0).any():
            raise ValueError("covariance eigenvalues must be positive")
        if basis is not None:
            _check_orthonormal(basis)
        if not sigma_noise >= 0:
            raise ValueError(f"noise level must be nonnegative, got {sigma_noise}")
        if signal_coords is None and basis is not None:
            signal_coords = basis.T @ theta
        elif signal_coords is None:
            signal_coords = rotation.apply(theta, transpose=True)
        coords = np.asarray(signal_coords, dtype=float)
        if rotation is not None:
            # O(d) stand-in for the orthonormality check of a formed basis.
            norm = np.linalg.norm(theta)
            if not abs(np.linalg.norm(coords) - norm) <= 1e-10 * norm:
                raise ValueError("basis columns are not orthonormal")
        self.__dict__.update(
            n=n, d=d, sigma_noise=sigma_noise, sigma_eigs=eigs, theta_star=theta,
            _coords=coords, _basis=basis, _rotation=rotation, _basis_lock=threading.Lock(),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"ProblemInstance is immutable; cannot set {name!r}")

    @property
    def sigma_basis(self) -> np.ndarray:
        """The eigenbasis Q as a d x d matrix, formed on first use."""
        if self._basis is None:
            with self._basis_lock:
                if self._basis is None:
                    basis = self._rotation.matrix()
                    _check_orthonormal(basis)
                    # The reflectors are d x d as well; Q replaces them.
                    self.__dict__.update(_basis=basis, _rotation=None)
        return self._basis

    # -- covariance actions (never form Sigma unless asked) ----------------

    def covariance(self) -> np.ndarray:
        b, e = self.sigma_basis, self.sigma_eigs
        return b @ (e[:, None] * b.T)

    def apply_covariance(self, x: np.ndarray) -> np.ndarray:
        b, e = self.sigma_basis, self.sigma_eigs
        if x.ndim == 1:
            return b @ (e * (b.T @ x))
        return b @ (e[:, None] * (b.T @ x))

    def sqrt_covariance(self) -> np.ndarray:
        b, e = self.sigma_basis, self.sigma_eigs
        return b @ (np.sqrt(e)[:, None] * b.T)

    # -- measure views ------------------------------------------------------

    def spectrum(self) -> Spectrum:
        return Spectrum.from_eigenvalues(self.sigma_eigs)

    def signal(self) -> SignalMeasure:
        return SignalMeasure(masses=self._coords**2)

    def signal_strength(self) -> float:
        """theta' Sigma theta, the excess risk of predicting zero."""
        return float(self.sigma_eigs @ self._coords**2)


def _check_orthonormal(basis: np.ndarray) -> None:
    """The rule of np.allclose(Q'Q, I, atol=1e-8), with the Gram as the only
    d x d array: |g - 1| <= 1e-8 + 1e-5 on the diagonal, |g| <= 1e-8 off it."""
    gram = basis.T @ basis
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    np.abs(gram, out=gram)
    diag = gram.diagonal().max(initial=0.0)
    np.fill_diagonal(gram, 0.0)
    # Negated, so that a NaN anywhere rejects the basis.
    if not (diag <= 1e-8 + 1e-5 and gram.max(initial=0.0) <= 1e-8):
        raise ValueError("basis columns are not orthonormal")


def build_design(inst: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """Design matrix X = Z Sigma^(1/2) for a unit-variance draw Z."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != inst.d:
        raise ValueError(f"z has shape {z.shape}, expected (*, {inst.d})")
    b, e = inst.sigma_basis, inst.sigma_eigs
    return ((z @ b) * np.sqrt(e)[None, :]) @ b.T


# ---------------------------------------------------------------------------
# Instance construction from a sweep configuration
# ---------------------------------------------------------------------------

def seeded_instance(
    n: int, sigma_noise: float, eigs: np.ndarray, basis_seed: int, theta_seed: int
) -> ProblemInstance:
    """Instance with a seeded random eigenbasis and a seeded Gaussian target.

    The target is normalized to unit signal strength theta' Sigma theta = 1,
    computed from its eigen-coordinates; the basis stays unformed.
    """
    d = eigs.shape[0]
    rotation = SeededRotation(d, basis_seed)
    theta = np.random.default_rng(theta_seed).standard_normal(d)
    coords = rotation.apply(theta, transpose=True)
    scale = math.sqrt(float(eigs @ coords**2))
    return ProblemInstance(
        n=n, d=d, sigma_noise=sigma_noise, sigma_basis=rotation, sigma_eigs=eigs,
        theta_star=theta / scale, signal_coords=coords / scale,
    )


def _read_measures(path) -> tuple[Spectrum, SignalMeasure | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_json(fh.read())


def build_instance(config: SweepConfig) -> ProblemInstance:
    """Materialize the deterministic problem instance a config describes.

    The eigenbasis is a seeded uniformly random orthogonal matrix and the
    target coefficients are seeded as well, so the instance is a pure
    function of the configuration.  The basis is held as a SeededRotation,
    so a theory-only sweep, which reads the eigenvalues and the signal
    masses alone, never forms the d x d matrix.
    """
    d = config.d
    if config.spectrum_kind == "file":
        spec, _ = _read_measures(config.spectrum_path)
        if spec.d != d or not np.allclose(spec.multiplicities(), spec.weights, atol=1e-9):
            raise ValueError("file spectrum needs integer atom weights summing to d")
    else:
        spec = spectrum_for(config.spectrum_kind, config.spectrum_params, d)
    raw_eigs = spec.expand()
    eigs = raw_eigs[np.argsort(raw_eigs)[::-1]].copy()
    basis_seed = child_seed(config.master_seed, _STREAM_BASIS)

    if config.signal_kind == "random_gaussian_normalized":
        return seeded_instance(
            config.n, config.sigma_noise, eigs, basis_seed,
            child_seed(config.signal_seed, _STREAM_THETA),
        )
    if config.signal_kind != "aligned_file":
        raise ValueError(f"unknown signal kind {config.signal_kind!r}")
    path = config.signal_path or config.spectrum_path
    spec, signal = _read_measures(path)
    if signal is None:
        raise ValueError(f"signal file {path} carries no signal masses")
    # Spread each atom's mass over its directions and order them by the
    # file's own eigenvalues, descending, to line up with the instance.
    reps = spec.multiplicities()
    per_direction = np.repeat(signal.masses / np.maximum(reps, 1), reps)
    file_eigs = spec.expand()
    if per_direction.shape != (d,):
        raise ValueError("aligned signal does not match dimension d")
    file_order = np.argsort(file_eigs)[::-1]
    if not np.allclose(file_eigs[file_order], eigs, rtol=1e-9, atol=0.0):
        raise ValueError("aligned signal file does not match the spectrum")
    rotation = SeededRotation(d, basis_seed)
    coords = np.sqrt(per_direction[file_order])
    return ProblemInstance(
        n=config.n,
        d=d,
        sigma_noise=config.sigma_noise,
        sigma_basis=rotation,
        sigma_eigs=eigs,
        theta_star=rotation.apply(coords),
        signal_coords=coords,
    )


# ---------------------------------------------------------------------------
# Exact conditional risks
# ---------------------------------------------------------------------------

def _risk_of_map(inst: ProblemInstance, resid: np.ndarray, P: np.ndarray) -> tuple[float, float]:
    """(resid' Sigma resid, sigma^2 <P, Sigma P>) of an estimator theta_hat = P y.

    With resid the noiseless error P X theta - theta these are the
    noise-exact bias and variance.
    """
    bias = float(resid @ inst.apply_covariance(resid))
    variance = inst.sigma_noise**2 * float(np.sum(P * inst.apply_covariance(P)))
    return bias, variance


def conditional_risk_projected(
    inst: ProblemInstance, X: np.ndarray, S: np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> tuple[float, float]:
    """Noise-exact (bias, variance) of min-norm least squares on X @ S.

    With P = S pinv(XS), the fitted coefficients are P y, so conditionally
    on (X, S) the variance is sigma^2 tr[P' Sigma P] and the bias is the
    excess risk of the noiseless fit P X theta.  Raises
    RankDeficientDesignError when XS falls below its generic rank
    min(n, m, d) at the given tolerance.
    """
    n, m = X.shape[0], S.shape[1]
    A = X @ S
    pinv_a, rank = pseudo_inverse(A, tol=tol)
    expected = min(n, m, inst.d)
    if rank < expected:
        raise RankDeficientDesignError(
            f"projected design has numerical rank {rank} < {expected} (n={n}, m={m}, d={inst.d})"
        )
    P = S @ pinv_a
    return _risk_of_map(inst, P @ (X @ inst.theta_star) - inst.theta_star, P)


def conditional_risk_ridge(
    inst: ProblemInstance, X: np.ndarray, lam: float
) -> tuple[float, float]:
    """Noise-exact (bias, variance) of ridge regression given the design.

    The fit is theta_hat = P y with P = (X'X + n lam I)^-1 X', obtained from
    one shifted solve on the smaller Gram matrix; at lam = 0 it is the
    min-norm interpolator.  When d > n, P = X'(XX' + n lam I)^-1 and the bias
    comes from the residual P X theta - theta.  When d <= n the same solve
    also yields g = (X'X + n lam I)^-1 theta, and the residual is -n lam g,
    which does not cancel at small lam and gives an exact zero bias at
    lam = 0.

    Limitation: at d = n and lam = 0 the X'X solve squares the condition
    number of the square design, so the variance is good only to about
    4e-12 relative (n = d = 30, against a full-SVD reference), against
    about 1e-14 at every other shape and lam measured.
    """
    lam = float(lam)
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    n = X.shape[0]
    if inst.d > n:
        P = solve_shifted(X @ X.T, n * lam, X).T
        return _risk_of_map(inst, P @ (X @ inst.theta_star) - inst.theta_star, P)
    sol = solve_shifted(X.T @ X, n * lam, np.column_stack([X.T, inst.theta_star]))
    g_sigma_g, variance = _risk_of_map(inst, sol[:, n], sol[:, :n])
    return (n * lam) ** 2 * g_sigma_g, variance


def empirical_kappa_lambda(X: np.ndarray, n: int, lam: float) -> float:
    """Finite-sample implicit regularization 1 / tr[(XX' + n lam I)^-1]."""
    lam = float(lam)
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    kernel_eigs = np.linalg.eigvalsh(X @ X.T)
    shifted = kernel_eigs + n * lam
    if (shifted <= 0).any():
        raise NumericalError("kernel matrix plus shift is singular")
    return float(1.0 / np.sum(1.0 / shifted))


def empirical_kappa_m(sigma, S: np.ndarray) -> float:
    """One-draw dof-matched regularization estimate 1 / tr[(S' Sigma S)^-1].

    Callers average the reciprocal over projection draws.
    """
    sigma = as_sym_matrix(sigma, name="sigma")
    gram_eigs = np.linalg.eigvalsh(S.T @ (sigma @ S))
    if (gram_eigs <= 1e-14 * max(gram_eigs.max(initial=0.0), 1e-300)).any():
        raise NumericalError(
            f"projected covariance of size {S.shape[1]} is numerically singular"
        )
    return float(1.0 / np.sum(1.0 / gram_eigs))


# ---------------------------------------------------------------------------
# Trace-equivalent probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceProbe:
    """One empirical trace next to its deterministic equivalent."""

    name: str
    lhs: float
    rhs: float

    @property
    def rel_gap(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.rhs), 1e-300)


def _times(m, p):
    """m diag(p) for a vector p, else m @ p."""
    return m * p if p.ndim == 1 else m @ p


def _diagonal(m):
    """The diagonal of m, or m itself for a vector standing for diag(m)."""
    return m if m.ndim == 1 else np.diagonal(m)


def _trace_product(p, s) -> float:
    """tr(P S); when either is a vector, only the other's diagonal counts."""
    if p.ndim == 1 or s.ndim == 1:
        return float(np.sum(_diagonal(p) * _diagonal(s)))
    return float(np.sum(p * s.T))


def _eigenbasis_operand(m, d: int, name: str) -> np.ndarray:
    """A d x d symmetric matrix, or a finite d-vector standing for diag(m)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 1:
        m = as_sym_matrix(m, name=name)
    elif not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    if m.shape not in ((d,), (d, d)):
        raise ValueError(f"{name} has shape {m.shape}, expected ({d},) or ({d}, {d})")
    return m


def _probe_pair(m, p, s) -> tuple[float, float]:
    """tr(M P) and tr(M P M S) for a matrix M."""
    mp = _times(m, p)
    return float(np.trace(mp)), float(np.sum(mp * _times(m, s).T))


def _kernel_sandwiches(xq, a, b, inv_root) -> list[np.ndarray]:
    """C_a = X~ a X~', C_b = X~ b X~' and C_ab = (X~ a)(X~ b)' of the draw X~,
    then K_a and K_b, the first two with X~ scaled by e^(-1/2)."""
    xa, xb = _times(xq, a), _times(xq, b)
    sandwiches = [xa @ xq.T, xb @ xq.T, xa @ xb.T]
    del xa, xb
    xw = xq * inv_root
    return sandwiches + [_times(xw, a) @ xw.T, _times(xw, b) @ xw.T]


def _kernel_side_traces(gram, sandwiches, tr_a, inner, lam) -> tuple[float, ...]:
    """The six probe traces at one penalty for d > n, from n x n matrices only.

    With G = (XX' + n lam I)^-1 the shrinkage is W = X~' G X~, so each trace
    is one of G against the sandwiches; the resolvent is (I - W)/lam, with
    tr a and <a, b> for its identity part.
    """
    c_a, c_b, c_ab, k_a, k_b = sandwiches
    n = gram.shape[0]
    g = solve_shifted(gram, n * lam, np.eye(n))
    lin, quad = _probe_pair(g, c_a, c_b)
    cross = float(np.sum(g * c_ab))
    return (
        lin, quad, (tr_a - lin) / lam, (inner - 2.0 * cross + quad) / lam**2,
        *_probe_pair(g, k_a, k_b),
    )


def _feature_side_traces(gram, n, a, b, inv_root, lam) -> tuple[float, ...]:
    """The six probe traces at one penalty for d <= n, from d x d matrices.

    One solve gives R = (X~'X~ + n lam I)^-1; the resolvent is n R and the
    shrinkage W = R X~'X~ = I - n lam R.  Neither form of W is accurate at
    every lam: the product loses digits where R is large (d near n, small
    lam), the difference where W is small (lam large against Shat).  For a
    backward error E of the solve their first-order errors are -R E W and
    R E (I - W), so W_product + (W_difference - W_product) W_product cancels
    both.  The kernel operator is W scaled (in place) by e^(-1/2) on both
    sides.
    """
    d = gram.shape[0]
    r = solve_shifted(gram, n * lam, np.eye(d))
    w = r @ gram
    r *= n
    gap = -lam * r
    gap.flat[:: d + 1] += 1.0
    gap -= w
    w += gap @ w
    del gap
    traces = (*_probe_pair(w, a, b), *_probe_pair(r, a, b))
    w *= inv_root[:, None]
    w *= inv_root
    return (*traces, *_probe_pair(w, a, b))


def probe_trace_equivalents(
    inst: ProblemInstance, xq: np.ndarray, a, b, lams
) -> list[list[TraceProbe]]:
    """Empirical spectral traces against their deterministic equivalents.

    Every input is in Sigma's eigenbasis (Sigma = Q diag(e) Q'): ``xq`` is
    the draw X~ = X Q, and ``a`` = Q'AQ and ``b`` = Q'BQ are each a d x d
    symmetric matrix or a d-vector standing for a diagonal one (A = Sigma and
    B = I are e and a vector of ones); a bad operand raises ValueError
    naming A or B.  For each penalty in ``lams``, in input order, six
    pairs: tr(A M) and tr(A M B M) of three operators M: the shrinkage
    W = Shat (Shat + lam I)^-1, the resolvent (Shat + lam I)^-1 = (I - W)/lam
    and the kernel-side Z'(Z Sigma Z' + n lam I)^-1 Z of the draw
    Z = X Sigma^(-1/2), which is W scaled by e^(-1/2) on both sides.  One
    shifted solve per penalty on the smaller Gram matrix gives them all; when
    d > n every trace comes from n x n matrices and no d x d operator is
    formed.  The equivalents are computed first, and replace Shat by Sigma at
    kappa(lam), so they are diagonal; the quadratic ones add a rank-one
    correction weighted by 1/(n - df2(kappa)).
    """
    lams = [float(lam) for lam in lams]
    if not all(0 < lam < math.inf for lam in lams):
        raise ValueError(f"lambdas must be finite and positive, got {lams}")
    e, d = inst.sigma_eigs, inst.d
    xq = np.asarray(xq, dtype=float)
    if xq.ndim != 2 or xq.shape[1] != d:
        raise ValueError(f"xq has shape {xq.shape}, expected (*, {d})")
    a, b = _eigenbasis_operand(a, d, "A"), _eigenbasis_operand(b, d, "B")
    n = xq.shape[0]
    spec = inst.spectrum()
    rhs = []
    for lam in lams:
        kappa = kappa_of_lambda(spec, n, lam).kappa
        rs = 1.0 / (e + kappa)
        corr = 1.0 / (n - df2(spec, kappa))
        # Per operator: its equivalent's diagonal, the scales of the linear and
        # quadratic equivalents, and the weight and eigenvalue tilt p of the
        # rank-one correction, a product of two tr(A Sigma^p (Sigma + kappa I)^-2).
        equivalents = (
            ("shrink", e / (e + kappa), 1.0, 1.0, kappa**2, e),
            ("resolvent", rs, kappa / lam, kappa**2 / lam**2, 1.0, e),
            ("kernel", rs, 1.0, 1.0, kappa**2, 1.0),
        )
        row = []
        for name, diag, lin_scale, quad_scale, weight, tilt in equivalents:
            ca, cb = (float(np.sum(_diagonal(m) * tilt * rs**2)) for m in (a, b))
            quad = _trace_product(_times(a, diag), _times(b, diag)) + weight * ca * cb * corr
            row += [
                (f"{name}_linear", lin_scale * float(np.sum(_diagonal(a) * diag))),
                (f"{name}_quadratic", quad_scale * quad),
            ]
        rhs.append(row)
    inv_root = 1.0 / np.sqrt(e)
    if d > n:
        tr_a, inner = float(np.sum(_diagonal(a))), _trace_product(a, b)
        sandwiches = _kernel_sandwiches(xq, a, b, inv_root)
        gram = xq @ xq.T
        lhs = [_kernel_side_traces(gram, sandwiches, tr_a, inner, lam) for lam in lams]
    else:
        gram = xq.T @ xq
        lhs = [_feature_side_traces(gram, n, a, b, inv_root, lam) for lam in lams]
    return [
        [TraceProbe(name, lv, rv) for (name, rv), lv in zip(rhs_row, lhs_row, strict=True)]
        for lhs_row, rhs_row in zip(lhs, rhs, strict=True)
    ]


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicationResult:
    """Exact conditional risk of one (design, projection) draw."""

    rep_index: int
    m: float
    bias: float
    variance: float
    kappa_hat: float | None = None


@dataclass
class GridAggregate:
    """Per-grid-point Monte Carlo summary."""

    grid_value: float
    reps_used: int
    excluded: int
    clamped: int
    bias_mean: float
    bias_std: float
    var_mean: float
    var_std: float


@dataclass
class SweepEmpirical:
    """All replication results of a sweep plus per-point aggregates."""

    grid_kind: str
    results: dict[tuple[int, int], ReplicationResult] = field(default_factory=dict)
    aggregates: list[GridAggregate] = field(default_factory=list)


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, workers)


def _clamp(value: float) -> tuple[float, bool, bool]:
    """Returns (clamped value, was_clamped, is_error)."""
    if value >= 0.0:
        return value, False, False
    if value >= CLAMP_FLOOR:
        return 0.0, True, False
    return value, False, True


def run_replications(
    config: SweepConfig, inst: ProblemInstance, record_kappa: bool = False
) -> SweepEmpirical:
    """Run the Monte Carlo sweep a configuration describes on its instance.

    ``inst`` is ``build_instance(config)``, built once by the caller.

    For every grid point and replication index the child seeds are derived
    from (master_seed, grid index, replication index), so the result stream
    is a pure function of the configuration no matter how many worker
    threads execute it (capped by the DDLAB_THREADS environment variable).
    Replications whose projected design loses rank are excluded and counted;
    roundoff-negative risks are clamped to zero and counted.
    """
    grid_kind = config.grid_kind
    grid = config.m_grid if grid_kind == "m" else config.lambda_grid
    sqrt_cov = inst.sqrt_covariance()
    sigma_dense = inst.covariance() if record_kappa else None

    def one(gi: int, r: int):
        value = grid[gi]
        z = sample_matrix(
            inst.n, inst.d, config.sampler, child_seed(config.master_seed, gi, r, _STREAM_Z)
        )
        x = z @ sqrt_cov
        kappa_hat = None
        if grid_kind == "m":
            s = sample_matrix(
                inst.d, int(value), config.sampler,
                child_seed(config.master_seed, gi, r, _STREAM_S),
            )
            bias, variance = conditional_risk_projected(inst, x, s)
            if record_kappa and int(value) <= inst.d:
                kappa_hat = empirical_kappa_m(sigma_dense, s)
        else:
            bias, variance = conditional_risk_ridge(inst, x, float(value))
        return ReplicationResult(
            rep_index=r, m=float(value), bias=bias, variance=variance, kappa_hat=kappa_hat
        )

    keys = [(gi, r) for gi in range(len(grid)) for r in range(config.replications)]
    outcomes: dict[tuple[int, int], ReplicationResult | None] = {}
    workers = _worker_count()
    if workers == 1:
        for key in keys:
            try:
                outcomes[key] = one(*key)
            except (NumericalError, np.linalg.LinAlgError):
                outcomes[key] = None
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(one, *key) for key in keys}
        for key, fut in futures.items():
            try:
                outcomes[key] = fut.result()
            except (NumericalError, np.linalg.LinAlgError):
                outcomes[key] = None

    sweep = SweepEmpirical(grid_kind=grid_kind)
    for gi, value in enumerate(grid):
        biases, variances = [], []
        excluded = clamped = 0
        for r in range(config.replications):
            res = outcomes.get((gi, r))
            if res is None:
                excluded += 1
                continue
            bias, cb, eb = _clamp(res.bias)
            variance, cv, ev = _clamp(res.variance)
            if eb or ev:
                excluded += 1
                continue
            clamped += int(cb) + int(cv)
            res = ReplicationResult(
                rep_index=res.rep_index, m=res.m, bias=bias, variance=variance,
                kappa_hat=res.kappa_hat,
            )
            sweep.results[(gi, r)] = res
            biases.append(bias)
            variances.append(variance)
        used = len(biases)
        b = np.asarray(biases)
        v = np.asarray(variances)
        sweep.aggregates.append(
            GridAggregate(
                grid_value=float(value),
                reps_used=used,
                excluded=excluded,
                clamped=clamped,
                bias_mean=float(b.mean()) if used else math.nan,
                bias_std=float(b.std(ddof=1)) if used > 1 else math.nan,
                var_mean=float(v.mean()) if used else math.nan,
                var_std=float(v.std(ddof=1)) if used > 1 else math.nan,
            )
        )
    return sweep

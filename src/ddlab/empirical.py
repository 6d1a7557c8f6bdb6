"""Finite-sample experiments: designs, exact conditional risks, probes.

The Monte Carlo side of the library.  A ProblemInstance fixes one concrete
prediction problem (covariance eigenstructure, target coefficients, noise
level) but not the sample size n, which belongs to the sweep.  Replications
draw an n x d unit-variance matrix Z, whose design is X = Z Sigma^(1/2),
and a projection, and evaluate the excess risk conditionally on them,
exactly in the noise (the noise expectation is carried out in closed
form, never sampled).  Both conditional risks are scored in Sigma^(1/2)
coordinates, so a draw reads Sigma^(1/2) and never the eigenbasis.  All
sampling is seed-pure: samplers take explicit seeds and no global RNG state
is touched, so replications can run concurrently and merge
deterministically.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .config import SweepConfig
from .numkernel import NumericalError, as_sym_matrix, pseudo_inverse, solve_shifted
from .selfconsistent import kappa_of_lambda
from .spectrum import SignalMeasure, Spectrum, df2, spectrum_for, spectrum_from_json

__all__ = [
    "ProblemInstance",
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
    "seeded_basis",
    "conditional_risk_projected",
    "conditional_risk_ridge",
    "empirical_kappa_lambda",
    "empirical_kappa_m",
    "probe_trace_equivalents",
    "run_replications",
    "summarize_point",
    "map_draws",
    "guarded_draw",
    "projected_draw",
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
        # numpy draws a range of two with one 32-bit Lemire step per entry,
        # which keeps the top bit of each 32-bit half of the raw 64-bit
        # output, low half first; reading those bits directly gives the same
        # signs as rng.integers(0, 2), formed in one float buffer.
        size = rows * cols
        raw = rng.bit_generator.random_raw((size + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<i4")[:size].reshape(rows, cols)
        signs = np.empty((rows, cols))
        np.less(halves, 0, out=signs)
        signs *= 2.0
        signs -= 1.0
        return signs
    raise ValueError(f"unknown sampler {sampler!r}")


def seeded_basis(d: int, seed: int) -> np.ndarray:
    """Seeded uniformly random d x d orthogonal matrix: the Q factor of a
    seeded Gaussian draw G = QR, column signs fixed by the diagonal of R.
    G and R are freed when it returns."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q *= np.sign(np.diag(r))[None, :]
    return q


class ProblemInstance:
    """One concrete prediction problem under the i.i.d. design model.

    Sigma = Q diag(sigma_eigs) Q' and theta_star = Q u, with u the target's
    eigen-coordinates ``signal_coords``.  ``basis`` is Q as a d x d
    orthonormal matrix, checked here, or an integer seed of
    ``seeded_basis(d, seed)``, drawn and checked on first use.  The
    eigenvalues and u serve the signal measure and the signal strength, so
    a theory-only sweep never forms Q.  (Q, theta_star), Sigma^(1/2) and
    Sigma^(1/2) theta_star are each formed once, on first use.  Instances
    are immutable.
    """

    def __init__(self, sigma_noise: float, sigma_eigs, signal_coords, basis):
        eigs, coords = np.array(sigma_eigs, dtype=float), np.array(signal_coords, dtype=float)
        if eigs.ndim != 1 or coords.shape != eigs.shape:
            raise ValueError("eigenvalues and signal coordinates must be d-vectors")
        d = eigs.shape[0]
        if not (np.isfinite(eigs).all() and np.isfinite(coords).all()):
            raise ValueError("eigenvalues and signal coordinates must be finite")
        if (eigs <= 0).any():
            raise ValueError("covariance eigenvalues must be positive")
        if not 0 <= sigma_noise < math.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {sigma_noise}")
        if not isinstance(basis, numbers.Integral):
            basis = np.asarray(basis, dtype=float)
            if basis.shape != (d, d):
                raise ValueError(f"basis has shape {basis.shape}, expected ({d}, {d})")
            _check_orthonormal(basis)
        eigs.flags.writeable = coords.flags.writeable = False
        self.__dict__.update(
            d=d, sigma_noise=sigma_noise, sigma_eigs=eigs, signal_coords=coords,
            _basis=basis, _formed=None, _sqrt_cov=None, _root_signal=None,
            _lock=threading.RLock(),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"ProblemInstance is immutable; cannot set {name!r}")

    def _once(self, name: str, make):
        """The attribute ``name``, set to make() by the first reader.  The
        lock is reentrant, so one make() may read another's attribute."""
        value = self.__dict__[name]
        if value is None:
            with self._lock:
                value = self.__dict__[name]
                if value is None:
                    value = self.__dict__[name] = make()
        return value

    def _form_pair(self) -> tuple[np.ndarray, np.ndarray]:
        basis = self._basis
        if not isinstance(basis, np.ndarray):
            basis = seeded_basis(self.d, basis)
            _check_orthonormal(basis)
        return basis, basis @ self.signal_coords

    @property
    def sigma_basis(self) -> np.ndarray:
        """The eigenbasis Q as a d x d matrix, formed on first use."""
        return self._once("_formed", self._form_pair)[0]

    @property
    def theta_star(self) -> np.ndarray:
        """The target coefficients Q u, formed with the basis."""
        return self._once("_formed", self._form_pair)[1]

    # -- covariance actions (never form Sigma unless asked) ----------------

    def covariance(self) -> np.ndarray:
        b, e = self.sigma_basis, self.sigma_eigs
        return b @ (e[:, None] * b.T)

    def _form_sqrt_cov(self) -> np.ndarray:
        b = self.sigma_basis
        root = b @ (np.sqrt(self.sigma_eigs)[:, None] * b.T)
        root.flags.writeable = False
        return root

    def sqrt_covariance(self) -> np.ndarray:
        """Sigma^(1/2) = Q diag(e^(1/2)) Q', formed on first use; read-only."""
        return self._once("_sqrt_cov", self._form_sqrt_cov)

    def _form_root_signal(self) -> np.ndarray:
        root = self.sqrt_covariance() @ self.theta_star
        root.flags.writeable = False
        return root

    def root_signal(self) -> np.ndarray:
        """Sigma^(1/2) theta_star, the target in the coordinates the
        conditional risks are scored in; formed on first use, read-only."""
        return self._once("_root_signal", self._form_root_signal)

    # -- measure views ------------------------------------------------------

    def spectrum(self) -> Spectrum:
        return Spectrum.from_eigenvalues(self.sigma_eigs)

    def signal(self) -> SignalMeasure:
        return SignalMeasure(masses=self.signal_coords**2)

    def signal_strength(self) -> float:
        """theta' Sigma theta, the excess risk of predicting zero."""
        return float(self.sigma_eigs @ self.signal_coords**2)


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


def _unit_draw(inst: ProblemInstance, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != inst.d:
        raise ValueError(f"z has shape {z.shape}, expected (*, {inst.d})")
    return z


def build_design(inst: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """Design matrix X = Z Sigma^(1/2) for a unit-variance draw Z.  Every
    Monte Carlo design is formed here: the ridge draws' and the projected
    draws' above m = 2n (conditional_risk_projected scores smaller
    projections from Z alone)."""
    return _unit_draw(inst, z) @ inst.sqrt_covariance()


# ---------------------------------------------------------------------------
# Instance construction from a sweep configuration
# ---------------------------------------------------------------------------

def seeded_instance(
    sigma_noise: float, eigs: np.ndarray, basis_seed: int, theta_seed: int
) -> ProblemInstance:
    """Instance with a seeded random eigenbasis and a seeded Gaussian target.

    The target is seeded through its eigen-coordinates u: a standard normal
    vector scaled to unit signal strength sum_i e_i u_i^2 = 1, with
    theta_star = Q u.  A Gaussian vector independent of a Haar Q has
    Q' theta ~ N(0, I), so this is a normalized Gaussian target in a random
    basis.  Nothing d x d is formed here.
    """
    coords = np.random.default_rng(theta_seed).standard_normal(eigs.shape[0])
    coords /= math.sqrt(float(eigs @ coords**2))
    return ProblemInstance(sigma_noise, eigs, coords, basis_seed)


def _read_measures(path) -> tuple[Spectrum, SignalMeasure | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_json(fh.read())


def build_instance(config: SweepConfig) -> ProblemInstance:
    """Materialize the deterministic problem instance a config describes.

    The eigenbasis is a seeded uniformly random orthogonal matrix and the
    target's eigen-coordinates are seeded (or read from a file) as well, so
    the instance is a pure function of the configuration.  The basis is held
    as its seed, so building an instance is O(d), and a theory-only sweep,
    which reads the eigenvalues and the signal masses alone, never draws or
    factors the d x d matrix.
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
            config.sigma_noise, eigs, basis_seed, child_seed(config.signal_seed, _STREAM_THETA)
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
    return ProblemInstance(
        config.sigma_noise, eigs, np.sqrt(per_direction[file_order]), basis_seed
    )


# ---------------------------------------------------------------------------
# Exact conditional risks
# ---------------------------------------------------------------------------

def _scored(
    inst: ProblemInstance, map_root: np.ndarray, resid_root: np.ndarray
) -> tuple[float, float]:
    """(||r||^2, sigma^2 ||M||_F^2) for an estimator theta_hat = P y given in
    Sigma^(1/2) coordinates, M = Sigma^(1/2) P and r = Sigma^(1/2) resid.
    With resid the noiseless error P X theta - theta these are the
    noise-exact bias resid' Sigma resid and variance sigma^2 tr[P' Sigma P].
    """
    return float(resid_root @ resid_root), inst.sigma_noise**2 * float(np.vdot(map_root, map_root))


def conditional_risk_projected(
    inst: ProblemInstance, z: np.ndarray, S: np.ndarray, *,
    x: np.ndarray | None = None, c: np.ndarray | None = None,
) -> tuple[float, float]:
    """Noise-exact (bias, variance) of min-norm least squares on A = X S,
    for the design X = Z Sigma^(1/2) of the unit-variance draw ``z``.

    With P = S pinv(A), the fitted coefficients are P y, so conditionally
    on (X, S) the variance is sigma^2 tr[P' Sigma P] and the bias is the
    excess risk of the noiseless fit P X theta.  Raises
    RankDeficientDesignError when A falls below its generic rank
    min(n, m, d) at pseudo_inverse's tolerance.

    The map is scored in Sigma^(1/2) coordinates.  With C = Sigma^(1/2) S
    and phi = Sigma^(1/2) theta (cached on the instance), X theta = Z phi,
    Sigma^(1/2) P = C pinv(A), the variance is sigma^2 ||C pinv(A)||_F^2
    and the bias ||C pinv(A) Z phi - phi||^2, the residual formed as a
    vector before it is squared.  C costs d^2 m, against n d^2 to form X
    and d^2 n to map S pinv(A) by Sigma^(1/2).  So up to m = 2n, A = Z C and
    X is never formed; above it, X = build_design(inst, z), A = X S and the
    map is Sigma^(1/2) (S pinv(A)).  A design ``x`` the caller formed from
    ``z`` is used from m = n on; ``c``, when given, is C, which the C route
    then reuses.
    """
    z = _unit_draw(inst, z)
    n, m = z.shape[0], S.shape[1]
    root = inst.sqrt_covariance()
    via_c = m < n if x is not None else m <= 2 * n
    if via_c:
        if c is None:
            c = root @ S
        A = z @ c
    else:
        if x is None:
            x = build_design(inst, z)
        A = x @ S
    pinv_a, rank = pseudo_inverse(A)
    expected = min(n, m, inst.d)
    if rank < expected:
        raise RankDeficientDesignError(
            f"projected design has numerical rank {rank} < {expected} (n={n}, m={m}, d={inst.d})"
        )
    phi = inst.root_signal()
    w = pinv_a @ (z @ phi)
    if via_c:
        map_root, resid = c @ pinv_a, c @ w
    else:
        map_root, resid = root @ (S @ pinv_a), root @ (S @ w)
    resid -= phi
    return _scored(inst, map_root, resid)


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
    lam = 0.  Both are scored in Sigma^(1/2) coordinates, through one
    d x d x n product with Sigma^(1/2).

    Limitation: at d = n and lam = 0 the X'X solve squares the condition
    number of the square design, so the variance is good only to about
    4e-12 relative (n = d = 30, against a full-SVD reference), against
    about 1e-14 at every other shape and lam measured.
    """
    lam = float(lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    n = X.shape[0]
    root = inst.sqrt_covariance()
    if inst.d > n:
        map_root = root @ solve_shifted(X @ X.T, n * lam, X).T
        resid = map_root @ (X @ inst.theta_star)
        resid -= inst.root_signal()
        return _scored(inst, map_root, resid)
    sol = root @ solve_shifted(X.T @ X, n * lam, np.column_stack([X.T, inst.theta_star]))
    g_sigma_g, variance = _scored(inst, sol[:, :n], sol[:, n])
    return (n * lam) ** 2 * g_sigma_g, variance


def empirical_kappa_lambda(X: np.ndarray, n: int, lam: float) -> float:
    """Finite-sample implicit regularization 1 / tr[(XX' + n lam I)^-1]."""
    lam = float(lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    kernel_eigs = np.linalg.eigvalsh(X @ X.T)
    shifted = kernel_eigs + n * lam
    if (shifted <= 0).any():
        raise NumericalError("kernel matrix plus shift is singular")
    return float(1.0 / np.sum(1.0 / shifted))


def empirical_kappa_m(projected: np.ndarray) -> float:
    """One-draw dof-matched regularization estimate 1 / tr[(S' Sigma S)^-1]
    from the m x m projected covariance S' Sigma S, of which only the lower
    triangle is read.  Callers average the reciprocal over projection draws.
    """
    if not np.isfinite(projected).all():
        raise ValueError("projected covariance contains non-finite entries")
    gram_eigs = np.linalg.eigvalsh(projected)
    if (gram_eigs <= 1e-14 * max(gram_eigs.max(initial=0.0), 1e-300)).any():
        raise NumericalError(
            f"projected covariance of size {gram_eigs.shape[0]} is numerically singular"
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


def _clamp(value: float) -> tuple[float, bool, bool]:
    """Returns (clamped value, was_clamped, is_error)."""
    if value >= 0.0:
        return value, False, False
    if value >= CLAMP_FLOOR:
        return 0.0, True, False
    return value, False, True


def summarize_point(
    grid_value: float, outcomes: list[ReplicationResult | None]
) -> tuple[GridAggregate, list[ReplicationResult]]:
    """Summarize one grid point's draws, in replication order.

    ``None`` stands for a draw that raised a numerical failure.  It is
    excluded and counted, and so is a draw with a risk below CLAMP_FLOOR.
    Roundoff-negative risks are clamped to zero and counted.  Returns the
    aggregate and the retained draws with their clamped values.
    """
    kept = []
    excluded = clamped = 0
    for res in outcomes:
        if res is None:
            excluded += 1
            continue
        bias, cb, eb = _clamp(res.bias)
        variance, cv, ev = _clamp(res.variance)
        if eb or ev:
            excluded += 1
            continue
        clamped += int(cb) + int(cv)
        kept.append(replace(res, bias=bias, variance=variance))
    used = len(kept)
    b = np.asarray([res.bias for res in kept])
    v = np.asarray([res.variance for res in kept])
    aggregate = GridAggregate(
        grid_value=float(grid_value),
        reps_used=used,
        excluded=excluded,
        clamped=clamped,
        bias_mean=float(b.mean()) if used else math.nan,
        bias_std=float(b.std(ddof=1)) if used > 1 else math.nan,
        var_mean=float(v.mean()) if used else math.nan,
        var_std=float(v.std(ddof=1)) if used > 1 else math.nan,
    )
    return aggregate, kept


def map_draws(task, keys) -> list:
    """[task(key) for key in keys] on up to DDLAB_THREADS worker threads
    (default 1, never more than there are keys), in key order.  Every Monte
    Carlo draw runs through here."""
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    workers = min(workers, len(keys))
    if workers <= 1:
        return list(map(task, keys))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, keys))


def guarded_draw(draw, *args, **kwargs) -> ReplicationResult | None:
    """draw(*args, **kwargs), or None (which summarize_point excludes) when
    the draw fails numerically."""
    try:
        return draw(*args, **kwargs)
    except (NumericalError, np.linalg.LinAlgError):
        return None


def projected_draw(
    inst: ProblemInstance, z: np.ndarray, rep_index: int, m: int, sampler: str, seed: int,
    record_kappa: bool = False, x: np.ndarray | None = None,
) -> ReplicationResult:
    """Score the unit draw z, with its design x when the caller formed one,
    against a d x m projection drawn from ``seed``; with ``record_kappa``
    and m <= d, also estimate kappa from S' Sigma S = C'C, where the
    C = Sigma^(1/2) S formed for it is handed on to the risk."""
    s = sample_matrix(inst.d, m, sampler, seed)
    c = kappa_hat = None
    if record_kappa and m <= inst.d:
        c = inst.sqrt_covariance() @ s
        kappa_hat = empirical_kappa_m(c.T @ c)
    bias, variance = conditional_risk_projected(inst, z, s, x=x, c=c)
    return ReplicationResult(rep_index, float(m), bias, variance, kappa_hat)


def run_replications(
    config: SweepConfig, inst: ProblemInstance, record_kappa: bool = False
) -> SweepEmpirical:
    """Run the Monte Carlo sweep a configuration describes on its instance.

    ``inst`` is ``build_instance(config)``, built once by the caller.

    For every grid point and replication index the child seeds are derived
    from (master_seed, grid index, replication index), so the result stream
    is a pure function of the configuration no matter how many worker
    threads ``map_draws`` uses.  Each grid point's draws are summarized by
    ``summarize_point``.
    """
    grid_kind = config.grid_kind
    grid = config.m_grid if grid_kind == "m" else config.lambda_grid

    def one(gi: int, r: int) -> ReplicationResult:
        value, seed = grid[gi], functools.partial(child_seed, config.master_seed, gi, r)
        z = sample_matrix(config.n, inst.d, config.sampler, seed(_STREAM_Z))
        if grid_kind == "m":
            s_seed = seed(_STREAM_S)
            return projected_draw(inst, z, r, int(value), config.sampler, s_seed, record_kappa)
        bias, variance = conditional_risk_ridge(inst, build_design(inst, z), float(value))
        return ReplicationResult(r, float(value), bias, variance)

    keys = [(gi, r) for gi in range(len(grid)) for r in range(config.replications)]
    outcomes = map_draws(lambda key: guarded_draw(one, *key), keys)

    sweep = SweepEmpirical(grid_kind=grid_kind)
    reps = config.replications
    for gi, value in enumerate(grid):
        aggregate, kept = summarize_point(value, outcomes[gi * reps:(gi + 1) * reps])
        sweep.aggregates.append(aggregate)
        sweep.results.update(((gi, res.rep_index), res) for res in kept)
    return sweep

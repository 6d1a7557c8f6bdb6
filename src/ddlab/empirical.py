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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One concrete prediction problem under the i.i.d. design model."""

    n: int
    d: int
    sigma_noise: float
    sigma_basis: np.ndarray
    sigma_eigs: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.sigma_basis, dtype=float)
        eigs = np.asarray(self.sigma_eigs, dtype=float)
        theta = np.asarray(self.theta_star, dtype=float)
        if basis.shape != (self.d, self.d):
            raise ValueError(f"basis has shape {basis.shape}, expected ({self.d}, {self.d})")
        if eigs.shape != (self.d,) or theta.shape != (self.d,):
            raise ValueError("eigenvalues and theta must be d-vectors")
        if (eigs <= 0).any():
            raise ValueError("covariance eigenvalues must be positive")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(self.d), atol=1e-8):
            raise ValueError("basis columns are not orthonormal")
        if not self.sigma_noise >= 0:
            raise ValueError(f"noise level must be nonnegative, got {self.sigma_noise}")
        object.__setattr__(self, "sigma_basis", basis)
        object.__setattr__(self, "sigma_eigs", eigs)
        object.__setattr__(self, "theta_star", theta)

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

    def whiten_design(self, x: np.ndarray) -> np.ndarray:
        """Recover the unit-variance draw Z = X Sigma^(-1/2) from a design."""
        b, e = self.sigma_basis, self.sigma_eigs
        return ((x @ b) * (1.0 / np.sqrt(e))[None, :]) @ b.T

    # -- measure views ------------------------------------------------------

    def spectrum(self) -> Spectrum:
        return Spectrum.from_eigenvalues(self.sigma_eigs)

    def signal(self) -> SignalMeasure:
        return SignalMeasure(masses=(self.sigma_basis.T @ self.theta_star) ** 2)

    def signal_strength(self) -> float:
        """theta' Sigma theta, the excess risk of predicting zero."""
        return float(self.theta_star @ self.apply_covariance(self.theta_star))


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

def _seeded_basis(d: int, seed: int) -> np.ndarray:
    """Uniformly random d x d orthogonal matrix: QR of a seeded Gaussian draw,
    column signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q *= np.sign(np.diag(r))[None, :]
    return q


def seeded_instance(
    n: int, sigma_noise: float, eigs: np.ndarray, basis_seed: int, theta_seed: int
) -> ProblemInstance:
    """Instance with a seeded random eigenbasis and a seeded Gaussian target.

    The target is normalized to unit signal strength theta' Sigma theta = 1.
    """
    d = eigs.shape[0]
    q = _seeded_basis(d, basis_seed)
    theta = np.random.default_rng(theta_seed).standard_normal(d)
    theta = theta / math.sqrt(theta @ (q @ (eigs * (q.T @ theta))))
    return ProblemInstance(
        n=n, d=d, sigma_noise=sigma_noise, sigma_basis=q, sigma_eigs=eigs, theta_star=theta
    )


def _read_measures(path) -> tuple[Spectrum, SignalMeasure | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_json(fh.read())


def build_instance(config: SweepConfig) -> ProblemInstance:
    """Materialize the deterministic problem instance a config describes.

    The eigenbasis is a seeded uniformly random orthogonal matrix and the
    target coefficients are seeded as well, so the instance is a pure
    function of the configuration.
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
    q = _seeded_basis(d, basis_seed)
    return ProblemInstance(
        n=config.n,
        d=d,
        sigma_noise=config.sigma_noise,
        sigma_basis=q,
        sigma_eigs=eigs,
        theta_star=q @ np.sqrt(per_direction[file_order]),
    )


# ---------------------------------------------------------------------------
# Exact conditional risks
# ---------------------------------------------------------------------------

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
    resid = P @ (X @ inst.theta_star) - inst.theta_star
    bias = float(resid @ inst.apply_covariance(resid))
    variance = inst.sigma_noise**2 * float(np.sum(P * inst.apply_covariance(P)))
    return bias, variance


def conditional_risk_ridge(
    inst: ProblemInstance, X: np.ndarray, lam: float
) -> tuple[float, float]:
    """Noise-exact (bias, variance) of ridge regression given the design.

    variance = (sigma^2/n) tr[Sigma (Shat + lam I)^-2 Shat] and
    bias = lam^2 theta' (Shat + lam I)^-1 Sigma (Shat + lam I)^-1 theta.
    At lam = 0 the estimator is the min-norm interpolator, computed through
    whichever of Shat (d <= n) or the kernel matrix (d > n) is invertible.
    """
    lam = float(lam)
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    n = X.shape[0]
    sigma2 = inst.sigma_noise**2
    if lam == 0.0 and inst.d > n:
        # Min-norm route through the kernel matrix.
        kernel = X @ X.T
        g = solve_shifted(kernel, 0.0, X)  # kernel^-1 X, shape (n, d)
        P = g.T
        resid = P @ (X @ inst.theta_star) - inst.theta_star
        bias = float(resid @ inst.apply_covariance(resid))
        variance = sigma2 * float(np.sum(P * inst.apply_covariance(P)))
        return bias, variance
    shat = X.T @ X / n
    sigma = inst.covariance()
    w = solve_shifted(shat, lam, shat)  # (Shat+lam)^-1 Shat
    v = solve_shifted(shat, lam, sigma)  # (Shat+lam)^-1 Sigma
    variance = sigma2 / n * float(np.sum(w * v.T))
    if lam == 0.0:
        return 0.0, variance
    u = solve_shifted(shat, lam, inst.theta_star)
    bias = lam**2 * float(u @ (sigma @ u))
    return bias, variance


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


def probe_trace_equivalents(
    inst: ProblemInstance, X: np.ndarray, A, B, lam: float
) -> list[TraceProbe]:
    """Empirical spectral traces against their deterministic equivalents.

    Six pairs are evaluated for symmetric test matrices A, B: linear and
    quadratic traces of the shrinkage operator Shat (Shat + lam I)^-1, of the
    resolvent (Shat + lam I)^-1, and of the kernel-side sandwich
    Z' (Z Sigma Z' + n lam I)^-1 Z.  The equivalents replace Shat by Sigma at
    the implicit parameter kappa(lam), with the quadratic ones carrying a
    rank-one correction weighted by 1 / (n - df2(kappa)).
    """
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    A = as_sym_matrix(A, name="A")
    B = as_sym_matrix(B, name="B")
    n = X.shape[0]

    # Empirical side, in the eigenbasis of the empirical covariance.
    shat = X.T @ X / n
    ew, u = np.linalg.eigh(shat)
    ew = np.maximum(ew, 0.0)
    au = u.T @ A @ u
    bu = u.T @ B @ u
    shrink = ew / (ew + lam)
    resolv = 1.0 / (ew + lam)
    lhs_shrink_lin = float(np.sum(np.diag(au) * shrink))
    lhs_shrink_quad = float(np.sum((au * shrink[None, :]) * (bu * shrink[None, :]).T))
    lhs_res_lin = float(np.sum(np.diag(au) * resolv))
    lhs_res_quad = float(np.sum((au * resolv[None, :]) * (bu * resolv[None, :]).T))
    # Kernel side: recover the unit-variance draw Z from X.
    z = inst.whiten_design(X)
    g = solve_shifted(X @ X.T, n * lam, z)
    wmat = z.T @ g
    lhs_kernel_lin = float(np.sum(A * wmat))
    lhs_kernel_quad = float(np.sum((A @ wmat) * (B @ wmat).T))

    # Deterministic side at kappa(lam).
    spec = inst.spectrum()
    kappa = kappa_of_lambda(spec, n, lam).kappa
    e = inst.sigma_eigs
    q = inst.sigma_basis
    aq = q.T @ A @ q
    bq = q.T @ B @ q
    sh = e / (e + kappa)
    rs = 1.0 / (e + kappa)
    corr = 1.0 / (n - df2(spec, kappa))
    a_sig = float(np.sum(np.diag(aq) * e * rs**2))
    b_sig = float(np.sum(np.diag(bq) * e * rs**2))
    a_plain = float(np.sum(np.diag(aq) * rs**2))
    b_plain = float(np.sum(np.diag(bq) * rs**2))
    rhs_shrink_lin = float(np.sum(np.diag(aq) * sh))
    rhs_shrink_quad = (
        float(np.sum((aq * sh[None, :]) * (bq * sh[None, :]).T))
        + kappa**2 * a_sig * b_sig * corr
    )
    rhs_res_lin = kappa / lam * float(np.sum(np.diag(aq) * rs))
    rhs_res_quad = (kappa**2 / lam**2) * (
        float(np.sum((aq * rs[None, :]) * (bq * rs[None, :]).T)) + a_sig * b_sig * corr
    )
    rhs_kernel_lin = float(np.sum(np.diag(aq) * rs))
    rhs_kernel_quad = (
        float(np.sum((aq * rs[None, :]) * (bq * rs[None, :]).T))
        + kappa**2 * a_plain * b_plain * corr
    )

    return [
        TraceProbe("shrink_linear", lhs_shrink_lin, rhs_shrink_lin),
        TraceProbe("shrink_quadratic", lhs_shrink_quad, rhs_shrink_quad),
        TraceProbe("resolvent_linear", lhs_res_lin, rhs_res_lin),
        TraceProbe("resolvent_quadratic", lhs_res_quad, rhs_res_quad),
        TraceProbe("kernel_linear", lhs_kernel_lin, rhs_kernel_lin),
        TraceProbe("kernel_quadratic", lhs_kernel_quad, rhs_kernel_quad),
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

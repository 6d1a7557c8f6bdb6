"""Asymptotic bias/variance equivalents for the three estimators.

Given a spectrum, a signal measure, a sample count n and a noise level, this
module evaluates the deterministic equivalents of the excess risk for ridge
regression, minimum-norm least squares, and minimum-norm least squares on
randomly projected covariates, plus the exact finite-sample fixed-design
ridge formula.  Each operating point gives a RiskBreakdown: bias, variance,
their total, the kappa the equivalents were read at, and a divergence flag.
Variance terms never depend on the signal and bias terms never depend on
the noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .selfconsistent import kappa_at_dof, kappa_of_lambda
from .spectrum import SignalMeasure, Spectrum, as_grid, df2, signal_functional

__all__ = [
    "RiskBreakdown",
    "fixed_design_ridge_risk",
    "ridge_risk",
    "minnorm_risk",
    "rp_risk",
    "DIVERGENCE_FLOOR",
]

# Relative floor below which a risk denominator is treated as divergent.
DIVERGENCE_FLOOR = 1e-9


@dataclass(frozen=True)
class RiskBreakdown:
    """Excess-risk decomposition at one operating point.

    total is always bias + variance; diverged marks operating points where a
    denominator (n - df2, |m - n|) fell below the relative floor and the
    values are reported as infinities rather than garbage.
    """

    bias: float
    variance: float
    total: float
    kappa: float
    diverged: bool = False


def _breakdown(bias, variance, kappa, diverged: bool = False) -> RiskBreakdown:
    return RiskBreakdown(bias, variance, bias + variance, kappa, diverged)


def fixed_design_ridge_risk(
    empirical_spec: Spectrum,
    empirical_signal: SignalMeasure,
    n: int,
    sigma: float,
    lam: float,
) -> RiskBreakdown:
    """Exact fixed-design ridge risk on an empirical covariance spectrum.

    bias = lam^2 * theta' (Shat + lam I)^-2 Shat theta and
    variance = (sigma^2 / n) * tr[Shat^2 (Shat + lam I)^-2]; no asymptotics
    are involved.  lam = 0 requires a full-rank spectrum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = float(lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    if lam == 0.0 and empirical_spec.rank < empirical_spec.d:
        raise ValueError("lambda = 0 requires a full-rank empirical covariance")
    bias = lam**2 * signal_functional(empirical_spec, empirical_signal, lam, 2)
    variance = sigma**2 / n * df2(empirical_spec, lam)
    return _breakdown(bias, variance, lam)


def ridge_risk(s: Spectrum, v: SignalMeasure, n: int, sigma: float, lam):
    """Random-design ridge risk equivalent.

    The fixed-design formula evaluated at the implicit parameter kappa(lam),
    inflated by 1 / (1 - df2(kappa)/n) on both terms.  lam may be a 1-D
    grid: kappa is solved for the whole grid at once and one RiskBreakdown
    per point is returned, in order.
    """
    lams, scalar = as_grid(lam, "lambda")
    sol = kappa_of_lambda(s, n, lams)
    kappa = sol.kappa.tolist()
    d2 = df2(s, sol.kappa).tolist()
    sf2 = signal_functional(s, v, sol.kappa, 2).tolist()
    out = []
    for k, dd, sf, flagged in zip(kappa, d2, sf2, sol.diverged.tolist()):
        denom = 1.0 - dd / n
        if flagged or denom <= DIVERGENCE_FLOOR:
            out.append(_breakdown(math.inf, math.inf, k, True))
            continue
        # Python floats throughout: kappa**2 is libm pow, as a scalar call has it.
        inflation = 1.0 / denom
        out.append(_breakdown(k**2 * sf * inflation, sigma**2 / n * dd * inflation, k))
    return out[0] if scalar else out


def minnorm_risk(s: Spectrum, v: SignalMeasure, n: int, sigma: float) -> RiskBreakdown:
    """Minimum-norm least-squares risk equivalent (ridgeless limit).

    Below the interpolation threshold this is the ordinary least-squares
    equivalent (zero bias, variance sigma^2 d / (n - d)); above it, the
    ridge equivalent at lambda = 0 with df1(kappa) = n.  At d = n the risk
    diverges and is reported flagged.
    """
    return ridge_risk(s, v, n, sigma, 0.0)


def rp_risk(s: Spectrum, v: SignalMeasure, n: int, m, sigma: float):
    """Risk equivalent for min-norm least squares on m random projections.

    Below m = n the variance is sigma^2 m / (n - m) and the bias combines the
    dof-matched parameter kappa_m (df1(kappa_m) = m) with the 1/(1 - m/n)
    inflation; above m = n both terms are the ridgeless equivalents plus
    excess-projection terms proportional to n / (m - n).  With m >= d and
    d < n, m = n included, the projection spans the whole space almost
    surely and the estimator collapses to ordinary least squares.

    m may be a 1-D grid: every kappa_m is solved in one call, kappa_n once
    for all m > n, and one RiskBreakdown per point is returned, in order.
    """
    ms, scalar = as_grid(m, "m")
    if n < 1 or not (ms >= 1).all():
        raise ValueError(f"n and m must be >= 1, got n={n} m={m}")
    d = s.rank
    # One breakdown per point; the kappa_m and kappa_n points are filled in
    # below.  m = n itself falls under the relative floor.
    rows: list[RiskBreakdown | None] = []
    below: list[int] = []
    above: list[int] = []
    ols = None
    for i, mi in enumerate(ms.tolist()):
        if d < n and mi >= d:
            if ols is None:
                ols = minnorm_risk(s, v, n, sigma)
            rows.append(ols)
        elif (mi > n and d == n) or abs(mi - n) / n <= DIVERGENCE_FLOOR:
            rows.append(_breakdown(math.inf, math.inf, 0.0, True))
        else:
            rows.append(None)
            (below if mi < n else above).append(i)

    if below:
        km = kappa_at_dof(s, ms[below]).kappa
        sf1 = signal_functional(s, v, km, 1)
        for i, k, sf in zip(below, km.tolist(), sf1.tolist()):
            mi = ms[i].item()
            rows[i] = _breakdown(k * sf / ((n - mi) / n), sigma**2 * mi / (n - mi), k)

    if above:
        kn = kappa_at_dof(s, float(n)).kappa
        d2 = df2(s, kn)
        denom = 1.0 - d2 / n
        if denom <= DIVERGENCE_FLOOR:
            for i in above:
                rows[i] = _breakdown(math.inf, math.inf, kn, True)
        else:
            inflation = 1.0 / denom
            var_n = sigma**2 / n * d2 * inflation
            bias_n = kn**2 * signal_functional(s, v, kn, 2) * inflation
            sf1 = signal_functional(s, v, kn, 1)
            for i in above:
                mi = ms[i].item()
                rows[i] = _breakdown(
                    bias_n + kn * sf1 * n / (mi - n), var_n + sigma**2 * n / (mi - n), kn
                )

    return rows[0] if scalar else rows

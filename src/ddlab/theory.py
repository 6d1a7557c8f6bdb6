"""Asymptotic bias/variance equivalents for the three estimators.

Given a spectrum, a signal measure, a sample count n and a noise level, this
module evaluates the deterministic equivalents of the excess risk for ridge
regression, minimum-norm least squares, and minimum-norm least squares on
randomly projected covariates, plus the exact finite-sample fixed-design
ridge formula.  Variance terms never depend on the signal and bias terms
never depend on the noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .selfconsistent import (
    REGIME_CRITICAL,
    REGIME_OVER,
    REGIME_UNDER,
    kappa_at_dof,
    kappa_of_lambda,
)
from .spectrum import SignalMeasure, Spectrum, as_grid, df1, df2, signal_functional

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
    df1_at_kappa: float
    df2_at_kappa: float
    regime: str
    diverged: bool = False


def _breakdowns(s: Spectrum, bias, variance, kappa, regime, diverged) -> list[RiskBreakdown]:
    """One RiskBreakdown per grid point, with df1 and df2 read at every kappa at once.

    regime and diverged hold one entry per point; total is bias + variance.
    """
    grid = np.asarray(kappa, dtype=float)
    d1, d2 = df1(s, grid).tolist(), df2(s, grid).tolist()
    return [
        RiskBreakdown(b, v, b + v, k, x1, x2, r, dv)
        for b, v, k, x1, x2, r, dv in zip(bias, variance, kappa, d1, d2, regime, diverged)
    ]


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
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if lam == 0.0 and empirical_spec.rank < empirical_spec.d:
        raise ValueError("lambda = 0 requires a full-rank empirical covariance")
    regime = (
        REGIME_UNDER
        if empirical_spec.d < n
        else (REGIME_OVER if empirical_spec.d > n else REGIME_CRITICAL)
    )
    bias = lam**2 * signal_functional(empirical_spec, empirical_signal, lam, 2)
    variance = sigma**2 / n * df2(empirical_spec, lam)
    return _breakdowns(empirical_spec, [bias], [variance], [lam], [regime], [False])[0]


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
    bias, variance, diverged = [], [], []
    for k, dd, sf, flagged in zip(kappa, d2, sf2, sol.diverged.tolist()):
        denom = 1.0 - dd / n
        if flagged or denom <= DIVERGENCE_FLOOR:
            bias.append(math.inf)
            variance.append(math.inf)
            diverged.append(True)
            continue
        # Python floats throughout: kappa**2 is libm pow, as a scalar call has it.
        inflation = 1.0 / denom
        variance.append(sigma**2 / n * dd * inflation)
        bias.append(k**2 * sf * inflation)
        diverged.append(False)
    out = _breakdowns(s, bias, variance, kappa, [sol.regime] * len(kappa), diverged)
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
    # (bias, variance, kappa, regime, diverged) per point; the kappa_m and
    # kappa_n points are filled in below.
    rows: list = []
    below: list[int] = []
    above: list[int] = []
    ols = None
    for i, mi in enumerate(ms.tolist()):
        if d < n and mi >= d:
            if ols is None:
                mn = minnorm_risk(s, v, n, sigma)
                ols = (mn.bias, mn.variance, mn.kappa, mn.regime, mn.diverged)
            rows.append(ols)
        elif mi == n:
            rows.append((math.inf, math.inf, 0.0, REGIME_CRITICAL, True))
        elif (mi > n and d == n) or abs(mi - n) / n <= DIVERGENCE_FLOOR:
            rows.append((math.inf, math.inf, 0.0, REGIME_UNDER if mi < n else REGIME_OVER, True))
        else:
            rows.append(None)
            (below if mi < n else above).append(i)

    if below:
        km = kappa_at_dof(s, ms[below]).kappa
        sf1 = signal_functional(s, v, km, 1)
        for i, k, sf in zip(below, km.tolist(), sf1.tolist()):
            mi = ms[i].item()
            bias = k * sf / ((n - mi) / n)
            rows[i] = (bias, sigma**2 * mi / (n - mi), k, REGIME_UNDER, False)

    if above:
        kn = kappa_at_dof(s, float(n)).kappa
        d2 = df2(s, kn)
        denom = 1.0 - d2 / n
        if denom <= DIVERGENCE_FLOOR:
            for i in above:
                rows[i] = (math.inf, math.inf, kn, REGIME_OVER, True)
        else:
            inflation = 1.0 / denom
            var_n = sigma**2 / n * d2 * inflation
            bias_n = kn**2 * signal_functional(s, v, kn, 2) * inflation
            sf1 = signal_functional(s, v, kn, 1)
            for i in above:
                mi = ms[i].item()
                bias = bias_n + kn * sf1 * n / (mi - n)
                rows[i] = (bias, var_n + sigma**2 * n / (mi - n), kn, REGIME_OVER, False)

    out = _breakdowns(s, *zip(*rows)) if rows else []
    return out[0] if scalar else out

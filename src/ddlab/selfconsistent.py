"""Solvers for the implicit regularization parameter kappa.

Going from explicit ridge regularization lambda to the population-level
equivalent requires the larger parameter kappa solving

    kappa * (1 - df1(kappa) / n) = lambda,

together with the companion problem df1(kappa) = target used by the
projection formulas.  Both are solved by Newton's method, which converges
monotonically on each: 1/df1 - 1/target is increasing and concave, so
Newton steps from kappa = 0 rise to the root without passing it, and the
lambda defect is increasing and convex past its root, with slope
1 - df2/n, so Newton steps from the upper bound lambda + tr(Sigma)/n fall
to it.  A lane stops after a step of relative size at most _NEWTON_TOL;
convergence is quadratic there, so that step lands at roundoff.  Each
solve returns a KappaSolution: kappa, the residual of its defining
equation, the Newton step count and a divergence flag.  A residual above
1e-10 of its scale raises NumericalError.  Closed forms are provided for
the isotropic and two-atom spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import NumericalError
from .spectrum import Spectrum, as_grid, df1, df2, support_sums

__all__ = [
    "KappaSolution",
    "kappa_of_lambda",
    "kappa_at_dof",
    "kappa_isotropic_closed",
    "kappa_two_dirac_closed",
]

_NEWTON_CAP = 100
_NEWTON_TOL = 1e-8


@dataclass(frozen=True)
class KappaSolution:
    """Solved implicit regularization parameter with diagnostics.

    residual is the defect of the defining equation at kappa; iterations
    counts the Newton steps computed; diverged marks the boundary case where
    the derivative of kappa(lambda) blows up at zero and downstream risk
    formulas are infinite.  A solve over a grid holds one kappa, residual
    and diverged flag per point (arrays) and the total step count of all
    points.
    """

    kappa: float | np.ndarray
    residual: float | np.ndarray
    iterations: int
    diverged: bool | np.ndarray = False


def _solution(kappa, residual, iterations, diverged, scalar) -> KappaSolution:
    if scalar:
        return KappaSolution(
            float(kappa[0]), float(residual[0]), int(iterations.sum()), bool(diverged[0])
        )
    return KappaSolution(kappa, residual, int(iterations.sum()), diverged)


def _monotone_newton(x, side, step):
    """Run Newton's method in place on every lane of x; return the step counts.

    step(x, lanes) gives each lane's next iterate; side = 1 when the iterates
    rise to the root, -1 when they fall to it.  A lane takes its step and
    stops when the step's relative size is at most _NEWTON_TOL.  It stops
    without taking the step when the next iterate is not finite, not
    positive or lies away from the root, and after _NEWTON_CAP steps.  Each
    step a lane computes counts, taken or not.
    """
    iterations = np.zeros(x.shape, dtype=int)
    lanes = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        if not lanes.size:
            break
        iterations[lanes] += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = step(x[lanes], lanes)
        ok = np.isfinite(nxt) & (nxt > 0.0) & (side * (nxt - x[lanes]) >= 0.0)
        lanes, nxt = lanes[ok], nxt[ok]
        done = np.abs(nxt - x[lanes]) <= _NEWTON_TOL * nxt
        x[lanes] = nxt
        lanes = lanes[~done]
    return iterations


def _check_residual(residual, scale, what, points) -> None:
    """Raise NumericalError at the first point whose residual exceeds 1e-10 of its scale."""
    bad = np.flatnonzero(~(np.abs(residual) <= 1e-10 * scale))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"kappa solve did not converge at {what} = {float(points[i])!r}: residual "
            f"{residual[i]:.3g} ({bad.size} of {residual.size} points failed)"
        )


def _dof_slope(s: Spectrum, kappa):
    """-d df1 / d kappa = sum w e / (e + kappa)^2, per point."""
    e, we = s.support.eigenvalues, s.support.weighted
    return support_sums(s, kappa, lambda kk: we / (e + kk) ** 2, float(np.sum(we / e**2)))


def kappa_of_lambda(s: Spectrum, n: int, lam) -> KappaSolution:
    """Solve kappa * (1 - df1(kappa)/n) = lam for the unique root >= lam.

    At lam = 0 the equation degenerates: with rank(Sigma) < n the root is
    exactly zero, with rank(Sigma) > n it is the positive solution of
    df1(kappa) = n, and with rank(Sigma) = n the root is zero but sits on a
    square-root branch, reported as a flagged critical solution.

    lam must be finite.  It may be a 1-D grid; its points are solved
    together, each exactly as a scalar call would solve it, and the lam = 0
    root is solved once.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lams, scalar = as_grid(lam, "lambda")
    if not (lams >= 0).all():
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if not np.isfinite(lams).all():
        raise ValueError(f"lambda must be finite, got {lam}")
    rank = s.rank
    kappa = np.zeros_like(lams)
    residual = np.zeros_like(lams)
    iterations = np.zeros(lams.shape, dtype=int)
    diverged = np.zeros(lams.shape, dtype=bool)

    zero = lams == 0.0
    if zero.any() and rank == n:
        diverged[zero] = True
    elif zero.any() and rank > n:
        sol = kappa_at_dof(s, float(n))
        kappa[zero], residual[zero], iterations[zero] = sol.kappa, sol.residual, sol.iterations

    live = np.flatnonzero(~zero)
    if live.size:
        lam_live = lams[live]

        def newton(k, lanes):
            defect = k * (1.0 - df1(s, k) / n) - lam_live[lanes]
            return k - defect / (1.0 - df2(s, k) / n)

        k = lam_live + s.trace / n
        iterations[live] = _monotone_newton(k, -1, newton)
        kappa[live] = k
        residual[live] = k * (1.0 - df1(s, k) / n) - lam_live
        _check_residual(residual[live], np.maximum(lam_live, k), "lambda", lam_live)
    return _solution(kappa, residual, iterations, diverged, scalar)


def kappa_at_dof(s: Spectrum, target) -> KappaSolution:
    """Solve df1(kappa) = target for 0 < target < rank(Sigma).

    df1 is strictly decreasing from rank(Sigma) at kappa = 0, and Newton on
    1/df1 - 1/target rises from kappa = 0 to the root.  target may be a 1-D
    grid; its points are solved together, each exactly as a scalar call
    would solve it.
    """
    targets, scalar = as_grid(target, "target")
    rank = s.rank
    if not (targets > 0).all():
        raise ValueError(f"target must be positive, got {target}")
    if (targets >= rank).any():
        raise ValueError(
            f"target {target} exceeds spectrum rank {rank}; no positive solution exists"
        )

    def newton(k, lanes):
        f, t = df1(s, k), targets[lanes]
        return k + f * (f - t) / (t * _dof_slope(s, k))

    kappa = np.zeros_like(targets)
    iterations = _monotone_newton(kappa, 1, newton)
    residual = df1(s, kappa) - targets
    _check_residual(residual, targets, "target", targets)
    return _solution(kappa, residual, iterations, np.zeros(targets.shape, dtype=bool), scalar)


def kappa_isotropic_closed(sigma: float, gamma: float, lam: float) -> float:
    """Closed-form kappa(lambda) for a single-atom spectrum at sigma.

    Solves the quadratic kappa * (1 - gamma*sigma/(sigma+kappa)) = lambda.
    """
    if sigma < 0 or gamma < 0 or lam < 0:
        raise ValueError(
            f"arguments must be nonnegative, got sigma={sigma} gamma={gamma} lambda={lam}"
        )
    b = sigma * (1.0 - gamma) - lam
    return 0.5 * (lam - sigma * (1.0 - gamma) + math.sqrt(b * b + 4.0 * lam * sigma))


def kappa_two_dirac_closed(
    pi1: float, pi2: float, sigma1: float, sigma2: float, gamma: float, delta: float
) -> float:
    """Closed-form kappa with df1(kappa) = delta * n for a two-atom spectrum.

    gamma is d/n and delta = m/n must satisfy delta < gamma for a positive
    root; delta = 0 is the infinite-regularization limit and returns inf.
    """
    if abs(pi1 + pi2 - 1.0) > 1e-12:
        raise ValueError(f"atom fractions must sum to 1, got {pi1} + {pi2}")
    if not (0.0 <= pi1 <= 1.0):
        raise ValueError(f"pi1 must lie in [0, 1], got {pi1}")
    if not (sigma1 > 0 and sigma2 > 0):
        raise ValueError(f"eigenvalues must be positive, got {sigma1}, {sigma2}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if delta == 0.0:
        return math.inf
    ratio = gamma / delta
    if ratio < 1.0:
        raise ValueError(
            f"delta = {delta} meets or exceeds gamma = {gamma}; no positive solution exists"
        )
    if ratio == 1.0:
        return 0.0
    b = ratio * (pi1 * sigma1 + pi2 * sigma2) - sigma1 - sigma2
    disc = b * b + 4.0 * sigma1 * sigma2 * (ratio - 1.0)
    return 0.5 * (b + math.sqrt(disc))

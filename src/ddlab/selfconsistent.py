"""Solvers for the implicit regularization parameter kappa.

Going from explicit ridge regularization lambda to the population-level
equivalent requires the larger parameter kappa solving

    kappa * (1 - df1(kappa) / n) = lambda,

together with the companion problem df1(kappa) = target used by the
projection formulas.  Both maps are monotone on the relevant branch, so
bisection with a guaranteed bracket is used throughout; kappa_at_dof then
polishes the residual with a couple of guarded Newton steps.  Each solve
returns a KappaSolution: kappa, the residual of its defining equation, the
bisection step count and a divergence flag.  Closed forms are provided for
the isotropic and two-atom spectra.

Most bisection steps are decided without evaluating df1.  The test a step
makes, df1(mid) > target or mid * (1 - df1(mid)/n) - lambda < 0, is
monotone in mid even in floating point: each term of df1 is a correctly
rounded monotone function of kappa, a row is summed in one fixed order of
rounded additions, and the product with mid rounds monotonically wherever
1 - df1/n >= 0 (where it is negative the test holds anyway).  So one point
a where the test holds and one point b where it fails decide every midpoint
outside (a, b).  A vectorized Newton phase finds such a pair per grid point
and certifies each end with the solver's own computation: Newton on
1/df1 - 1/target from kappa = 0 (increasing and concave, so no step passes
the root), and Newton on the lambda defect from the bracket's upper end
(increasing and convex past its root, with slope 1 - df2/n).  The bisection
then runs its own schedule and evaluates df1 only at midpoints strictly
inside (a, b), so kappa, the residual, the diverged flag and the step count
are exactly those of a full bisection.  A point without a certified pair
bisects in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrum, as_grid, df1, df2, support_sums

__all__ = [
    "KappaSolution",
    "kappa_of_lambda",
    "kappa_at_dof",
    "kappa_isotropic_closed",
    "kappa_two_dirac_closed",
]

_BISECT_REL_WIDTH = 1e-13
_MAX_ITER = 200
# Newton phase of the certified bracket (see _certified_bracket).
_NEWTON_CAP = 30
_NEWTON_TOL = 1e-8
_PROBE_GAP = 2e-14
_PROBES = 4


@dataclass(frozen=True)
class KappaSolution:
    """Solved implicit regularization parameter with diagnostics.

    residual is the defect of the defining equation at kappa; diverged marks
    the boundary case where the derivative of kappa(lambda) blows up at zero
    and downstream risk formulas are infinite.  A solve over a grid holds
    one kappa, residual and diverged flag per point (arrays) and the total
    iteration count of all points.
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


def _bisect(lo, hi, lower, converged, iterations, bracket) -> None:
    """Bisect every lane of [lo, hi] in place, each on its own schedule.

    lower(mid, lanes) says, per lane, whether the root lies above mid;
    converged(lo, hi) whether a bracket is narrow enough.  A lane stops at the
    step where it converges, or after _MAX_ITER steps, and counts its steps
    in iterations; the other lanes go on.

    bracket = (a, b) holds, per lane, a point where lower is true and one
    where it is false (-inf and inf where none is known), each found by the
    same computation lower makes.  lower is monotone in mid even in floating
    point, so a midpoint at or below a goes up and one at or above b goes
    down without a call; only midpoints strictly inside (a, b) call lower.
    Every step still moves lo or hi exactly as a call would, so the schedule,
    the result and the step count do not depend on the bracket.
    """
    a, b = bracket
    lanes = np.arange(lo.size)
    for _ in range(_MAX_ITER):
        if not lanes.size:
            break
        iterations[lanes] += 1
        mid = 0.5 * (lo[lanes] + hi[lanes])
        up = mid <= a[lanes]
        ask = np.flatnonzero(~up & (mid < b[lanes]))
        if ask.size:
            up[ask] = lower(mid[ask], lanes[ask])
        lo[lanes[up]] = mid[up]
        hi[lanes[~up]] = mid[~up]
        lanes = lanes[~converged(lo[lanes], hi[lanes])]


def _certified_bracket(x, v, side, value, holds, newton):
    """The (a, b) bracket of _bisect, found by Newton steps toward the root.

    Every lane starts at x with v = value(x, lanes); holds(v, lanes) is the
    solver's predicate on a value (true below the root).  side = 1 when the
    iterates approach the root from below, -1 from above, and
    newton(x, v, lanes) gives the next iterate, which in exact arithmetic
    never passes the root.  Each iterate is certified by its own value as a
    point of a or of b.  A lane whose relative step falls below _NEWTON_TOL
    then probes across the root, _PROBE_GAP away relative to x and 8 times
    farther on each retry.  A lane whose step is not finite, points away
    from the root or leaves kappa > 0, or that reaches _NEWTON_CAP, keeps
    what it has certified so far.
    """
    a = np.full(x.shape, -np.inf)
    b = np.full(x.shape, np.inf)

    def certify(lanes):
        # Record x as a or b (x only moves toward the root, so each record
        # is the tightest yet); True where x is still on the starting side.
        h = holds(v[lanes], lanes)
        a[lanes[h]] = x[lanes[h]]
        b[lanes[~h]] = x[lanes[~h]]
        return h == (side > 0)

    lanes = np.flatnonzero(certify(np.arange(x.size)))
    settled = []
    for _ in range(_NEWTON_CAP):
        if not lanes.size:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = newton(x[lanes], v[lanes], lanes)
        ok = np.isfinite(nxt) & (nxt > 0.0) & (side * (nxt - x[lanes]) >= 0.0)
        lanes, nxt = lanes[ok], nxt[ok]
        done = np.abs(nxt - x[lanes]) <= _NEWTON_TOL * nxt
        x[lanes] = nxt
        v[lanes] = value(nxt, lanes)
        same = certify(lanes)
        settled.append(lanes[same & done])
        lanes = lanes[same & ~done]
    lanes = np.concatenate(settled) if settled else lanes[:0]
    gap = _PROBE_GAP
    for _ in range(_PROBES):
        if not lanes.size:
            break
        x[lanes] *= 1.0 + side * gap
        v[lanes] = value(x[lanes], lanes)
        lanes = lanes[certify(lanes)]
        gap *= 8.0
    return a, b


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

        def defect(k, lanes):
            return k * (1.0 - df1(s, k) / n) - lam_live[lanes]

        def below(v, lanes):
            return v < 0.0

        lo = lam_live.copy()
        hi = lam_live + s.trace / n
        it = np.zeros(live.shape, dtype=int)
        # The upper endpoint is a proven bound; nudge for roundoff.
        at_hi = np.empty(live.shape)
        lanes = np.arange(live.size)
        while lanes.size:
            at_hi[lanes] = defect(hi[lanes], lanes)
            lanes = lanes[below(at_hi[lanes], lanes) & (it[lanes] < 64)]
            hi[lanes] *= 1.0 + 1e-12
            it[lanes] += 1
        # The defect is increasing and convex past its root, with slope
        # 1 - df2/n, so Newton steps from hi stay above the root.
        bracket = _certified_bracket(
            hi.copy(), at_hi, -1, defect, below,
            lambda k, v, lanes: k - v / (1.0 - df2(s, k) / n),
        )
        _bisect(
            lo, hi,
            lambda mid, lanes: below(defect(mid, lanes), lanes),
            lambda lo, hi: hi - lo <= _BISECT_REL_WIDTH * hi,
            it, bracket,
        )
        k = 0.5 * (lo + hi)
        kappa[live], residual[live], iterations[live] = k, defect(k, slice(None)), it
    return _solution(kappa, residual, iterations, diverged, scalar)


def kappa_at_dof(s: Spectrum, target) -> KappaSolution:
    """Solve df1(kappa) = target for 0 < target < rank(Sigma).

    df1 is strictly decreasing, so bisection on [0, tr(Sigma)/target] always
    brackets the root; two Newton polishing steps push the residual to
    roundoff level.  target may be a 1-D grid; its points are solved
    together, each exactly as a scalar call would solve it.
    """
    targets, scalar = as_grid(target, "target")
    rank = s.rank
    if not (targets > 0).all():
        raise ValueError(f"target must be positive, got {target}")
    if (targets >= rank).any():
        raise ValueError(
            f"target {target} exceeds spectrum rank {rank}; no positive solution exists"
        )

    def value(k, lanes):
        return df1(s, k)

    def above(f, lanes):
        return f > targets[lanes]

    def newton(k, f, lanes):
        # Newton on 1/df1 - 1/target, which is increasing and concave, so
        # steps from kappa = 0 stay below the root.
        t = targets[lanes]
        return k + f * (f - t) / (t * _dof_slope(s, k))

    lo = np.zeros_like(targets)
    hi = s.trace / targets
    bracket_hi = hi.copy()
    iterations = np.zeros(targets.shape, dtype=int)
    bracket = _certified_bracket(lo.copy(), value(lo, None), 1, value, above, newton)
    _bisect(
        lo, hi,
        lambda mid, lanes: above(value(mid, lanes), lanes),
        lambda lo, hi: hi - lo <= _BISECT_REL_WIDTH * np.maximum(hi, 1e-300),
        iterations, bracket,
    )
    kappa = 0.5 * (lo + hi)
    # Newton polish on f(k) = df1(k) - target, f'(k) = -sum w e / (e+k)^2,
    # guarded by the original bracket; a lane stops at its first refused step.
    lanes = np.arange(targets.size)
    for _ in range(3):
        if not lanes.size:
            break
        k = kappa[lanes]
        f = df1(s, k) - targets[lanes]
        fp = -_dof_slope(s, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = k - f / fp
        step = (fp != 0.0) & (0.0 < cand) & (cand < bracket_hi[lanes]) & (cand != k)
        kappa[lanes[step]] = cand[step]
        lanes = lanes[step]
    residual = df1(s, kappa) - targets
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

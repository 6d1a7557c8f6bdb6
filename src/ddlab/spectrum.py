"""Spectral and signal measures, and the degree-of-freedom functionals.

A covariance spectrum is stored as a finite list of weighted atoms
(eigenvalue, weight) with weights summing to the ambient dimension d; a
continuous limit measure is represented by discretizing it on atoms.  The
signal measure carries the squared alignment of the target coefficients with
each eigendirection.  Every downstream formula is an integral of a rational
function against these measures, hence exact on atoms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Spectrum",
    "Support",
    "SignalMeasure",
    "SpectrumKind",
    "SPECTRUM_KINDS",
    "as_grid",
    "support_sums",
    "df1",
    "df2",
    "signal_functional",
    "make_isotropic",
    "make_inverse_index",
    "make_power_law",
    "make_two_dirac",
    "SpectrumParamError",
    "check_spectrum_params",
    "spectrum_for",
    "spectrum_to_json",
    "spectrum_from_json",
]

CLIP_TINY = 1e-12


class Support(NamedTuple):
    """The strictly positive atoms of a spectrum, on which functionals sum."""

    mask: np.ndarray  # eigenvalues > 0, over all atoms
    eigenvalues: np.ndarray
    weights: np.ndarray
    weighted: np.ndarray  # weights * eigenvalues


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Weighted eigenvalue atoms of a covariance, weights summing to d.

    Weights are multiplicities (possibly fractional for limit measures), so
    the degree-of-freedom functionals live on the natural [0, d] scale.
    Constructors of model spectra enforce strictly positive eigenvalues;
    spectra extracted from an empirical covariance may carry zero atoms
    (rank deficiency), which contribute nothing to any functional.
    ``support`` holds the positive atoms, and ``trace`` and ``rank`` are
    computed once, when the spectrum is built.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    d: int

    def __post_init__(self):
        eigs = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if eigs.shape != w.shape or eigs.ndim != 1:
            raise ValueError("eigenvalues and weights must be 1-D and aligned")
        if not (np.isfinite(eigs).all() and np.isfinite(w).all()):
            raise ValueError("spectrum atoms must be finite")
        if (eigs < 0).any():
            raise ValueError("eigenvalues must be nonnegative")
        if (w <= 0).any():
            raise ValueError("atom weights must be positive")
        if self.d < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.d}")
        total = float(w.sum())
        if abs(total - self.d) > 1e-9 * self.d:
            raise ValueError(f"weights sum to {total}, expected d = {self.d}")
        eigs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "weights", w)
        pos = eigs > 0
        object.__setattr__(self, "support", Support(pos, eigs[pos], w[pos], w[pos] * eigs[pos]))
        object.__setattr__(self, "_trace", float(np.sum(w * eigs)))
        object.__setattr__(self, "_rank", float(np.sum(w[pos])))

    @property
    def trace(self) -> float:
        """tr(Sigma) = sum of weight * eigenvalue."""
        return self._trace

    @property
    def rank(self) -> float:
        """Total weight carried by strictly positive atoms."""
        return self._rank

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "Spectrum":
        """Spectrum of a concrete matrix: one unit-weight atom per eigenvalue.

        Roundoff-level eigenvalues, within CLIP_TINY of zero relative to the
        largest, are clipped to zero.
        """
        eigs = np.asarray(eigenvalues, dtype=float).copy()
        if not np.isfinite(eigs).all():
            raise ValueError("spectrum atoms must be finite")
        tiny = CLIP_TINY * max(float(np.abs(eigs).max(initial=0.0)), 1.0)
        eigs[np.abs(eigs) <= tiny] = 0.0
        return cls(eigenvalues=eigs, weights=np.ones_like(eigs), d=eigs.shape[0])

    def multiplicities(self) -> np.ndarray:
        """Whole number of eigendirections each atom spans, summing to d.

        Weights are rounded cumulatively (half to even), so fractional
        weights such as pi1 * d of a two-atom measure still fill exactly d
        directions and integer weights are kept as they are.
        """
        return np.diff(np.rint(np.cumsum(self.weights)), prepend=0.0).astype(int)

    def expand(self) -> np.ndarray:
        """Per-direction eigenvalues: each atom repeated by its multiplicity."""
        return np.repeat(self.eigenvalues, self.multiplicities())


@dataclass(frozen=True, eq=False)
class SignalMeasure:
    """Per-atom signal mass (v_i' theta)^2, aligned with a Spectrum."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.ndim != 1 or not np.isfinite(m).all():
            raise ValueError("signal masses must be a finite 1-D array")
        if (m < 0).any():
            raise ValueError("signal masses must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self) -> float:
        """||theta||^2, the total squared coefficient norm."""
        return float(self.masses.sum())


# Table entries (grid points x atoms) evaluated at once.  A 512 KB block
# stays in cache: solving the 400-point lambda and 199-point dof grids of a
# 4000-atom spectrum took 0.20 s in such blocks and 0.39 s in 8 MB ones.
_TABLE_ENTRIES = 1 << 16


def as_grid(values, name: str) -> tuple[np.ndarray, bool]:
    """(values as a 1-D float array, whether a scalar was given).

    Raises ValueError on NaN or on input of more than one dimension; range
    checks are left to the caller.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-D grid, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise ValueError(f"{name} must not be NaN, got {values}")
    return np.atleast_1d(arr), arr.ndim == 0


def support_sums(s: Spectrum, kappa, term, at_zero: float):
    """Row sums of term(k) over the positive atoms, for each kappa in a grid.

    term maps a column of kappa values to the (grid x support atoms) table;
    each row is summed as one 1-D sum, so a grid point gets the same bits as
    a scalar call.  Points with kappa = 0 take at_zero.  A scalar kappa gives
    a float, a grid an array.
    """
    k, scalar = as_grid(kappa, "kappa")
    if not (k >= 0).all():
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    out = np.full(k.shape, at_zero)
    lanes = np.flatnonzero(k)
    rows = max(1, _TABLE_ENTRIES // max(s.support.eigenvalues.size, 1))
    for start in range(0, lanes.size, rows):
        sel = lanes[start:start + rows]
        out[sel] = term(k[sel, None]).sum(axis=1)
    return float(out[0]) if scalar else out


def df1(s: Spectrum, kappa):
    """First degrees of freedom: sum of w_i * e_i / (e_i + kappa).

    Strictly decreasing in kappa, equal to rank(Sigma) at kappa = 0.  kappa
    may be a 1-D grid, giving one value per point.
    """
    e, we = s.support.eigenvalues, s.support.weighted
    return support_sums(s, kappa, lambda k: we / (e + k), s.rank)


def df2(s: Spectrum, kappa):
    """Second degrees of freedom: sum of w_i * (e_i / (e_i + kappa))^2.

    Term-wise at most df1 since each ratio is at most one.  kappa may be a
    1-D grid.
    """
    e, w = s.support.eigenvalues, s.support.weights
    return support_sums(s, kappa, lambda k: w * (e / (e + k)) ** 2, s.rank)


def signal_functional(s: Spectrum, v: SignalMeasure, kappa, power: int):
    """sum of mass_i * e_i / (e_i + kappa)^power, for power 1 or 2.

    This is theta' Sigma (Sigma + kappa I)^(-power) theta evaluated on the
    measure pair; formulas multiply by the appropriate kappa prefactor.
    kappa may be a 1-D grid.
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    if v.masses.shape != s.eigenvalues.shape:
        raise ValueError(
            f"signal measure has {v.masses.shape[0]} masses but spectrum has "
            f"{s.eigenvalues.shape[0]} atoms"
        )
    e = s.support.eigenvalues
    m = v.masses[s.support.mask]
    me = m * e
    # e / e^power collapses to 1 (power 1) or 1/e (power 2) on the support.
    at_zero = float(m.sum()) if power == 1 else float(np.sum(m / e))
    return support_sums(s, kappa, lambda k: me / (e + k) ** power, at_zero)


# ---------------------------------------------------------------------------
# Model spectra
# ---------------------------------------------------------------------------

def make_isotropic(d: int, sigma: float) -> Spectrum:
    """Single atom at sigma with full weight d."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_spectrum_params("isotropic", [sigma])
    return Spectrum(eigenvalues=np.array([float(sigma)]), weights=np.array([float(d)]), d=d)


def make_inverse_index(d: int) -> Spectrum:
    """Eigenvalues proportional to 1/k for k = 1..d, normalized to unit trace."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    e = 1.0 / np.arange(1, d + 1)
    e /= e.sum()
    return Spectrum(eigenvalues=e, weights=np.ones(d), d=d)


def make_power_law(d: int, alpha: float, tau: float = 1.0) -> Spectrum:
    """Eigenvalues tau * (d/k)^alpha for k = 1..d, alpha > 1.

    This is the high-dimensional rescaling of a tau / k^alpha eigenvalue
    sequence; its spectral measure converges (distribution of tau * u^-alpha
    for u uniform on (0, 1]).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_spectrum_params("power_law", [alpha, tau])
    k = np.arange(1, d + 1, dtype=float)
    return Spectrum(eigenvalues=tau * (d / k) ** alpha, weights=np.ones(d), d=d)


def make_two_dirac(d: int, pi1: float, sigma1: float, sigma2: float) -> Spectrum:
    """Two atoms: weight pi1*d at sigma1 and (1-pi1)*d at sigma2."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_spectrum_params("two_dirac", [pi1, sigma1, sigma2])
    if pi1 == 0.0:
        return make_isotropic(d, sigma2)
    if pi1 == 1.0:
        return make_isotropic(d, sigma1)
    return Spectrum(
        eigenvalues=np.array([float(sigma1), float(sigma2)]),
        weights=np.array([pi1 * d, (1.0 - pi1) * d]),
        d=d,
    )


@dataclass(frozen=True)
class SpectrumKind:
    """A named family of spectra: make(d, *required, *optional) builds it.

    Optional parameters left out take ``defaults(d)``.  A kind without
    ``make`` is read from a spectrum JSON document, not built from
    parameters.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    defaults: Callable[[int], list[float]]
    make: Callable[..., Spectrum] | None

    def usage(self, name: str) -> str:
        """Flag syntax, e.g. 'power_law:alpha[,tau]'."""
        req = ":" + ",".join(self.required) if self.required else ""
        opt = "[" + ("," if req else ":") + ",".join(self.optional) + "]" if self.optional else ""
        return name + req + opt


SPECTRUM_KINDS: dict[str, SpectrumKind] = {
    # The default isotropic level gives unit trace.
    "isotropic": SpectrumKind((), ("sigma",), lambda d: [1.0 / d], make_isotropic),
    "inverse_index": SpectrumKind((), (), lambda d: [], make_inverse_index),
    "power_law": SpectrumKind(("alpha",), ("tau",), lambda d: [1.0], make_power_law),
    "two_dirac": SpectrumKind(("pi1", "sigma1", "sigma2"), (), lambda d: [], make_two_dirac),
    "file": SpectrumKind((), (), lambda d: [], None),
}


# The values each named parameter admits, and the rule as an error states it.
_PARAM_RULES: dict[str, tuple[Callable[[float], bool], str]] = {
    "alpha": (lambda v: 1 < v < math.inf, "must be finite and exceed 1"),
    "pi1": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    **dict.fromkeys(
        ("sigma", "sigma1", "sigma2", "tau"),
        (lambda v: 0 < v < math.inf, "must be finite and positive"),
    ),
}


class SpectrumParamError(ValueError):
    """Parameters that do not fit their spectrum kind; ``field`` names the
    offending part, 'params' for the count or 'params[i]' for one value."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_spectrum_params(kind: str, params) -> None:
    """Raise ValueError unless kind is known and params fit it: their count,
    then each value against its parameter's rule (SpectrumParamError)."""
    entry = SPECTRUM_KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown spectrum kind {kind!r}, expected one of {tuple(SPECTRUM_KINDS)}")
    names = entry.required + entry.optional
    lo, hi = len(entry.required), len(names)
    if not lo <= len(params) <= hi:
        count = str(lo) if lo == hi else f"{lo} to {hi}"
        raise SpectrumParamError(
            "params", f"{entry.usage(kind)} takes {count} parameter(s), got {len(params)}"
        )
    for i, (name, value) in enumerate(zip(names, params)):
        admits, rule = _PARAM_RULES[name]
        if not admits(value):
            raise SpectrumParamError(f"params[{i}]", f"{name} {rule}, got {value}")


def spectrum_for(kind: str, params, d: int) -> Spectrum:
    """Limit measure of a parametric kind at dimension d, defaults filled in.

    Weights may be fractional (two-Dirac pi1 * d); ``Spectrum.expand`` turns
    the measure into the d eigenvalues of a concrete covariance.
    """
    if d < 1:
        raise ValueError(f"dimension d must be positive, got {d}")
    check_spectrum_params(kind, params)
    entry = SPECTRUM_KINDS[kind]
    if entry.make is None:
        raise ValueError(f"spectrum kind {kind!r} is read from a file, not built from parameters")
    return entry.make(d, *params, *entry.defaults(d)[len(params) - len(entry.required):])


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def spectrum_to_json(s: Spectrum, signal: SignalMeasure | None = None) -> str:
    """Serialize as {"d", "atoms": [[eigenvalue, weight], ...], "signal"?}."""
    doc = {
        "d": int(s.d),
        "atoms": [[float(e), float(w)] for e, w in zip(s.eigenvalues, s.weights)],
    }
    if signal is not None:
        if signal.masses.shape != s.eigenvalues.shape:
            raise ValueError("signal is not aligned with the spectrum")
        doc["signal"] = [float(m) for m in signal.masses]
    return json.dumps(doc)


def spectrum_from_json(text: str) -> tuple[Spectrum, SignalMeasure | None]:
    """Inverse of spectrum_to_json; returns (spectrum, signal or None)."""
    doc = json.loads(text)
    try:
        atoms = np.asarray(doc["atoms"], dtype=float).reshape(-1, 2)
        s = Spectrum(eigenvalues=atoms[:, 0], weights=atoms[:, 1], d=int(doc["d"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed spectrum document: {exc}") from exc
    signal = None
    if doc.get("signal") is not None:
        signal = SignalMeasure(masses=np.asarray(doc["signal"], dtype=float))
        if signal.masses.shape != s.eigenvalues.shape:
            raise ValueError("signal is not aligned with the spectrum")
    return s, signal

"""Sweep configuration: validation and JSON (de)serialization.

The on-disk schema is a flat JSON object:

    {"n": int, "d": int, "sigma_noise": num,
     "spectrum": {"kind": str, "params": [num], "path"?: str},
     "signal": {"kind": str, "seed": int, "path"?: str},
     "m_grid": [int], "lambda_grid": [num], "replications": int,
     "sampler": "gaussian"|"rademacher", "master_seed": int, "mode": str}

Schema violations raise ConfigError naming the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .spectrum import SPECTRUM_KINDS, SpectrumParamError, check_spectrum_params


def default_m_grid(n: int) -> list[int]:
    """Projection-count grid: dense on both sides of m = n, out to m = 4n.

    Step n/20 up to 2n (so the interpolation point m = n is on the grid),
    then four times coarser out to 4n.
    """
    step = max(1, n // 20)
    grid = list(range(step, 2 * n, step))
    grid += list(range(2 * n, 4 * n + 1, 4 * step))
    return grid

SIGNAL_KINDS = ("random_gaussian_normalized", "aligned_file")
SAMPLERS = ("gaussian", "rademacher")
MODES = ("theory", "empirical", "both", "probe")

DEFAULT_SIGNAL_SEED = 1234
DEFAULT_MASTER_SEED = 20_240_001


# The schema's flat fields, and the fields of its nested objects, each of
# which sets the SweepConfig attribute "<object>_<field>".
_TOP_FIELDS = (
    "n", "d", "sigma_noise", "m_grid", "lambda_grid", "replications", "sampler",
    "master_seed", "mode",
)
_NESTED_FIELDS = {"spectrum": ("kind", "params", "path"), "signal": ("kind", "seed", "path")}


class ConfigError(ValueError):
    """A sweep configuration violates the schema."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number a float can hold: an int beyond float range is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class SweepConfig:
    n: int
    d: int
    sigma_noise: float = 1.0
    spectrum_kind: str = "isotropic"
    spectrum_params: list[float] = field(default_factory=list)
    spectrum_path: str | None = None
    signal_kind: str = "random_gaussian_normalized"
    signal_seed: int = DEFAULT_SIGNAL_SEED
    signal_path: str | None = None
    m_grid: list[int] = field(default_factory=list)
    lambda_grid: list[float] = field(default_factory=list)
    replications: int = 0
    sampler: str = "rademacher"
    master_seed: int = DEFAULT_MASTER_SEED
    mode: str = "theory"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ConfigError(f"n: must be a positive integer, got {self.n!r}")
        if not _is_int(self.d) or self.d < 1:
            raise ConfigError(f"d: must be a positive integer, got {self.d!r}")
        if not _is_finite(self.sigma_noise) or self.sigma_noise < 0:
            raise ConfigError(f"sigma_noise: must be finite and >= 0, got {self.sigma_noise!r}")
        self.sigma_noise = float(self.sigma_noise)
        kind = SPECTRUM_KINDS.get(self.spectrum_kind)
        if kind is None:
            raise ConfigError(
                f"spectrum.kind: {self.spectrum_kind!r} not one of {tuple(SPECTRUM_KINDS)}"
            )
        if not self.spectrum_params and not kind.required:
            # Record the defaults, e.g. the unit-trace isotropic level.
            self.spectrum_params = kind.defaults(self.d)
        if self.spectrum_kind == "file" and not self.spectrum_path:
            raise ConfigError("spectrum.path: required when spectrum.kind is 'file'")
        for i, p in enumerate(self.spectrum_params):
            if not _is_finite(p):
                raise ConfigError(f"spectrum.params[{i}]: must be a finite number, got {p!r}")
        try:
            check_spectrum_params(self.spectrum_kind, self.spectrum_params)
        except SpectrumParamError as exc:
            raise ConfigError(f"spectrum.{exc.field}: {exc}") from None
        self.spectrum_params = [float(p) for p in self.spectrum_params]
        if self.signal_kind not in SIGNAL_KINDS:
            raise ConfigError(f"signal.kind: {self.signal_kind!r} not one of {SIGNAL_KINDS}")
        if self.signal_kind == "aligned_file" and not (self.signal_path or self.spectrum_path):
            raise ConfigError("signal.path: required when signal.kind is 'aligned_file'")
        if not _is_int(self.signal_seed):
            raise ConfigError(f"signal.seed: must be an integer, got {self.signal_seed!r}")
        for i, m in enumerate(self.m_grid):
            if not _is_int(m) or m < 1:
                raise ConfigError(f"m_grid[{i}]: must be a positive integer, got {m!r}")
        for i, lam in enumerate(self.lambda_grid):
            if not _is_finite(lam) or lam < 0:
                raise ConfigError(f"lambda_grid[{i}]: must be finite and >= 0, got {lam!r}")
        if not _is_int(self.replications) or self.replications < 0:
            raise ConfigError(
                f"replications: must be a nonnegative integer, got {self.replications!r}"
            )
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"sampler: {self.sampler!r} not one of {SAMPLERS}")
        if not _is_int(self.master_seed):
            raise ConfigError(f"master_seed: must be an integer, got {self.master_seed!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: {self.mode!r} not one of {MODES}")
        if self.mode in ("theory", "empirical", "both"):
            if not self.m_grid and not self.lambda_grid:
                self.m_grid = default_m_grid(self.n)
            elif self.m_grid and self.lambda_grid:
                raise ConfigError(
                    f"only one of m_grid and lambda_grid may be non-empty in mode {self.mode!r}"
                )

    @property
    def grid_kind(self) -> str:
        """'m' for projection sweeps, 'lambda' for ridge sweeps."""
        return "m" if self.m_grid else "lambda"

    def to_dict(self) -> dict:
        doc = {
            "n": self.n,
            "d": self.d,
            "sigma_noise": self.sigma_noise,
            "spectrum": {"kind": self.spectrum_kind, "params": list(self.spectrum_params)},
            "signal": {"kind": self.signal_kind, "seed": self.signal_seed},
            "m_grid": list(self.m_grid),
            "lambda_grid": list(self.lambda_grid),
            "replications": self.replications,
            "sampler": self.sampler,
            "master_seed": self.master_seed,
            "mode": self.mode,
        }
        if self.spectrum_path is not None:
            doc["spectrum"]["path"] = self.spectrum_path
        if self.signal_path is not None:
            doc["signal"]["path"] = self.signal_path
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config root: expected an object, got {type(doc).__name__}")
        unknown = set(doc) - {*_TOP_FIELDS, *_NESTED_FIELDS}
        if unknown:
            raise ConfigError(f"unknown field(s): {sorted(unknown)}")
        for req in ("n", "d"):
            if req not in doc:
                raise ConfigError(f"{req}: required field missing")
        kwargs = {key: doc[key] for key in _TOP_FIELDS if key in doc}
        for key in ("m_grid", "lambda_grid"):
            if key in kwargs and not isinstance(kwargs[key], list):
                raise ConfigError(f"{key}: expected a list")
        for obj, fields in _NESTED_FIELDS.items():
            sub = doc.get(obj, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{obj}: expected an object")
            for key, value in sub.items():
                if key not in fields:
                    raise ConfigError(f"{obj}.{key}: unknown field")
                kwargs[f"{obj}_{key}"] = value
        if not isinstance(kwargs.get("spectrum_params", []), list):
            raise ConfigError("spectrum.params: expected a list")
        return cls(**kwargs)

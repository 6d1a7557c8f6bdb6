"""Command-line front end: sweeps, figure presets, CSV/JSON emission.

Subcommands:

    theory        evaluate risk equivalents over an m or lambda grid
    empirical     Monte Carlo replication sweep (optionally with theory)
    kappa         solve the implicit regularization parameter and print it
    probe-traces  empirical spectral traces vs deterministic equivalents
    reproduce     figure presets (fig1 .. fig5) at desk scale

Every sweep writes a CSV with a fixed column order plus a metadata JSON
(full configuration, normalizations, preset assumptions) next to it.  No
plotting happens in-process: the CSV is the plotting interface.
Exit codes: 0 ok, 1 usage/configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, SweepConfig, default_m_grid
from .empirical import (
    NumericalError,
    ProblemInstance,
    build_instance,
    child_seed,
    conditional_risk_projected,
    probe_trace_equivalents,
    run_replications,
    sample_matrix,
    seeded_instance,
)
from .selfconsistent import kappa_at_dof, kappa_of_lambda
from .spectrum import (
    SPECTRUM_KINDS,
    SignalMeasure,
    Spectrum,
    make_isotropic,
    make_two_dirac,
    spectrum_for,
)
from .theory import RiskBreakdown, ridge_risk, rp_risk

CSV_COLUMNS = [
    "m_or_lambda",
    "delta",
    "bias_theory",
    "var_theory",
    "total_theory",
    "diverged_flag",
    "bias_emp_mean",
    "bias_emp_std",
    "var_emp_mean",
    "var_emp_std",
    "reps_used",
    "kappa",
]

# Raw replication stream, one row per retained (grid point, replication).
REPLICATION_CSV_COLUMNS = ["grid_index", "m_or_lambda", "rep_index", "bias", "variance", "kappa_hat"]

FIG2_DELTAS = (0.2, 0.4, 0.6, 0.8, 1.4, 2.0, 3.0)
FIG2_N_VALUES = (10, 100, 1000)
FIG2_REALIZATIONS = 10


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CurveRow:
    """One emitted grid point; empirical fields are None in theory mode."""

    m_or_lambda: float
    delta: float | None
    bias_theory: float | None
    var_theory: float | None
    total_theory: float | None
    diverged_flag: int | None
    bias_emp_mean: float | None
    bias_emp_std: float | None
    var_emp_mean: float | None
    var_emp_std: float | None
    reps_used: int | None
    kappa: float | None


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def write_curve_csv(path, rows: list[CurveRow]) -> None:
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_curve_csv(path) -> list[CurveRow]:
    """Parse a curve CSV back into rows (round-trip of write_curve_csv)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")

    def parse(cell: str, as_int: bool):
        if cell == "NA":
            return None
        if as_int:
            return int(cell)
        return float(cell)

    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"row has {len(cells)} cells, expected {len(CSV_COLUMNS)}")
        kwargs = {}
        for col, cell in zip(CSV_COLUMNS, cells):
            as_int = col in ("diverged_flag", "reps_used")
            value = parse(cell, as_int)
            kwargs[col] = value
        kwargs["m_or_lambda"] = float(kwargs["m_or_lambda"])
        rows.append(CurveRow(**kwargs))
    return rows


def write_metadata(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_replication_csv(path, sweep) -> None:
    """Emit the raw replication stream in (grid index, rep index) order."""
    lines = [",".join(REPLICATION_CSV_COLUMNS)]
    for (gi, r) in sorted(sweep.results):
        res = sweep.results[(gi, r)]
        lines.append(
            f"{gi},{_fmt(res.m)},{res.rep_index},{_fmt(res.bias)},"
            f"{_fmt(res.variance)},{_fmt(res.kappa_hat)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Sweep assembly
# ---------------------------------------------------------------------------

def _theory_breakdowns(
    spec: Spectrum, signal: SignalMeasure, config: SweepConfig
) -> list[RiskBreakdown]:
    if config.grid_kind == "m":
        return rp_risk(spec, signal, config.n, config.m_grid, config.sigma_noise)
    return ridge_risk(spec, signal, config.n, config.sigma_noise, config.lambda_grid)


def sweep_rows(config: SweepConfig, record_kappa: bool = False):
    """Run a configured sweep; returns (rows, instance, empirical-or-None).

    Theory columns are evaluated on the realized instance measures (exact
    eigenvalues, realized signal alignment), so theory and Monte Carlo
    columns describe the same problem.
    """
    inst = build_instance(config)
    spec = inst.spectrum()
    signal = inst.signal()
    grid = config.m_grid if config.grid_kind == "m" else config.lambda_grid

    theory = None
    if config.mode in ("theory", "both"):
        theory = _theory_breakdowns(spec, signal, config)
    empirical = None
    if config.mode in ("empirical", "both"):
        empirical = run_replications(config, inst, record_kappa=record_kappa)

    rows = []
    for gi, value in enumerate(grid):
        delta = value / config.n if config.grid_kind == "m" else None
        row = CurveRow(
            m_or_lambda=float(value),
            delta=delta,
            bias_theory=None,
            var_theory=None,
            total_theory=None,
            diverged_flag=None,
            bias_emp_mean=None,
            bias_emp_std=None,
            var_emp_mean=None,
            var_emp_std=None,
            reps_used=None,
            kappa=None,
        )
        if theory is not None:
            br = theory[gi]
            row.bias_theory = br.bias
            row.var_theory = br.variance
            row.total_theory = br.total
            row.diverged_flag = int(br.diverged)
            row.kappa = br.kappa
        if empirical is not None:
            agg = empirical.aggregates[gi]
            row.bias_emp_mean = agg.bias_mean
            row.bias_emp_std = agg.bias_std
            row.var_emp_mean = agg.var_mean
            row.var_emp_std = agg.var_std
            row.reps_used = agg.reps_used
        rows.append(row)
    return rows, inst, empirical


def _sweep_metadata(config: SweepConfig, inst: ProblemInstance, assumptions: dict | None = None):
    return {
        "artifact_version": __version__,
        "config": config.to_dict(),
        "normalizations": {
            "trace_sigma": float(np.sum(inst.sigma_eigs)),
            "signal_strength": inst.signal_strength(),
            "sigma_noise": inst.sigma_noise,
            "noise_variance": inst.sigma_noise**2,
        },
        "spectrum_summary": {
            "kind": config.spectrum_kind,
            "largest_eigenvalue": float(inst.sigma_eigs.max()),
            "smallest_eigenvalue": float(inst.sigma_eigs.min()),
        },
        "assumptions": assumptions or {},
    }


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_config(name: str) -> SweepConfig:
    """Sweep configurations behind the figure presets (fig1, fig4, fig5)."""
    if name == "fig1":
        # Non-isotropic double descent overview: unit-trace 1/k spectrum,
        # unit signal strength, noise 1/2 so the noise floor is 1/4,
        # 20 x 20 = 400 (design, projection) pairs per grid point.
        return SweepConfig(
            n=200, d=400, sigma_noise=0.5, spectrum_kind="inverse_index",
            signal_kind="random_gaussian_normalized", signal_seed=11,
            m_grid=default_m_grid(200), replications=400, sampler="rademacher",
            master_seed=101, mode="both",
        )
    if name == "fig4":
        return SweepConfig(
            n=200, d=400, sigma_noise=1.0, spectrum_kind="inverse_index",
            signal_kind="random_gaussian_normalized", signal_seed=11,
            m_grid=default_m_grid(200), replications=40, sampler="rademacher",
            master_seed=104, mode="both",
        )
    if name == "fig5":
        return SweepConfig(
            n=200, d=400, sigma_noise=1.0, spectrum_kind="isotropic",
            spectrum_params=[1.0 / 400.0],
            signal_kind="random_gaussian_normalized", signal_seed=11,
            m_grid=default_m_grid(200), replications=40, sampler="rademacher",
            master_seed=105, mode="both",
        )
    raise UsageError(f"no sweep preset named {name!r}")


_PRESET_ASSUMPTIONS = {
    "fig1": {
        "m_grid": "n/20 steps through 2n, then 4x coarser to 4n (grid not externally fixed)",
        "replications": "400 independent (design, projection) pairs stand in for a 20x20 factorial",
    },
    "fig4": {"m_grid": "n/20 steps through 2n, then 4x coarser to 4n"},
    "fig5": {"m_grid": "n/20 steps through 2n, then 4x coarser to 4n"},
}


def fig2_theory_measures(n: int) -> tuple[Spectrum, SignalMeasure, float]:
    """Limit measures for the two-atom convergence study at gamma = 2.

    Signal mass is spread uniformly over eigendirections and scaled to unit
    signal strength, the same normalization the sampled instances use.
    """
    d = 2 * n
    spec = make_two_dirac(d, 0.5, 1.0, 4.0)
    mean_eig = spec.trace / d
    masses = (spec.weights / d) / mean_eig
    return spec, SignalMeasure(masses=masses), mean_eig


def run_fig2(
    n_values=FIG2_N_VALUES,
    deltas=FIG2_DELTAS,
    realizations: int = FIG2_REALIZATIONS,
    master_seed: int = 102,
    sampler: str = "rademacher",
):
    """Convergence study: per-n curve tables plus gap summaries.

    Each realization draws a fresh eigenbasis, target and design; the
    projection is redrawn per grid point.  Gap summaries report both the
    mean over realizations of |replication - theory| and the gap of the
    replication mean, per curve.
    """
    tables: dict[int, list[CurveRow]] = {}
    summary: dict[int, dict] = {}
    for n in n_values:
        spec_th, signal_th, _ = fig2_theory_measures(n)
        eigs = np.sort(spec_th.expand())[::-1].copy()
        ms = [int(round(delta * n)) for delta in deltas]
        rows = []
        gaps_bias, gaps_var = [], []
        gom_bias, gom_var = [], []
        per_real: dict[int, list[tuple[float, float]]] = {j: [] for j in range(len(deltas))}
        for r in range(realizations):
            inst = seeded_instance(
                n, 1.0, eigs,
                child_seed(master_seed, n, r, 2), child_seed(master_seed, n, r, 3),
            )
            z = sample_matrix(n, inst.d, sampler, child_seed(master_seed, n, r, 0))
            x = z @ inst.sqrt_covariance()
            for j, m in enumerate(ms):
                s = sample_matrix(
                    inst.d, m, sampler, child_seed(master_seed, n, r, 1, j)
                )
                bias, variance = conditional_risk_projected(inst, x, s)
                per_real[j].append((max(bias, 0.0), max(variance, 0.0)))
        theory = rp_risk(spec_th, signal_th, n, ms, 1.0)
        for j, (delta, m, br) in enumerate(zip(deltas, ms, theory)):
            vals = per_real[j]
            b = np.array([t[0] for t in vals])
            v = np.array([t[1] for t in vals])
            gaps_bias.append(float(np.mean(np.abs(b - br.bias))))
            gaps_var.append(float(np.mean(np.abs(v - br.variance))))
            gom_bias.append(abs(float(b.mean()) - br.bias))
            gom_var.append(abs(float(v.mean()) - br.variance))
            rows.append(
                CurveRow(
                    m_or_lambda=float(m), delta=delta,
                    bias_theory=br.bias, var_theory=br.variance,
                    total_theory=br.total, diverged_flag=int(br.diverged),
                    bias_emp_mean=float(b.mean()),
                    bias_emp_std=float(b.std(ddof=1)) if len(b) > 1 else None,
                    var_emp_mean=float(v.mean()),
                    var_emp_std=float(v.std(ddof=1)) if len(v) > 1 else None,
                    reps_used=len(vals), kappa=br.kappa,
                )
            )
        tables[n] = rows
        summary[n] = {
            "mean_abs_gap_bias": float(np.mean(gaps_bias)),
            "mean_abs_gap_variance": float(np.mean(gaps_var)),
            "gap_of_means_bias": float(np.mean(gom_bias)),
            "gap_of_means_variance": float(np.mean(gom_var)),
        }
    return tables, summary


def _dims_for_gamma(gamma: float) -> tuple[int, int]:
    """(n, d) with d/n = gamma, scaled so the larger of the two is near 2000."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise UsageError(f"--gamma must be finite and positive, got {gamma}")
    frac = Fraction(gamma).limit_denominator(10**6)
    scale = max(1, 2000 // max(frac.numerator, frac.denominator))
    n, d = frac.denominator * scale, frac.numerator * scale
    if d < 1:
        raise UsageError(f"--gamma {gamma} is too small: it rounds to d = 0 at n = {n}")
    return n, d


def run_fig3(gammas=(0.5, 1.0, 2.0), lambda_max: float = 3.0, points: int = 25):
    """Implicit regularization curves kappa(lambda) for unit isotropic spectra."""
    lams = [0.0] + list(np.geomspace(1e-3, lambda_max, points))
    rows = []
    for gamma in gammas:
        n, d = _dims_for_gamma(gamma)
        spec = make_isotropic(d, 1.0)
        masses = (spec.weights / d) / 1.0
        signal = SignalMeasure(masses=masses)
        for lam, br in zip(lams, ridge_risk(spec, signal, n, 1.0, lams)):
            rows.append(
                CurveRow(
                    m_or_lambda=float(lam), delta=gamma,
                    bias_theory=br.bias, var_theory=br.variance,
                    total_theory=br.total, diverged_flag=int(br.diverged),
                    bias_emp_mean=None, bias_emp_std=None,
                    var_emp_mean=None, var_emp_std=None, reps_used=None,
                    kappa=br.kappa,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Spectrum flag parsing
# ---------------------------------------------------------------------------

# Flag syntax of the kinds built from parameters; a file spectrum needs the
# path a --config file carries.
_SPECTRUM_USAGE = ", ".join(
    kind.usage(name) for name, kind in SPECTRUM_KINDS.items() if kind.make is not None
)


def parse_spectrum_flag(text: str) -> tuple[str, list[float]]:
    """Parse 'kind' or 'kind:p1,p2,...' into (kind, params)."""
    kind, _, tail = text.partition(":")
    params = [float(p) for p in tail.split(",")] if tail else []
    return kind, params


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _read_config_doc(path) -> dict:
    """The JSON object of a sweep configuration file, not yet validated."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected an object, got {type(doc).__name__}")
    return doc


def load_config(path) -> SweepConfig:
    """Load and validate a sweep configuration JSON file."""
    return SweepConfig.from_dict(_read_config_doc(path))


def _config_from_args(args, mode: str) -> SweepConfig:
    """Overlay the flags on the --config file's fields and validate once, so
    defaults such as the unit-trace isotropic level follow the final n and d."""
    if not args.config and (args.n is None or args.d is None):
        raise UsageError("--n and --d are required without --config")
    doc = _read_config_doc(args.config) if args.config else {}
    flags = {
        "n": args.n, "d": args.d, "sigma_noise": args.sigma, "replications": args.reps,
        "sampler": args.sampler, "master_seed": args.master_seed,
    }
    for key, value in flags.items():
        if value is not None:
            doc[key] = value
    if args.spectrum is not None:
        kind, params = parse_spectrum_flag(args.spectrum)
        _sub_object(doc, "spectrum").update(kind=kind, params=params)
    if args.signal_seed is not None:
        _sub_object(doc, "signal")["seed"] = args.signal_seed
    if args.m_grid is not None:
        doc["m_grid"] = [int(v) for v in args.m_grid.split(",")]
        doc["lambda_grid"] = []
    if args.lambda_grid is not None:
        doc["lambda_grid"] = [float(v) for v in args.lambda_grid.split(",")]
        doc["m_grid"] = []
    doc["mode"] = mode
    return SweepConfig.from_dict(doc)


def _sub_object(doc: dict, key: str) -> dict:
    sub = doc.setdefault(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{key}: expected an object")
    return sub


def _add_sweep_flags(sub):
    sub.add_argument("--config", help="JSON sweep configuration; flags override its fields")
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--sigma", type=float, help="noise standard deviation")
    sub.add_argument("--spectrum", help=f"kind or kind:p1,p2 ({_SPECTRUM_USAGE})")
    sub.add_argument("--signal-seed", type=int)
    sub.add_argument("--m-grid", help="comma-separated projection counts")
    sub.add_argument("--lambda-grid", help="comma-separated ridge penalties")
    sub.add_argument("--reps", type=int, help="replications per grid point")
    sub.add_argument("--sampler", choices=("gaussian", "rademacher"))
    sub.add_argument("--master-seed", type=int)
    sub.add_argument("--out", default="sweep.csv", help="output CSV path")


def _emit_sweep(config: SweepConfig, out_path: Path, record_kappa: bool, assumptions: dict):
    """Run a sweep, write its curve CSV and .meta.json, report the row count.

    Returns the Monte Carlo results (None in theory mode).
    """
    rows, inst, sweep = sweep_rows(config, record_kappa=record_kappa)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_curve_csv(out_path, rows)
    write_metadata(out_path.with_suffix(".meta.json"), _sweep_metadata(config, inst, assumptions))
    print(f"wrote {out_path} ({len(rows)} rows)")
    return sweep


def _cmd_theory(args) -> int:
    config = _config_from_args(args, mode="theory")
    _emit_sweep(config, Path(args.out), record_kappa=False, assumptions={})
    return 0


def _cmd_empirical(args) -> int:
    mode = "both" if args.with_theory else "empirical"
    config = _config_from_args(args, mode=mode)
    if config.replications < 1:
        raise UsageError(f"--reps must be at least 1, got {config.replications}")
    sweep = _emit_sweep(config, Path(args.out), record_kappa=args.record_kappa, assumptions={})
    if args.per_rep_out:
        write_replication_csv(args.per_rep_out, sweep)
    return 0


def _cmd_kappa(args) -> int:
    kind, params = parse_spectrum_flag(args.spectrum)
    if args.gamma is not None:
        n, d = _dims_for_gamma(args.gamma)
    elif args.n is not None and args.d is not None:
        n, d = args.n, args.d
    else:
        raise UsageError("provide --gamma or both --n and --d")
    spec = spectrum_for(kind, params, d)
    if args.dof_target is not None:
        sol = kappa_at_dof(spec, args.dof_target * n)
    else:
        sol = kappa_of_lambda(spec, n, args.lam)
    print(f"kappa = {sol.kappa:.12g}")
    if sol.diverged:
        print("note: critical point, kappa'(0) diverges")
    return 0


def _cmd_probe_traces(args) -> int:
    lams = [float(v) for v in args.lambdas.split(",")]
    if not all(0 < lam < math.inf for lam in lams):
        raise UsageError(f"--lambdas must be finite and positive, got {args.lambdas}")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    kind, params = parse_spectrum_flag(args.spectrum)
    config = SweepConfig(
        n=args.n, d=args.d, sigma_noise=1.0, spectrum_kind=kind, spectrum_params=params,
        sampler=args.sampler, master_seed=args.master_seed, mode="probe",
    )
    inst = build_instance(config)
    # Every probe input is in Sigma's eigenbasis, where A = Sigma and B = I
    # are the diagonals e and 1, and the draw X = Z Sigma^(1/2) is Z Q e^(1/2).
    q, root, ones = inst.sigma_basis, np.sqrt(inst.sigma_eigs), np.ones(args.d)
    lines = ["seed,lambda,name,lhs,rhs,rel_gap"]
    worst = 0.0
    for seed_ix in range(args.seeds):
        seed = child_seed(config.master_seed, seed_ix, 0)
        x = (sample_matrix(args.n, args.d, config.sampler, seed) @ q) * root
        for lam, probes in zip(lams, probe_trace_equivalents(inst, x, inst.sigma_eigs, ones, lams)):
            for p in probes:
                worst = max(worst, p.rel_gap)
                lines.append(",".join(map(_fmt, (seed_ix, lam, p.name, p.lhs, p.rhs, p.rel_gap))))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    write_metadata(
        out.with_suffix(".meta.json"),
        {
            "artifact_version": __version__,
            "config": config.to_dict(),
            "lambdas": lams,
            "seeds": args.seeds,
            "test_matrices": "A = Sigma, B = identity",
            "worst_rel_gap": worst,
        },
    )
    print(f"wrote {out} (worst relative gap {worst:.3%})")
    return 0


def _cmd_reproduce(args) -> int:
    name = args.figure
    out_dir = Path(args.out or f"reproduce_{name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if name in ("fig1", "fig4", "fig5"):
        _emit_sweep(
            preset_config(name), out_dir / f"{name}.csv",
            record_kappa=False, assumptions=_PRESET_ASSUMPTIONS[name],
        )
        return 0
    if name == "fig2":
        tables, summary = run_fig2()
        for n, rows in tables.items():
            write_curve_csv(out_dir / f"fig2_n{n}.csv", rows)
        write_metadata(
            out_dir / "fig2.meta.json",
            {
                "artifact_version": __version__,
                "preset": "fig2",
                "gamma": 2.0,
                "spectrum": "two atoms at 1 and 4, equal halves",
                "sigma_noise": 1.0,
                "deltas": list(FIG2_DELTAS),
                "realizations": FIG2_REALIZATIONS,
                "convergence_summary": {str(k): v for k, v in summary.items()},
                "assumptions": {
                    "atom_choice": "pi = (1/2, 1/2), eigenvalues (1, 4); not externally fixed",
                    "delta_grid": "integer m for every n, interpolation point excluded",
                },
            },
        )
        print(f"wrote fig2 tables for n in {list(tables)} under {out_dir}")
        return 0
    if name == "fig3":
        rows = run_fig3()
        write_curve_csv(out_dir / "fig3.csv", rows)
        write_metadata(
            out_dir / "fig3.meta.json",
            {
                "artifact_version": __version__,
                "preset": "fig3",
                "gammas": [0.5, 1.0, 2.0],
                "lambda_grid": "zero plus geometric grid on [1e-3, 3]",
                "note": "delta column carries gamma; kappa column is the solved parameter",
            },
        )
        print(f"wrote {out_dir / 'fig3.csv'}")
        return 0
    raise UsageError(f"unknown figure {name!r} (expected fig1 .. fig5)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ddlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("theory", help="risk equivalents over a grid")
    _add_sweep_flags(sub)
    sub.set_defaults(handler=_cmd_theory)

    sub = subs.add_parser("empirical", help="Monte Carlo replication sweep")
    _add_sweep_flags(sub)
    sub.add_argument("--with-theory", action="store_true", help="also emit theory columns")
    sub.add_argument("--per-rep-out", help="also write the raw replication stream CSV here")
    sub.add_argument(
        "--record-kappa", action="store_true",
        help="record the per-draw projected-covariance kappa estimate",
    )
    sub.set_defaults(handler=_cmd_empirical)

    sub = subs.add_parser("kappa", help="solve the implicit regularization parameter")
    sub.add_argument(
        "--spectrum", required=True, help=f"kind or kind:p1,p2 ({_SPECTRUM_USAGE})"
    )
    sub.add_argument("--gamma", type=float, help="dimension ratio d/n")
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sub.add_argument(
        "--dof-target", type=float,
        help="solve df1(kappa) = target * n instead of the lambda equation",
    )
    sub.set_defaults(handler=_cmd_kappa)

    sub = subs.add_parser("probe-traces", help="trace equivalents gap table")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument(
        "--spectrum", default="isotropic", help=f"kind or kind:p1,p2 ({_SPECTRUM_USAGE})"
    )
    sub.add_argument("--lambdas", default="0.1,1", help="comma-separated penalties")
    sub.add_argument("--seeds", type=int, default=1)
    sub.add_argument("--sampler", choices=("gaussian", "rademacher"), default="rademacher")
    sub.add_argument("--master-seed", type=int, default=7)
    sub.add_argument("--out", default="probes.csv")
    sub.set_defaults(handler=_cmd_probe_traces)

    sub = subs.add_parser("reproduce", help="figure presets")
    sub.add_argument("figure", choices=("fig1", "fig2", "fig3", "fig4", "fig5"))
    sub.add_argument("--out", help="output directory (default reproduce_<figure>)")
    sub.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

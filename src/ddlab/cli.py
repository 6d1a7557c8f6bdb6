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
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import SAMPLERS, ConfigError, SweepConfig, default_m_grid
from .empirical import (
    GridAggregate,
    NumericalError,
    ProblemInstance,
    build_design,
    build_instance,
    child_seed,
    guarded_draw,
    map_draws,
    probe_trace_equivalents,
    projected_draw,
    run_replications,
    sample_matrix,
    seeded_instance,
    summarize_point,
)
from .numkernel import pin_heap_thresholds
from .selfconsistent import kappa_at_dof, kappa_of_lambda
from .spectrum import (
    SPECTRUM_KINDS,
    SignalMeasure,
    Spectrum,
    check_spectrum_params,
    make_isotropic,
    make_two_dirac,
    spectrum_for,
)
from .theory import RiskBreakdown, ridge_risk, rp_risk

# Raw replication stream, one row per retained (grid point, replication).
REPLICATION_CSV_COLUMNS = ["grid_index", "m_or_lambda", "rep_index", "bias", "variance", "kappa_hat"]

# The fig2 study: d = gamma n, half the directions at each of two
# eigenvalues; its .meta.json describes the run from these constants.
FIG2_GAMMA = 2
FIG2_ATOMS = (1.0, 4.0)
FIG2_SPECTRUM = f"two atoms at {FIG2_ATOMS[0]:g} and {FIG2_ATOMS[1]:g}, equal halves"
FIG2_SIGMA_NOISE = 1.0
FIG2_DELTAS = (0.2, 0.4, 0.6, 0.8, 1.4, 2.0, 3.0)
FIG2_N_VALUES = (10, 100, 1000)
FIG2_REALIZATIONS = 10
FIG2_MASTER_SEED = 102
FIG2_SAMPLER = "rademacher"
FIG2_SUMMARY_KEYS = (
    "mean_abs_gap_bias", "mean_abs_gap_variance", "gap_of_means_bias", "gap_of_means_variance",
)
FIG3_GAMMAS = (0.5, 1.0, 2.0)
# Ends of the geometric lambda grid, as the .meta.json spells them.
FIG3_LAMBDA_ENDS = ("1e-3", "3")
FIG3_POINTS = 25


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CurveRow:
    """One emitted grid point; a field the run does not compute stays None.
    The fields, in order, are the curve CSV's columns."""

    m_or_lambda: float
    delta: float | None = None
    bias_theory: float | None = None
    var_theory: float | None = None
    total_theory: float | None = None
    diverged_flag: int | None = None
    bias_emp_mean: float | None = None
    bias_emp_std: float | None = None
    var_emp_mean: float | None = None
    var_emp_std: float | None = None
    reps_used: int | None = None
    kappa: float | None = None


CSV_COLUMNS = [f.name for f in fields(CurveRow)]


def _curve_row(
    value, delta: float | None, br: RiskBreakdown | None, agg: GridAggregate | None
) -> CurveRow:
    """The row of one grid point from its theory and Monte Carlo summaries."""
    row = CurveRow(m_or_lambda=float(value), delta=delta)
    if br is not None:
        row.bias_theory, row.var_theory, row.total_theory = br.bias, br.variance, br.total
        row.diverged_flag, row.kappa = int(br.diverged), br.kappa
    if agg is not None:
        row.bias_emp_mean, row.bias_emp_std = agg.bias_mean, agg.bias_std
        row.var_emp_mean, row.var_emp_std = agg.var_mean, agg.var_std
        row.reps_used = agg.reps_used
    return row


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


def _write_csv(path, header: list[str], rows) -> None:
    """Write a CLI CSV: every cell through _fmt, LF line endings, and the
    parent directory created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_curve_csv(path, rows: list[CurveRow]) -> None:
    _write_csv(path, CSV_COLUMNS, ([getattr(row, col) for col in CSV_COLUMNS] for row in rows))


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
    for k, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"row has {len(cells)} cells, expected {len(CSV_COLUMNS)}")
        kwargs = {}
        for col, cell in zip(CSV_COLUMNS, cells):
            as_int = col in ("diverged_flag", "reps_used")
            value = parse(cell, as_int)
            kwargs[col] = value
        if kwargs["m_or_lambda"] is None:
            raise ValueError(f"row {k}, column m_or_lambda: NA where a grid value is required")
        rows.append(CurveRow(**kwargs))
    return rows


def write_metadata(path, payload: dict) -> None:
    """Write a run's .meta.json, stamped with the artifact version."""
    doc = {"artifact_version": __version__, **payload}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_replication_csv(path, sweep) -> None:
    """Emit the raw replication stream in (grid index, rep index) order."""
    _write_csv(path, REPLICATION_CSV_COLUMNS, (
        (gi, res.m, res.rep_index, res.bias, res.variance, res.kappa_hat)
        for (gi, _), res in sorted(sweep.results.items())
    ))


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

    rows = [
        _curve_row(
            value,
            value / config.n if config.grid_kind == "m" else None,
            theory[gi] if theory is not None else None,
            empirical.aggregates[gi] if empirical is not None else None,
        )
        for gi, value in enumerate(grid)
    ]
    return rows, inst, empirical


def _sweep_metadata(config: SweepConfig, inst: ProblemInstance, assumptions: dict | None = None):
    return {
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

# The fields that set each sweep preset apart; preset_config adds the rest.
_PRESET_FIELDS = {
    # Non-isotropic double descent overview: unit-trace 1/k spectrum,
    # unit signal strength, noise 1/2 so the noise floor is 1/4,
    # 20 x 20 = 400 (design, projection) pairs per grid point.
    "fig1": dict(sigma_noise=0.5, spectrum_kind="inverse_index", replications=400, master_seed=101),
    "fig4": dict(sigma_noise=1.0, spectrum_kind="inverse_index", replications=40, master_seed=104),
    "fig5": dict(
        sigma_noise=1.0, spectrum_kind="isotropic", spectrum_params=[1.0 / 400.0],
        replications=40, master_seed=105,
    ),
}


def preset_config(name: str) -> SweepConfig:
    """Sweep configurations behind the figure presets (fig1, fig4, fig5)."""
    if name not in _PRESET_FIELDS:
        raise UsageError(f"no sweep preset named {name!r}")
    return SweepConfig(
        n=200, d=400, signal_kind="random_gaussian_normalized", signal_seed=11,
        m_grid=default_m_grid(200), sampler="rademacher", mode="both",
        **_PRESET_FIELDS[name],
    )


_PRESET_ASSUMPTIONS = {
    "fig1": {
        "m_grid": "n/20 steps through 2n, then 4x coarser to 4n (grid not externally fixed)",
        "replications": "400 independent (design, projection) pairs stand in for a 20x20 factorial",
    },
    "fig4": {"m_grid": "n/20 steps through 2n, then 4x coarser to 4n"},
    "fig5": {"m_grid": "n/20 steps through 2n, then 4x coarser to 4n"},
}


def fig2_theory_measures(n: int) -> tuple[Spectrum, SignalMeasure]:
    """Limit measures for the two-atom convergence study at FIG2_GAMMA.

    Signal mass is spread uniformly over eigendirections and scaled to unit
    signal strength, the same normalization the sampled instances use.
    """
    d = FIG2_GAMMA * n
    spec = make_two_dirac(d, 0.5, *FIG2_ATOMS)
    return spec, SignalMeasure(masses=(spec.weights / d) / (spec.trace / d))


def run_fig2(n_values=FIG2_N_VALUES, deltas=FIG2_DELTAS, realizations: int = FIG2_REALIZATIONS):
    """Convergence study: per-n curve tables plus gap summaries.

    Each realization draws a fresh eigenbasis, target and unit draw Z; the
    projection is redrawn per grid point.  The design X = Z Sigma^(1/2) is
    formed once per realization, when some m >= n, and those draws score
    through it.  Realizations run through the sweeps' draw map and each
    (realization, grid point) draw through their failure rule, so every
    grid point is summarized by ``summarize_point``.
    Gap summaries report both the mean over retained draws of
    |replication - theory| and the gap of the replication mean, per curve.
    """
    tables: dict[int, list[CurveRow]] = {}
    summary: dict[int, dict] = {}
    for n in n_values:
        spec_th, signal_th = fig2_theory_measures(n)
        eigs = np.sort(spec_th.expand())[::-1].copy()
        ms = [int(round(delta * n)) for delta in deltas]

        def realization(r: int):
            seed = functools.partial(child_seed, FIG2_MASTER_SEED, n, r)
            inst = seeded_instance(FIG2_SIGMA_NOISE, eigs, seed(2), seed(3))
            z = sample_matrix(n, inst.d, FIG2_SAMPLER, seed(0))
            x = build_design(inst, z) if any(m >= n for m in ms) else None
            return [
                guarded_draw(projected_draw, inst, z, r, m, FIG2_SAMPLER, seed(1, j), x=x)
                for j, m in enumerate(ms)
            ]

        draws = map_draws(realization, range(realizations))
        theory = rp_risk(spec_th, signal_th, n, ms, FIG2_SIGMA_NOISE)
        rows, gaps = [], []
        for j, (delta, m, br) in enumerate(zip(deltas, ms, theory)):
            agg, kept = summarize_point([per_real[j] for per_real in draws])
            b = np.array([res.bias for res in kept])
            v = np.array([res.variance for res in kept])
            gaps.append((
                float(np.mean(np.abs(b - br.bias))), float(np.mean(np.abs(v - br.variance))),
                abs(agg.bias_mean - br.bias), abs(agg.var_mean - br.variance),
            ))
            rows.append(_curve_row(m, delta, br, agg))
        tables[n] = rows
        summary[n] = {key: float(np.mean(col)) for key, col in zip(FIG2_SUMMARY_KEYS, zip(*gaps))}
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


def run_fig3():
    """Implicit regularization curves kappa(lambda) for unit isotropic spectra."""
    lams = [0.0] + list(np.geomspace(*map(float, FIG3_LAMBDA_ENDS), FIG3_POINTS))
    rows = []
    for gamma in FIG3_GAMMAS:
        n, d = _dims_for_gamma(gamma)
        spec = make_isotropic(d, 1.0)
        masses = (spec.weights / d) / 1.0
        signal = SignalMeasure(masses=masses)
        rows += [
            _curve_row(lam, gamma, br, None)
            for lam, br in zip(lams, ridge_risk(spec, signal, n, 1.0, lams))
        ]
    return rows


# ---------------------------------------------------------------------------
# Spectrum flag parsing
# ---------------------------------------------------------------------------

# Flag syntax of the kinds built from parameters; a file spectrum needs the
# path a --config file carries.
_SPECTRUM_USAGE = ", ".join(
    kind.usage(name) for name, kind in SPECTRUM_KINDS.items() if kind.make is not None
)


def _parse_list(flag: str, text: str, convert=float) -> list:
    """The comma-separated values of a list flag; a bad value is a usage
    error naming the flag."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def parse_spectrum_flag(text: str) -> tuple[str, list[float]]:
    """Parse 'kind' or 'kind:p1,p2,...' into (kind, params)."""
    kind, _, tail = text.partition(":")
    return kind, _parse_list("--spectrum", tail) if tail else []


def _checked_spectrum_flag(text: str) -> tuple[str, list[float]]:
    """parse_spectrum_flag for a command without a config schema: a kind or
    parameter that does not fit is a usage error naming the flag."""
    kind, params = parse_spectrum_flag(text)
    try:
        check_spectrum_params(kind, params)
    except ValueError as exc:
        raise UsageError(f"--spectrum: {exc}") from None
    if SPECTRUM_KINDS[kind].make is None:
        raise UsageError(f"--spectrum: kind {kind!r} is read from a --config file")
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
        doc["m_grid"] = _parse_list("--m-grid", args.m_grid, int)
        doc["lambda_grid"] = []
    if args.lambda_grid is not None:
        doc["lambda_grid"] = _parse_list("--lambda-grid", args.lambda_grid)
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
    sub.add_argument("--sampler", choices=SAMPLERS)
    sub.add_argument("--master-seed", type=int)
    sub.add_argument("--out", default="sweep.csv", help="output CSV path")


def _emit_sweep(config: SweepConfig, out_path: Path, record_kappa: bool, assumptions: dict):
    """Run a sweep, write its curve CSV and .meta.json, report the row count.

    Returns the Monte Carlo results (None in theory mode).
    """
    rows, inst, sweep = sweep_rows(config, record_kappa=record_kappa)
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
    kind, params = _checked_spectrum_flag(args.spectrum)
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


# Draws up to which probe-traces rotates each one from the basis's
# reflectors.  At n = 1000, d = 2000 on a 2-vCPU VM, applying them takes
# 0.11-0.14 s per draw against 0.05-0.07 s for Z @ Q, and forming and
# checking Q takes 0.21-0.25 s once.
_ROTATIONS_PER_BASIS = 4


def _cmd_probe_traces(args) -> int:
    lams = _parse_list("--lambdas", args.lambdas)
    if not all(0 < lam < math.inf for lam in lams):
        raise UsageError(f"--lambdas must be finite and positive, got {args.lambdas}")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    kind, params = _checked_spectrum_flag(args.spectrum)
    config = SweepConfig(
        n=args.n, d=args.d, sigma_noise=1.0, spectrum_kind=kind, spectrum_params=params,
        sampler=args.sampler, master_seed=args.master_seed, mode="probe",
    )
    inst = build_instance(config)
    # Every probe input is in Sigma's eigenbasis, where A = Sigma and B = I
    # are the diagonals e and 1, and the draw X = Z Sigma^(1/2) is Z Q e^(1/2).
    # A seeded Q is applied from its reflectors, never formed, unless there
    # are enough draws for forming it once to pay.
    if args.seeds > _ROTATIONS_PER_BASIS:
        inst.sigma_basis
    root, ones = np.sqrt(inst.sigma_eigs), np.ones(args.d)
    rows = []
    worst = 0.0
    for seed_ix in range(args.seeds):
        seed = child_seed(config.master_seed, seed_ix, 0)
        x = inst.rotate(sample_matrix(args.n, args.d, config.sampler, seed))
        x *= root
        for lam, probes in zip(lams, probe_trace_equivalents(inst, x, inst.sigma_eigs, ones, lams)):
            for p in probes:
                worst = max(worst, p.rel_gap)
                rows.append((seed_ix, lam, p.name, p.lhs, p.rhs, p.rel_gap))
    out = Path(args.out)
    _write_csv(out, ["seed", "lambda", "name", "lhs", "rhs", "rel_gap"], rows)
    write_metadata(
        out.with_suffix(".meta.json"),
        {
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
                "preset": "fig2",
                "gamma": float(FIG2_GAMMA),
                "spectrum": FIG2_SPECTRUM,
                "sigma_noise": FIG2_SIGMA_NOISE,
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
    # fig3: the parser's choices leave no other figure.
    rows = run_fig3()
    write_curve_csv(out_dir / "fig3.csv", rows)
    write_metadata(
        out_dir / "fig3.meta.json",
        {
            "preset": "fig3",
            "gammas": list(FIG3_GAMMAS),
            "lambda_grid": f"zero plus geometric grid on [{', '.join(FIG3_LAMBDA_ENDS)}]",
            "note": "delta column carries gamma; kappa column is the solved parameter",
        },
    )
    print(f"wrote {out_dir / 'fig3.csv'}")
    return 0


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
        help="record each draw's kappa estimate (from S'Sigma S on an m grid, "
        "from the Gram matrix on a lambda grid)",
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
    sub.add_argument("--sampler", choices=SAMPLERS, default="rademacher")
    sub.add_argument("--master-seed", type=int, default=7)
    sub.add_argument("--out", default="probes.csv")
    sub.set_defaults(handler=_cmd_probe_traces)

    sub = subs.add_parser("reproduce", help="figure presets")
    sub.add_argument("figure", choices=("fig1", "fig2", "fig3", "fig4", "fig5"))
    sub.add_argument("--out", help="output directory (default reproduce_<figure>)")
    sub.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    # Every command allocates and frees the same temporaries over and over:
    # the Monte Carlo draws, the probe draws and the kappa solvers' tables.
    pin_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    # LinAlgError subclasses ValueError, so the numeric clause comes first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

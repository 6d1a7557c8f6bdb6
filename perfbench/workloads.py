"""The four benchmark workloads: the commands they run and their checks.

Every workload is one closed loop of ddlab CLI commands, one at a time, each
in a fresh process.  An iteration is the list of commands below; every
iteration of a run repeats the same commands on the same inputs, which are
drawn from the workload seed.

* ``mc_projected`` -- ``ddlab empirical --with-theory`` on the fig4 preset's
  shape (n=200, d=400, 1/k spectrum, default 50-point m grid to 4n,
  Rademacher).  The replication path of the fig1/fig4/fig5 gates:
  sampling, the projected design and its pseudo-inverse.  Its matrices stay
  in L2.
* ``mc_ridge`` -- the same instance over a lambda grid with 0 and positive
  penalties.  Never calls ``pseudo_inverse``; its time is the shifted
  solves of ``conditional_risk_ridge``.
* ``probes`` -- ``ddlab probe-traces`` on the two-Dirac n=1000, d=2000
  configuration of the trace-equivalent gate, lambda in {0.1, 1}.  Dense
  d x d and n x n work on matrices well beyond L2; no replication loop.
* ``theory_grid`` -- ``ddlab theory`` on the 1/k spectrum at n=2000, d=4000,
  once over a fine m grid and once over a fine geometric lambda grid.  The
  only workload where the kappa solvers, ``df1`` and the risk equivalents
  do measurable work, next to the O(d^3) instance build.

Each ``_check_*`` function reads a command's outputs and returns
``(failed_units, check_failures)``, where check_failures is a list of
strings, one per failed check.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq

MC_N, MC_D, MC_REPS = 200, 400, 8
RIDGE_LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
PROBE_N, PROBE_D, PROBE_LAMBDAS = 1000, 2000, (0.1, 1.0)
PROBE_NAMES = (
    "shrink_linear", "shrink_quadratic", "resolvent_linear",
    "resolvent_quadratic", "kernel_linear", "kernel_quadratic",
)
THEORY_N, THEORY_D = 2000, 4000
THEORY_M_GRID = tuple(range(THEORY_N // 200, 4 * THEORY_N + 1, THEORY_N // 200))
THEORY_LAMBDAS = tuple(float(v) for v in np.geomspace(1e-6, 1.0, 400))

# Band of the replication-mean check.  The acceptance gate's band,
# max(5% of theory, 1.5 std), is calibrated for 40 replications and fails at
# 8 for ordinary seeds: the equivalents carry an O(1/n) finite-size bias
# (2-3% on the variance at m = 120, n = 200) that an 8-replication standard
# error resolves, and the bias above m = n is skewed enough that 8 draws
# under-estimate its spread.  Over 16 eight-replication sweeps of the fig4
# shape on two seeds, no point beyond 5 standard errors was more than 9%
# off, and no point beyond 3 standard errors more than 21% off.
Z_MAX = 5.0
REL_MAX = 0.25

# A probe call fails when one of its six traces misses its equivalent by more
# than this (the per-probe tolerance of the trace-equivalent gate).
PROBE_REL_GAP = 0.05


def mc_m_grid(n: int) -> list[int]:
    """The documented default m grid: step n/20 below 2n, 4x coarser to 4n."""
    step = n // 20
    return list(range(step, 2 * n, step)) + list(range(2 * n, 4 * n + 1, 4 * step))


@dataclass(frozen=True)
class Inputs:
    """Seeds of one run, drawn from the workload seed."""

    seed: int
    master_seed: int
    signal_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(seed, rng.randrange(1, 2**31), rng.randrange(1, 2**31))


@dataclass(frozen=True)
class Command:
    argv: list[str]
    units: int  # replications, probe calls or grid points
    check: Callable  # (workdir, inputs) -> (failed units, check failures)
    outputs: tuple[str, ...]  # files compared across iterations


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable  # (inputs) -> list[Command]
    layers: tuple[str, ...]  # spans that must record calls in a traced run


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def _num(cell: str):
    return None if cell == "NA" else float(cell)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# Monte Carlo sweeps
# ---------------------------------------------------------------------------

def _mc_argv(inputs: Inputs, out: str, reps_out: str, grid_flags: list[str]) -> list[str]:
    return [
        "empirical", "--n", str(MC_N), "--d", str(MC_D), "--sigma", "1",
        "--spectrum", "inverse_index", "--sampler", "rademacher",
        "--reps", str(MC_REPS), "--master-seed", str(inputs.master_seed),
        "--signal-seed", str(inputs.signal_seed), "--with-theory",
        *grid_flags, "--out", out, "--per-rep-out", reps_out,
    ]


def _mc_instance(inputs: Inputs):
    from ddlab.config import SweepConfig
    from ddlab.empirical import build_instance

    return build_instance(SweepConfig(
        n=MC_N, d=MC_D, sigma_noise=1.0, spectrum_kind="inverse_index",
        signal_seed=inputs.signal_seed, master_seed=inputs.master_seed,
        sampler="rademacher", replications=MC_REPS, mode="both", m_grid=[MC_N],
    ))


def _draw(inputs: Inputs, gi: int, r: int, rows: int, cols: int, stream: int):
    """The unit-variance draw of replication r at grid index gi.

    ddlab documents that replication seeds derive from (master seed, grid
    index, replication index); stream 0 is the design, stream 1 the
    projection.
    """
    from ddlab.empirical import child_seed, sample_matrix

    return sample_matrix(rows, cols, "rademacher", child_seed(inputs.master_seed, gi, r, stream))


def _risk_of_map(inst, x, P):
    """Noise-exact (bias, variance) of the linear estimator theta_hat = P y."""
    sigma = inst.covariance()
    resid = P @ (x @ inst.theta_star) - inst.theta_star
    bias = float(resid @ sigma @ resid)
    variance = inst.sigma_noise**2 * float(np.sum(P * (sigma @ P)))
    return bias, variance


def _reference_projected(inputs, inst, gi, r, m):
    x = _draw(inputs, gi, r, MC_N, MC_D, 0) @ inst.sqrt_covariance()
    s = _draw(inputs, gi, r, MC_D, m, 1)
    return _risk_of_map(inst, x, s @ np.linalg.pinv(x @ s))


def _reference_ridge(inputs, inst, gi, r, lam):
    x = _draw(inputs, gi, r, MC_N, MC_D, 0) @ inst.sqrt_covariance()
    if lam == 0.0:
        return _risk_of_map(inst, x, np.linalg.pinv(x))
    shat = x.T @ x / MC_N
    w, u = np.linalg.eigh(shat)
    resolvent = (u / (w + lam)) @ u.T
    # theta_hat = (Shat + lam)^-1 X'y/n, so P = (Shat + lam)^-1 X'/n.
    return _risk_of_map(inst, x, resolvent @ x.T / MC_N)


def _theory_reference(inst, x: float, kind: str) -> tuple[float, float]:
    """(bias, variance) equivalents of one grid point, from the formulas.

    Written against the instance's eigenvalues and signal masses only, so
    that it shares no code with ddlab's solvers (sigma = 1 here).
    """
    e = inst.sigma_eigs
    mu = (inst.sigma_basis.T @ inst.theta_star) ** 2
    n = MC_N

    def kappa_at(dof):
        return brentq(lambda k: float(np.sum(e / (e + k))) - dof, 0.0, float(e.sum()) / dof,
                      xtol=1e-300, rtol=1e-15)

    if kind == "m" and x < n:
        k = kappa_at(x)
        return k * float(np.sum(mu * e / (e + k))) / (1.0 - x / n), x / (n - x)
    if kind == "m":
        k, excess = kappa_at(n), n / (x - n)
    elif x == 0.0:
        k, excess = kappa_at(n), 0.0
    else:
        k = brentq(lambda k: k * (1.0 - float(np.sum(e / (e + k))) / n) - x,
                   x, x + float(e.sum()) / n + 1.0, xtol=1e-300, rtol=1e-15)
        excess = 0.0
    df2 = float(np.sum((e / (e + k)) ** 2))
    inflation = 1.0 / (1.0 - df2 / n)
    bias = k**2 * float(np.sum(mu * e / (e + k) ** 2)) * inflation
    bias += k * float(np.sum(mu * e / (e + k))) * excess
    return bias, df2 / n * inflation + excess


def _band_failures(rows: list[dict], n: int | None) -> list[str]:
    """Replication means that leave the theory band.

    A point fails when its gap is both more than Z_MAX standard errors of
    the replication mean and more than REL_MAX of the theory value.  Points
    within n/10 of the interpolation threshold and divergent points are
    skipped, as in the acceptance gate.
    """
    failures = []
    for row in rows:
        x = row["m_or_lambda"]
        if row["diverged_flag"] or (n is not None and abs(x - n) < n / 10):
            continue
        for which in ("bias", "var"):
            mean, std = row[f"{which}_emp_mean"], row[f"{which}_emp_std"]
            theory = row[f"{which}_theory"]
            se = std / math.sqrt(row["reps_used"])
            gap = abs(mean - theory)
            if gap > Z_MAX * se and gap > REL_MAX * abs(theory):
                failures.append(
                    f"{which} at {x:g}: mean {mean:.6g} vs theory {theory:.6g} "
                    f"({gap / se:.1f} standard errors)"
                )
    return failures


def _check_mc(workdir: Path, inputs: Inputs, grid: list[float], kind: str):
    problems = []
    main = read_rows(workdir / "mc.csv")
    reps_rows = read_rows(workdir / "mc_reps.csv")
    if [r["m_or_lambda"] for r in main] != [float(v) for v in grid]:
        return len(grid) * MC_REPS, ["grid column differs from the requested grid"]
    failed = sum(MC_REPS - int(r["reps_used"]) for r in main)
    inst = _mc_instance(inputs)
    threshold = MC_N if kind == "m" else None
    for row in main:
        x = row["m_or_lambda"]
        expect_div = kind == "m" and x == MC_N
        if bool(row["diverged_flag"]) != expect_div:
            problems.append(f"diverged_flag {row['diverged_flag']} at {x:g}")
            continue
        if expect_div:
            continue
        if not _finite(row["bias_theory"], row["var_theory"], row["total_theory"]):
            problems.append(f"non-finite theory at {x:g}")
            continue
        if not _close(row["total_theory"], row["bias_theory"] + row["var_theory"], 1e-12):
            problems.append(f"total_theory != bias + variance at {x:g}")
        for name, want in zip(("bias_theory", "var_theory"), _theory_reference(inst, x, kind)):
            if not _close(row[name], want, 1e-8):
                problems.append(f"{name} at {x:g} is {row[name]:.12g}, formula gives {want:.12g}")
        if not _finite(row["bias_emp_mean"], row["var_emp_mean"],
                       row["bias_emp_std"], row["var_emp_std"]):
            problems.append(f"non-finite empirical columns at {x:g}")
    if problems:
        return failed, problems
    problems += _band_failures(main, threshold)

    # The per-replication stream must aggregate to the curve columns.
    by_index: dict[int, list[dict]] = {}
    for rec in reps_rows:
        by_index.setdefault(int(rec["grid_index"]), []).append(rec)
    for gi, row in enumerate(main):
        recs = by_index.get(gi, [])
        if len(recs) != row["reps_used"]:
            problems.append(f"{len(recs)} replication rows at grid index {gi}, reps_used {row['reps_used']:g}")
            continue
        if any(rec["bias"] < 0 or rec["variance"] < 0 for rec in recs):
            problems.append(f"negative replication risk at grid index {gi}")
        for col, agg in (("bias", "bias_emp_mean"), ("variance", "var_emp_mean")):
            mean = math.fsum(rec[col] for rec in recs) / len(recs)
            if not _close(mean, row[agg], 1e-10, 1e-300):
                problems.append(f"replication {col} mean {mean:.17g} != {agg} {row[agg]:.17g} at {gi}")

    # Recompute two replications with an SVD pseudo-inverse or an eigh
    # resolvent, independent of ddlab's own kernels.
    rng = random.Random(inputs.seed)
    if kind == "m":
        far = [gi for gi, v in enumerate(grid) if abs(v - MC_N) >= MC_N / 2]
    else:
        far = [0, len(grid) - 1]
    for gi in rng.sample(far, 2):
        r = rng.randrange(MC_REPS)
        rec = next((x for x in by_index.get(gi, []) if x["rep_index"] == r), None)
        if rec is None:
            continue
        if kind == "m":
            ref = _reference_projected(inputs, inst, gi, r, int(grid[gi]))
        else:
            ref = _reference_ridge(inputs, inst, gi, r, float(grid[gi]))
        for name, got, want in zip(("bias", "variance"), (rec["bias"], rec["variance"]), ref):
            if not _close(got, want, 1e-7, 1e-14):
                problems.append(f"replication ({gi}, {r}) {name} {got:.12g} != reference {want:.12g}")
    return failed, problems


def mc_projected(inputs: Inputs) -> list[Command]:
    grid = mc_m_grid(MC_N)
    return [Command(
        _mc_argv(inputs, "mc.csv", "mc_reps.csv", []), len(grid) * MC_REPS,
        lambda workdir, inp: _check_mc(workdir, inp, grid, "m"),
        ("mc.csv", "mc_reps.csv"),
    )]


def mc_ridge(inputs: Inputs) -> list[Command]:
    grid = list(RIDGE_LAMBDAS)
    flags = ["--lambda-grid", ",".join(repr(v) for v in grid)]
    return [Command(
        _mc_argv(inputs, "mc.csv", "mc_reps.csv", flags), len(grid) * MC_REPS,
        lambda workdir, inp: _check_mc(workdir, inp, grid, "lambda"),
        ("mc.csv", "mc_reps.csv"),
    )]


# ---------------------------------------------------------------------------
# Trace probes
# ---------------------------------------------------------------------------

def _two_dirac_equivalents(n: int, d: int, lam: float) -> dict[str, float]:
    """Deterministic side of the six probes for A = Sigma, B = I.

    Sigma has d/2 eigenvalues at 1 and d/2 at 4.  In Sigma's eigenbasis A is
    diag(e) and B the identity, so every trace reduces to a sum over atoms.
    """
    e = np.array([1.0, 4.0])
    w = np.array([d / 2, d / 2])

    def defect(k):
        return k * (1.0 - float(np.sum(w * e / (e + k))) / n) - lam

    kappa = brentq(defect, lam, lam + float(np.sum(w * e)) / n + 1.0, xtol=1e-15)
    sh, rs = e / (e + kappa), 1.0 / (e + kappa)
    corr = 1.0 / (n - float(np.sum(w * sh**2)))
    a_sig = float(np.sum(w * e * e * rs**2))
    b_sig = float(np.sum(w * e * rs**2))
    a_plain, b_plain = b_sig, float(np.sum(w * rs**2))
    return {
        "shrink_linear": float(np.sum(w * e * sh)),
        "shrink_quadratic": float(np.sum(w * e * sh**2)) + kappa**2 * a_sig * b_sig * corr,
        "resolvent_linear": kappa / lam * float(np.sum(w * e * rs)),
        "resolvent_quadratic": (kappa / lam) ** 2 * (float(np.sum(w * e * rs**2)) + a_sig * b_sig * corr),
        "kernel_linear": float(np.sum(w * e * rs)),
        "kernel_quadratic": float(np.sum(w * e * rs**2)) + kappa**2 * a_plain * b_plain * corr,
    }


def _check_probes(workdir: Path, inputs: Inputs):
    with open(workdir / "probes.csv", newline="", encoding="utf-8") as fh:
        recs = list(csv.DictReader(fh))
    expected = [(0, lam, name) for lam in PROBE_LAMBDAS for name in PROBE_NAMES]
    got = [(int(r["seed"]), float(r["lambda"]), r["name"]) for r in recs]
    if got != expected:
        return len(PROBE_LAMBDAS), [f"probe rows {got[:3]}... differ from {expected[:3]}..."]
    problems = []
    failed_calls = set()
    worst = 0.0
    for lam in PROBE_LAMBDAS:
        want = _two_dirac_equivalents(PROBE_N, PROBE_D, lam)
        for r in recs:
            if float(r["lambda"]) != lam:
                continue
            lhs, rhs, gap = float(r["lhs"]), float(r["rhs"]), float(r["rel_gap"])
            if not (_finite(lhs, rhs, gap) and lhs > 0 and rhs > 0):
                problems.append(f"{r['name']} at lambda={lam:g}: non-finite or non-positive trace")
                failed_calls.add(lam)
                continue
            if not _close(gap, abs(lhs - rhs) / abs(rhs), 1e-12):
                problems.append(f"{r['name']} at lambda={lam:g}: rel_gap column inconsistent")
            if not _close(rhs, want[r["name"]], 1e-8):
                problems.append(f"{r['name']} at lambda={lam:g}: equivalent {rhs:.12g} != reference {want[r['name']]:.12g}")
            if gap > PROBE_REL_GAP:
                failed_calls.add(lam)
            worst = max(worst, gap)
    meta = json.loads((workdir / "probes.meta.json").read_text(encoding="utf-8"))
    if meta.get("worst_rel_gap") != worst:
        problems.append(f"meta worst_rel_gap {meta.get('worst_rel_gap')} != {worst}")
    return len(failed_calls), problems


def probes(inputs: Inputs) -> list[Command]:
    return [Command(
        ["probe-traces", "--n", str(PROBE_N), "--d", str(PROBE_D),
         "--spectrum", "two_dirac:0.5,1,4", "--lambdas", ",".join(repr(v) for v in PROBE_LAMBDAS),
         "--seeds", "1", "--sampler", "rademacher",
         "--master-seed", str(inputs.master_seed), "--out", "probes.csv"],
        len(PROBE_LAMBDAS),
        _check_probes,
        ("probes.csv",),
    )]


# ---------------------------------------------------------------------------
# Theory grids
# ---------------------------------------------------------------------------

def _inverse_index(d: int) -> np.ndarray:
    e = 1.0 / np.arange(1, d + 1)
    return e / e.sum()


def _theory_rows(workdir: Path, name: str, grid) -> tuple[list[dict], int, list[str]]:
    rows = read_rows(workdir / name)
    if [r["m_or_lambda"] for r in rows] != [float(v) for v in grid]:
        return [], len(grid), [f"{name}: grid column differs from the requested grid"]
    failed = 0
    for row in rows:
        values = (row["bias_theory"], row["var_theory"], row["total_theory"], row["kappa"])
        if not row["diverged_flag"] and not _finite(*values):
            failed += 1
    return rows, failed, []


def _check_theory_m(workdir: Path, inputs: Inputs):
    grid = THEORY_M_GRID
    rows, failed, problems = _theory_rows(workdir, "theory_m.csv", grid)
    if problems:
        return failed, problems
    e = _inverse_index(THEORY_D)
    n = THEORY_N
    over = []
    for row in rows:
        m = row["m_or_lambda"]
        if bool(row["diverged_flag"]) != (m == n):
            problems.append(f"diverged_flag {row['diverged_flag']} at m={m:g}")
            continue
        if m == n:
            continue
        bias, var, total, kappa = row["bias_theory"], row["var_theory"], row["total_theory"], row["kappa"]
        if not _finite(bias, var, total, kappa) or bias <= 0 or kappa <= 0:
            continue  # counted as a failed unit
        if not _close(total, bias + var, 1e-12):
            problems.append(f"total != bias + variance at m={m:g}")
        dof = float(np.sum(e / (e + kappa)))
        if not _close(dof, min(m, n), 1e-8):
            problems.append(f"df1(kappa) = {dof:.12g} at m={m:g}, expected {min(m, n):g}")
        if m < n:
            if not _close(var, m / (n - m), 1e-12):
                problems.append(f"variance at m={m:g} is not m/(n-m)")
        else:
            over.append(row)
    # Above n, kappa is kappa_n for every m and both terms are a constant
    # plus a multiple of n/(m - n).
    if over:
        kappa = over[0]["kappa"]
        df2 = float(np.sum((e / (e + kappa)) ** 2))
        base_var = df2 / n / (1.0 - df2 / n)
        first, last = over[0], over[-1]
        x1, x2 = n / (first["m_or_lambda"] - n), n / (last["m_or_lambda"] - n)
        slope = (first["bias_theory"] - last["bias_theory"]) / (x1 - x2)
        base_bias = first["bias_theory"] - slope * x1
        for row in over:
            m, x = row["m_or_lambda"], n / (row["m_or_lambda"] - n)
            if row["kappa"] != kappa:
                problems.append(f"kappa at m={m:g} differs from kappa_n")
            if not _close(row["var_theory"], base_var + x, 1e-9):
                problems.append(f"variance at m={m:g} off the df2 formula")
            if not _close(row["bias_theory"], base_bias + slope * x, 1e-9):
                problems.append(f"bias at m={m:g} not affine in n/(m-n)")
    return failed, problems


def _check_theory_lambda(workdir: Path, inputs: Inputs):
    grid = THEORY_LAMBDAS
    rows, failed, problems = _theory_rows(workdir, "theory_lambda.csv", grid)
    if problems:
        return failed, problems
    e = _inverse_index(THEORY_D)
    n = THEORY_N
    for row in rows:
        lam = row["m_or_lambda"]
        bias, var, total, kappa = row["bias_theory"], row["var_theory"], row["total_theory"], row["kappa"]
        if row["diverged_flag"]:
            problems.append(f"lambda={lam:g} flagged divergent")
            continue
        if not _finite(bias, var, total, kappa) or bias <= 0:
            continue  # counted as a failed unit
        if not _close(total, bias + var, 1e-12):
            problems.append(f"total != bias + variance at lambda={lam:g}")
        defect = kappa * (1.0 - float(np.sum(e / (e + kappa))) / n)
        if not _close(defect, lam, 1e-9):
            problems.append(f"kappa at lambda={lam:g} solves for {defect:.12g}")
        df2 = float(np.sum((e / (e + kappa)) ** 2))
        if not _close(var, df2 / n / (1.0 - df2 / n), 1e-9):
            problems.append(f"variance at lambda={lam:g} off the df2 formula")
    return failed, problems


def theory_grid(inputs: Inputs) -> list[Command]:
    common = [
        "theory", "--n", str(THEORY_N), "--d", str(THEORY_D), "--sigma", "1",
        "--spectrum", "inverse_index", "--master-seed", str(inputs.master_seed),
        "--signal-seed", str(inputs.signal_seed),
    ]
    return [
        Command(
            common + ["--m-grid", ",".join(str(m) for m in THEORY_M_GRID), "--out", "theory_m.csv"],
            len(THEORY_M_GRID),
            _check_theory_m,
            ("theory_m.csv",),
        ),
        Command(
            common + ["--lambda-grid", ",".join(repr(v) for v in THEORY_LAMBDAS),
                      "--out", "theory_lambda.csv"],
            len(THEORY_LAMBDAS),
            _check_theory_lambda,
            ("theory_lambda.csv",),
        ),
    ]


# Layers each workload must exercise; a traced run in which one of them
# records no call fails its check.
_MC_COMMON = (
    "cli.sweep_rows", "empirical.build_instance", "empirical.run_replications",
    "empirical.sample_matrix",
)

WORKLOADS = {
    w.name: w for w in (
        Workload("mc_projected", mc_projected, _MC_COMMON + (
            "empirical.conditional_risk_projected", "numkernel.pseudo_inverse",
            "theory.rp_risk", "selfconsistent.kappa_at_dof", "spectrum.df1")),
        Workload("mc_ridge", mc_ridge, _MC_COMMON + (
            "empirical.conditional_risk_ridge", "numkernel.solve_shifted",
            "theory.ridge_risk", "selfconsistent.kappa_of_lambda")),
        Workload("probes", probes, (
            "empirical.build_instance", "empirical.sample_matrix",
            "empirical.probe_trace_equivalents", "numkernel.solve_shifted",
            "selfconsistent.kappa_of_lambda")),
        Workload("theory_grid", theory_grid, (
            "cli.sweep_rows", "empirical.build_instance", "theory.rp_risk",
            "theory.ridge_risk", "selfconsistent.kappa_at_dof",
            "selfconsistent.kappa_of_lambda", "spectrum.df1")),
    )
}

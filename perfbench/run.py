"""ddlab benchmark: one workload, closed loop, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``; ``--workload all`` runs each in
turn and prints every table, prefixing metric names in the JSON line with
the workload.  The loop runs one ddlab CLI
command at a time, each in a fresh process (``worker.py``), and repeats the
workload's iteration while ``--seconds`` have not passed
(at least two iterations).  Thread settings are left as the environment
has them: replications use ``DDLAB_THREADS`` workers (default 1) and BLAS its
own default, and only one command runs at a time.

With ``--trace 0`` it reports the end-to-end metrics, medians over
iterations: ``setup_s`` (process start to ``import ddlab`` plus one small
LAPACK call, also measured by extra set-up-only processes), ``wall_s`` (the
iteration's time inside ``ddlab.cli.main``), ``work_per_s`` (replications,
probe calls or grid points per second of ``wall_s``) and ``peak_rss_mb``.
``failed_frac`` and ``check_failures`` are printed in the table and carried
by the ``failed``/``attempted`` and ``correct`` fields of the result.

With ``--trace 1`` it alternates untraced and traced iterations and reports
per-layer calls, self time and exact counts from the traced ones, plus
``trace.overhead_s``, the traced minus the untraced ``wall_s``.

The last line of stdout is the JSON result; the provenance (versions, BLAS,
thread settings, git revision, seeds) is printed above it and written with
the full result to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import ROOT as ROOT_SPAN, TRACED, aggregate
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3
MIN_ITERATIONS = 2
# A run ends within this many seconds of its start or fails.
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DDLAB_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def spawn(workdir: Path, tag: str, deadline: float, argv=None, traced=False) -> dict:
    """Run worker.py in a fresh process and return its report."""
    result = workdir / f"{tag}.result.json"
    spans = workdir / f"{tag}.spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "", str(result)]
    if traced:
        cmd += ["--trace", str(spans)]
    if argv:
        cmd += ["--", *argv]
    cmd[2] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: run did not finish in {DEADLINE_S} s") from None
    if proc.returncode != 0 or not result.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{tag}: worker exited with {proc.returncode}\n{tail}")
    report = json.loads(result.read_text(encoding="utf-8"))
    if traced:
        report["layers"] = aggregate(json.loads(spans.read_text(encoding="utf-8")))
    return report


def run_iteration(workdir: Path, k: int, commands, traced: bool, deadline: float) -> dict:
    itdir = workdir / f"it{k}"
    itdir.mkdir()
    reports = [
        spawn(itdir, f"c{j}", deadline, cmd.argv, traced) for j, cmd in enumerate(commands)
    ]
    return {"dir": itdir, "traced": traced, "reports": reports,
            "wall_s": sum(r["wall_s"] for r in reports)}


def check_iteration(it: dict, first: dict, commands, inputs) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for j, (cmd, report) in enumerate(zip(commands, it["reports"])):
        attempted += cmd.units
        if report["exit_code"] != 0:
            problems.append(f"command {j} exited with {report['exit_code']}")
            failed += cmd.units
            continue
        try:
            bad, found = cmd.check(it["dir"], inputs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad, found = cmd.units, [f"unreadable output ({exc!r})"]
        failed += bad
        problems += [f"command {j}: {p}" for p in found]
        if it is not first:
            for name in cmd.outputs:
                try:
                    same = (it["dir"] / name).read_bytes() == (first["dir"] / name).read_bytes()
                except OSError:
                    same = False
                if not same:
                    problems.append(f"command {j}: {name} differs from the first iteration")
    return attempted, failed, problems


def provenance(inputs) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            rev = f"unavailable ({exc.__class__.__name__})"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_rev": rev,
        "seed": inputs.seed,
        "master_seed": inputs.master_seed,
        "signal_seed": inputs.signal_seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(iterations, setups, units) -> dict:
    walls = [it["wall_s"] for it in iterations]
    return {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median(walls), "s"),
        "work_per_s": (_median([units / w for w in walls]), "units/s"),
        "peak_rss_mb": (_median([max(r["peak_rss_mb"] for r in it["reports"]) for it in iterations]), "MB"),
    }


def _iteration_layers(it: dict) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for report in it["reports"]:
        for name, entry in report["layers"].items():
            acc = merged.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
    return merged


# Layers whose call count follows from another reported count.
REPORT_SELF_ONLY = {"cli.sweep_rows", "empirical.run_replications", "theory.rp_risk", "theory.ridge_risk"}


def per_layer(layers, traced, untraced, workload) -> tuple[dict, list[str]]:
    problems = []
    first = layers[0]
    counts = {name: (e["calls"], e["failed"], e["stat"]) for name, e in first.items()}
    for other in layers[1:]:
        if {name: (e["calls"], e["failed"], e["stat"]) for name, e in other.items()} != counts:
            problems.append("exact counts differ between traced iterations")
    for name in workload.layers:
        if any(lay.get(name, {}).get("calls", 0) == 0 for lay in layers):
            problems.append(f"layer {name} recorded no call")
    if int(os.environ.get("DDLAB_THREADS", "1") or 1) <= 1:
        # With one replication thread spans nest, so self times partition
        # the root span exactly (up to float rounding).
        for lay in layers:
            total = lay[ROOT_SPAN]["total_s"]
            selfs = sum(e["self_s"] for e in lay.values())
            if abs(selfs - total) > 1e-9 * total:
                problems.append(f"self times sum to {selfs:.9f} s, {ROOT_SPAN} took {total:.9f} s")

    # Report the traced iteration with the median root time, so that the
    # reported self times add up to the reported total.
    lay = sorted(layers, key=lambda x: x[ROOT_SPAN]["total_s"])[(len(layers) - 1) // 2]
    metrics = {
        f"{ROOT_SPAN}.total_s": (lay[ROOT_SPAN]["total_s"], "s"),
        f"{ROOT_SPAN}.self_s": (lay[ROOT_SPAN]["self_s"], "s"),
        "trace.overhead_s": (
            _median([it["wall_s"] for it in traced]) - _median([it["wall_s"] for it in untraced]), "s"),
    }
    for name, (_mod, _attr, stat) in TRACED.items():
        entry = lay.get(name, {"calls": 0, "self_s": 0.0, "failed": 0, "stat": 0.0})
        if name not in REPORT_SELF_ONLY:
            metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        if stat is not None:
            metrics[f"{name}.{stat[0]}"] = (entry["stat"], "MB" if stat[0] == "mb_computed" else "count")
        if name == "empirical.conditional_risk_projected":
            metrics[f"{name}.failed"] = (entry["failed"], "count")
    return metrics, problems


def run(args, name: str) -> dict:
    workload = WORKLOADS[name]
    inputs = Inputs.from_seed(args.seed)
    commands = workload.commands(inputs)
    workdir = OUT / f"{name}-seed{args.seed}-trace{args.trace}.work"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    layers = []
    try:
        setups = [spawn(workdir, f"setup{k}", deadline)["setup_s"] for k in range(SETUP_PROBES)]
        iterations = []
        start = time.monotonic()
        # Closed loop: start another iteration while time is left.  A traced
        # run alternates untraced and traced iterations.
        while True:
            k = len(iterations)
            if args.trace:
                iterations.append(run_iteration(workdir, k, commands, False, deadline))
                iterations.append(run_iteration(workdir, k + 1, commands, True, deadline))
            else:
                iterations.append(run_iteration(workdir, k, commands, False, deadline))
            done = len(iterations) // (2 if args.trace else 1)
            if done >= MIN_ITERATIONS and time.monotonic() - start >= args.seconds:
                break
        setups += [r["setup_s"] for it in iterations for r in it["reports"]]

        attempted = failed = 0
        problems: list[str] = []
        for k, it in enumerate(iterations):
            a, f, p = check_iteration(it, iterations[0], commands, inputs)
            attempted += a
            failed += f
            problems += [f"iteration {k}: {x}" for x in p]
        units = attempted // len(iterations)
        untraced = [it for it in iterations if not it["traced"]]
        if args.trace:
            traced = [it for it in iterations if it["traced"]]
            layers = [_iteration_layers(it) for it in traced]
            metrics, layer_problems = per_layer(layers, traced, untraced, workload)
            problems += layer_problems
        else:
            metrics = end_to_end(untraced, setups, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "workload": name,
        "iterations": len(iterations),
        "units_per_iteration": units,
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "traced_iteration_layers": layers,
        "attempted": attempted,
        "failed": failed,
        "check_failures": problems,
        "metrics": metrics,
        "provenance": provenance(inputs),
    }


def report(args, result: dict) -> None:
    """Write the full result file and print the metric table."""
    OUT.mkdir(exist_ok=True)
    name = result["workload"]
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, default=str) + "\n", encoding="utf-8")
    problems = result["check_failures"]
    print(f"workload {name}: {result['iterations']} iterations, "
          f"{result['units_per_iteration']} units each, seed {args.seed}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:48s} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':48s} {result['failed'] / result['attempted']:>14.6g} ratio")
        print(f"  {'check_failures':48s} {len(problems):>14d} count")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddlab" / "__init__.py").is_file():
        print(f"perfbench: no ddlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = []
    try:
        for name in names:
            results.append(run(args, name))
            report(args, results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(results[0]["provenance"], sort_keys=True))
    # One workload reports its metrics by name; "all" prefixes each with
    # the workload's name.
    prefix = len(results) > 1
    print(json.dumps({
        "correct": not any(r["check_failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for r in results for metric, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the CLI's output streams to a directory, or compare two such directories.

    python tools/streams.py run <dir> [--src <path>]
    python tools/streams.py diff <a> <b>

``run`` executes a fixed list of ddlab commands, each in a fresh process and
in its own subdirectory of <dir>, with relative output paths: the figure
presets fig2 to fig5, theory on an m grid and on a lambda grid, three
empirical runs with their replication streams (an m grid with
``--record-kappa``, a lambda grid, and an m grid on a file spectrum with
its aligned signal), probe-traces, kappa and two usage errors.  A command's
input files are written into its subdirectory first.  Each command's exit
code, stdout and stderr go to ``console.txt`` beside its outputs.
``--src`` picks the ddlab source tree to run (default: the ``src`` of this
checkout), so one copy of this script can write the streams of another
commit.

``diff`` prints a Markdown table of the largest relative move,
|a - b| / max(|a|, |b|), per column of every CSV, per key path of every
JSON file and over the lines of any other file, with the number of cells
that moved.  Columns that do not move are left out, and the files where
nothing moves share one ``identical`` row.  A cell that is NA or infinite
on one side only, or text that differs, moves by ``inf``.  It exits 0 when
nothing moved and 1 otherwise.

The streams depend on the machine and on the BLAS and DDLAB_THREADS thread
counts, so compare two directories written on one machine under the same
settings; no golden output is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SWEEP = ["--n", "200", "--d", "400", "--spectrum", "inverse_index"]
_M_GRID = ["--m-grid", "20,100,190,200,210,400,800"]
_LAMBDA_GRID = ["--lambda-grid", "0,1e-4,1e-2,1"]
_EMPIRICAL = ["empirical", *_SWEEP, "--reps", "8", "--with-theory", "--per-rep-out", "reps.csv"]

# (directory, ddlab argv); outputs land in the directory.
COMMANDS = [
    ("fig2", ["reproduce", "fig2", "--out", "."]),
    ("fig3", ["reproduce", "fig3", "--out", "."]),
    ("fig4", ["reproduce", "fig4", "--out", "."]),
    ("fig5", ["reproduce", "fig5", "--out", "."]),
    ("theory_m", ["theory", *_SWEEP, *_M_GRID, "--out", "theory.csv"]),
    ("theory_lambda", ["theory", *_SWEEP, *_LAMBDA_GRID, "--out", "theory.csv"]),
    ("empirical_m", [*_EMPIRICAL, *_M_GRID, "--record-kappa", "--out", "sweep.csv"]),
    ("empirical_lambda", [*_EMPIRICAL, *_LAMBDA_GRID, "--out", "sweep.csv"]),
    ("aligned_file", [
        "empirical", "--config", "config.json", "--reps", "8", "--with-theory",
        "--per-rep-out", "reps.csv", *_M_GRID, "--out", "sweep.csv",
    ]),
    ("probe_traces", [
        "probe-traces", "--n", "1000", "--d", "2000", "--spectrum", "two_dirac:0.5,1,4",
        "--lambdas", "0.1,1", "--out", "probes.csv",
    ]),
    ("kappa", ["kappa", "--spectrum", "isotropic:1", "--gamma", "2", "--lambda", "0"]),
    ("usage_no_reps", ["empirical", "--n", "10", "--d", "20", "--m-grid", "5,15"]),
    ("usage_bad_grid", ["theory", "--n", "10", "--d", "20", "--m-grid", "5,1.5"]),
]

# Input files a command reads, by directory: a three-atom file spectrum
# (0.5, 1 and 4 over 200, 120 and 80 directions) with its signal masses.
INPUTS = {
    "aligned_file": {
        "measures.json": json.dumps(
            {"d": 400, "atoms": [[0.5, 200], [1.0, 120], [4.0, 80]], "signal": [0.3, 0.5, 0.2]}
        ),
        "config.json": json.dumps({
            "n": 200, "d": 400, "mode": "empirical",
            "spectrum": {"kind": "file", "path": "measures.json"},
            "signal": {"kind": "aligned_file"},
        }),
    },
}


def run(out: Path, src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, argv in COMMANDS:
        workdir = out / name
        workdir.mkdir(parents=True, exist_ok=True)
        for filename, text in INPUTS.get(name, {}).items():
            (workdir / filename).write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "ddlab.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        (workdir / "console.txt").write_text(
            f"exit: {proc.returncode}\nstdout:\n{proc.stdout}stderr:\n{proc.stderr}",
            encoding="utf-8",
        )
        print(f"{name}: exit {proc.returncode}", flush=True)


def _number(cell):
    """The float a cell holds, or None for text."""
    if cell == "NA":
        return math.nan
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _move(a, b) -> float:
    """Relative move between two cells: 0 when equal, inf when not comparable."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _csv_columns(path: Path) -> dict[str, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {col: [row[i] if i < len(row) else None for row in rows] for i, col in enumerate(header)}


def _json_leaves(doc, path: str = "") -> dict[str, list]:
    """A JSON document as columns: each list of scalars, and each other
    scalar as a one-cell column, named by its key path."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}" if path else key, sub) for key, sub in doc.items()]
    elif isinstance(doc, list) and any(isinstance(x, (dict, list)) for x in doc):
        items = [(f"{path}[{i}]", sub) for i, sub in enumerate(doc)]
    else:
        return {path or "(root)": doc if isinstance(doc, list) else [doc]}
    return {col: cells for key, sub in items for col, cells in _json_leaves(sub, key).items()}


def _columns(path: Path) -> dict[str, list]:
    """A file as named columns of cells: CSV columns, JSON leaves, or its lines."""
    if path.suffix == ".csv":
        return _csv_columns(path)
    if path.suffix == ".json":
        return _json_leaves(json.loads(path.read_text(encoding="utf-8")))
    return {"(text)": path.read_text(encoding="utf-8").splitlines()}


def compare(a: Path, b: Path) -> list[tuple[str, str, float, int]]:
    """(file, column, largest relative move, cells moved) for every column that
    moved, and (file, "", 0.0, 0) for a file where nothing moved."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    table = []
    for rel in files:
        name = rel.as_posix()
        if not (a / rel).is_file() or not (b / rel).is_file():
            table.append((name, f"(only in {'a' if (a / rel).is_file() else 'b'})", math.inf, 0))
            continue
        left, right = _columns(a / rel), _columns(b / rel)
        moved = []
        for col in [*left, *(col for col in right if col not in left)]:
            xs, ys = left.get(col, []), right.get(col, [])
            moves = [_move(x, y) for x, y in zip(xs, ys)]
            moves += [math.inf] * abs(len(xs) - len(ys))
            count = sum(m > 0 for m in moves)
            if count:
                moved.append((name, col, max(moves), count))
        table += moved or [(name, "", 0.0, 0)]
    return table


def _render(table) -> str:
    lines = ["| file | column | largest relative move | cells moved |", "|---|---|---|---|"]
    lines += [f"| {name} | {col} | {move:.2g} | {n} |" for name, col, move, n in table if col]
    same = sum(not col for _, col, _, _ in table)
    if same:
        which = "all" if same == len(table) else "other"
        lines.append(f"| {which} {same} files | | identical | 0 |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = subs.add_parser("run", help="write every command's outputs under a directory")
    sub.add_argument("dir", type=Path)
    sub.add_argument("--src", type=Path, default=SRC, help="ddlab sources to run")
    sub = subs.add_parser("diff", help="largest relative move per column between two directories")
    sub.add_argument("a", type=Path)
    sub.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir, args.src)
        return 0
    table = compare(args.a, args.b)
    print(_render(table))
    return int(any(col for _, col, _, _ in table))


if __name__ == "__main__":
    sys.exit(main())

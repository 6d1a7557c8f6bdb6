"""tools/streams.py: its commands and inputs fit the CLI, and diff reports the
largest relative move per column of two stream directories."""

import importlib.util
import json
import math
from pathlib import Path

from ddlab import cli
from ddlab.config import SweepConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "streams.py"


def _load():
    spec = importlib.util.spec_from_file_location("streams_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_reports_largest_move_per_column(tmp_path, capsys):
    streams = _load()
    a, b = tmp_path / "a", tmp_path / "b"
    for root, rows, meta, console in (
        (a, ["1,2.0,NA,x", "2,4.0,1,y"], '{"s": {"gap": 0.5}, "v": [1, 2]}', "exit: 0\n"),
        (b, ["1,2.5,NA,x", "2,4.000000000000001,3,z"], '{"s": {"gap": 0.5}, "v": [1, 3]}', "exit: 0\n"),
    ):
        (root / "cmd").mkdir(parents=True)
        (root / "cmd" / "out.csv").write_text("\n".join(["k,val,flag,name", *rows]) + "\n")
        (root / "cmd" / "out.meta.json").write_text(meta)
        (root / "cmd" / "console.txt").write_text(console)
    (a / "only_a.txt").write_text("gone\n")

    table = streams.compare(a, b)
    assert table[0] == ("cmd/console.txt", "", 0.0, 0)
    moved = {(name, col): (move, count) for name, col, move, count in table[1:]}
    assert set(moved) == {
        ("cmd/out.csv", "val"), ("cmd/out.csv", "flag"), ("cmd/out.csv", "name"),
        ("cmd/out.meta.json", "v"), ("only_a.txt", "(only in a)"),
    }
    move, count = moved["cmd/out.csv", "val"]
    assert count == 2 and move == 0.5 / 2.5
    assert moved["cmd/out.csv", "flag"] == (2 / 3, 1)
    assert moved["cmd/out.csv", "name"] == (math.inf, 1)
    assert moved["cmd/out.meta.json", "v"] == (1 / 3, 1)

    assert streams.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["| file | column | largest relative move | cells moved |", "|---|---|---|---|"]
    assert "| cmd/out.csv | val | 0.2 | 2 |" in out
    assert out[-1] == "| other 1 files | | identical | 0 |"
    assert streams.main(["diff", str(a / "cmd"), str(a / "cmd")]) == 0


def test_commands_parse_and_inputs_validate():
    # A renamed flag or schema field would otherwise surface only as a broken
    # stream diff.
    streams = _load()
    assert set(streams.INPUTS) <= {name for name, _ in streams.COMMANDS}
    for name, argv in streams.COMMANDS:
        args = cli.build_parser().parse_args(argv)
        if getattr(args, "config", None):
            SweepConfig.from_dict(json.loads(streams.INPUTS[name][args.config]))

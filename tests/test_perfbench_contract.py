"""The benchmark's contract with ddlab: its spans and its commands exist.

perfbench wraps library functions by (module, attribute), each workload
lists the spans it must record, and each workload runs ddlab CLI commands.
A renamed or deleted function, or a renamed or dropped flag, would
otherwise surface only as a crashed benchmark run; so would a layer that a
workload no longer calls by its traced name, or a span statistic that JSON
cannot hold.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ddlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracing").TRACED
_workloads = _load("workloads")
WORKLOADS = _workloads.WORKLOADS

# The subcommand handler each workload's commands must reach.
HANDLERS = {
    "mc_projected": cli._cmd_empirical,
    "mc_ridge": cli._cmd_empirical,
    "probes": cli._cmd_probe_traces,
    "theory_grid": cli._cmd_theory,
}


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_function_resolves(span):
    module_name, attribute, _ = TRACED[span]
    assert callable(getattr(importlib.import_module(module_name), attribute, None)), span


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_layers_are_traced(workload):
    missing = set(WORKLOADS[workload].layers) - set(TRACED)
    assert not missing, (workload, sorted(missing))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_commands_parse(workload):
    commands = WORKLOADS[workload].commands(_workloads.Inputs.from_seed(0))
    assert commands, workload
    for command in commands:
        args = cli.build_parser().parse_args(command.argv)
        assert args.handler is HANDLERS[workload], (workload, command.argv[0])


# Small analogues of the workloads' commands: the same subcommands and
# flags at n = 20, d = 40, which reach the same code paths in well under a
# second each.
SMALL = {"--n": "20", "--d": "40"}


def _small(argv: list[str]) -> list[str]:
    return [SMALL.get(flag, value) for flag, value in zip([None] + argv, argv)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_workload_records_every_layer(workload, tmp_path, monkeypatch):
    tracing = _load("tracing")
    # Register every lookup site the tracer is about to patch, so that the
    # originals come back when the test ends.
    originals = {id(getattr(importlib.import_module(mod), attr)) for mod, attr, _ in TRACED.values()}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ddlab" or name.startswith("ddlab.")):
            for key, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, key, value)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    for command in WORKLOADS[workload].commands(_workloads.Inputs.from_seed(0)):
        assert tracer.wrap(tracing.ROOT, cli.main)(_small(command.argv)) == 0, command.argv[0]
    layers = tracing.aggregate(tracer.spans)
    silent = [name for name in WORKLOADS[workload].layers if layers.get(name, {}).get("calls", 0) < 1]
    assert not silent, (workload, silent)
    json.dumps(tracer.spans)

"""The benchmark's contract with ddlab: its spans and its commands exist.

perfbench wraps library functions by (module, attribute), each workload
lists the spans it must record, and each workload runs ddlab CLI commands.
A renamed or deleted function, or a renamed or dropped flag, would
otherwise surface only as a crashed benchmark run.
"""

import importlib
import importlib.util
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

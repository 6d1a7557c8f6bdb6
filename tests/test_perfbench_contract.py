"""The benchmark's tracing contract: every span it names exists in ddlab.

perfbench wraps library functions by (module, attribute) and each workload
lists the spans it must record.  A renamed or deleted function would
otherwise surface only as a crashed traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracing").TRACED
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_function_resolves(span):
    module_name, attribute, _ = TRACED[span]
    assert callable(getattr(importlib.import_module(module_name), attribute, None)), span


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_layers_are_traced(workload):
    missing = set(WORKLOADS[workload].layers) - set(TRACED)
    assert not missing, (workload, sorted(missing))

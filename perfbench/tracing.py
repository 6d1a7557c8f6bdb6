"""In-memory span tracer that wraps ddlab's public functions from outside.

The benchmark records one span per call at each layer boundary: the
function's name, start and end time, the span that was open when it was
called, whether it raised, and one optional exact count taken from its
result.  Functions are patched at every lookup site, i.e. in
every ``ddlab`` module namespace that holds the function object, because
``ddlab.cli`` imports names directly and a wrapper placed only on the
defining module would miss those callers.

Spans live in memory; ``Tracer.dump`` writes them out once the traced
command has returned, and ``aggregate`` turns a span list into per-layer
calls, self time and counts.  Self time is a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter

MB = float(1 << 20)


def _kappa_iterations(result):
    return result.iterations


def _matrix_mb(result):
    return result.nbytes / MB


# Span name -> (module that defines the function, attribute, optional stat).
# The stat is an exact count summed over calls: solver iterations from the
# returned KappaSolution, or the size of the matrix a sampler produced.
TRACED = {
    "cli.sweep_rows": ("ddlab.cli", "sweep_rows", None),
    "empirical.build_instance": ("ddlab.empirical", "build_instance", None),
    "empirical.run_replications": ("ddlab.empirical", "run_replications", None),
    "empirical.sample_matrix": ("ddlab.empirical", "sample_matrix", ("mb_computed", _matrix_mb)),
    "empirical.conditional_risk_projected": (
        "ddlab.empirical", "conditional_risk_projected", None),
    "empirical.conditional_risk_ridge": ("ddlab.empirical", "conditional_risk_ridge", None),
    "empirical.probe_trace_equivalents": ("ddlab.empirical", "probe_trace_equivalents", None),
    "numkernel.pseudo_inverse": ("ddlab.numkernel", "pseudo_inverse", None),
    "numkernel.solve_shifted": ("ddlab.numkernel", "solve_shifted", None),
    "selfconsistent.kappa_of_lambda": (
        "ddlab.selfconsistent", "kappa_of_lambda", ("iterations", _kappa_iterations)),
    "selfconsistent.kappa_at_dof": (
        "ddlab.selfconsistent", "kappa_at_dof", ("iterations", _kappa_iterations)),
    "spectrum.df1": ("ddlab.spectrum", "df1", None),
    "theory.rp_risk": ("ddlab.theory", "rp_risk", None),
    "theory.ridge_risk": ("ddlab.theory", "ridge_risk", None),
}

ROOT = "cli.main"


class Tracer:
    """Collects spans from the main thread and from replication workers.

    Each thread keeps its own stack of open spans.  A worker thread starts
    with an empty stack; its spans are parented to the innermost span open
    on the main thread, which is the ``run_replications`` call waiting on
    the worker pool.
    """

    def __init__(self):
        # Each span: [name, parent index or -1, start, end, raised, stat].
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, stat=None):
        spans, lock = self.spans, self._lock
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            span = [name, parent, 0.0, 0.0, False, None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if stat is not None:
                span[5] = stat(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at each of its lookup sites."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "ddlab" or key.startswith("ddlab."))
        ]
        for name, (module_name, attr, stat) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, stat[1] if stat else None)
            sites = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no lookup site found for {module_name}.{attr}")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self_s, failed (raised) and the summed stat."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, _raised, _stat in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    layers: dict[str, dict] = {}
    for index, (name, _parent, start, end, raised, stat) in enumerate(spans):
        kids = children.get(index)
        covered = 0.0
        if kids:
            covered = _covered([(max(s, start), min(e, end)) for s, e in kids if e > start and s < end])
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0, "stat": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        entry["total_s"] += end - start
        entry["failed"] += int(raised)
        if stat is not None:
            entry["stat"] += stat
    return layers

"""One benchmark process: set up, run one ddlab command, report.

Usage (started by run.py, one fresh process per command):

    python3 perfbench/worker.py <spawn_time> <result.json> [--trace <spans.json>] [-- <ddlab argv>...]

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux the monotonic clock is shared by all processes, so
``setup_s`` covers interpreter start, ``import ddlab`` and one small LAPACK
call.  That call starts the BLAS thread pool, so the first factorization
inside the timed command does not pay for it.  ``wall_s`` runs from the
call into ``ddlab.cli.main`` to its return, outputs written.  Without a
ddlab argv the process only measures set-up.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spawn_time = float(sys.argv[1])
    result_path = Path(sys.argv[2])
    rest = sys.argv[3:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    argv = rest[1:] if rest[:1] == ["--"] else []

    sys.path.insert(0, str(SRC))
    import numpy as np

    import ddlab
    import ddlab.cli

    if not Path(ddlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ddlab imported from {ddlab.__file__}, not from {SRC}")
    warm = np.linalg.qr(np.random.default_rng(0).standard_normal((256, 256)))[0]
    np.linalg.eigh(warm.T @ warm)
    setup_s = time.monotonic() - spawn_time

    report = {"setup_s": setup_s}
    if argv:
        entry = ddlab.cli.main
        tracer = None
        if spans_path is not None:
            from tracing import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT, entry)
        start = time.perf_counter()
        try:
            code = entry(argv)
        except Exception:
            # An uncaught error ends the real CLI with exit code 1.
            traceback.print_exc()
            code = 1
        report["wall_s"] = time.perf_counter() - start
        report["exit_code"] = code
        if tracer is not None:
            tracer.dump(spans_path)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

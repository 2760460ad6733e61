"""One benchmark round in a fresh single-threaded process.

Imports ``qdeform.cli`` from the checkout's ``src`` first, so that the time
from process start to READY is the set-up every CLI call pays. Then reads a
job from stdin, ``{"ops": [argv, ...], "trace": bool, "full": bool}``, runs
each argv in-process through ``qdeform.cli.main`` with stdout captured, and
writes one JSON line: READY on the shared monotonic clock, the round's wall
time, its peak RSS, and per operation the latency, exit code and SHA-256 of
stdout (plus stdout itself when "full" is set).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qdeform.cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qdeform.cli.main(argv)
        except Exception:  # an escaped exception breaks the exit-code contract
            traceback.print_exc()
            rc = "exception"
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer().install()
    t0 = time.perf_counter()
    results = [run_op(argv) for argv in job["ops"]]
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready": READY,
        "wall": wall,
        "rss_kb": rss_kb,
        "ops": [
            {"latency": lat, "rc": rc, "sha256": hashlib.sha256(out.encode()).hexdigest(),
             "stdout": out if job.get("full") else None, "stderr": err[-2000:]}
            for lat, rc, out, err in results
        ],
    }
    if tracer is not None:
        report["trace"] = tracer.metrics()
        report["trace_missing"] = tracer.missing
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

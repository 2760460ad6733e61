"""qdeform benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py): ``verify``, ``basis``, ``hahn``, ``sweep``.
Each is a closed loop with one client: a fixed, seeded list of CLI
operations, each started when the previous one returns. BENCHMARK.json
gates ``verify`` and ``sweep`` only: host speed on the reference machine
drifts in phases of minutes, and only runs of about a minute average it
out, which the run budget allows for two workloads. ``basis`` and ``hahn``
run the same way when named.

A run repeats rounds until ``--seconds`` would be exceeded (at least
three). Each round is one fresh single-threaded worker process that
imports ``qdeform.cli`` from ``src/`` and runs the whole list in-process
through ``qdeform.cli.main(argv)`` with stdout captured. Every output of
the first round is checked against the independent oracles in oracles.py;
later rounds must reproduce it byte for byte. A negative control per
operation kind checks that a perturbed output or exit code counts as
failed. The SHA-256 of the first round's concatenated stdout is printed and
compared with the seed-commit digest for the same workload and seed in
BASELINE.json, so two commits can be compared for byte-identical output.

With ``--trace 0`` the metrics are end to end, medians over the run:

    wall_s       time to finish the operation list, after set-up
    op_p50_s     median over the list of each operation's median latency
    setup_s      worker start until ``qdeform.cli`` is imported
    peak_rss_mb  the worker's own peak RSS (getrusage)

``op_p90_s`` (only with at least 100 latencies in the run) and
``error_rate`` are printed above the result line but are not gated: the
first exists on one workload only and the second is 0 at every commit.

With ``--trace 1`` pairs of one untraced and one traced round run until
``--seconds`` would be exceeded (at least three pairs). The metrics are the
per-layer numbers of tracing.py, medians over the traced rounds, plus
``trace_overhead_s``, the median over the pairs of traced minus untraced wall
time. A layer function or verify suite that no longer exists under its
traced name makes the run incorrect rather than report it as 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import oracles
import tracing
from workloads import WORKLOADS, operations

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
ROOT = os.path.dirname(HERE)
SETUP_SPAWNS = 2  # import-only workers after each round, for the setup_s median
MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 3
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(ops, *, full, trace=False) -> dict:
    """Run one worker to completion; returns its report plus the set-up time."""
    job = json.dumps({"ops": [op["argv"] for op in ops], "full": full, "trace": trace})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=job, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded %d s" % WORKER_TIMEOUT_S) from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker exited %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup"] = report["ready"] - start
    report["elapsed"] = elapsed
    return report


class Checker:
    """Counts failed operations: oracle checks on the first full round,
    byte-identical stdout on every later round."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None  # per op: (sha256, ok)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, report):
        if self.reference is None:
            self.reference = [
                (res["sha256"], oracles.check(op["spec"], res["rc"], res["stdout"]))
                for op, res in zip(self.ops, report["ops"], strict=True)
            ]
        for op, res, (sha, ref_ok) in zip(self.ops, report["ops"], self.reference, strict=True):
            ok = ref_ok and res["rc"] == 0 and res["sha256"] == sha
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append((op["argv"], res["rc"], res["stderr"][-300:]))


def negative_controls(ops, report) -> tuple:
    """Perturb a digit of the stdout, drop its first line, and change the exit
    code of the first operation of each kind; every perturbation must be
    reported as failed."""
    seen, total, caught = set(), 0, 0
    for op, res in zip(ops, report["ops"]):
        kind = (op["spec"]["kind"], op["spec"].get("variant"), op["spec"].get("format"))
        if kind in seen:
            continue
        seen.add(kind)
        stdout = res["stdout"]
        for rc, out in ((res["rc"], oracles.perturb(stdout)),
                        (res["rc"], oracles.drop_line(stdout)), (3, stdout)):
            total += 1
            caught += not oracles.check(op["spec"], rc, out)
    return caught, total


def baseline_digest(workload, seed):
    """The seed commit's stdout SHA-256 for this workload and seed, if recorded."""
    try:
        with open(os.path.join(HERE, "BASELINE.json")) as fh:
            digests = json.load(fh)["stdout_sha256"]
    except (OSError, ValueError, KeyError):
        return None
    return digests.get(workload, {}).get(str(seed))


def run(workload, seed, seconds, trace) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "qdeform", "cli.py")):
        print("error: %s holds no src/qdeform to benchmark" % ROOT, file=sys.stderr)
        return 2
    ops = operations(workload, seed)
    checker = Checker(ops)
    deadline = time.perf_counter() + seconds
    spawn([], full=False)  # warm-up: bytecode compiled, file cache filled
    setups, rounds, pairs = [], [], []
    while True:
        if trace:
            pair = (spawn(ops, full=not rounds), spawn(ops, full=False, trace=True))
            pairs.append(pair)
            rounds += pair
            step = statistics.median(u["elapsed"] + t["elapsed"] for u, t in pairs)
            if len(pairs) >= MIN_TRACE_PAIRS and time.perf_counter() + step > deadline:
                break
        else:
            rounds.append(spawn(ops, full=not rounds))
            setups += [spawn([], full=False)["setup"] for _ in range(SETUP_SPAWNS)]
            step = statistics.median(r["elapsed"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() + step > deadline:
                break
    for report in rounds:
        checker.add(report)
    caught, controls = negative_controls(ops, rounds[0])
    digest = hashlib.sha256("".join(r["stdout"] for r in rounds[0]["ops"]).encode()).hexdigest()

    print("workload %s  seed %d  trace %d  rounds %d  ops/round %d"
          % (workload, seed, trace, len(rounds), len(ops)))
    seed_digest = baseline_digest(workload, seed)
    print("stdout_sha256 %s  %s" % (digest, "no seed baseline" if seed_digest is None else
                                    "same as seed baseline" if digest == seed_digest else
                                    "DIFFERS from seed baseline %s" % seed_digest))
    print("negative_controls %d/%d caught" % (caught, controls))
    for argv, rc, err in checker.failures[:10]:
        print("FAILED rc=%s %s %s" % (rc, " ".join(argv), err.strip().replace("\n", " | ")))

    missing = []
    if trace:
        traces = [t["trace"] for _, t in pairs]
        metrics = {name: statistics.median(tr[name] for tr in traces) for name in traces[0]}
        metrics["trace_overhead_s"] = statistics.median(t["wall"] - u["wall"] for u, t in pairs)
        units = {name: unit for name, unit, _ in tracing.metric_names()}
        missing = pairs[0][1]["trace_missing"]
        for name in missing:
            print("FAILED no such layer function to trace: %s" % name)
        print("traced_rounds %d (per-layer times are medians over them)" % len(pairs))
        print("property maps.reuse_share %.4f  maps.DeformMap.calls %d  maps.distinct %d"
              % (metrics["maps.reuse_share"], metrics["maps.DeformMap.calls"],
                 metrics["maps.distinct"]))
        print("property poly.peak_num_bits %d  poly.peak_den_bits %d"
              % (metrics["poly.peak_num_bits"], metrics["poly.peak_den_bits"]))
    else:
        latencies = [op["latency"] for r in rounds for op in r["ops"]]
        per_op = [statistics.median(r["ops"][i]["latency"] for r in rounds) for i in range(len(ops))]
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "op_p50_s": statistics.median(per_op),
            "setup_s": statistics.median(setups + [r["setup"] for r in rounds]),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        }
        units = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        shown = dict(metrics)
        if len(latencies) >= 100:
            shown["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
            units["op_p90_s"] = "s"
        shown["error_rate"] = checker.failed / checker.attempted
        units["error_rate"] = "ratio"
        print("property operations %d per round, %d latencies" % (len(ops), len(latencies)))
        print("round_walls %s" % " ".join("%.3f" % r["wall"] for r in rounds))
        for name, value in shown.items():
            print("%-12s %.6g %s" % (name, value, units[name]))

    result = {
        "correct": checker.failed == 0 and caught == controls and not missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

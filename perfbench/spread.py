"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workloads verify,sweep] [--out FILE]

For every workload it runs ``run.py`` once per seed 1..N with ``--trace 0``
and BENCHMARK.json's run_seconds, and prints, per end-to-end metric, the
median, the quartiles and the spread (quartile distance as a share of the
median) against the metric's bound in BENCHMARK.json. It also records the
stdout SHA-256 of each seed. With ``--traced`` it also makes one
``--trace 1`` run per workload, on seed 1. ``--out`` writes everything as
JSON; perfbench/BASELINE.json was made this way. With ``--seeds 1 --traced`` it is the one command that runs
every gated workload (add ``--workloads verify,basis,hahn,sweep`` for all
four) and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace) -> tuple:
    """The result line of one run.py call, and the stdout SHA-256 it printed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit("run.py failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    digest = None
    for line in lines[:-1]:
        print("  " + line)
        if line.startswith("stdout_sha256 "):
            digest = line.split()[1]
    return json.loads(lines[-1]), digest


def summarize(values, bound) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound, "values": values}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(1, args.seeds + 1)
    report = {"machine": machine(), "run_seconds": seconds, "seeds": [1, args.seeds],
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs, digests = [], {}
        for seed in seeds:
            print("%s seed %d" % (workload, seed), flush=True)
            result, digests[str(seed)] = run_once(workload, seed, seconds, 0)
            runs.append(result)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {},
                 "stdout_sha256": digests}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2:
                entry["metrics"][name] = summarize(values, bound)
            else:
                entry["metrics"][name] = {"median": values[0], "values": values, "bound": bound}
        if args.traced:
            traced, _ = run_once(workload, 1, seconds, 1)
            entry["traced_correct"] = traced["correct"]
            entry["traced_seed"] = 1
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        print("%s: correct %s, failed %d of %d" % (workload, entry["correct"], entry["failed"],
                                                  entry["attempted"]))
        for name, s in entry["metrics"].items():
            if "spread" in s:
                flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
                print("  %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.3f (bound %.2f)%s"
                      % (name, s["median"], s["q1"], s["q3"], s["spread"], s["bound"], flag))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    ok = all(e["correct"] and e.get("traced_correct", True) for e in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

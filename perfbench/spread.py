#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload svc_mix --seeds 1-10

For every end-to-end metric (or per-layer metric, with --trace 1) this
prints the median over the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, beside the bound BENCHMARK.json gives the metric.  A steady
benchmark keeps every spread but setup_s's below a third of its bound.
Exits non-zero if a run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_times():
    """Aggregate (busy, steal) jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:3]) + sum(fields[5:7]), fields[7]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}

    values = {}
    ok = True
    for seed in args.seeds:
        busy0, steal0 = cpu_times()
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        busy1, steal1 = cpu_times()
        # Time the hypervisor ran something else while this guest wanted
        # the CPU: the host contention that drifts run-to-run timings.
        steal = (steal1 - steal0) / max(1, busy1 - busy0 + steal1 - steal0)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **result}) + "\n")
        ok &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: steal {steal:.3f} attempted "
              f"{result['attempted']} failed {result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in
                  result["metrics"].items() if k in bounds),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for name, bound in bounds.items():
        v = values.get(name, [])
        if len(v) < 2:
            continue
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        note = "" if bound is None else (
            f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"  {name:32s} median {med:12.6g}  spread {spread:7.4f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

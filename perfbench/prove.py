#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, as its acceptance check does.

    python3 perfbench/prove.py [--runs 10] [--first-seed 101] [--workload <name> ...] [--out <file>]

Runs each workload `--runs` times with consecutive seeds (`--trace 0`,
`run_seconds` from BENCHMARK.json), and prints per end-to-end metric the
median and the spread: the distance between the first and third
quartile as a share of the median (Python's `statistics.quantiles`). The
per-run host figures the binary logs (on-CPU seconds, steal = wall minus
on-CPU, runqueue wait) are kept beside the metrics. `--out` writes all
of it as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

HOST = re.compile(r"host: wall ([\d.]+) s, on-cpu ([\d.]+) s, steal ([-\d.]+) s, "
                  r"runqueue ([\d.]+) s, others on-cpu ([\d.]+) s, vm steal ([\d.]+) s")


def spread(values):
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else 0.0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workload", action="append")
    p.add_argument("--out")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        runs = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            host = HOST.search(done.stderr)
            if done.returncode != 0 or not result or not result["correct"]:
                sys.exit(f"{w} seed {seed} failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
            runs.append({
                "seed": seed,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "host": dict(zip(("wall_s", "cpu_s", "steal_s", "runq_s", "others_cpu_s", "vm_steal_s"),
                                 map(float, host.groups()))) if host else None,
            })
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()) +
                (" host " + " ".join(f"{k}={v:.3f}" for k, v in runs[-1]["host"].items())
                 if host else ""), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound}
            flag = "" if summary[name]["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<20} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f} (bound {bound}){flag}")
        report[w] = {"summary": summary, "runs": runs}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

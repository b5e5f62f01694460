#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload, in the form BENCHMARK.json's command takes (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result object of the `perfbench`
binary: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. The exit code is the binary's (1 when an output check failed).

Every workload at the default and the held-out seed, as a table:

    python3 perfbench/run.py --all [--seconds <s>]   (default: run_seconds of BENCHMARK.json)

The binary is built from source with cargo into `$CARGO_TARGET_DIR`
(default `perfbench/target`); traced runs write their spans under
`<target>/spans/`.
"""

import argparse
import json
import os
import subprocess
import sys

# The seed whose per-cell reports are pinned by digest, and the seed held
# out while the workloads were sized; every check must pass at both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# A run stops on its own after about `--seconds`; this only guards a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Builds the benchmark binary and returns (path, target dir)."""
    for needed in ("Cargo.toml", "crates/server/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full source checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench"), target


def run_once(binary, target, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--out", os.path.join(target, "spans")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def run_all(binary, target, spec, seconds):
    """Every workload at both seeds: a table of end-to-end metrics."""
    ok = True
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for w in spec["workloads"]:
            code, lines = run_once(binary, target, w["name"], seed, seconds, 0)
            result = json.loads(lines[-1]) if lines else None
            if code != 0 or not result or not result["correct"]:
                ok = False
            if not result:
                print(f"{w['name']} seed {seed}: no result (exit {code})")
                continue
            print(f"{w['name']} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for m in spec["end_to_end"]:
                v = result["metrics"][m["name"]]
                print(f"  {m['name']:<20} {v['value']:>14.6g} {v['unit']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--all", action="store_true")
    a = p.parse_args()
    root = os.getcwd()
    if a.all:
        binary, target = build(root)
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        sys.exit(run_all(binary, target, spec, a.seconds or spec["run_seconds"]))
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required (or --all)")
    binary, target = build(root)
    code, lines = run_once(binary, target, a.workload, a.seed, a.seconds, a.trace)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()

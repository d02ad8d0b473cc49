#!/usr/bin/env python3
"""End-to-end Pipeleon benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's src/ tree) into .bench_build/ at the checkout root, then runs
one workload. All build output goes to stderr; the last stdout line is the
result JSON. --trace 1 also writes the run's spans as a chrome://tracing
file, .bench_build/trace-<workload>-<seed>.json.

Two more modes:

    python3 perfbench/run.py --self-test
        builds and runs the benchmark's own unit tests.
    python3 perfbench/run.py --check-determinism [--workload <name>] [--seed <n>]
        runs each workload twice with one seed and checks that the emulated
        metrics agree exactly, then once with the next seed and checks that
        every output check still passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["dash_uniform", "lb_zipf_cached", "nf_shift_churn"]

# Emulated metrics: a function of the seed alone, so two runs with one seed
# must agree exactly (end-to-end run, then traced run).
DETERMINISTIC = {
    "0": ["emu_cycles_per_pkt", "emu_cycles_p99"],
    "1": ["emu.nodes_per_pkt", "cache.hit_ratio", "cache.misses",
          "cache.inserts_dropped", "tier.sram_hit_ratio",
          "tier.dram_hit_ratio", "tier.miss_ratio", "tier.promotions",
          "tier.demotions", "tier.dma_fetches", "runtime.deploys",
          "cost.pred_error"],
}


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def bench_cmd(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if str(trace) == "1":
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))]
    return cmd


def run_captured(cmd):
    """Runs one benchmark process; returns (exit code, result JSON or None)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def check_determinism(binary, workloads, seed):
    ok = True
    for w in workloads:
        for trace, names in DETERMINISTIC.items():
            results = []
            for s in (seed, seed, seed + 1):
                code, res = run_captured(bench_cmd(binary, w, s, 2, trace))
                if code != 0 or res is None or not res["correct"]:
                    print("%s seed %d trace %s: output checks failed" % (w, s, trace))
                    ok = False
                results.append(res)
            if results[0] is None or results[1] is None:
                continue
            for name in names:
                a = results[0]["metrics"][name]["value"]
                b = results[1]["metrics"][name]["value"]
                status = "same" if a == b else "DIFFERS"
                ok = ok and a == b
                print("%-16s %-24s %s (%r vs %r)" % (w, name, status, a, b))
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--check-determinism", action="store_true")
    args = p.parse_args()

    if args.self_test:
        return subprocess.run([build("perfbench_tests")]).returncode
    binary = build("perfbench_e2e")
    if args.check_determinism:
        workloads = [args.workload] if args.workload else WORKLOADS
        return check_determinism(binary, workloads, args.seed)
    if not args.workload:
        p.error("--workload is required")
    seconds = ("%g" % args.seconds)
    return subprocess.run(
        bench_cmd(binary, args.workload, args.seed, seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())

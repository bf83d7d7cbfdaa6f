#!/usr/bin/env python3
"""Builds and runs the end-to-end solve benchmark.

    python3 bench/e2e/run.py --workload solve-threads --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py --seed 1            # every workload, one table each
    python3 bench/e2e/run.py --smoke             # level-3 run of every workload

Run it from anywhere inside the repository.  The first run configures and
builds bench/e2e (CMake, Release) into .bench_build/e2e at the repository
root, or into --build DIR.  Each workload runs in its own e2e_bench process.
For each workload, stdout gets a table of every metric with its unit and
sample count, followed by one JSON line with the keys correct, attempted,
failed and metrics.  The metrics are the end_to_end metrics of BENCHMARK.json,
or its per_layer metrics with --trace 1.  A traced run also writes Chrome
trace files under <build>/traces.

The exit status is nonzero when the build fails, a metric is missing, or any
operation failed or returned an output that differs from solve_sequential.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds e2e_bench; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_bench")


def run_bench(binary, argv):
    """Runs e2e_bench in a session of its own, so a timeout kills its forked
    workers too, and waits until every process of the session has ended."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        raise RuntimeError(f"e2e_bench {' '.join(argv)}: timed out after {BENCH_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"e2e_bench {' '.join(argv)}: exit status {proc.returncode}")
    return json.loads(lines[-1])


def print_table(result):
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"({result['attempted']} operations, {result['failed']} failed, "
          f"{result['run_wall_s']:.1f} s)")
    for kind in ("metrics", "info"):
        for name, m in result[kind].items():
            print(f"   {name:28s} {m['value']:>14.6g} {m['unit']:10s} n={m['samples']}"
                  f"{'  (info)' if kind == 'info' else ''}")
    if result["self_seconds"]:
        print("   self time by layer (bench spans): " +
              ", ".join(f"{k} {v:.4f} s" for k, v in sorted(result["self_seconds"].items())))
    for path in result["traces"]:
        print(f"   trace: {path}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(result, wanted):
    """The driver's result object; raises when a metric is missing."""
    metrics = {}
    for spec in wanted:
        m = result["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise RuntimeError(f"{result['workload']}: metric {spec['name']} [{spec['unit']}] "
                               "not reported")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="level-3 specs, minimum sample counts, traced; checks every metric")
    parser.add_argument("--build", default=os.path.join(ROOT, ".bench_build", "e2e"))
    args = parser.parse_args()

    binary = build(os.path.abspath(args.build))
    trace_dir = os.path.join(os.path.abspath(args.build), "traces")
    ok = True
    for workload in workloads if args.workload == "all" else [args.workload]:
        argv = ["--workload", workload, "--seed", str(args.seed)]
        if args.smoke:
            argv += ["--smoke", "--seconds", "0", "--trace-dir", trace_dir]
            wanted = bench["end_to_end"] + bench["per_layer"]
        else:
            argv += ["--seconds", str(args.seconds)]
            if args.trace:
                argv += ["--trace-dir", trace_dir]
            wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        result = run_bench(binary, argv)
        print_table(result)
        print(json.dumps(contract_line(result, wanted)), flush=True)
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)

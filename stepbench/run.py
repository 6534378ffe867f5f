#!/usr/bin/env python3
"""Training-step benchmark: build the step driver from source and run it.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stepbench/run.py                 # every workload, printed as a table
    python3 stepbench/run.py --smoke         # a few steps of every workload

Run from the repository root (or anywhere: paths are resolved from this
file). The driver and the libraries it measures are built with CMake into
.bench_build/stepbench on first use. See stepbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

# Every workload step_bench runs, in BENCHMARK.json order.
WORKLOADS = ("tiny-dispatch", "bert-kernels", "dp2-exchange")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stepbench")
BINARY = os.path.join(BUILD_DIR, "step_bench")
# The binary's own warm phase is capped at 110 s; set-ups add the rest.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"stepbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then let CMake decide what is out of date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sources to build: {os.path.join(ROOT, 'src')} is missing")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "step_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (git failed)"
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run_workload(spec, workload, seed, seconds, trace, smoke=False):
    """Run the driver once; returns (context, result) after checking them."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    # Instruments switched on from the environment would distort timings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLAPO_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload}: step_bench exited with {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    context["git_sha"] = git_sha()

    # Every metric BENCHMARK.json names must be there, with its unit.
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in expected
               if got.get(m["name"], {}).get("unit") != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in expected})
    if missing or extra:
        fail(f"{workload}: metrics missing or with the wrong unit: {missing}; "
             f"not in BENCHMARK.json: {extra}", code=3)
    return context, result


def print_table(workload, context, result):
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {workload}: {verdict}, {result['failed']} of "
          f"{result['attempted']} steps failed, {context['warm_steps']} warm "
          f"steps, seed {context['seed']}, {context['kernel_threads']} kernel "
          f"thread(s) x {context['ranks']} rank(s)")
    for name, metric in result["metrics"].items():
        print(f"   {name:36s} {metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps of every workload, traced and not, "
                             "checking that every metric is emitted")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload is not None and args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}' "
             f"(one of {', '.join(WORKLOADS)})")
    names = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()

    if args.smoke:
        start = time.monotonic()
        ok = True
        for workload in names:
            for trace in (0, 1):
                context, result = run_workload(spec, workload, args.seed, 0,
                                               trace, smoke=True)
                print_table(f"{workload} (smoke, trace {trace})", context, result)
                ok = ok and result["correct"] and result["failed"] == 0
        print(f"smoke: {'ok' if ok else 'FAILED'} in "
              f"{time.monotonic() - start:.1f} s")
        sys.exit(0 if ok else 1)

    for workload in names:
        context, result = run_workload(spec, workload, args.seed, seconds,
                                       args.trace)
        print(json.dumps({"context": context}))
        if args.workload:
            print(json.dumps(result))
        else:
            print_table(workload, context, result)


if __name__ == "__main__":
    main()

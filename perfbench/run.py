#!/usr/bin/env python3
"""Build and run the cpkcore benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload core_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The script builds the library (from src/) and the benchmark program (from
perfbench/src/) with CMake into .bench_build/, runs one workload, prints every
metric by name and unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end list of BENCHMARK.json, with
--trace 1 the per-layer list (from a separate, traced invocation). Each run
is also appended, with its provenance, to .bench_build/results/<workload>.jsonl;
a traced run reports its tracing overhead against the latest untraced run of
the same sources, workload and --seconds found there. A failed correctness gate exits 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("core_batch", "serve_paced")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def positive_int(low, high):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                "%d is outside [%d, %d]" % (value, low, high))
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=positive_int(0, 2**63 - 1))
    p.add_argument("--seconds", type=positive_int(1, 600))
    p.add_argument("--trace", type=positive_int(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's self-tests")
    args = p.parse_args(argv)
    if not args.self_test:
        missing = [f for f in ("workload", "seed", "seconds", "trace")
                   if getattr(args, f) is None]
        if missing:
            p.error("missing " + ", ".join("--" + m for m in missing))
    return args


def child_env():
    """The environment without CPKC_* overrides: the system runs at its
    shipped defaults (scheduler workers = hardware threads, default
    reclaimer, kAuto WAL engine)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPKC_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("CPKC_"))
    return env, scrubbed


def build():
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            fail("%s not found: run from the repository root" % required)
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    env, _ = child_env()
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return cmake_dir


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def last_untraced(results_path, seconds, seed, digest):
    """The latest correct untraced record of the same sources with these
    --seconds, preferring one with the same seed."""
    if not os.path.isfile(results_path):
        return None
    same_seed = any_seed = None
    with open(results_path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            prov = rec["provenance"]
            if (rec.get("trace") == 0 and rec.get("correct")
                    and prov.get("seconds") == seconds
                    and prov.get("source_digest") == digest):
                any_seed = rec
                if prov.get("seed") == seed:
                    same_seed = rec
    return same_seed or any_seed


def run_workload(args):
    cmake_dir = build()
    e2e_names, layer_names = declared_metrics()
    env, scrubbed = child_env()
    work_dir = os.path.join(BUILD_DIR, "work")
    traces_dir = os.path.join(BUILD_DIR, "traces")
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(traces_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(cmake_dir, "cpkbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    spans_path = None
    if args.trace:
        spans_path = os.path.join(
            traces_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--spans-out", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("cpkbench exited with code %d" % proc.returncode, 3)
    rec = json.loads(lines[-1])
    rec["provenance"].update({
        "commit": git_commit(),
        "source_digest": source_digest(),
        "scrubbed_env": scrubbed,
        "command": " ".join(cmd),
    })

    listed = rec["per_layer"] if args.trace else rec["end_to_end"]
    wanted = layer_names if args.trace else e2e_names
    if sorted(listed) != sorted(wanted):
        fail("metric names differ from BENCHMARK.json: %s vs %s"
             % (sorted(listed), sorted(wanted)), 3)

    results_path = os.path.join(results_dir, args.workload + ".jsonl")
    if args.trace:
        base = last_untraced(results_path, args.seconds, args.seed,
                             rec["provenance"]["source_digest"])
        if base is None:
            rec["trace_overhead"] = None
        else:
            rec["trace_overhead_base_seed"] = base["provenance"]["seed"]
            rec["trace_overhead"] = {
                name: {"traced": m["value"],
                       "untraced": base["end_to_end"][name]["value"],
                       "delta": m["value"] - base["end_to_end"][name]["value"],
                       "unit": m["unit"]}
                for name, m in rec["end_to_end"].items()
                if name in base["end_to_end"]}
    with open(results_path, "a") as f:
        f.write(json.dumps(rec) + "\n")

    print("workload %s seed %d seconds %d trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(rec["provenance"], sort_keys=True))
    for section in ("end_to_end", "per_layer", "details"):
        for name, m in rec[section].items():
            print("%-10s %-30s %16.6g %s" % (section, name, m["value"],
                                             m["unit"]))
    if args.trace:
        for name, s in sorted(rec["spans"].items()):
            print("span       %-30s count %9d total %12.3f ms self %12.3f ms"
                  % (name, s["count"], s["total_ms"], s["self_ms"]))
        if rec["trace_overhead"] is None:
            print("trace_overhead unavailable: no untraced %s run of these "
                  "sources with --seconds %d in %s"
                  % (args.workload, args.seconds, results_path))
        else:
            print("trace_overhead against the untraced run with seed %d"
                  % rec["trace_overhead_base_seed"])
            for name, o in rec["trace_overhead"].items():
                print("trace_overhead %-26s %+16.6g %s" % (name, o["delta"],
                                                          o["unit"]))
        print("spans written to " + spans_path)
    for reason in rec["gate_failures"]:
        print("GATE FAILED: " + reason)

    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": listed,
    }))
    return 0 if rec["correct"] and proc.returncode == 0 else 1


def self_test():
    cmake_dir = build()
    env, _ = child_env()
    proc = subprocess.run([os.path.join(cmake_dir, "cpkbench_selftest")],
                          env=env, timeout=RUN_TIMEOUT_S)
    return proc.returncode


def main(argv):
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build the perfbench binary from the repo's sources and run one workload.

    python3 perfbench/run.py --workload <wavefront|sta_incr|svc_closed>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--chrome-trace <file>]

Run from the repo root.  The binary is built (Release) into
.bench_build/perfbench on first use and rebuilt incrementally afterwards.
Output: the binary's detail line, a context line with the host shape
(cpus, model, NUMA nodes, SMT), and, last, the result object
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("wavefront", "sta_incr", "svc_closed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "taskflow", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            die("build failed: " + " ".join(cmd))


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_shape():
    model = ""
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    nodes = len(glob.glob("/sys/devices/system/node/node[0-9]*")) or 1
    siblings = read_first("/sys/devices/system/cpu/cpu0/topology/thread_siblings_list", "0")
    smt = "," in siblings or "-" in siblings
    return {"cpus": os.cpu_count(), "model": model, "numa_nodes": nodes, "smt": smt}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--chrome-trace", default="")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    detail = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    context = {"host": host_shape(), "workload": args.workload, "seed": args.seed,
               "workers": detail.get("workers"), "trace": args.trace}
    print(json.dumps({"context": context}))
    print(lines[-1])


if __name__ == "__main__":
    main()

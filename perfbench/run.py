#!/usr/bin/env python3
"""The repo benchmark: builds the service from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s]
    python3 perfbench/run.py --selftest [--seed n]

Workloads (see perfbench/NOTES.md): log-write-sgx3, log-read-sgx3,
smallbank-zipf-1, log-write-live3, log-write-live3-closed. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. For a workload BENCHMARK.json names, its metrics are
the ones BENCHMARK.json declares; any other metric the run measured is
printed on a `metric:` line before it.

`--workload all` runs every workload untraced and traced, prints every
metric with its unit and exits non-zero if any correctness check failed.
`--selftest` checks that the simulator workloads are deterministic: two
traced runs with one seed give identical per-layer counts, and a second
seed runs clean.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, in a `perfbench` subdirectory; logs and span dumps of
each run land next to it under `out/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["log-write-sgx3", "log-read-sgx3", "smallbank-zipf-1", "log-write-live3",
             "log-write-live3-closed"]
SIM_WORKLOADS = WORKLOADS[:3]
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170
# Per-layer metrics measured in time (by unit, plus one ratio of two
# throughputs); every other per-layer metric is a count that must repeat
# exactly for one seed on the simulator.
TIME_UNITS = {"us", "us/tx", "ms", "s", "%"}
TIMED_RATIOS = {"bench.tput_first_over_last"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then (re)builds the driver and ccf_host."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree at " + ROOT + "; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver", "ccf_host_bin"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: " + log_path + ")")
    return os.path.join(out, "perfbench_driver"), os.path.join(out, "src", "host", "ccf_host")


def host_ref_s():
    """Median time of five SHA-256 passes over 32 MB: the host's own speed,
    independent of the code measured, so that host drift between two sets
    of runs can be told apart from a change in the code."""
    data = bytes(1 << 20)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(32):
            hashlib.sha256(data).digest()
        times.append(time.perf_counter() - t)
    return round(statistics.median(times), 4)


def machine():
    """The machine a result came from: cores, CPU model, crypto/SIMD flags
    and its current speed (host_ref_s)."""
    info = {"nproc": os.cpu_count(), "cpu_model": "", "build_type": BUILD_TYPE,
            "host_ref_s": host_ref_s()}
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and not info["cpu_model"]:
                    info["cpu_model"] = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    for flag in ["aes", "pclmulqdq", "sha_ni", "avx2"]:
        info[flag] = flag in flags
    return info


def run_driver(driver, ccf_host, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines, result dict)."""
    out_dir = os.path.join(build_dir(), "out", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--ccf-host", ccf_host, "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, ["timed out after %d s" % RUN_TIMEOUT_S], None
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    return proc.returncode, lines, result


def run_one(args, driver, ccf_host):
    code, lines, result = run_driver(driver, ccf_host, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail("%s produced no result" % args.workload)
    declared = declared_metrics()
    if declared is not None and args.workload in declared[2]:
        wanted = declared[1] if args.trace else declared[0]
        missing = sorted(wanted - set(result["metrics"]))
        if missing:
            fail("%s did not report %s" % (args.workload, ", ".join(missing)))
        for name, m in sorted(result["metrics"].items()):
            if name not in wanted:
                print("metric: %s %.6g %s" % (name, m["value"], m["unit"]))
        result["metrics"] = {k: m for k, m in result["metrics"].items() if k in wanted}
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") else 1


def run_all(args, driver, ccf_host):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print("machine: " + json.dumps(machine(), sort_keys=True))
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_driver(driver, ccf_host, workload, args.seed, args.seconds, trace)
            print("== %s (trace %d)" % (workload, trace))
            for line in lines:
                print("  " + line)
            if result is None:
                print("  no result")
                combined["correct"] = False
                continue
            combined["correct"] = combined["correct"] and bool(result["correct"]) and code == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print("  correct=%s attempted=%d failed=%d" % (result["correct"], result["attempted"], result["failed"]))
            for name, m in sorted(result["metrics"].items()):
                print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
                combined["metrics"][workload + "/" + name] = m
            sys.stdout.flush()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def declared_metrics():
    """(end-to-end names, per-layer names, workload names) from
    BENCHMARK.json, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return ({m["name"] for m in doc["end_to_end"]}, {m["name"] for m in doc["per_layer"]},
            {w["name"] for w in doc["workloads"]})


def selftest(args, driver, ccf_host):
    ok = True
    declared = declared_metrics()
    for workload in SIM_WORKLOADS:
        runs = []
        incorrect = set()
        for seed in (args.seed, args.seed, args.seed + 1):
            code, lines, result = run_driver(driver, ccf_host, workload, seed, 1, 1)
            if result is None or code != 0 or not result["correct"]:
                if seed not in incorrect:
                    print("FAIL %s seed %d: run incorrect: %s" % (workload, seed, "; ".join(lines[-3:])))
                incorrect.add(seed)
                ok = False
            runs.append(result)
        if runs[0] is None or runs[1] is None:
            continue
        if declared is not None and workload in declared[2] and not declared[1] <= set(runs[0]["metrics"]):
            print("FAIL %s: per-layer metrics of BENCHMARK.json not reported: %s"
                  % (workload, sorted(declared[1] - set(runs[0]["metrics"]))))
            ok = False
        counts = lambda r: {k: m["value"] for k, m in r["metrics"].items()
                            if m["unit"] not in TIME_UNITS and k not in TIMED_RATIOS}
        a, b = counts(runs[0]), counts(runs[1])
        diff = sorted(k for k in a if a.get(k) != b.get(k))
        if diff or not a:
            print("FAIL %s: counts differ between two runs of seed %d: %s" % (workload, args.seed, diff))
            ok = False
        else:
            print("ok   %s: %d per-layer counts identical for seed %d%s"
                  % (workload, len(a), args.seed,
                     "" if incorrect else "; seed %d clean" % (args.seed + 1)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload or --selftest is required")
    driver, ccf_host = build()
    if args.selftest:
        return selftest(args, driver, ccf_host)
    if args.workload == "all":
        return run_all(args, driver, ccf_host)
    return run_one(args, driver, ccf_host)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Engine-mode benchmark for Accordion: build, run one workload, report.

Run from the root of a source checkout:

    python3 enginebench/run.py --workload tpch_serial --seed 1 \
        --seconds 10 --trace 0

Builds the engine and the benchmark driver from source (CMake package in
this directory, build tree under $CARGO_TARGET_DIR or .bench_build), runs
the workload on one long-lived cluster, checks every answer, and prints the
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics from a traced run.

--sf and --golden override the workload's scale factor and golden answer
file; the self-tests use them for tiny-SF runs.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ENGINE_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = {
    # name -> scale factor (the only place the defaults live)
    "tpch_serial": 0.1,
    "dashboard_concurrent": 0.1,
    "elastic_dop": 0.2,
}
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "enginebench")


def build():
    """Configures and builds the driver; returns its path."""
    out = build_dir()
    cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "enginebench")


def source_id():
    """Git commit when available, else a digest of the engine sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", ENGINE_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (os.path.join(ENGINE_ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ENGINE_ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec_path = os.path.join(ENGINE_ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sf", type=float)
    parser.add_argument("--golden")
    args = parser.parse_args()

    try:
        binary = build()
    except RuntimeError as error:
        log("enginebench: " + str(error))
        return 1

    sf = args.sf if args.sf is not None else WORKLOADS[args.workload]
    golden = args.golden or os.path.join(BENCH_DIR, "golden",
                                         "sf%g.txt" % sf)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sf", "%g" % sf, "--golden", golden, "--commit", source_id()]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        # subprocess.run kills the child and waits for it before raising.
        log("enginebench: run exceeded %d s" % RUN_TIMEOUT_S)
        if timeout.stderr:
            log(timeout.stderr if isinstance(timeout.stderr, str)
                else timeout.stderr.decode(errors="replace"))
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        log("enginebench: driver printed nothing (exit %d)" % run.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("enginebench: last line is not a JSON result")
        sys.stderr.write(run.stdout)
        return 1

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            log("enginebench: metric set differs from BENCHMARK.json: "
                "missing %s, unexpected %s" % (
                    sorted(set(expected) - set(got)),
                    sorted(set(got) - set(expected))))
            return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

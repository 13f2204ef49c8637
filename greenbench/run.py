#!/usr/bin/env python3
"""Build and run one greencc benchmark workload.

    python3 greenbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--record]

Run from the repository root. The first run configures and builds the
harness (greenbench/CMakeLists.txt: the repository's src/ libraries plus
the harness binary) under .bench_build/. The harness runs the workload,
checks its simulated outputs two independent ways (other event queue,
repeated pass, traced pass, direct runs) and this script compares the
output hash with greenbench/reference.json for the seed. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it stamps the environment. The full record,
stamp included, is written to .bench_build/results/. Exit status is 0 only
for a correct run. --record stores the run's output hash as the reference
for its seed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "greenbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")  # compiler temporaries stay here
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BINARY = os.path.join(BUILD_DIR, "greenbench")
WORKLOADS = ("fleet", "incast", "paper_grid", "pack_sample")
RUN_TIMEOUT_S = 175


def fail(message):
    print("greenbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cmake_cache(key):
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_fingerprint():
    """sha256 over every file under src/ and greenbench/: names the code
    that was measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "greenbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or \
            shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(record):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version[0] if version else compiler,
        "commit": commit(),
        "source_sha256": source_fingerprint(),
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "trace": record["trace"],
        "config": record["config"],
        "passes": record["passes"],
        "setup_samples": record["setup_samples"],
        "cell_samples": record["cell_samples"],
        "pass_run_s": record["pass_run_s"],
    }


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true",
                        help="store this run's output hash as the reference")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no greencc sources at %s/src: run from a repository checkout"
             % ROOT)
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with status %d" % proc.returncode)
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = ["%s: expected %s, got %s" % (c["label"], c["expected"],
                                            c["actual"])
                for c in record["checks"] if c["expected"] != c["actual"]]
    reference = load_reference()
    expected = reference.get(args.workload, {}).get(str(args.seed))
    if expected is not None and expected != record["output_hash"]:
        problems.append("reference: expected %s, got %s"
                        % (expected, record["output_hash"]))
    record["reference_hash"] = expected
    record["problems"] = problems
    record["env"] = environment(record)
    correct = not problems

    if args.record and correct:
        reference.setdefault(args.workload, {})[str(args.seed)] = \
            record["output_hash"]
        for name in reference:
            reference[name] = dict(sorted(reference[name].items(),
                                          key=lambda kv: int(kv[0])))
        with open(REFERENCE, "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for problem in problems:
        print("greenbench: output mismatch: " + problem, file=sys.stderr)

    print(json.dumps({"env": record["env"],
                      "output_hash": record["output_hash"],
                      "reference_hash": expected,
                      "spans": record["spans"]}))
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

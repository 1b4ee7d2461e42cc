#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. fsbench is compiled (with the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Each run appends its environment and result to <build dir>/runs.jsonl. A run
fails when earlier runs there used another kernel backend (their numbers are
not comparable), or when an earlier run of the same binary, workload and seed
reported a different test_micro_f1 or model.final_loss (both must repeat
exactly for a given backend and seed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("augment_train", "serve_cold", "serve_tenants_hot")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 780


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, env=None, capture=False):
    """Runs cmd (its output goes to stderr unless captured); waits for it."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr,
                          stderr=sys.stderr) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"timed out after {timeout}s: {' '.join(cmd)}")
        return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/) in this checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run_checked(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run_checked(
        ["cmake", "--build", build_dir, "--target", "fsbench", "-j",
         str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "fsbench")


def child_env():
    env = dict(os.environ)
    env.setdefault("FS_LOG_LEVEL", "warning")
    # Variables that would change the program's inputs or make it write
    # files of its own.
    for name in ("FIELDSWAP_PRETRAIN_DOCS", "FS_TRACE_FILE", "FS_METRICS_FILE"):
        env.pop(name, None)
    return env


# Metrics that are exact functions of (binary, backend, workload, seed).
EXACT_METRICS = ("test_micro_f1", "model.final_loss")


def read_log(log_path):
    if not os.path.isfile(log_path):
        return []
    with open(log_path) as log:
        return [json.loads(line) for line in log]


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def parse_env(lines):
    for line in lines:
        if line.startswith("# perfbench "):
            fields = dict(part.split("=", 1) for part in line[12:].split()
                          if "=" in part)
            return {k: fields.get(k, "") for k in ("backend", "threads")}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    env = child_env()

    candidate = os.path.join(build_dir, "candidate_model.ckpt")
    code, _ = run_checked(
        [binary, "prepare", "--candidate-in",
         os.path.join(ROOT, "data", "fieldswap_candidate_model.ckpt"),
         "--candidate-out", candidate], BUILD_TIMEOUT_S, env=env)
    if code != 0:
        fail("preparing the candidate model failed")

    code, out = run_checked(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--candidate", candidate,
         "--workdir", os.path.join(build_dir, "work", args.workload)],
        RUN_TIMEOUT_S, env=env, capture=True)
    lines = out.splitlines()
    run_env = parse_env(lines)
    if code != 0 or not lines or run_env is None:
        sys.stdout.write(out)
        fail(f"workload {args.workload} failed (exit code {code})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    log_path = os.path.join(build_dir, "runs.jsonl")
    earlier = read_log(log_path)
    others = {e["env"]["backend"] for e in earlier} - {run_env["backend"]}
    if others:
        sys.stderr.write(out)
        fail(f"this build directory holds runs on kernel backend(s) "
             f"{sorted(others)}, this run used {run_env['backend']}; "
             f"results across backends are not comparable")
    binary_digest = file_digest(binary)
    for e in earlier:
        if (e["binary"], e["workload"], e["seed"]) != (
                binary_digest, args.workload, args.seed):
            continue
        for name in EXACT_METRICS:
            before = e["result"]["metrics"].get(name)
            now = result["metrics"].get(name)
            if before and now and before["value"] != now["value"]:
                sys.stderr.write(out)
                fail(f"{name} changed from {before['value']} to "
                     f"{now['value']} for the same binary and seed; the "
                     f"determinism contract is broken")
    with open(log_path, "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "binary": binary_digest, "env": run_env,
                              "result": result}) + "\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

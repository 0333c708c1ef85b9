#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The harness (perfbench/src) is compiled together with the fides library and
fides_serverd from the checkout's own sources, into $CARGO_TARGET_DIR
(default .bench_build). Each run's working files (sockets, durable round
logs, serverd stderr, the traced run's Chrome trace) go to .bench_out/. The
last line on stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the run exits 0 only when the
harness ran every correctness check and they all passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the harness; returns its path or None."""
    out = build_dir()
    cmd_cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd_cfg += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cmd_cfg, ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "bin", "perfbench")
    return binary if os.path.exists(binary) else None


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the harness builds from."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        out = git.stdout.split()
        # Only this checkout's own repository counts, not one enclosing it.
        if git.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            return out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_harness(binary, args):
    """Runs the harness in its own process group (so a timeout also stops
    any fides_serverd it spawned); returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(signum, _frame):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.communicate()
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    kill_group()  # nothing it spawned may outlive it
    return proc.returncode, stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1

    if args.self_check:
        code, lines = run_harness(binary, ["--self-check"])
        print("\n".join(lines))
        return code

    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    work_dir = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work_dir))
    code, lines = run_harness(binary, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", work_dir, "--commit", commit_id()])
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        log("the harness printed no result")
        return 1
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(expected):
        log("the harness's metrics do not match BENCHMARK.json")
        return 1
    with open(os.path.join(ROOT, work_dir, "result.json"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point: build the programs, run one workload once.

    python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds tamopt, tamoptd and the
harness with dune, then runs perfbench/harness.exe, which spawns the
programs, drives the workload, checks every answer and prints a report.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Scratch files go to
.perfbench-work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("hot-hits", "cold-race", "paper-sweep")
REQUIRED = ("dune-project", "bin/tamopt.ml", "bin/tamoptd.ml", "lib", "perfbench/dune")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when the checkout has one, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever is left of the harness's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("run from the root of a source checkout; missing " + ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bin/tamopt.exe", "./bin/tamoptd.exe",
         "./perfbench/harness.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail(f"build failed (dune exit {build.returncode})")

    work = os.path.join(".perfbench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join("_build", "default", "perfbench", "harness.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", os.path.join("_build", "default", "bin"),
           "--work", work, "--commit", source_id(root)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited with {proc.returncode}", 1)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        fail("harness printed no result line", 1)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

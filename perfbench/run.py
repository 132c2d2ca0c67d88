#!/usr/bin/env python3
"""Build and run the ScaleHLS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dse-kernels --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark and the scalehls-serve
daemon from source (release profile, build directory _perfbench_build),
then runs one workload. The last line of standard output is the result
record; everything else goes to standard error or the build directory.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = "_perfbench_build"
PROFILE = "release"
TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so counter records and
    manifests identify the tree even outside a git checkout."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            for f in files
            if not f.startswith(".")
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", PROFILE, "--build-dir", BUILD_DIR,
           "./perfbench/perfbench.exe", "./perfbench/calib.exe", "./bin/scalehls_serve.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait until
    it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["dse-kernels", "dnn-flow", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    for s in SOURCES:
        if not os.path.exists(s):
            fail(f"{s} not found: run from the root of a ScaleHLS source tree")
    build()
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    serve = os.path.join(BUILD_DIR, "default", "bin", "scalehls_serve.exe")
    calib = os.path.join(BUILD_DIR, "default", "perfbench", "calib.exe")
    cpus = sorted(os.sched_getaffinity(0))
    # The in-process workloads run on one worker; pinning them to one CPU
    # keeps the scheduler from migrating them, which on a small shared host
    # is a visible part of the run-to-run noise. serve-mixed is not pinned:
    # its daemon runs a coordinating and a worker domain beside the
    # benchmark's two client threads.
    pin = cpus[-1] if a.workload != "serve-mixed" and len(cpus) > 1 else None
    manifest = {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "build_profile": PROFILE,
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": pin,
    }
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--workdir", os.path.join(BUILD_DIR, "work"),
           "--serve-exe", serve, "--calib-exe", calib, "--manifest", json.dumps(manifest)]
    def child_setup():
        # Own process group, so everything the benchmark starts can be
        # stopped together.
        os.setsid()
        if pin is not None:
            os.sched_setaffinity(0, {pin})

    p = subprocess.Popen(cmd, preexec_fn=child_setup)
    try:
        code = p.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(p.pid)
        p.wait()
    if code is None:
        fail(f"timed out after {TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()

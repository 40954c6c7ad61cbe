#!/usr/bin/env python3
"""Run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The script builds the
benchmark binary from the checkout's sources (CMake, into the directory
named by CARGO_TARGET_DIR, default .bench_build), runs the workload, and
passes the binary's output through: a host stamp, the correctness checks,
one line per metric, and last one JSON line with the keys correct,
attempted, failed and metrics. Build output goes to standard error.

Workloads: gibbs-lda, hmc-hlr-native, serve-open (see
perfbench/README.md). --tiny shrinks the inputs for the self-test, and
--inject-mismatch perturbs the reference runs so the correctness gate
must fail.

Exit codes: 0 success, 1 a correctness check failed, 2 bad usage or no
repository sources, 3 build failure, 4 timeout.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gibbs-lda", "hmc-hlr-native", "serve-open"]
# The native backend's host-cc scratch directories are redirected here;
# the path must stay short (see perfbench/src/main.cpp).
NATIVE_DIR = ".bench_build/nat"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "augur_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(bdir, "augur_perfbench")


def source_stamp():
    """The git commit when the checkout has one, plus a digest of the
    library sources, which identifies the code under test either way."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s,src-sha256:%s" % (sha, digest.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the repository's sources (src/) are not in %s" % ROOT)
        return 2

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    if binary is None:
        log("error: building the benchmark failed")
        return 3

    work = os.path.join(build_root, "run-%d" % os.getpid())
    native = os.path.join(ROOT, NATIVE_DIR)
    for d in (work, native, os.path.join(build_root, "tmp")):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUGUR_")}
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--native-dir", NATIVE_DIR,
           "--git-sha", source_stamp()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")

    # Own process group, so a timeout or a signal to this script also
    # stops the benchmark and any sandbox worker it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(native, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("error: the benchmark did not finish in %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(native, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

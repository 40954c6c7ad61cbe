#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs perfbench/run.py at the tiny size, untraced and traced, and checks
that the last line is the result object, that the run is correct, and
that it prints exactly the metric names and units BENCHMARK.json lists.
It then checks that the correctness gate fails (exit 1, "correct":
false) when the reference runs are deliberately mismatched, and that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits 0 when every
check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    tiny = ["--seed", "7", "--seconds", "1", "--tiny"]
    for w in bench["workloads"]:
        name = w["name"]
        for trace, listed in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            code, res, proc = run(["--workload", name, "--trace", str(trace)]
                                  + tiny)
            what = "%s --trace %d" % (name, trace)
            if res is None:
                expect(False, what + ": last line is a result object\n"
                       + proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            expect(code == 0 and res.get("correct") is True,
                   what + ": exits 0 and is correct")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   what + ": result has exactly the four keys")
            expect(isinstance(res.get("attempted"), int)
                   and res["attempted"] >= 1, what + ": attempted >= 1")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            expect(got == want, what + ": prints every listed metric with "
                   "its unit (missing %s, extra %s)"
                   % (sorted(set(want) - set(got)),
                      sorted(set(got) - set(want))))
            expect(all(isinstance(v.get("value"), (int, float))
                       for v in res.get("metrics", {}).values()),
                   what + ": every value is a number")

        code, res, _ = run(["--workload", name, "--trace", "0",
                            "--inject-mismatch"] + tiny)
        expect(code == 1 and res is not None and res.get("correct") is False,
               name + ": the correctness gate fails on a mismatched reference")

    # Only BENCHMARK.json and the benchmark's files: no sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run(["--workload", bench["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None,
           "without the repository's sources it exits non-zero, no result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

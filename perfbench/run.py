#!/usr/bin/env python3
"""Build and run the workbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload soak|explore|conform|lint \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (build directory
.bench_build, or $CARGO_TARGET_DIR when set; dune's shared cache off so
nothing is written outside the checkout), runs it, and checks that the
last line of its output is one JSON result naming exactly the metrics
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1) with the listed units.  Any failure exits non-zero without
printing a result.  See perfbench/METHOD.md.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("no dune on PATH (and no opam to find one)")


def run(cmd, timeout, **kw):
    """Run to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    try:
        trace = argv[argv.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("missing --trace")
    expected = expected_metrics(trace)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    rc, _ = run(
        dune_command()
        + ["build", "--root", ".", "--build-dir", build_dir,
           "--cache=disabled", "-j", "2", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if rc != 0:
        fail("build failed (dune exit %d)" % rc)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    rc, out = run([exe] + argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                  text=True)
    if rc != 0:
        sys.stderr.write(out)
        fail("benchmark exited %d" % rc)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("last line is not a JSON result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in got if k in expected and got[k] != expected[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (missing, extra, units))
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])

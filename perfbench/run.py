#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the benchmark (a Release build of the
hybridcdn libraries, the redirectd daemon and the perfbench program) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload and prints a
stamp line (nproc, CPU model, compiler, build type), every metric with its
unit and, as the last line of standard output, the JSON result.  Exits
non-zero without a result when the sources are missing, the build fails or
the build is not Release, and with exit code 1 after the result when an
output check fails.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sim-cache", "plan-outage", "redirect-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(root, build_dir, log_path):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, cwd=root, env=env, stdout=log,
                               stderr=subprocess.STDOUT, check=True,
                               timeout=BUILD_TIMEOUT_S)
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
                fail(f"build failed ({e}); see {log_path}")


def run_perfbench(cmd, root):
    """Runs perfbench in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=None, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40,
                    help="length of the measured loop; the repetitions of each "
                         "stage cycle until it is spent (at least two cycles)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario-seed", type=int, default=None,
                    help="override the fixed paper scenario seed (2005)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "tools/redirectd.cpp"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    out_dir = os.path.join(root, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.monotonic()
    build(root, build_dir, os.path.join(out_dir, "build.log"))
    build_s = time.monotonic() - t0

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--redirectd", os.path.join(build_dir, "redirectd"),
           "--out", out_dir]
    if args.scenario_seed is not None:
        cmd += ["--scenario-seed", str(args.scenario_seed)]
    code, out = run_perfbench(cmd, root)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail(f"perfbench exited {code} without output")
    # perfbench's first line stamps the build it was compiled in.
    built = dict(re.findall(r"(\w+)=(\S+)", lines[0])) if lines[0].startswith("build:") else {}
    stamp = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": lines[0].split("compiler=", 1)[-1] if built else "unknown",
        "build_type": built.get("type", "unknown"),
        "build_flags": built.get("flags", "unknown"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "build_s": round(build_s, 3),
    }
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()), flush=True)
    for line in lines[1:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench exited {code}; last line is not a result: {lines[-1]!r}")
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=2)
    print(json.dumps(result), flush=True)
    if code != 0 or not result.get("correct", False):
        fail(f"output checks failed ({result.get('failed')} of "
             f"{result.get('attempted')} operations); see stderr", code=1)


if __name__ == "__main__":
    main()

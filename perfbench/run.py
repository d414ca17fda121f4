#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload cold_tune|daemon_mix|simulate|fleet_sweep
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first run configures and builds the
repository (Release, tests off) plus the benchmark runner under
.bench_build/; later runs only re-check the build.  The last line of
standard output is the result object; everything else goes to stderr.
See perfbench/METRICS.md for what each workload and metric means.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for confirming a claim on inputs it was not tuned on
WORKLOADS = ("cold_tune", "daemon_mix", "simulate", "fleet_sweep")
TARGETS = ("perfbench_runner", "inplane_tuned", "sweep_supervisor")
RUNNER_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench-cmake")
WORK = os.path.join(".bench_build", "pbw")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
        return False
    configure = ["cmake", "-S", ".", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                 "-DBUILD_TESTING=OFF", "-DINPLANE_WERROR=OFF",
                 "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "project_hook.cmake")]
    make = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target", *TARGETS]
    configured = os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt"))
    # An existing build tree is only re-configured when building in it
    # fails (a target it does not know yet, say).
    plans = [[make], [configure, make]] if configured else [[configure, make]]
    for steps in plans:
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                break
        else:
            return True
    sys.stderr.write(done.stdout + done.stderr)
    log(f"{done.args[1]} failed")
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    bin_dir = os.path.join(BUILD, "tools")
    runner = os.path.join(ROOT, BUILD, "perfbench", "perfbench_runner")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", bin_dir, "--work-dir", WORK]
    # A process group of its own, so a timeout can stop the runner together with
    # the daemon and worker processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s")
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except OSError:
            pass
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        log(f"runner exited with {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
library sources under src/ together with the benchmark program (perfbench/src)
into .bench_build/perfbench; later runs only re-check that build. The
program's output is relayed, and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metric names and units are
checked against BENCHMARK.json: the end-to-end list with --trace 0, the
per-layer list with --trace 1. The run exits non-zero, without a result
line, when the sources are missing, the build fails, or the run fails.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group. On timeout, or when this script
    is interrupted or terminated, kill the whole group (compilers spawned by
    the build included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except BaseException:
        kill_group()
        raise
    return proc.returncode, out


def exit_on_sigterm(signum, _frame):
    raise SystemExit(128 + signum)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-6000:])
                fail("build failed")
    return BUILD_DIR / "perfbench"


def main():
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    exe = build()
    work_dir = ROOT / ".bench_build" / "runs" / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", str(work_dir)]
    if args.trace == "1":
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")

    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        sys.stderr.write(out)
        fail("reported metrics do not match BENCHMARK.json")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()

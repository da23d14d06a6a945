#!/usr/bin/env python3
"""Entry point of the CED-flow benchmark.

    python3 cedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            [--out <result.json>]

Run from the repository root. Builds cedbench/ (which compiles the program's
libraries from src/) into .bench_build/, pins APX_THREADS to 1 (see
README.md, "Threads"), runs one workload and passes the benchmark's report
through; its last stdout line is the JSON result. The full result, with host metadata and samples,
is written to --out (default .bench_results/<workload>_seed<n>_trace<t>.json).
Exits non-zero when the build fails, an input hash does not match, or any
output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cedbench"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("ced_cold", "table2_warm")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"cedbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found at {ROOT / 'src'}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cedbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """Hash of the program and benchmark sources. It identifies the code
    when the checkout is not a git repository and no commit is known."""
    h = hashlib.sha256()
    for top in ("src", "cedbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    out = Path(args.out) if args.out else (
        RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["APX_THREADS"] = "1"
    cmd = [str(BUILD / "cedbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--inputs", str(HERE / "inputs"), "--out", str(out),
           "--commit", commit(), "--source-id", source_id()]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()

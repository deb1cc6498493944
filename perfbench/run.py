#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload clique-seq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload

Builds the yewpar library from this checkout's sources and the perfbench
binary into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one measurement. The binary's last stdout line is the JSON
result; build output goes to stderr. Exits non-zero, printing no result,
if the build or the run fails or if any search result is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_one(binary: Path, out: Path, workload: str, args) -> int:
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--counts", str(HERE / "counts.txt"),
           "--spans", str(spans / f"{workload}-seed{args.seed}.json")]
    if args.write_counts:
        cmd.append("--write-counts")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 0 and lines and lines[-1].startswith("{"):
        print(run.stdout, end="")
        return 0
    # No result line on failure: show the binary's output on stderr.
    print(run.stdout, end="", file=sys.stderr)
    print(f"perfbench: binary exited with {run.returncode}", file=sys.stderr)
    return run.returncode or 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-counts", action="store_true",
                    help="add this run's exact node counts to counts.txt")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run_one(binary, out, args.workload, args)
    # Every workload in turn; the exit code is the first failure's.
    codes = [run_one(binary, out, w, args) for w in workloads]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())

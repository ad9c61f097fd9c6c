#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload zoo-roundtrip --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
Portus libraries and the perfbench binary under $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild incrementally. --trace 0 prints
the end-to-end metrics named in BENCHMARK.json, --trace 1 the per-layer
ones (and writes a Chrome trace under <build>/traces). The last line of
stdout is {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails, the benchmark binary fails or times out, a
metric is missing, or an output check (restore CRC, fsck, committed epoch)
failed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else REPO / d


def build(out):
    """Configure (once) and build the benchmark binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = out / "perfbench"
    return exe if exe.exists() else None


def expected_metrics(trace):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    want = expected_metrics(args.trace == 1)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: the benchmark binary printed nothing", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    for err in result.get("errors", []):
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    got = result["metrics"]
    missing = [n for n in want if n not in got or got[n]["unit"] != want[n]]
    if missing:
        print(f"perfbench: metrics missing or in the wrong unit: {missing}", file=sys.stderr)
        return 5
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: got[n] for n in want},
    }))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for perfbench: repeated runs, quartiles, and A/B compare.

Run a set (one run per seed, every workload by default) and report, per
end-to-end metric, the median, the quartiles and the spread (IQR / median)
against the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py run --count 10 --first-seed 1 --out perfbench/runs/a.json

Compare two sets: a metric regresses when B's median is worse than A's by
more than its bound (direction from "better"):

    python3 perfbench/steady.py compare perfbench/runs/a.json perfbench/runs/b.json

Host metrics are CPU time as measured, and a shared host's speed drifts
between runs. To compare two commits, run both sets interleaved (A and B
alternate, seed by seed, the order flipping every seed), so drift lands on
both sides alike; `ab` does that from two checkouts and then compares:

    python3 perfbench/steady.py ab ../portus-base . --count 10 --out-dir perfbench/runs

Each subcommand exits 1 when a check fails. Quartiles are
statistics.quantiles(values, n=4), as the acceptance rule defines them.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent


def load_spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def summarize(values):
    """(median, q1, q3, spread) of a list of numbers; spread = IQR / |median|."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worsening(base, new, better):
    """Share by which `new` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def spread_report(runs, metrics):
    """Rows (name, median, q1, q3, spread, bound, verdict) for one workload."""
    rows, ok = [], True
    for m in metrics:
        values = [r[m["name"]] for r in runs]
        med, q1, q3, spread = summarize(values)
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict, ok = "TOO WIDE", False
        rows.append((m["name"], med, q1, q3, spread, bound, verdict))
    return rows, ok


def compare_report(runs_a, runs_b, metrics):
    rows, ok = [], True
    for m in metrics:
        a = statistics.median(r[m["name"]] for r in runs_a)
        b = statistics.median(r[m["name"]] for r in runs_b)
        worse = worsening(a, b, m["better"])
        bound = m.get("bound")
        regressed = bound is not None and worse > bound
        ok = ok and not regressed
        rows.append((m["name"], a, b, worse, bound, "REGRESSED" if regressed else "ok"))
    return rows, ok


def run_once(workload, seed, seconds, trace, root=REPO):
    """One run of `workload` in the checkout at `root`; its metric values."""
    root = pathlib.Path(root).resolve()
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{root}: {workload} seed {seed}: run failed (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def cmd_run(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.count))
    runs = {}
    for w in workloads:
        runs[w] = []
        for s in seeds:
            runs[w].append(run_once(w, s, seconds, args.trace))
            print(f"  {w} seed {s} done", file=sys.stderr)
    if args.out:
        save(args.out, seeds, runs)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for w in workloads:
        rows, w_ok = spread_report(runs[w], metrics)
        ok = ok and w_ok
        print(f"\n{w} ({len(seeds)} runs)")
        print(f"  {'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, med, q1, q3, spread, bound, verdict in rows:
            b = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:<30}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{b:>7} {verdict}")
    return 0 if ok else 1


def save(path, seeds, runs):
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "runs": runs}, indent=1))


def cmd_ab(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.count))
    runs = {"a": {w: [] for w in workloads}, "b": {w: [] for w in workloads}}
    roots = {"a": args.a, "b": args.b}
    os.environ.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own .bench_build
    for i, s in enumerate(seeds):
        for w in workloads:
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                runs[side][w].append(run_once(w, s, seconds, 0, roots[side]))
            print(f"  {w} seed {s} done", file=sys.stderr)
    out = pathlib.Path(args.out_dir)
    save(out / "ab_a.json", seeds, runs["a"])
    save(out / "ab_b.json", seeds, runs["b"])
    return compare_sets(spec, runs["a"], runs["b"])


def cmd_compare(args):
    spec = load_spec()
    a = json.loads(pathlib.Path(args.a).read_text())["runs"]
    b = json.loads(pathlib.Path(args.b).read_text())["runs"]
    return compare_sets(spec, a, b)


def compare_sets(spec, a, b):
    ok = True
    for w in a:
        if w not in b:
            continue
        rows, w_ok = compare_report(a[w], b[w], spec["end_to_end"])
        ok = ok and w_ok
        print(f"\n{w}: median A -> median B")
        for name, ma, mb, worse, bound, verdict in rows:
            print(f"  {name:<30}{ma:>14.6g}{mb:>14.6g}{worse:>+9.4f} (bound {bound}) {verdict}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a set of seeds and report spreads")
    r.add_argument("--workload", action="append", help="repeatable; default: all")
    r.add_argument("--count", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", default=None)
    c = sub.add_parser("compare", help="compare two saved sets against the bounds")
    c.add_argument("a")
    c.add_argument("b")
    ab = sub.add_parser("ab", help="interleaved runs of two checkouts, then compare")
    ab.add_argument("a", help="baseline checkout (repository root)")
    ab.add_argument("b", help="candidate checkout (repository root)")
    ab.add_argument("--workload", action="append", help="repeatable; default: all")
    ab.add_argument("--count", type=int, default=10)
    ab.add_argument("--first-seed", type=int, default=1)
    ab.add_argument("--seconds", type=float, default=None)
    ab.add_argument("--out-dir", default=str(HERE / "runs"))
    args = ap.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare, "ab": cmd_ab}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())

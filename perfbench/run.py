#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two sets of results.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark package (perfbench/Cargo.toml) is built in release mode, offline,
into $CARGO_TARGET_DIR (default perfbench/target), then run. Its last stdout
line is the JSON result {"correct", "attempted", "failed", "metrics"}; the line
before it is the full record: workload, seed, git revision, host_cpus, sample
counts and notes. With --trace 1 the spans are written to
perfbench/out/spans_<workload>_<seed>.jsonl. The exit status is non-zero when
the build fails or any output check fails.

Compare two result sets, each a file or directory of saved stdout logs:

    python3 perfbench/run.py compare OLD NEW

For every workload and end-to-end metric of BENCHMARK.json it prints the median
and quartiles of each set and a verdict: better or worse when the medians
differ by more than the metric's bound, unchanged otherwise, and unresolved
when either set's quartile spread exceeds the bound (unless every new run beats
every old run). Per-layer metrics from --trace 1 records are listed as deltas
and never decide the verdict. Exits 1 when any verdict is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark binary; return its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "partix-perfbench")


def git_rev():
    """Revision of the checkout, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args(argv)
    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--rev", git_rev(), "--spans", os.path.join(HERE, "out")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    problem = schema_problem(lines[-1] if lines else "", a.trace == "1")
    if problem:
        # Never let a result that does not match BENCHMARK.json through.
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print(f"perfbench: {problem}", file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    return done.returncode


def schema_problem(last, traced):
    """Why the result line does not carry BENCHMARK.json's metrics, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    try:
        metrics = json.loads(last)["metrics"]
    except (ValueError, KeyError, TypeError):
        return "no result line"
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}"
    return None


def load(path):
    """Record lines of every log under `path`, grouped by (workload, trace)."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
    groups = {}
    for f in files:
        with open(f, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if not line.startswith('{"record"'):
                    continue
                rec = json.loads(line)["record"]
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def summary(values):
    """Median, first and third quartile, and spread (IQR over median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(old, new, better, bound):
    """better / worse / unchanged / unresolved for one metric."""
    om, _, _, old_spread = summary(old)
    nm, _, _, new_spread = summary(new)
    sign = 1 if better == "higher" else -1
    new_wins_all = all(sign * n > sign * o for n in new for o in old)
    if max(old_spread, new_spread) > bound and not new_wins_all:
        return "unresolved"
    gain = sign * (nm - om) / abs(om) if om else 0.0
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def compare_end_to_end(spec, old, new):
    """Print the verdict table of one workload; True when any is worse."""
    worse = False
    for m in spec["end_to_end"]:
        ov = [r["metrics"][m["name"]]["value"] for r in old]
        nv = [r["metrics"][m["name"]]["value"] for r in new]
        v = verdict(ov, nv, m["better"], m["bound"])
        worse |= v == "worse"
        om, oq1, oq3, _ = summary(ov)
        nm, nq1, nq3, _ = summary(nv)
        print(f"   {m['name']:<18} old {om:.6g} [{oq1:.6g}, {oq3:.6g}]  "
              f"new {nm:.6g} [{nq1:.6g}, {nq3:.6g}] {m['unit']:<5} "
              f"(bound {m['bound']:.0%}) {v}")
    return worse


def compare_per_layer(spec, old, new):
    """Print per-layer median deltas of one workload's traced runs."""
    print(f"   per-layer medians ({len(old)} old, {len(new)} new traced runs; never gate):")
    for m in spec["per_layer"]:
        ov = statistics.median(r["metrics"][m["name"]]["value"] for r in old)
        nv = statistics.median(r["metrics"][m["name"]]["value"] for r in new)
        if ov == nv == 0:
            continue
        rel = f"{(nv - ov) / abs(ov):+.1%}" if ov else "new"
        print(f"     {m['name']:<34} {ov:>14.6g} -> {nv:<14.6g} {m['unit']:<6} {rel}")


def compare(argv):
    p = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    p.add_argument("old")
    p.add_argument("new")
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    old, new = load(a.old), load(a.new)
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for trace in (0, 1):
            o, n = old.get((name, trace), []), new.get((name, trace), [])
            if not o or not n:
                print(f"   --trace {trace}: {len(o)} old and {len(n)} new runs, nothing to compare")
                continue
            lengths = {r["seconds"] for r in o + n}
            if len(lengths) > 1:
                print(f"   warning: run lengths differ {sorted(lengths)}; the work done differs")
            if trace == 0:
                print(f"   {len(o)} old and {len(n)} new runs")
                worse |= compare_end_to_end(spec, o, n)
            else:
                compare_per_layer(spec, o, n)
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Driver of the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/bench.exe with dune, runs the workload in its own
process and passes its output through; the last stdout line is the JSON
result.  Two more subcommands work on sets of runs:

    python3 perfbench/run.py collect --out DIR [--seeds 1,2,3] [--workloads a,b]
    python3 perfbench/run.py compare BASE_DIR NEW_DIR

`collect` runs at BENCHMARK.json's run_seconds, appends one JSON line per
run to DIR/<workload>.jsonl, prints each end-to-end metric's median and
quartile spread, and exits non-zero if any run was not correct; `compare`
judges every (workload, end-to-end metric) pair of two such sets against
the bounds in BENCHMARK.json, and each workload's failed share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark from source; dune's output goes to stderr."""
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_once(workload, seed, seconds, trace):
    """Run one workload in its own process.  Returns (stdout lines, result
    dict) or raises RuntimeError."""
    env = dict(os.environ, PRETE_DOMAINS="1")
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{workload} timed out after {RUN_TIMEOUT_S} s") from e
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} exited {r.returncode}\n{r.stdout}\n{r.stderr}")
    result = json.loads(lines[-1])
    s = spec()
    expected = {m["name"] for m in s["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise RuntimeError(
            f"{workload}: metrics {sorted(result['metrics'])} "
            f"differ from BENCHMARK.json {sorted(expected)}")
    return lines, result


def cmd_run(args):
    if not build():
        return 1
    try:
        lines, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load_runs(path):
    """Every run record of a collect directory, in file order."""
    runs = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return runs


def load_set(runs):
    """{workload: {metric: [values]}} from run records."""
    out = {}
    for rec in runs:
        per = out.setdefault(rec["workload"], {})
        for m, v in rec["result"]["metrics"].items():
            per.setdefault(m, []).append(v["value"])
    return out


def failed_shares(runs):
    """{workload: failed / attempted over all its runs}."""
    tot = {}
    for rec in runs:
        a, f = tot.get(rec["workload"], (0, 0))
        tot[rec["workload"]] = (a + rec["result"]["attempted"],
                                f + rec["result"]["failed"])
    return {w: f / a if a else 0.0 for w, (a, f) in tot.items()}


def incorrect(runs):
    """The runs whose result is not correct, as (workload, seed, failed,
    attempted)."""
    return [(r["workload"], r["seed"], r["result"]["failed"],
             r["result"]["attempted"])
            for r in runs if not r["result"]["correct"]]


def verdict(base, new, better, bound):
    """Judge one (workload, metric) pair.  'unresolved' when either side's
    quartile spread exceeds the bound, unless every run of one side beats
    every run of the other; otherwise 'worse' past the bound, 'better' when
    the median gained by more than the base's own spread (or the sides
    separate), else 'unchanged'."""
    sign = 1.0 if better == "lower" else -1.0
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    worse_by = sign * (n_med - b_med) / b_med
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    new_wins = all(beats(n, b) for n in new for b in base)
    base_wins = all(beats(b, n) for n in new for b in base)
    noisy = spread(base) > bound or spread(new) > bound
    if noisy and not (new_wins or base_wins):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0 and (new_wins or -worse_by > spread(base)):
        return "better", worse_by
    return "unchanged", worse_by


def failed_verdict(base_share, new_share):
    """A workload whose new side fails a larger share of its operations is
    worse, whatever its timings say."""
    if new_share > base_share:
        return "worse"
    return "better" if new_share < base_share else "unchanged"


def cmd_compare(args):
    """Exit 1 if a set holds a run that is not correct, a pair is worse or
    a metric is missing; such a set's timings are printed but prove
    nothing."""
    s = spec()
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    base, new = load_set(base_runs), load_set(new_runs)
    worst = 0
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for w, seed, failed, attempted in incorrect(runs):
            print(f"{side}: {w} seed {seed} NOT CORRECT "
                  f"(failed {failed} of {attempted})")
            worst = 1
    bfail, nfail = failed_shares(base_runs), failed_shares(new_runs)
    print(f"{'workload':16} {'metric':18} {'base q1/med/q3':>34} "
          f"{'new q1/med/q3':>34} {'change':>8}  verdict")
    for w in [w["name"] for w in s["workloads"]]:
        for m in s["end_to_end"]:
            b, n = base.get(w, {}).get(m["name"]), new.get(w, {}).get(m["name"])
            if not b or not n:
                print(f"{w:16} {m['name']:18} missing")
                worst = 1
                continue
            v, d = verdict(b, n, m["better"], m["bound"])
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
            print(f"{w:16} {m['name']:18} {fmt(b):>34} {fmt(n):>34} "
                  f"{d:+8.3f}  {v}")
            if v == "worse":
                worst = 1
        b, n = bfail.get(w, 0.0), nfail.get(w, 0.0)
        v = failed_verdict(b, n)
        print(f"{w:16} {'failed_share':18} {b:>34.4g} {n:>34.4g} "
              f"{n - b:+8.3f}  {v}")
        if v == "worse":
            worst = 1
    return worst


def cmd_collect(args):
    s = spec()
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in s["workloads"]]
    seeds = [int(x) for x in args.seeds.split(",")]
    if not build():
        return 1
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for w in names:
        for seed in seeds:
            try:
                lines, res = run_once(w, seed, s["run_seconds"], args.trace)
            except RuntimeError as e:
                print(e, file=sys.stderr)
                status = 1
                continue
            host = next((l for l in lines if l.startswith("host_ref_ms")), "")
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {host}",
                  flush=True)
            if not res["correct"]:
                print(f"{w} seed {seed}: NOT CORRECT\n"
                      + "\n".join(l for l in lines if "FAILED" in l),
                      file=sys.stderr)
                status = 1
            with open(os.path.join(args.out, f"{w}.jsonl"), "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "trace": args.trace, "result": res}) + "\n")
    if args.trace == 0:
        for w, per in load_set(load_runs(args.out)).items():
            for m in s["end_to_end"]:
                vals = per.get(m["name"], [])
                if vals:
                    q1, med, q3 = quartiles(vals)
                    print(f"{w:16} {m['name']:18} n={len(vals):2} median={med:.5g} "
                          f"spread={spread(vals):.4f} bound={m['bound']}")
    return status


def main(argv):
    if argv and argv[0] in ("compare", "collect"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            p.add_argument("base")
            p.add_argument("new")
            return cmd_compare(p.parse_args(argv[1:]))
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
        p.add_argument("--workloads", default="")
        p.add_argument("--trace", type=int, default=0, choices=[0, 1])
        return cmd_collect(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

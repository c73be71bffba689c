#!/usr/bin/env python3
"""Run the benchmark on several seeds and check each end-to-end metric
against its bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads sweep,serve,metro]
                                [--seeds 1-10] [--sets 1] [--trace 0]

Each run is the exact command BENCHMARK.json names, with
--workload/--seed/--seconds/--trace appended; its last stdout line is
the result JSON. For every set of runs (one run per seed) and metric it
prints the median and the quartile spread (Q3 - Q1, as a share of the
median). With --sets 2 or more, the sets run one after another and each
later set's median is compared with the first set's, and each seed's
output digest with its digest in the first set.

Exits non-zero if a run fails or is incorrect, if any metric's spread
(setup_s included) exceeds its bound, if a later set's median is worse
than the first set's by more than the bound, or if a digest differs.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workload, seed_list, trace):
    """Runs one set; returns ({metric: [values]}, {seed: digest}, ok)."""
    values, digests, ok = {}, {}, True
    for seed in seed_list:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        result = json.loads(last)
        if run.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        digest = re.search(r"^\s+digest\s+(\S+)", run.stderr, re.M)
        digests[seed] = digest.group(1) if digest else None
        print(f"{workload} seed {seed}: " + json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
    return values, digests, ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    sets = {}
    for n in range(args.sets):
        for workload in args.workloads.split(","):
            values, digests, set_ok = run_set(bench, workload, seeds(args.seeds), args.trace)
            ok &= set_ok
            sets.setdefault(workload, []).append((values, digests))
    for workload, runs in sets.items():
        first_values, first_digests = runs[0]
        for n, (values, digests) in enumerate(runs):
            for name, vs in values.items():
                if len(vs) < 4:
                    continue
                q1, med, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                m = metrics.get(name, {})
                bound = m.get("bound")
                verdict = ""
                if bound is not None:
                    verdict = ("ok" if spread <= bound / 3 else
                               "within bound" if spread <= bound else "TOO WIDE")
                    ok &= spread <= bound
                shift = ""
                if n > 0 and bound is not None and len(first_values.get(name, [])) >= 4:
                    med0 = statistics.median(first_values[name])
                    worse = (med - med0) / med0 if m["better"] == "lower" else (med0 - med) / med0
                    shift = f"  worse than set 1 by {worse:+.4f}"
                    if worse > bound:
                        shift += " TOO FAR"
                        ok = False
                print(f"  set {n + 1} {workload:6} {name:16} median {med:12.4f}  "
                      f"spread {spread:.4f}  bound {bound}  {verdict}{shift}")
            if n > 0:
                differ = [s for s in digests if digests[s] != first_digests.get(s)]
                print(f"  set {n + 1} {workload:6} digests "
                      + ("equal to set 1" if not differ else f"DIFFER on seeds {differ}"))
                ok &= not differ
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

"""Steadiness runner: every workload, several seeds, fresh processes.

    python3 perfbench/steady.py --runs 10 --seconds 20 [--save perfbench/baseline.json]

Run i uses seed i + 1 on every workload of BENCHMARK.json; the workload
order is reversed on odd i.  For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n = 4), the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json, and the sample count.
Then one traced run per workload prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The run's result line and its fail_frac."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    fail_frac = None
    for line in lines:
        if line.startswith(("FAILED", "INACCURATE", "trace:")):
            print(f"  [{workload} seed {seed}] {line}", file=sys.stderr)
        if line.startswith("fail_frac"):
            fail_frac = float(line.split()[1])
    return json.loads(lines[-1]), fail_frac


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--save", help="write every value to this JSON file")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    verdicts = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            res, fail_frac = run(w, i + 1, args.seconds, 0)
            verdicts[w].append((res["correct"], res["attempted"], res["failed"]))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, (m["unit"], []))[1].append(m["value"])
            values[w].setdefault("fail_frac", ("1", []))[1].append(fail_frac)

    worst = {}
    for w in workloads:
        ok = sum(c for c, _, _ in verdicts[w])
        print(f"\n{w}: {ok}/{len(verdicts[w])} runs correct, "
              f"{sum(f for _, _, f in verdicts[w])} of {sum(a for _, a, _ in verdicts[w])} "
              "attempts failed")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  n")
        for name, (unit, vals) in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            if name not in bounds:  # fail_frac: printed, not bounded
                print(f"  {name:14s} {unit:5s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{'':8s} {'':6s}  {len(vals)}")
                continue
            spread = (q3 - q1) / med
            worst[(w, name)] = spread / bounds[name]
            print(f"  {name:14s} {unit:5s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.2f}  {len(vals)}")
    if worst:
        (w, name), share = max(worst.items(), key=lambda kv: kv[1])
        print(f"\nwidest spread: {name} on {w}, {share:.2f} of its bound")

    layers = {}
    if not args.no_trace:
        for w in workloads:
            layers[w] = run(w, 1, args.seconds, 1)[0]["metrics"]
        print("\nper-layer metrics (traced run, seed 1, median of traced passes)")
        print(f"  {'metric':30s} {'unit':8s} " + " ".join(f"{w:>14s}" for w in workloads))
        for name in layers[workloads[0]]:
            unit = layers[workloads[0]][name]["unit"]
            print(f"  {name:30s} {unit:8s} " +
                  " ".join(f"{layers[w][name]['value']:14.6g}" for w in workloads))
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"runs": args.runs, "seconds": args.seconds,
             "end_to_end": {w: {k: v[1] for k, v in values[w].items()} for w in workloads},
             "per_layer": {w: {k: v["value"] for k, v in layers[w].items()} for w in layers}},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""cubegreen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extremal-mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run generates the workload's job
list and datasets from the seed, times the set-up a CLI user pays in
fresh interpreters, runs the jobs in passes in one fresh worker process
(closed loop, one job at a time, BLAS on one thread), checks every output
against an independent reference, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics from
the traced passes (--trace 1).  The lines before it give the environment,
the job list for replay, and every failing or inaccurate job by name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import jobs as jobgen  # noqa: E402
import speed  # noqa: E402
from check import TOL, check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_RUNS = 21
# relative errors below this read as this: rounding noise varies with the
# seed's data and is not a regression
ERR_FLOOR = 1e-10
# one BLAS thread and a fixed hash seed: steadier timings on a shared
# 2-CPU box; both recorded in the output
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def _ready_time() -> float:
    """CPU seconds a fresh interpreter spends until its CLI parser is built,
    at the reference speed of speed.py.

    The child reports its own process CPU time (user + system, from its
    start) when ready, then times the speed reference three times."""
    code = ("import sys, time; import cubegreen.cli as c; c.build_parser(); "
            "t = time.process_time(); "
            f"sys.path.append({str(HERE)!r}); import speed, statistics; "
            "r = statistics.median(speed.reference() for _ in range(3)); "
            "sys.stdout.write(f'ready {t!r} {r!r}\\n'); sys.stdout.flush()")
    env = dict(os.environ, PYTHONPATH=str(SRC), **WORKER_ENV)
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        words = proc.stdout.readline().split()
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or len(words) != 3 or words[0] != b"ready":
        raise RuntimeError("the CLI does not import")
    return float(words[1]) * speed.NOMINAL_S / float(words[2])


def measure_setup() -> float:
    _ready_time()  # first start compiles bytecode, which users pay once
    return statistics.median(_ready_time() for _ in range(SETUP_RUNS))


def write_inputs(run_dir: Path, jobs: list[dict], data: dict) -> None:
    (run_dir / "data").mkdir(parents=True)
    for name, rows in data.items():
        with open(run_dir / "data" / f"{name}.csv", "w") as fh:
            fh.write("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    (run_dir / "jobs.json").write_text(json.dumps(jobs))


def run_worker(run_dir: Path, seconds: int, trace: int) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(run_dir), str(seconds),
                    str(trace)], env=env, cwd=ROOT, check=True, timeout=seconds + 140)
    return json.loads((run_dir / "result.json").read_text())


def scaled_times(p: dict) -> np.ndarray:
    """A pass's job CPU times at the reference speed: each job's time
    scaled by the mean of the two references around its group."""
    refs = np.asarray(p["refs"])
    group = np.arange(len(p["times"])) // speed.REF_GROUP
    return np.asarray(p["times"]) * speed.NOMINAL_S / ((refs[group] + refs[group + 1]) / 2)


def check_outputs(jobs: list[dict], result: dict, run_dir: Path, data: dict) -> dict:
    outputs = {}
    for job in jobs:
        if job["kind"] == "api":
            outputs[job["id"]] = result["api"].get(job["id"])
        else:
            path = run_dir / "out" / (job["id"].replace("/", "_") + ".json")
            outputs[job["id"]] = json.loads(path.read_text()) if path.exists() else None
    ctx = {"data": data, "outputs": outputs}
    verdicts = {}
    for job in jobs:
        out = outputs[job["id"]]
        verdicts[job["id"]] = None if out is None else check(job, out, ctx)
    return verdicts


def _median_layers(layers: list[dict], overhead_frac: float) -> dict:
    keys = set().union(*layers)
    med = {k: statistics.median(lm.get(k, 0.0) for lm in layers) for k in keys}
    out = {m["name"]: med.get(m["name"], 0.0) for m in SPEC["per_layer"]}
    out["montecarlo.replications"] = med.get("montecarlo.sim.reps", 0.0)
    cross_s = med.get("kernel.cross.self_ms", 0.0) / 1e3
    out["kernel.cross.mterms_per_s"] = (med.get("kernel.cross.terms", 0.0) / cross_s / 1e6
                                        if cross_s else 0.0)
    reps = med.get("montecarlo.sim.reps", 0.0)
    out["montecarlo.sim.us_per_rep"] = (1e3 * med.get("montecarlo.sim.busy_ms", 0.0) / reps
                                        if reps else 0.0)
    out["trace.overhead_frac"] = overhead_frac
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind normally: the worker is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cubegreen" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cubegreen sources under {SRC}\n")
        return 2

    jobs, data = jobgen.generate(args.workload, args.seed)
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        write_inputs(run_dir, jobs, data)
        setup_s = measure_setup()
        result = run_worker(run_dir, args.seconds, args.trace)
        verdicts = check_outputs(jobs, result, run_dir, data)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            run_dir.parent.rmdir()

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    bad = {jid for jid, v in verdicts.items() if v is None or not v.ok}
    inaccurate = {jid for jid, v in verdicts.items() if v is not None and v.ok and not v.accurate}
    attempted = len(jobs) * len(passes)
    failed = sum(len(bad | set(p["failures"])) for p in passes)
    fail_frac = sum(len(bad | inaccurate | set(p["failures"])) for p in passes) / attempted
    errs = [max(v.err, ERR_FLOOR) for v in verdicts.values() if v is not None and v.err is not None]
    scaled = [scaled_times(p) for p in untraced]
    times_ms = np.concatenate(scaled) * 1e3
    refs = [r for p in untraced for r in p["refs"]]

    print("env:", json.dumps({**result["env"], "setup_runs": SETUP_RUNS}))
    print(f"speed reference: median {statistics.median(refs):.4f} s, quartiles "
          f"{' '.join(f'{q:.4f}' for q in statistics.quantiles(refs, n=4))}, "
          f"{len(refs)} samples; times are scaled to {speed.NOMINAL_S} s")
    print("jobs:", json.dumps([{"id": j["id"], "argv": j.get("argv"), "call": j.get("call"),
                                "args": j.get("args")} for j in jobs]))
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{len(passes)} passes ({len(untraced)} untraced), {len(times_ms)} job samples")
    for p in passes:
        for jid, why in p["failures"].items():
            print(f"FAILED (run) {jid}: {why.strip().splitlines()[-1]}")
    for jid in sorted(bad):
        v = verdicts[jid]
        print(f"FAILED (check) {jid}: " + ("no output" if v is None else
                                          f"err {v.err} {v.note}".strip()))
    for jid in sorted(inaccurate, key=lambda j: -verdicts[j].err):
        print(f"INACCURATE {jid}: rel err {verdicts[jid].err:.3e} beyond {TOL:g}; "
              f"{verdicts[jid].note}")
    for job in jobs:
        if job["id"].rsplit("/", 1)[-1] in jobgen.PROBES:
            v = verdicts[job["id"]]
            print(f"probe {job['id']}: " + ("no output" if v is None else
                                           f"rel err {v.err:.3e} {v.note}".strip()))
    print(f"fail_frac {fail_frac:.4f} ({len(bad | inaccurate)} of {len(jobs)} jobs "
          f"failed or inaccurate, {failed} of {attempted} attempts failed)")

    if args.trace:
        layers = result["layers"]
        # traced against untraced pass, both in CPU time at the reference speed
        traced_s = statistics.median(float(scaled_times(p).sum()) for p in passes if p["traced"])
        metrics = _median_layers(layers, traced_s / statistics.median(float(t.sum()) for t in scaled)
                                 - 1.0)
        metrics["jobs.fail_frac"] = fail_frac
        for lm in layers:
            print(f"trace: self times sum to {lm['total.self_ms']:.1f} ms "
                  f"of a {lm['pass_wall_ms']:.1f} ms traced pass")
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_cpu_s": statistics.median(float(t.sum()) for t in scaled),
            "job_cpu_p50_ms": float(np.percentile(times_ms, 50)),
            "job_cpu_p90_ms": float(np.percentile(times_ms, 90)),
            "peak_rss_mb": result["peak_rss_mb"],
            "max_rel_err": max(errs),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in SPEC["per_layer" if args.trace else "end_to_end"]}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

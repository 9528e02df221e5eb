"""Run one workload's job list in passes, in this fresh process.

    python3 perfbench/worker.py RUN_DIR SECONDS TRACE

RUN_DIR holds jobs.json and the datasets; results go to RUN_DIR/result.json
and CLI outputs to RUN_DIR/out/.  The loop is closed: one job at a time.
Passes repeat until about SECONDS have gone by.  With TRACE = 1 the passes
alternate untraced and traced, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import deps  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

from cubegreen import cli  # noqa: E402
from cubegreen import extremal, families, kernel, measures  # noqa: E402


def _family(spec: dict, m: int):
    kind = spec["kind"]
    if kind == "pillow":
        return families.all_nonempty_family(m)
    if kind == "sheet":
        return families.empty_family(m)
    return families.family_for_known_margins(families.mask_from_coords(spec["V"], m), m)


def _api_call(job: dict, counter):
    """The call behind an API job and its result as plain numbers."""
    a = job["args"]
    m = a["m"]
    call = job["call"]
    if call == "trace_bound":
        return extremal.trace_bound(kernel.green_kernel(_family(a["family"], m)), a["grid_n"])
    dep = deps.make(a["dep"], m, counter)
    if call == "bahadur_slope_B1":
        return extremal.bahadur_slope_B1(families.mask_from_coords(a["V"], m), m, dep)
    if call == "pitman_slope_spearman":
        return extremal.pitman_slope_spearman(m, dep).slope_sq
    if call == "pitman_slope_bhat":
        return extremal.pitman_slope_bhat(m, dep, nodes=a["nodes"])
    if call == "fisher_info":
        return extremal.fisher_info(dep, m=m, nodes=a["nodes"])
    rep = extremal.optimality_gap(families.family_for_known_margins(0, m), measures.lebesgue(m),
                                  dep)
    return {"index": rep.index, "fisher": rep.fisher, "gap": rep.gap}


def _argv(job: dict, run_dir: Path) -> list[str]:
    out = []
    for tok in job["argv"]:
        if tok == "{out}":
            tok = str(run_dir / "out" / (job["id"].replace("/", "_") + ".json"))
        elif tok.startswith("{data:"):
            tok = str(run_dir / "data" / (tok[6:-1] + ".csv"))
        out.append(tok)
    return out


def run_pass(jobs, argvs, tracer: Tracer | None, counter) -> dict:
    """One pass over the job list.  Returns the pass's wall time, per-job
    CPU times, the reference times around every group of jobs, failures,
    API results and (traced) output bytes.

    Jobs are timed in process CPU time: on a shared VM the wall clock
    also counts time the hypervisor gives to other guests (steal).  Job
    `i` lies between references `i // speed.REF_GROUP` and the one after
    (see speed.py); the wall time leaves the references out."""
    times, refs, failures, api, out_bytes = [], [], {}, {}, 0
    t_pass, t_ref = perf_counter(), 0.0
    for i, (job, argv) in enumerate(zip(jobs, argvs)):
        if i % speed.REF_GROUP == 0:
            t0 = perf_counter()
            refs.append(speed.reference())
            t_ref += perf_counter() - t0
        if tracer is not None:
            tracer.job = job["id"]
        c0 = process_time()
        try:
            if job["kind"] == "cli":
                res = tracer.span("bench.job", "job", cli.main, argv) if tracer else cli.main(argv)
            else:
                res = (tracer.span("bench.job", "job", _api_call, job, counter) if tracer
                       else _api_call(job, None))
        except SystemExit as exc:  # argparse rejects an argv
            failures[job["id"]] = f"exit code {exc.code}"
            res = None
        except Exception:  # a crashing job is counted, the pass goes on
            failures[job["id"]] = traceback.format_exc(limit=3)
            res = None
        times.append(process_time() - c0)
        if job["kind"] == "cli":
            if res != 0 and job["id"] not in failures:
                failures[job["id"]] = f"exit code {res}"
            if tracer is not None and res == 0:
                out_bytes += os.path.getsize(argv[argv.index("--out-file") + 1])
        else:
            api[job["id"]] = res
    t0 = perf_counter()
    refs.append(speed.reference())
    t_ref += perf_counter() - t0
    return {"wall": perf_counter() - t_pass - t_ref, "times": times, "refs": refs,
            "failures": failures, "api": api, "out_bytes": out_bytes}


def _env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def main() -> int:
    run_dir, seconds, trace = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    jobs = json.loads((run_dir / "jobs.json").read_text())
    (run_dir / "out").mkdir(exist_ok=True)
    argvs = [_argv(j, run_dir) if j["kind"] == "cli" else None for j in jobs]
    tracer = Tracer() if trace else None
    passes, layers = [], []
    t_start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        counter = [0]
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            p = run_pass(jobs, argvs, tracer if traced else None, counter)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        if traced:
            lm = layer_metrics(tracer.spans)
            lm["extremal.depfn.calls"] = counter[0]
            lm["cli.out_mb"] = p["out_bytes"] / 1e6
            lm["cli.errors"] = sum(1 for j in jobs
                                   if j["kind"] == "cli" and j["id"] in p["failures"])
            lm["pass_wall_ms"] = 1e3 * p["wall"]
            layers.append(lm)
        passes.append(p)
        # stop at the pass boundary nearest to SECONDS
        enough = len(passes) >= (2 if trace else 1)
        if enough and perf_counter() - t_start + p["wall"] / 2 >= seconds:
            break
    result = {
        "passes": [{k: p[k] for k in ("wall", "times", "refs", "failures", "traced")}
                   for p in passes],
        "api": passes[0]["api"],
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _env(),
    }
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around calls into cubegreen's public functions, recorded from the
benchmark's side.

`Tracer.install()` replaces each listed function with a wrapper in its
own module, in every other cubegreen module that imported it with
`from ... import`, and on the class for methods; `uninstall()` puts the
originals back.  A span is [id, function, layer, start, end, parent id,
job id, info]; spans stay in memory until the run ends.  Spans are taken
on the main thread only: the worker threads of the `--threads 2`
simulation run concurrently, and their time counts as the simulator's
self time, so self times never sum to more than the pass.
"""

from __future__ import annotations

import itertools
import sys
import threading
from time import perf_counter

import numpy as np


def _rows(a) -> int:
    s = np.shape(a)
    return 1 if len(s) < 2 else s[0]


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _stat_layer(pos: int):
    def name(args, kwargs):
        return "rankstats.p2" if _arg(args, kwargs, pos, "p", 1) >= 2 else "rankstats.p1"
    return name


def _stat_info(v_pos: int | None):
    def info(args, kwargs, res):
        n, m = np.shape(args[0])
        V = _arg(args, kwargs, v_pos, "V", 0) if v_pos is not None else (1 << m) - 1
        return {"n": n, "atoms": n ** (m - int(V).bit_count())}
    return info


def _eigen_info(args, kwargs, res):
    kernel, g = args[0], _arg(args, kwargs, 1, "grid_n")
    fine, coarse = g ** kernel.m, max(4, g // 2) ** kernel.m
    # a dense kernel matrix and its scaled copy, for each of the two grids
    return {"nodes": fine + coarse, "dense_bytes": 2 * 8 * (fine * fine + coarse * coarse)}


def _trace_info(args, kwargs, res):
    return {"nodes": _arg(args, kwargs, 1, "grid_n") ** args[0].m, "dense_bytes": 0}


def _cross_info(args, kwargs, res):
    pairs = _rows(args[1]) * _rows(args[2])
    return {"pairs": pairs, "terms": pairs * (len(args[0].family) + 1)}


def _nodes_info(args, kwargs, res):
    return {"nodes": len(res[0])}


def _reps_info(args, kwargs, res):
    return {"reps": args[0].replications}


# (module, attribute, layer or layer function, info function)
TARGETS = [
    ("cli", "main", "cli", None),
    *(("families", f, "families", None) for f in (
        "upward_closure", "family_for_known_margins", "all_nonempty_family", "empty_family",
        "enumerate_monotone_families", "family_from_json")),
    ("kernel", "green_kernel", "kernel.build", None),
    ("kernel", "compute_coefficients", "kernel.build",
     lambda a, k, r: {"members": len(a[0])}),
    ("kernel", "GreenKernel.cross", "kernel.cross", _cross_info),
    *(("quadrature", f, "quadrature", _nodes_info) for f in (
        "unit_rule", "segmented_rule", "tensor_rule", "midpoint_grid")),
    *(("quadrature", f, "quadrature", None) for f in ("cube_integral", "integrate_segmented")),
    ("measures", "lambda_value", "measures.lambda", None),
    ("measures", "integrate_once", "measures.once", None),
    ("measures", "integrate_against", "measures.integrate", None),
    *(("extremal", f, "extremal.solve", None) for f in (
        "solve", "efficiency_coefficient", "minimal_norm_squared", "ExtremalSolution.omega")),
    *(("extremal", f, "extremal.slopes", None) for f in (
        "bahadur_slope_B1", "pitman_slope_spearman", "pitman_slope_bhat", "fisher_info",
        "optimality_gap", "mixed_derivative")),
    ("extremal", "principal_eigenvalue", "extremal.eigen", _eigen_info),
    ("extremal", "trace_bound", "extremal.eigen", _trace_info),
    ("rankstats", "ranks", "rankstats.ranks", None),
    ("rankstats", "to_copula_scale", "rankstats.ranks", None),
    ("rankstats", "load_csv", "rankstats.io", None),
    ("rankstats", "stat_B", _stat_layer(2), _stat_info(1)),
    ("rankstats", "stat_Bhat", _stat_layer(1), _stat_info(None)),
    *(("rankstats", f, "rankstats.p1", None) for f in (
        "spearman_rho", "gini_coefficient", "footrule")),
    *(("montecarlo", f, "montecarlo.sim", _reps_info) for f in (
        "null_distribution", "simulate_null_covariance", "simulate_tied_down_covariance")),
    ("montecarlo", "sample_gaussian_field", "montecarlo.field", None),
    ("montecarlo", "substream", "montecarlo.substream", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, func: str, layer: str, fn, *args, info=None, **kwargs):
        """Run fn inside a span; returns its result."""
        if threading.current_thread() is not self._main:
            return fn(*args, **kwargs)
        st = self._stack
        parent = st[-1] if st else None
        sid = next(self._ids)
        rec = [sid, func, layer, 0.0, 0.0, parent, self.job, None]
        self.spans.append(rec)
        st.append(sid)
        rec[3] = perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            st.pop()
        if info is not None:
            rec[7] = info(args, kwargs, res)
        return res

    def _wrap(self, func, orig, layer, info):
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            return tracer.span(func, name, orig, *args, info=info, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "cubegreen" or name.startswith("cubegreen.")}
        for modname, attr, layer, info in TARGETS:
            mod = mods["cubegreen." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{modname}.{attr}", orig, layer, info))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{modname}.{attr}", orig, layer, info)
            for other in mods.values():
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._saved.append((other, key, orig))
                        setattr(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (ms) for the spans of one pass."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[5] is not None:
            children.setdefault(s[5], []).append(s)
    out: dict[str, float] = {}

    def add(key, val):
        out[key] = out.get(key, 0.0) + val

    for s in spans:
        sid, _func, name, t0, t1, parent, _job, info = s
        kids = children.get(sid, [])
        self_s = (t1 - t0) - _union((max(k[3], t0), min(k[4], t1)) for k in kids)
        add(name + ".self_ms", 1e3 * self_s)
        add("total.self_ms", 1e3 * self_s)
        if parent is None or by_id[parent][2] != name:
            add(name + ".calls", 1)
        if info:
            if "nodes" in info and (parent is None or by_id[parent][2] != name):
                add(name + ".nodes", info["nodes"])
            for key in ("pairs", "terms", "members", "reps"):
                if key in info:
                    add(name + "." + key, info[key])
            if "dense_bytes" in info:
                add(name + ".dense_mb", info["dense_bytes"] / 1e6)
            if name == "rankstats.p2":
                grid = sum(k[7]["nodes"] for k in kids if k[2] == "quadrature") or 1
                add("rankstats.p2.cells", grid * info["atoms"] * info["n"])
        if name == "montecarlo.sim":
            add("montecarlo.sim.busy_ms", 1e3 * (t1 - t0))
    return out

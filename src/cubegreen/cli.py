"""Command-line interface.

Every run emits a JSON report whose "config" block echoes the fully
resolved configuration (seed included), so a report can be replayed; a
family is echoed as the command-line option that gave it, not member by
member.
Floats are serialized with shortest round-trip precision (lossless).
Wall-clock time lives only under the "timing" key; how a number was
computed (such as power-iteration counts) under "diagnostics".  Exit codes:
0 ok, 2 validation error or a computation that did not converge, 1 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

import numpy as np

from . import __version__
from .families import (
    MonotoneFamily,
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    family_from_json,
    format_subset,
    mask_from_coords,
)
from .kernel import green_kernel
from .measures import integrate_once, lambda_value, measure_from_json
from .extremal import ConvergenceError, efficiency_coefficient, principal_eigenvalue, solve
from .montecarlo import (
    SimConfig,
    check_grid_size,
    null_distribution,
    sample_gaussian_field,
    simulate_null_covariance,
    simulate_tied_down_covariance,
)
from . import rankstats


def _add_family_args(p: argparse.ArgumentParser):
    """Add the required, mutually exclusive family options; returns their group."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--family", help="JSON array-of-arrays of 1-based coordinates")
    g.add_argument("--family-known-margins-V", dest="known_v",
                   help="comma-separated coordinates of V (empty string for V = empty set)")
    g.add_argument("--family-all", action="store_true",
                   help="all nonempty subsets (pillow)")
    g.add_argument("--family-empty", action="store_true",
                   help="empty family (sheet)")
    return g


def _resolve_family(args) -> MonotoneFamily:
    m = args.m
    if getattr(args, "family", None) is not None:
        return family_from_json(args.family, m)
    if getattr(args, "known_v", None) is not None:
        coords = [int(t) for t in args.known_v.split(",") if t.strip()]
        return family_for_known_margins(mask_from_coords(coords, m), m)
    if getattr(args, "family_all", False):
        return all_nonempty_family(m)
    return empty_family(m)


def _family_flag(args) -> list[str]:
    """The family option as given, echoed in a report's config for replay."""
    if args.family is not None:
        return ["--family", args.family]
    if args.known_v is not None:
        return ["--family-known-margins-V", args.known_v]
    return ["--family-all"] if args.family_all else ["--family-empty"]


def _parse_point(text: str, m: int) -> np.ndarray:
    vals = [float(t) for t in text.split(",") if t.strip()]
    if len(vals) != m:
        raise ValueError(f"expected {m} coordinates, got {len(vals)}")
    return np.asarray(vals)


def _parse_V(text: str | None, m: int) -> int:
    if text is None:
        return 0
    coords = [int(t) for t in text.split(",") if t.strip()]
    return mask_from_coords(coords, m)


def _interior_grid(m: int, per_axis: int) -> tuple[tuple[float, ...], ...]:
    """The per_axis^m interior lattice points, the last axis varying fastest;
    a grid too large for its kernel matrices is refused before it is built."""
    per_axis = max(per_axis, 0)
    check_grid_size(per_axis ** m)
    axis = (np.arange(per_axis) + 1.0) / (per_axis + 1.0)
    pts = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    return tuple(map(tuple, pts.tolist()))


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _emit(report: dict, args) -> None:
    if getattr(args, "output", "json") == "csv":
        lines = []
        for key, val in report.get("result", {}).items():
            if isinstance(val, list) and val and isinstance(val[0], list):
                lines.append(f"# {key}")
                lines.extend(",".join(f"{v:.17g}" for v in row) for row in val)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    if getattr(args, "out_file", None):
        with open(args.out_file, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_family(args) -> dict:
    if args.enumerate:
        fams = enumerate_monotone_families(args.m)
        return {"config": {"m": args.m, "enumerate": True},
                "result": {"count": len(fams),
                           "families": [f.to_coord_lists() for f in fams]}}
    fam = _resolve_family(args)
    return {"config": {"m": args.m},
            "result": {"family": fam.to_coord_lists(), "text": str(fam)}}


def _cmd_coeffs(args) -> dict:
    fam = _resolve_family(args)
    kern = green_kernel(fam)
    return {"config": {"m": args.m, "family": _family_flag(args)},
            "result": {"a": kern.coefficients_by_name()}}


def _cmd_green_eval(args) -> dict:
    fam = _resolve_family(args)
    kern = green_kernel(fam)
    x = _parse_point(args.x, args.m)
    xi = _parse_point(args.xi, args.m)
    return {"config": {"m": args.m, "family": _family_flag(args),
                       "x": list(x), "xi": list(xi)},
            "result": {"value": kern.evaluate(x, xi)}}


def _cmd_lambda(args) -> dict:
    fam = _resolve_family(args)
    kern = green_kernel(fam)
    measure = measure_from_json(args.measure, args.m)
    lam = lambda_value(kern, measure, args.method)
    return {"config": {"m": args.m, "family": _family_flag(args),
                       "measure": args.measure, "method": args.method},
            "result": {"lambda": lam, "inverse_lambda": 1.0 / lam}}


def _cmd_solve(args) -> dict:
    fam = _resolve_family(args)
    measure = measure_from_json(args.measure, args.m)
    sol = solve(fam, measure, args.method)
    samples = []
    for text in args.eval_at or []:
        x = _parse_point(text, args.m)
        samples.append({"x": list(map(float, x)), "omega": sol.omega(x)})
    return {"config": {"m": args.m, "family": _family_flag(args),
                       "measure": args.measure, "method": args.method},
            "result": {"lambda": sol.lam, "inverse_lambda": 1.0 / sol.lam,
                       "omega": samples}}


def _cmd_efficiency(args) -> dict:
    V = _parse_V(args.V, args.m)
    fam = family_for_known_margins(V, args.m)
    measure = measure_from_json(args.measure, args.m)
    coeff = efficiency_coefficient(fam, measure)
    return {"config": {"m": args.m, "V": format_subset(V), "measure": args.measure},
            "result": {"efficiency_coefficient": coeff}}


def _cmd_eigen(args) -> dict:
    fam = _resolve_family(args)
    est = principal_eigenvalue(green_kernel(fam), args.grid_n)
    return {"config": {"m": args.m, "family": _family_flag(args),
                       "grid_n": args.grid_n},
            "result": {"value": est.value, "error": est.error,
                       "coarse": est.coarse, "fine": est.fine},
            "diagnostics": {"coarse_iterations": est.coarse_iterations,
                            "fine_iterations": est.fine_iterations}}


def _cmd_stat(args) -> dict:
    X = rankstats.load_csv(args.input)
    if args.rank_pit:
        X = rankstats.to_copula_scale(X)
    m = X.shape[1]
    V = _parse_V(args.V, m)
    value = rankstats.statistic(args.name, X, V, args.p, args.grid_n)
    return {"config": {"name": args.name, "input": args.input, "n": int(X.shape[0]),
                       "m": int(m), "V": format_subset(V), "p": args.p,
                       "grid_n": args.grid_n, "rank_pit": bool(args.rank_pit)},
            "result": {"name": args.name, "n": int(X.shape[0]), "m": int(m),
                       "value": float(value)}}


def _cmd_simulate(args) -> dict:
    grid = _interior_grid(args.m, args.grid_n) if args.grid_n else ()
    V = _parse_V(args.V, args.m) if args.V is not None else None
    cfg = SimConfig(seed=args.seed, n=args.n, replications=args.R, m=args.m,
                    grid=grid, V=V, threads=args.threads)
    config = {"mode": args.mode, "m": args.m, "n": args.n, "R": args.R,
              "seed": args.seed, "grid_n": args.grid_n, "threads": args.threads,
              "V": format_subset(V) if V is not None else None}
    if args.mode in ("cov", "tiedcov"):
        rep = (simulate_null_covariance(cfg) if args.mode == "cov"
               else simulate_tied_down_covariance(cfg))
        result = {"empirical": _matrix(rep.empirical),
                  "theoretical": _matrix(rep.theoretical),
                  "max_abs_dev": rep.max_abs_dev,
                  "max_dev_in_se": rep.max_dev_in_se}
    elif args.mode == "field":
        fam = all_nonempty_family(args.m) if V is None \
            else family_for_known_margins(V, args.m)
        draws = sample_gaussian_field(green_kernel(fam), np.asarray(grid),
                                      args.count, args.seed)
        config["count"] = args.count
        result = {"draws": _matrix(draws)}
    else:  # nulldist
        dist = null_distribution(cfg, args.stat, p=args.p,
                                 scale_sqrt_n=args.scale_sqrt_n)
        config.update({"stat": args.stat, "p": args.p,
                       "scale_sqrt_n": args.scale_sqrt_n})
        result = {"mean": dist.mean, "variance": dist.variance,
                  "variance_se": dist.variance_se,
                  "quantiles": {str(k): v for k, v in dist.quantiles.items()}}
    return {"config": config, "result": result}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubegreen")
    p.add_argument("--version", action="version", version=f"cubegreen {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--output", choices=("json", "csv"), default="json")
        sp.add_argument("--out-file")
        return sp

    sp = common(sub.add_parser("family", help="build or enumerate monotone families"))
    _add_family_args(sp).add_argument("--enumerate", action="store_true")
    sp.set_defaults(handler=_cmd_family)

    for name, handler in (("coeffs", _cmd_coeffs), ("green-eval", _cmd_green_eval),
                          ("eigen", _cmd_eigen)):
        sp = common(sub.add_parser(name))
        _add_family_args(sp)
        if name == "green-eval":
            sp.add_argument("--x", required=True)
            sp.add_argument("--xi", required=True)
        if name == "eigen":
            sp.add_argument("--grid-n", type=int, default=48)
        sp.set_defaults(handler=handler)

    for name, handler in (("lambda", _cmd_lambda), ("solve", _cmd_solve)):
        sp = common(sub.add_parser(name))
        _add_family_args(sp)
        sp.add_argument("--measure", default="lebesgue")
        sp.add_argument("--method", choices=("auto", "closed", "quadrature"),
                        default="auto")
        if name == "solve":
            sp.add_argument("--eval-at", action="append",
                            help="comma-separated point; repeatable")
        sp.set_defaults(handler=handler)

    sp = common(sub.add_parser("efficiency"))
    sp.add_argument("--V", help="comma-separated coordinates of the known margins")
    sp.add_argument("--measure", default="lebesgue")
    sp.set_defaults(handler=_cmd_efficiency)

    sp = common(sub.add_parser("stat"))
    sp.add_argument("--name", required=True,
                    choices=rankstats.STATISTICS)
    sp.add_argument("--input", required=True)
    sp.add_argument("--V")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--grid-n", type=int)
    sp.add_argument("--rank-pit", action="store_true")
    sp.set_defaults(handler=_cmd_stat)

    sp = common(sub.add_parser("simulate"))
    sp.add_argument("--mode", required=True,
                    choices=("cov", "tiedcov", "field", "nulldist"))
    sp.add_argument("--V")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--R", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-n", type=int, default=4,
                    help="interior grid points per axis")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--count", type=int, default=100, help="field draws")
    sp.add_argument("--stat", default="Bhat",
                    choices=rankstats.STATISTICS)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--scale-sqrt-n", action="store_true")
    sp.set_defaults(handler=_cmd_simulate)

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call: parsing leaves no
    state in it, and building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.handler(args)
    except (ValueError, KeyError, json.JSONDecodeError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io-error: {exc}\n")
        return 1
    report["timing"] = {"seconds": time.perf_counter() - t0}
    try:
        _emit(report, args)
    except OSError as exc:
        sys.stderr.write(f"io-error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

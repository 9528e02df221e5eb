"""Seeded job lists for the three workloads.

A job is a dict with an `id`, a `kind` ("cli" or "api"), the argv or the
API call, and a `ref` block that tells the checker what was asked.  The
shape of every job (command, m, family kind, |V|, measure kind, method,
grid, n, R) is fixed per workload, so the cost of a pass does not depend
on the seed.  The seed draws the values: coordinates of V, generators of
upward closures, points, point-mass weights, datasets, simulation seeds
and the job order.  The m >= 8 pillow probes are fixed points, because
the signed-sum error there depends steeply on the point and
`max_rel_err` has to compare across seeds.

CLI argv may hold two placeholders that the worker fills in: "{out}"
(the job's output file) and "{data:NAME}" (a generated CSV dataset).
"""

from __future__ import annotations

import json

import numpy as np

from oracle import closure, coords

WORKLOADS = ("extremal-mix", "nystrom-eigen", "rank-sim")


def _coords(rng, m: int, size: int) -> list[int]:
    """`size` distinct coordinates of 1..m, ascending."""
    return sorted(rng.choice(np.arange(1, m + 1), size=size, replace=False).tolist())


def _family(kind: str, m: int, rng, v_size: int = 0, n_gens: int = 2) -> dict:
    if kind == "km":
        return {"kind": "km", "V": _coords(rng, m, v_size)}
    if kind == "closure":
        gens = set()
        while len(gens) < n_gens:
            gens.add(tuple(_coords(rng, m, int(rng.integers(1, m)))))
        return {"kind": "closure", "gens": [list(g) for g in sorted(gens)]}
    return {"kind": kind}


def family_argv(fam: dict, m: int) -> list[str]:
    kind = fam["kind"]
    if kind == "pillow":
        return ["--family-all"]
    if kind == "sheet":
        return ["--family-empty"]
    if kind == "km":
        return ["--family-known-margins-V", ",".join(map(str, fam["V"]))]
    F = sorted(closure([sum(1 << (c - 1) for c in g) for g in fam["gens"]], m),
               key=lambda u: (u.bit_count(), u))
    return ["--family", json.dumps([coords(u) for u in F])]


def _point(rng, m: int, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    return [round(float(v), 4) for v in rng.uniform(lo, hi, m)]


def _text(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _points_measure(rng, m: int, count: int) -> dict:
    return {"variant": "points",
            "points": [_point(rng, m, 0.1, 0.9) for _ in range(count)],
            "weights": [round(float(w), 3) for w in rng.uniform(0.5, 2.0, count)]}


def _measure(kind: str, m: int, rng):
    if kind in ("lebesgue", "diagonal", "antidiagonal", "diagonal+antidiagonal"):
        return kind
    if kind == "points":
        return _points_measure(rng, m, 3)
    if kind in ("leb+points", "diag+points"):
        line = "lebesgue" if kind == "leb+points" else "diagonal"
        return {"variant": "sum", "parts": [
            {"weight": 1.0, "measure": {"variant": line}},
            {"weight": round(float(rng.uniform(0.2, 1.0)), 3),
             "measure": _points_measure(rng, m, 2)}]}
    # diag+leb: no closed form, quadrature or auto only
    return {"variant": "sum", "parts": [
        {"weight": 1.0, "measure": {"variant": "diagonal"}},
        {"weight": round(float(rng.uniform(0.5, 2.0)), 3), "measure": {"variant": "lebesgue"}}]}


def _measure_arg(meas) -> str:
    return meas if isinstance(meas, str) else json.dumps(meas)


def _cli(jid: str, argv: list[str], ref: dict) -> dict:
    return {"id": jid, "kind": "cli", "argv": argv + ["--out-file", "{out}"], "ref": ref}


def _api(jid: str, call: str, args: dict, ref: dict) -> dict:
    return {"id": jid, "kind": "api", "call": call, "args": args, "ref": ref}


# ---------------------------------------------------------------------------
# extremal-mix
# ---------------------------------------------------------------------------

# family kinds cycled over the seeded kernel jobs
_FAMS = ("pillow", "km", "closure", "sheet")
# measure kind and method, cycled over the lambda/solve jobs; "closed"
# appears only with measures that have a closed form for every pair
_MEASURES = (("lebesgue", "closed"), ("diagonal", "auto"), ("points", "closed"),
             ("leb+points", "auto"), ("diag+points", "quadrature"), ("diag+leb", "auto"),
             ("lebesgue", "quadrature"), ("diagonal", "closed"), ("diag+leb", "quadrature"))
_MEASURES_M2 = (("antidiagonal", "auto"), ("diagonal+antidiagonal", "quadrature"))

# fixed probes for the m >= 8 pillow: an interior pair and a near-corner pair
PROBES = {"interior": (0.5, 0.7), "corner": (0.9, 0.95)}


def _fam_for(i: int, m: int, rng) -> dict:
    kind = _FAMS[i % len(_FAMS)]
    if kind == "closure" and m > 5:
        kind = "km"
    return _family(kind, m, rng, v_size=1 + i % (m - 1), n_gens=2)


def extremal_mix(rng) -> list[dict]:
    jobs = []
    for m in (8, 10, 12):
        for name, (a, b) in PROBES.items():
            fam = {"kind": "pillow"}
            x, xi = [a] * m, [b] * m
            jobs.append(_cli(f"green-eval/pillow/m{m}/{name}",
                             ["green-eval", "--m", str(m), *family_argv(fam, m),
                              "--x", _text(x), "--xi", _text(xi)],
                             {"type": "green-eval", "m": m, "family": fam, "x": x, "xi": xi}))
    for i, m in enumerate((2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 12)):
        fam = _fam_for(i, m, rng) if m <= 7 else _family(("km", "sheet")[i % 2], m, rng, v_size=2)
        x, xi = _point(rng, m), _point(rng, m)
        jobs.append(_cli(f"green-eval/{fam['kind']}/m{m}/{i}",
                         ["green-eval", "--m", str(m), *family_argv(fam, m),
                          "--x", _text(x), "--xi", _text(xi)],
                         {"type": "green-eval", "m": m, "family": fam, "x": x, "xi": xi}))
    for i, m in enumerate((2, 3, 4, 5, 6, 7, 8, 9)):
        fam = _fam_for(i, m, rng)
        jobs.append(_cli(f"coeffs/{fam['kind']}/m{m}/{i}",
                         ["coeffs", "--m", str(m), *family_argv(fam, m)],
                         {"type": "coeffs", "m": m, "family": fam}))
    jobs.append(_cli("coeffs/pillow/m10", ["coeffs", "--m", "10", "--family-all"],
                     {"type": "coeffs", "m": 10, "family": {"kind": "pillow"}}))
    for i in range(36):
        m = 2 + i % 5
        table = _MEASURES + (_MEASURES_M2 if m == 2 else ())
        mkind, method = table[(i // 5) % len(table)]
        fam = _fam_for(i, m, rng)
        meas = _measure(mkind, m, rng)
        jobs.append(_cli(f"lambda/{fam['kind']}/m{m}/{mkind}/{method}/{i}",
                         ["lambda", "--m", str(m), *family_argv(fam, m),
                          "--measure", _measure_arg(meas), "--method", method],
                         {"type": "lambda", "m": m, "family": fam, "measure": meas}))
    for i in range(16):
        m = 2 + i % 4
        table = _MEASURES + (_MEASURES_M2 if m == 2 else ())
        mkind, method = table[(i * 3) % len(table)]
        fam = _fam_for(i + 1, m, rng)
        meas = _measure(mkind, m, rng)
        pts = [_point(rng, m) for _ in range(1 + i % 3)]
        argv = ["solve", "--m", str(m), *family_argv(fam, m),
                "--measure", _measure_arg(meas), "--method", method]
        for p in pts:
            argv += ["--eval-at", _text(p)]
        jobs.append(_cli(f"solve/{fam['kind']}/m{m}/{mkind}/{i}", argv,
                         {"type": "solve", "m": m, "family": fam, "measure": meas, "points": pts}))
    for mkind, target in (("diagonal", 90.0), ("diagonal+antidiagonal", 24.0)):
        jobs.append(_cli(f"efficiency/const{int(target)}",
                         ["efficiency", "--V", "", "--m", "2", "--measure", mkind],
                         {"type": "efficiency", "m": 2, "family": {"kind": "km", "V": []},
                          "measure": mkind, "target": target}))
    for i, (m, mkind) in enumerate(((2, "lebesgue"), (2, "diagonal"), (3, "lebesgue"),
                                    (3, "points"), (3, "diagonal"), (4, "lebesgue"),
                                    (4, "diagonal"), (4, "points"))):
        fam = _family("km", m, rng, v_size=1 + i % (m - 1))
        meas = _measure(mkind, m, rng)
        jobs.append(_cli(f"efficiency/m{m}/{mkind}/{i}",
                         ["efficiency", "--V", ",".join(map(str, fam["V"])), "--m", str(m),
                          "--measure", _measure_arg(meas)],
                         {"type": "efficiency", "m": m, "family": fam, "measure": meas}))
    for m in (2, 3, 4):
        jobs.append(_cli(f"family/enumerate/m{m}", ["family", "--enumerate", "--m", str(m)],
                         {"type": "family-enum", "m": m}))
    for i, m in enumerate((3, 4, 5, 5)):
        fam = _family("closure", m, rng, n_gens=2 + i % 2)
        jobs.append(_cli(f"family/closure/m{m}/{i}",
                         ["family", "--m", str(m), *family_argv(fam, m)],
                         {"type": "family", "m": m, "family": fam}))
    for i, m in enumerate((6, 12)):
        fam = _family("km", m, rng, v_size=2)
        jobs.append(_cli(f"family/km/m{m}", ["family", "--m", str(m), *family_argv(fam, m)],
                         {"type": "family", "m": m, "family": fam}))
    jobs += _slope_jobs(rng)
    return jobs


def _slope_jobs(rng) -> list[dict]:
    """API jobs at m <= 4 with the benchmark's own dependence functions."""
    jobs = []
    for m in (2, 3, 4):
        jobs.append(_api(f"bahadur/spearman/m{m}", "bahadur_slope_B1",
                         {"V": [], "m": m, "dep": "spearman"},
                         {"type": "inverse-lambda", "m": m}))
        V = _coords(rng, m, 1)
        fixture = ("bump", "skew")[int(rng.integers(2))]
        jobs.append(_api(f"bahadur/{fixture}/m{m}", "bahadur_slope_B1",
                         {"V": V, "m": m, "dep": fixture},
                         {"type": "bahadur", "m": m, "V": V, "dep": fixture}))
        jobs.append(_api(f"pitman-spearman/m{m}", "pitman_slope_spearman",
                         {"m": m, "dep": "spearman"}, {"type": "inverse-lambda", "m": m}))
        nodes = {2: None, 3: None, 4: 6}[m]
        jobs.append(_api(f"pitman-bhat/{fixture}/m{m}", "pitman_slope_bhat",
                         {"m": m, "dep": fixture, "nodes": nodes},
                         {"type": "pitman-bhat", "m": m, "dep": fixture}))
    for m, nodes in ((2, 16), (3, 8)):
        jobs.append(_api(f"fisher/spearman/closed/m{m}", "fisher_info",
                         {"m": m, "dep": "spearman", "nodes": nodes},
                         {"type": "inverse-lambda", "m": m}))
    jobs.append(_api("fisher/bump/closed/m4", "fisher_info", {"m": 4, "dep": "bump", "nodes": 6},
                     {"type": "fisher-bump", "m": 4}))
    jobs.append(_api("fisher/spearman/fd/m2", "fisher_info",
                     {"m": 2, "dep": "spearman-fd", "nodes": 16},
                     {"type": "inverse-lambda", "m": 2, "tol": 1e-2}))
    jobs.append(_api("fisher/bump/fd/m3", "fisher_info", {"m": 3, "dep": "bump-fd", "nodes": 8},
                     {"type": "fisher-bump", "m": 3, "tol": 1e-2}))
    for dep, tol in (("spearman", 1e-4), ("spearman-fd", 1e-2)):
        jobs.append(_api(f"optimality-gap/{dep}/m2", "optimality_gap", {"m": 2, "dep": dep},
                         {"type": "gap", "m": 2, "tol": tol}))
    return jobs


# ---------------------------------------------------------------------------
# nystrom-eigen
# ---------------------------------------------------------------------------

# (m, grid_n, count); families cycle pillow, sheet, km(|V| = m - 1), km(V = M)
_EIGEN = ((2, 8, 40), (2, 10, 16), (2, 12, 16), (2, 16, 12), (2, 20, 6), (2, 24, 4),
          (3, 8, 6))
_EIGEN_LARGE = ((2, 32, "pillow"), (2, 32, "sheet"), (2, 48, "pillow"),
                (3, 10, "pillow"), (3, 10, "sheet"), (3, 12, "sheet"))
_TRACE = ((2, 8), (2, 8), (2, 12), (2, 12), (2, 16), (2, 16), (2, 24), (2, 24),
          (2, 32), (2, 32), (3, 8), (3, 10))


def _eigen_family(i: int, m: int, rng) -> dict:
    kind = ("pillow", "sheet", "km-1", "km-M")[i % 4]
    if kind == "km-1":
        return _family("km", m, rng, v_size=m - 1)
    if kind == "km-M":
        return {"kind": "km", "V": list(range(1, m + 1))}
    return {"kind": kind}


def nystrom_eigen(rng) -> list[dict]:
    jobs = []
    slots = [(m, g, i) for m, g, count in _EIGEN for i in range(count)]
    for m, g, i in slots:
        fam = _eigen_family(i, m, rng)
        jobs.append(_eigen_job(m, g, fam, i))
    for i, (m, g, kind) in enumerate(_EIGEN_LARGE):
        jobs.append(_eigen_job(m, g, {"kind": kind}, i))
    for i, (m, g) in enumerate(_TRACE):
        fam = _eigen_family(i, m, rng)
        jobs.append(_api(f"trace-bound/{fam['kind']}/m{m}/g{g}/{i}", "trace_bound",
                         {"m": m, "family": fam, "grid_n": g},
                         {"type": "trace", "m": m, "family": fam, "grid_n": g}))
    return jobs


def _eigen_job(m: int, g: int, fam: dict, i: int) -> dict:
    return _cli(f"eigen/{fam['kind']}/m{m}/g{g}/{i}",
                ["eigen", "--m", str(m), *family_argv(fam, m), "--grid-n", str(g)],
                {"type": "eigen", "m": m, "family": fam, "grid_n": g})


# ---------------------------------------------------------------------------
# rank-sim
# ---------------------------------------------------------------------------

_STAT_SIZES = (100, 200, 500, 1000, 2000, 5000, 10000)
# (name, m, |V|, data kind, rank-pit) for every n above
_STAT_P1 = (("B", 2, 1, "unif", False), ("Bhat", 2, 0, "unif", False),
            ("rho", 2, 0, "gauss", False), ("gini", 2, 0, "gauss", False),
            ("footrule", 2, 0, "gauss", False), ("B", 2, 0, "gauss", True),
            ("B", 3, 1, "unif", False), ("Bhat", 3, 0, "unif", False),
            ("rho", 3, 0, "gauss", False), ("Bhat", 3, 0, "gauss", True),
            ("B", 4, 2, "unif", False), ("Bhat", 4, 0, "unif", False),
            ("rho", 4, 0, "gauss", False))
# (name, n, m, |V|, grid_n)
_STAT_P2 = (("Bhat", 100, 2, 0, 32), ("Bhat", 300, 2, 0, 64), ("Bhat", 1000, 2, 0, 64),
            ("Bhat", 100, 3, 0, 12), ("B", 100, 2, 1, 64), ("B", 1000, 2, 1, 64),
            ("B", 100, 3, 2, 24), ("B", 50, 2, 0, 8))
# (stat, m, n, R, |V|, p)
_NULLDIST = (("Bhat", 2, 100, 1000, 0, 1), ("Bhat", 3, 50, 2000, 0, 1),
             ("rho", 3, 100, 500, 0, 1), ("gini", 2, 100, 1000, 0, 1),
             ("footrule", 2, 200, 1000, 0, 1), ("B", 3, 100, 1000, 1, 1),
             ("B", 2, 100, 500, 0, 1), ("rho", 2, 50, 2000, 0, 1),
             ("B", 2, 30, 100, 1, 2), ("B", 2, 30, 100, 1, 2), ("B", 2, 10, 100, 0, 2))


def _dataset(rng, n: int, m: int, kind: str) -> list[list[float]]:
    if kind == "unif":
        X = rng.random((n, m))
    else:
        # correlated normals: off the unit cube, so only rank-based use
        C = np.full((m, m), 0.3) + 0.7 * np.eye(m)
        X = rng.standard_normal((n, m)) @ np.linalg.cholesky(C).T
    return X.tolist()


def _seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31))


def rank_sim(rng) -> tuple[list[dict], dict]:
    jobs, data = [], {}
    for n in _STAT_SIZES:
        for i, (name, m, vs, kind, pit) in enumerate(_STAT_P1):
            dname = f"{kind}-n{n}-m{m}-{i}"
            data[dname] = _dataset(rng, n, m, kind)
            V = _coords(rng, m, vs)
            argv = ["stat", "--name", name, "--input", "{data:%s}" % dname]
            if name == "B":
                argv += ["--V", ",".join(map(str, V))]
            if pit:
                argv.append("--rank-pit")
            jobs.append(_cli(f"stat/{name}/p1/n{n}/m{m}{'/pit' if pit else ''}", argv,
                             {"type": "stat", "name": name, "data": dname, "V": V, "p": 1,
                              "rank_pit": pit}))
    for i, (name, n, m, vs, g) in enumerate(_STAT_P2):
        dname = f"unif-n{n}-m{m}-p2-{i}"
        data[dname] = _dataset(rng, n, m, "unif")
        V = _coords(rng, m, vs)
        argv = ["stat", "--name", name, "--input", "{data:%s}" % dname, "--p", "2",
                "--grid-n", str(g)]
        if name == "B":
            argv += ["--V", ",".join(map(str, V))]
        jobs.append(_cli(f"stat/{name}/p2/n{n}/m{m}/g{g}", argv,
                         {"type": "stat", "name": name, "data": dname, "V": V, "p": 2,
                          "grid_n": g, "rank_pit": False}))
    for i, (stat, m, n, R, vs, p) in enumerate(_NULLDIST):
        V = _coords(rng, m, vs)
        argv = ["simulate", "--mode", "nulldist", "--stat", stat, "--m", str(m), "--n", str(n),
                "--R", str(R), "--p", str(p), "--seed", str(_seed(rng))]
        if stat == "B":
            argv += ["--V", ",".join(map(str, V))]
        scaled = stat == "Bhat"
        if scaled:
            argv.append("--scale-sqrt-n")
        jobs.append(_cli(f"nulldist/{stat}/p{p}/m{m}/n{n}/R{R}/{i}", argv,
                         {"type": "nulldist", "stat": stat, "m": m, "n": n, "R": R, "p": p,
                          "scaled": scaled}))
    for i, (mode, m, g, vs) in enumerate((("cov", 2, 3, 0), ("cov", 2, 3, 1), ("cov", 2, 3, 2),
                                          ("tiedcov", 2, 4, 0), ("tiedcov", 3, 3, 0))):
        V = _coords(rng, m, vs)
        argv = ["simulate", "--mode", mode, "--m", str(m), "--n", "100", "--R", "1000",
                "--grid-n", str(g), "--seed", str(_seed(rng))]
        if mode == "cov":
            argv += ["--V", ",".join(map(str, V))]
        fam = {"kind": "km", "V": V} if mode == "cov" else {"kind": "pillow"}
        jobs.append(_cli(f"simulate/{mode}/m{m}/g{g}/{i}", argv,
                         {"type": "cov", "m": m, "grid_n": g, "family": fam}))
    V = _coords(rng, 2, 1)
    twin_seed = _seed(rng)
    for threads in (1, 2):
        argv = ["simulate", "--mode", "cov", "--m", "2", "--n", "100", "--R", "1000",
                "--grid-n", "3", "--V", ",".join(map(str, V)), "--seed", str(twin_seed),
                "--threads", str(threads)]
        jobs.append(_cli(f"simulate/cov/twin/threads{threads}", argv,
                         {"type": "cov", "m": 2, "grid_n": 3, "family": {"kind": "km", "V": V},
                          "twin": "simulate/cov/twin/threads1" if threads == 2 else None}))
    for m, g in ((2, 4), (3, 3)):
        V = _coords(rng, m, 1)
        argv = ["simulate", "--mode", "field", "--m", str(m), "--grid-n", str(g), "--V",
                ",".join(map(str, V)), "--count", "2000", "--seed", str(_seed(rng))]
        jobs.append(_cli(f"simulate/field/m{m}/g{g}", argv,
                         {"type": "field", "m": m, "grid_n": g, "family": {"kind": "km", "V": V}}))
    return jobs, data


def generate(workload: str, seed: int) -> tuple[list[dict], dict]:
    """(jobs in run order, datasets by name) for a workload and seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "extremal-mix":
        jobs, data = extremal_mix(rng), {}
    elif workload == "nystrom-eigen":
        jobs, data = nystrom_eigen(rng), {}
    else:
        jobs, data = rank_sim(rng)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order], data

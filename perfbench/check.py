"""Check every job's output against its independent reference.

`check(job, output, ctx)` returns a `Verdict`:
  err       relative error against the reference (None for Monte Carlo
            jobs, whose checks are statistical);
  ok        the output is correct: within its tolerance, or, for a kernel
            value, within the float error bound of the signed-coefficient
            formula the program evaluates;
  accurate  within the accuracy target itself.  `ok and not accurate`
            marks the known signed-sum cancellation at high m.

Where that float bound reaches 1 (the m = 10 and 12 corner probes at the
seed), no digit of the signed sum is significant and any output is within it:
such a probe shows the size of the cancellation in `max_rel_err` and
`fail_frac`, but checks nothing.  Its note says so, and the run prints
every probe's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import deps
import oracle as ora

EPS = np.finfo(float).eps
TOL = 1e-9          # accuracy target for kernel values, slopes and statistics
TOL_LAMBDA = 1e-10  # lambda and efficiency (closed forms and quadrature)
Z_MEAN = 4.0        # exact null means and the 12^-m variance, in standard errors


@dataclass
class Verdict:
    err: float | None
    ok: bool
    accurate: bool
    note: str = ""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _within(err: float, tol: float, note: str = "") -> Verdict:
    good = bool(err <= tol)
    return Verdict(err, good, good, note)


def _family(ref: dict) -> frozenset[int]:
    return ora.members(ref["family"], ref["m"])


def _green_eval(ref, out, ctx) -> Verdict:
    F, m = _family(ref), ref["m"]
    want = ora.kernel_value(F, m, ref["x"], ref["xi"])
    err = _rel(out["result"]["value"], want)
    if err <= TOL:
        return Verdict(err, True, True)
    bound = 64 * EPS * ora.signed_condition(F, m, ref["x"], ref["xi"])
    note = f"float bound of the signed sum {bound:.1e}"
    if bound >= 1.0:
        note += ": no significant digit, not a check"
    return Verdict(err, bool(err <= bound), False, note)


def _coeffs(ref, out, ctx) -> Verdict:
    want = {"{" + ",".join(map(str, ora.coords(u))) + "}": a
            for u, a in ora.mobius_coefficients(_family(ref), ref["m"]).items()}
    good = out["result"]["a"] == want
    return Verdict(0.0 if good else 1.0, good, good)


def _family_enum(ref, out, ctx) -> Verdict:
    m = ref["m"]
    fams = [frozenset(ora.mask(c) for c in f) for f in out["result"]["families"]]
    good = (out["result"]["count"] == ora.count_monotone(m) == len(set(fams))
            and all(ora.closure(f, m) == f for f in fams))
    return Verdict(0.0 if good else 1.0, good, good)


def _family_one(ref, out, ctx) -> Verdict:
    got = frozenset(ora.mask(c) for c in out["result"]["family"])
    good = got == _family(ref)
    return Verdict(0.0 if good else 1.0, good, good)


def _lam(ref) -> float:
    m = ref["m"]
    return ora.lam(_family(ref), m, ora.components(ref["measure"], m))


def _lambda(ref, out, ctx) -> Verdict:
    res = out["result"]
    err = max(_rel(res["lambda"], _lam(ref)), _rel(res["inverse_lambda"], 1.0 / _lam(ref)))
    return _within(err, TOL_LAMBDA)


def _solve(ref, out, ctx) -> Verdict:
    m, F = ref["m"], _family(ref)
    comps = ora.components(ref["measure"], m)
    lam = ora.lam(F, m, comps)
    res = out["result"]
    if len(res["omega"]) != len(ref["points"]):
        return Verdict(1.0, False, False, "wrong number of evaluation points")
    err_lam = _rel(res["lambda"], lam)
    err_omega = max(_rel(s["omega"], ora.once(F, m, comps, p) / lam)
                    for s, p in zip(res["omega"], ref["points"]))
    good = bool(err_lam <= TOL_LAMBDA and err_omega <= TOL)
    return Verdict(max(err_lam, err_omega), good, good)


def _efficiency(ref, out, ctx) -> Verdict:
    want = ref.get("target") or 1.0 / _lam(ref)
    return _within(_rel(out["result"]["efficiency_coefficient"], want), TOL_LAMBDA)


def _eigen(ref, out, ctx) -> Verdict:
    m, g, fam = ref["m"], ref["grid_n"], ref["family"]
    res = out["result"]
    F = _family(ref)
    fine = ora.nystrom_dense(F, m, g)
    coarse = ora.nystrom_dense(F, m, max(4, g // 2))
    err = max(_rel(res["fine"], fine), _rel(res["coarse"], coarse),
              _rel(res["value"], fine + (fine - coarse) / 3.0))
    good = err <= TOL
    note = "vs dense eigensolve of the same grids"
    product = {"pillow": (True,) * m, "sheet": (False,) * m}.get(fam["kind"])
    if fam["kind"] == "km" and m == 2 and len(fam["V"]) == 1:
        product = (True, False)
    if product is not None:
        # tensor kernels also have a continuum reference, the product of the
        # 1-D principal eigenvalues, which the extrapolated value must reach
        # within the program's own error estimate
        want = math.prod(ora.principal_1d(b) for b in product)
        err = max(err, _rel(res["value"], want))
        good = good and abs(res["value"] - want) <= res["error"]
        note += " and 1-D dense eigensolve"
    return Verdict(err, good, good, note)


def _trace(ref, out, ctx) -> Verdict:
    m, g = ref["m"], ref["grid_n"]
    return _within(_rel(out, ora.trace(_family(ref), m, g)), TOL)


def _stat(ref, out, ctx) -> Verdict:
    X = np.asarray(ctx["data"][ref["data"]], dtype=float)
    if ref["rank_pit"]:
        X = ora.ranks(X) / (len(X) + 1.0)
    name, p = ref["name"], ref["p"]
    V = ora.mask(ref["V"])
    got = out["result"]["value"]
    if name == "footrule":
        want, scale = ora.footrule(ora.ranks(X)), 1.0
    elif name in ("rho", "gini"):
        R = ora.ranks(X)
        want, scale = (ora.spearman_rho(R) if name == "rho" else ora.gini(R)), 1.0
    elif p == 1:
        want, scale = ora.stat_B1(X, V) if name == "B" else ora.stat_Bhat1(X)
    elif name == "B":
        want, scale = ora.stat_B2(X, V, ref["grid_n"])
    else:
        want, scale = ora.stat_Bhat2(X, ref["grid_n"])
    return _within(abs(got - want) / scale, TOL)


def _nulldist(ref, out, ctx) -> Verdict:
    res = out["result"]
    R, n, m = ref["R"], ref["n"], ref["m"]
    q = [res["quantiles"][k] for k in ("0.9", "0.95", "0.99")]
    vals = [res["mean"], res["variance"], res["variance_se"], *q]
    if not all(map(math.isfinite, vals)) or res["variance"] < 0 or q != sorted(q):
        return Verdict(None, False, False, "malformed distribution")
    if ref["p"] >= 2:
        good = res["mean"] > 0
        return Verdict(None, good, good, "p = 2: positivity and ordered quantiles")
    mu0 = ora.null_mean(ref["stat"], n) * (math.sqrt(n) if ref["scaled"] else 1.0)
    z_mean = abs(res["mean"] - mu0) / math.sqrt(res["variance"] / R)
    notes = [f"mean {z_mean:.2f} se"]
    good = z_mean <= Z_MEAN
    if ref["stat"] == "Bhat" and ref["scaled"]:
        # Var(sqrt(n) B-hat) = 12^-m exactly at every n
        z_var = abs(res["variance"] - 12.0 ** -m) / res["variance_se"]
        notes.append(f"variance {z_var:.2f} se")
        good = good and z_var <= Z_MEAN
    return Verdict(None, good, good, ", ".join(notes))


def _cov(ref, out, ctx) -> Verdict:
    res = out["result"]
    grid = ora.interior_grid(ref["m"], ref["grid_n"])
    want = ora.kernel(_family(ref), ref["m"], grid, grid)
    err = float(np.max(np.abs(np.asarray(res["theoretical"]) - want)) / np.max(np.abs(want)))
    K = len(grid) * (len(grid) + 1) // 2
    z = ora.bonferroni_z(K)
    good = err <= TOL and res["max_dev_in_se"] <= z
    note = f"max_dev_in_se {res['max_dev_in_se']:.2f} (limit {z:.2f} for {K} entries)"
    twin = ref.get("twin")
    if twin:
        other = ctx["outputs"].get(twin)
        same = other is not None and other["result"]["empirical"] == res["empirical"]
        good = good and same
        note += ", bit-identical to threads 1" if same else ", DIFFERS from threads 1"
    return Verdict(err, good, good, note)


def _field(ref, out, ctx) -> Verdict:
    D = np.asarray(out["result"]["draws"])
    grid = ora.interior_grid(ref["m"], ref["grid_n"])
    S_true = ora.kernel(_family(ref), ref["m"], grid, grid)
    S = D.T @ D / len(D)
    se = np.sqrt((np.outer(np.diag(S_true), np.diag(S_true)) + S_true ** 2) / len(D))
    iu = np.triu_indices(len(grid))
    z_max = float(np.max(np.abs(S - S_true)[iu] / se[iu]))
    z = ora.bonferroni_z(len(iu[0]))
    good = z_max <= z
    return Verdict(None, good, good, f"covariance max dev {z_max:.2f} se (limit {z:.2f})")


def _lambda_km(V: list[int], m: int) -> float:
    """Lebesgue lambda of the known-margins family of V."""
    return float(ora.lambda_lebesgue(ora.members({"kind": "km", "V": V}, m), m))


def _inverse_lambda(ref, out, ctx) -> Verdict:
    return _within(_rel(out, 1.0 / _lambda_km([], ref["m"])), ref.get("tol", TOL))


def _bahadur(ref, out, ctx) -> Verdict:
    m = ref["m"]
    want = deps.factor_integral(ref["dep"], m) ** 2 / _lambda_km(ref["V"], m)
    return _within(_rel(out, want), TOL)


def _pitman_bhat(ref, out, ctx) -> Verdict:
    m = ref["m"]
    return _within(_rel(out, 12.0 ** m * deps.factor_integral(ref["dep"], m) ** 2), TOL)


def _fisher_bump(ref, out, ctx) -> Verdict:
    return _within(_rel(out, 3.0 ** -ref["m"]), ref.get("tol", TOL))


def _gap(ref, out, ctx) -> Verdict:
    want = 1.0 / _lambda_km([], ref["m"])
    err = max(_rel(out["index"], want), _rel(out["fisher"], want))
    good = err <= ref["tol"] and abs(out["gap"]) <= ref["tol"] * out["fisher"]
    return Verdict(err, good, good)


CHECKS = {
    "green-eval": _green_eval, "coeffs": _coeffs, "family-enum": _family_enum,
    "family": _family_one, "lambda": _lambda, "solve": _solve, "efficiency": _efficiency,
    "eigen": _eigen, "trace": _trace, "stat": _stat, "nulldist": _nulldist, "cov": _cov,
    "field": _field, "inverse-lambda": _inverse_lambda, "bahadur": _bahadur,
    "pitman-bhat": _pitman_bhat, "fisher-bump": _fisher_bump, "gap": _gap,
}


def check(job: dict, output, ctx: dict) -> Verdict:
    try:
        return CHECKS[job["ref"]["type"]](job["ref"], output, ctx)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Verdict(None, False, False, f"malformed output: {exc!r}")

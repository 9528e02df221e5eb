"""Acceptance suite.

Each test prints exactly one PASS/FAIL line (written straight to the
terminal, bypassing capture) and then asserts, so a plain `pytest` run
shows the scoreboard.  Tolerances are pinned in the assertions below.
"""

import sys
import time

import numpy as np
import pytest

from cubegreen.extremal import (
    DependenceFunction,
    efficiency_coefficient,
    bahadur_slope_B1,
    footrule_optimal_direction,
    gini_optimal_direction,
    optimality_gap,
    pitman_slope_spearman,
    principal_eigenvalue,
    solve,
    spearman_optimal_direction,
)
from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    family_for_known_margins,
    full_mask,
    upward_closure,
)
from cubegreen.kernel import compute_coefficients, green_kernel
from cubegreen.measures import (
    anti_diagonal,
    diagonal,
    lambda_value,
    lebesgue,
    weighted_sum,
)
from cubegreen.montecarlo import (
    SimConfig,
    null_distribution,
    simulate_null_covariance,
    simulate_tied_down_covariance,
)
from cubegreen.rankstats import (
    footrule,
    gini_coefficient,
    ranks,
    spearman_rho,
    stat_B,
    stat_Bhat,
)

SEED = 20260826


@pytest.fixture
def report(capfd):
    """Write the scoreboard line to the real terminal, outside capture."""

    def _report(num: int, title: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num:2d} [{title}]: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    return _report


def test_01_coefficient_exactness(report):
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 7):
        M = full_mask(m)
        # tensor sheet minus product: single coefficient 1 on M
        ok &= compute_coefficients(upward_closure([M], m)) == {M: 1}
        # all nonempty subsets: alternating signs
        pillow = compute_coefficients(all_nonempty_family(m))
        ok &= all(a == (-1) ** (bin(U).count("1") + 1) for U, a in pillow.items())
        # family generated by the codimension-one sets
        marg = compute_coefficients(family_for_known_margins(0, m))
        ok &= marg[M] == 1 - m
        ok &= all(marg[M ^ (1 << j)] == 1 for j in range(m))
        # recurrence holds exactly for every known-margins family
        for V in range(M + 1):
            coeffs = compute_coefficients(family_for_known_margins(V, m))
            for U in coeffs:
                inner = sum(a for W, a in coeffs.items() if W != U and W & ~U == 0)
                ok &= coeffs[U] + inner == 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "coefficient exactness", ok, f"m=2..6 exact, {elapsed:.2f}s")
    assert ok


def test_02_lambda_closed_forms(report):
    t0 = time.perf_counter()
    worst_closed = worst_quad = 0.0
    for m in range(2, 7):
        targets = [
            (family_for_known_margins(0, m), ((4 / 3) ** m - m / 3 - 1) / 4**m),
            (all_nonempty_family(m), 12.0**-m),
        ]
        for fam, target in targets:
            k = green_kernel(fam)
            c = lambda_value(k, lebesgue(m), method="closed")
            q = lambda_value(k, lebesgue(m), method="quadrature")
            worst_closed = max(worst_closed, abs(c - target) / target)
            worst_quad = max(worst_quad, abs(q - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-10 and elapsed < 5.0
    report(2, "lambda closed forms", ok,
            f"closed dev {worst_closed:.1e}, quadrature dev {worst_quad:.1e}, "
            f"{elapsed:.2f}s")
    assert ok


def test_03_diagonal_indices(report):
    t0 = time.perf_counter()
    fam = family_for_known_margins(0, 2)
    ninety = efficiency_coefficient(fam, diagonal(2))
    both = weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
    twenty_four = efficiency_coefficient(fam, both)
    elapsed = time.perf_counter() - t0
    ok = (abs(ninety - 90.0) <= 1e-8 and abs(twenty_four - 24.0) <= 1e-6
          and elapsed < 5.0)
    report(3, "diagonal efficiency indices", ok,
            f"got {ninety:.10f} and {twenty_four:.8f}, {elapsed:.2f}s")
    assert ok


def test_04_optimal_dependence_functions(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = []
    for m in (2, 3, 4):
        def poly(x, m=m):
            x = np.asarray(x, dtype=float)
            return float(np.prod(x) * (np.prod(2.0 - x) + np.sum(x) - (m + 1)))
        cases.append((family_for_known_margins(0, m), lebesgue(m), poly, m))
    cases.append((family_for_known_margins(0, 2), diagonal(2),
                  footrule_optimal_direction().fn, 2))
    gini_mu = weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
    cases.append((family_for_known_margins(0, 2), gini_mu,
                  gini_optimal_direction().fn, 2))
    for fam, mu, closed, m in cases:
        sol = solve(fam, mu)
        ref = np.full(m, 0.5)
        ratio = sol.omega(ref) / closed(ref)
        for _ in range(100):
            x = rng.uniform(0.05, 0.95, m)
            a, b = sol.omega(x), ratio * closed(x)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(4, "optimal dependence functions", ok,
            f"max rel dev {worst:.1e} over 100 pts x 5 cases, {elapsed:.2f}s")
    assert ok


def test_05_optimality_gap_at_solution(report):
    t0 = time.perf_counter()
    fam = family_for_known_margins(0, 2)
    dep = spearman_optimal_direction(2, normalize=True)
    closed = optimality_gap(fam, lebesgue(2), dep)
    fd = optimality_gap(fam, lebesgue(2), DependenceFunction(fn=dep.fn))
    elapsed = time.perf_counter() - t0
    ok = (abs(closed.gap) <= 1e-4 * closed.fisher
          and abs(fd.gap) <= 1e-2 * fd.fisher and elapsed < 30.0)
    report(5, "efficiency bound attained", ok,
            f"closed gap {closed.gap / closed.fisher:.1e}, "
            f"derived-density gap {fd.gap / fd.fisher:.1e}, {elapsed:.2f}s")
    assert ok


def test_06_slope_equivalence(report):
    t0 = time.perf_counter()

    def product_dep(parts):
        return DependenceFunction(
            fn=lambda x: float(np.prod([g(t) for g, t in zip(parts, x)])))

    worst = 0.0
    for m in range(2, 7):
        bump = lambda t: t * (1.0 - t)
        skew = lambda t: t * t * (1.0 - t)
        wave = lambda t: np.sin(np.pi * t)
        f0 = product_dep([bump] * m).fn
        f1 = product_dep([wave] * m).fn
        fixtures = [
            product_dep([bump] * m),
            product_dep([wave] * m),
            product_dep([skew] + [bump] * (m - 1)),
            spearman_optimal_direction(m),
            DependenceFunction(fn=lambda x: 0.3 * f0(x) + 0.7 * f1(x)),
        ]
        nodes = {2: 24, 3: 12, 4: 8, 5: 6, 6: 4}[m]
        for dep in fixtures:
            b = bahadur_slope_B1(0, m, dep, nodes=nodes)
            p = pitman_slope_spearman(m, dep, nodes=nodes).slope_sq
            worst = max(worst, abs(b - p) / max(abs(b), abs(p), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(6, "Bahadur/Pitman slope equivalence", ok,
            f"max rel dev {worst:.1e} over m=2..6 x 5 fixtures, {elapsed:.2f}s")
    assert ok


def test_07_covariance_at_desk_scale(report):
    t0 = time.perf_counter()
    # the interior lattices (0.2, 0.4, 0.6, 0.8)^2 and (0.25, 0.5, 0.75)^3
    devs = {}
    for label, V in (("W V=M", 0b11), ("W V=empty", 0)):
        cfg = SimConfig(seed=SEED, n=400, replications=5000, m=2)
        devs[label] = simulate_null_covariance(cfg, V, 4).max_dev_in_se
    cfg = SimConfig(seed=SEED, n=400, replications=5000, m=2)
    devs["tied m=2"] = simulate_tied_down_covariance(cfg, 4).max_dev_in_se
    cfg = SimConfig(seed=SEED, n=400, replications=5000, m=3)
    devs["tied m=3"] = simulate_tied_down_covariance(cfg, 3).max_dev_in_se
    elapsed = time.perf_counter() - t0
    ok = max(devs.values()) <= 4.0 and elapsed < 480.0
    detail = ", ".join(f"{k} {v:.2f}se" for k, v in devs.items())
    report(7, "limiting covariance on grids", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


def test_08_pillow_variance(report):
    t0 = time.perf_counter()
    devs = {}
    for m in (2, 3):
        cfg = SimConfig(seed=7, n=100, replications=20000, m=m)
        nd = null_distribution(cfg, "Bhat", scale_sqrt_n=True)
        devs[m] = abs(nd.variance - 12.0**-m) / nd.variance_se
    elapsed = time.perf_counter() - t0
    ok = max(devs.values()) <= 4.0 and elapsed < 240.0
    report(8, "scaled tied-down statistic variance", ok,
            f"dev m=2 {devs[2]:.2f}se, m=3 {devs[3]:.2f}se, {elapsed:.1f}s")
    assert ok


def _principal_1d(bridge: bool, n: int = 400) -> float:
    """Independent oracle: dense eigensolve of the 1-D kernel; the 2-D
    principal eigenvalue is its square by the tensor structure."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    K = np.minimum.outer(x, x)
    if bridge:
        K = K - np.outer(x, x)
    s = np.sqrt(w)
    return float(np.linalg.eigvalsh(K * np.outer(s, s)).max())


def test_09_principal_eigenvalues(report):
    t0 = time.perf_counter()
    pillow = principal_eigenvalue(green_kernel(all_nonempty_family(2)), 48).value
    sheet = principal_eigenvalue(green_kernel(empty_family(2)), 48).value
    oracle_pillow = _principal_1d(bridge=True) ** 2
    oracle_sheet = _principal_1d(bridge=False) ** 2
    rels = (
        abs(pillow - np.pi**-4) * np.pi**4,
        abs(sheet - 16.0 / np.pi**4) * np.pi**4 / 16.0,
        abs(pillow - oracle_pillow) / oracle_pillow,
        abs(sheet - oracle_sheet) / oracle_sheet,
    )
    elapsed = time.perf_counter() - t0
    ok = max(rels) <= 0.01 and elapsed < 30.0
    report(9, "principal eigenvalues", ok,
            f"rel devs vs pi^4 forms and 1-D oracle {max(rels):.1e}, {elapsed:.1f}s")
    assert ok


def _brute_B1_m2(X: np.ndarray, V: int) -> float:
    """Cell-decomposition oracle for the first-power statistic, m = 2."""
    n = len(X)
    axes = []
    for j in range(2):
        if V >> j & 1:
            edges = np.concatenate([[0.0], np.sort(X[:, j]), [1.0]])
            axes.append([("cell", a, b) for a, b in zip(edges[:-1], edges[1:])])
        else:
            axes.append([("atom", y, None) for y in np.sort(X[:, j])])
    total = 0.0
    for k0, a0, b0 in axes[0]:
        for k1, a1, b1 in axes[1]:
            probe = np.array([0.5 * (a0 + b0) if k0 == "cell" else a0,
                              0.5 * (a1 + b1) if k1 == "cell" else a1])
            Fn = np.mean(np.all(X <= probe, axis=1))
            weight, ref = 1.0, 1.0
            for kind, a, b, j in ((k0, a0, b0, 0), (k1, a1, b1, 1)):
                if kind == "cell":
                    weight *= b - a
                    ref *= (a + b) / 2.0
                else:
                    weight *= 1.0 / n
                    ref *= np.mean(X[:, j] <= a)
            total += weight * (Fn - ref)
    return total


def test_10_exact_statistic_oracles(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            X = rng.random((n, 2))
            for V in (0b11, 0b00):
                worst = max(worst, abs(stat_B(X, V) - _brute_B1_m2(X, V)))
            closed = float(np.prod(0.5 - X, axis=1).mean())
            worst = max(worst, abs(stat_Bhat(X) - closed))
    up3 = np.column_stack([np.arange(3.0), np.arange(3.0)])
    down3 = np.column_stack([np.arange(3.0), 2.0 - np.arange(3.0)])
    up4 = np.column_stack([np.arange(4.0), np.arange(4.0)])
    down4 = np.column_stack([np.arange(4.0), 3.0 - np.arange(4.0)])
    hand_ok = (
        footrule(up3) == 0 and footrule(down3) == 4
        and spearman_rho(up3) == pytest.approx(1.0)
        and spearman_rho(down3) == pytest.approx(-1.0)
        and gini_coefficient(up4) == pytest.approx(1.0)
        and gini_coefficient(down4) == pytest.approx(-1.0)
        and ranks(np.array([[0.3, 10.0], [0.1, 30.0], [0.2, 20.0]])).tolist()
        == [[3, 1], [1, 3], [2, 2]]
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and hand_ok
    report(10, "exact statistic oracles", ok,
            f"max dev vs cell oracle {worst:.1e}, hand examples "
            f"{'ok' if hand_ok else 'FAILED'}, {elapsed:.2f}s")
    assert ok


def test_11_thread_determinism(report):
    t0 = time.perf_counter()
    ok = True
    covs = [simulate_null_covariance(SimConfig(
        seed=SEED, n=100, replications=400, m=2, threads=t), 0, 2)
        for t in (1, 4, 8)]
    ok &= all(np.array_equal(covs[0].empirical, c.empirical) for c in covs[1:])
    tieds = [simulate_tied_down_covariance(SimConfig(
        seed=SEED, n=100, replications=400, m=2, threads=t), 2)
        for t in (1, 4, 8)]
    ok &= all(np.array_equal(tieds[0].empirical, c.empirical) for c in tieds[1:])
    dists = [null_distribution(SimConfig(
        seed=SEED, n=50, replications=400, m=2, threads=t), "rho")
        for t in (1, 4, 8)]
    ok &= all(dists[0].mean == d.mean and dists[0].variance == d.variance
              and dists[0].quantiles == d.quantiles for d in dists[1:])
    elapsed = time.perf_counter() - t0
    report(11, "thread determinism", ok,
            f"1/4/8 workers bit-identical across all simulators, {elapsed:.1f}s")
    assert ok

"""The benchmark's own dependence functions for the API slope jobs.

Each callable counts its scalar evaluations in `counter[0]` when a
counter is given (traced passes only), for `extremal.depfn.calls`.
"""

from __future__ import annotations

import numpy as np

from oracle import lambda_lebesgue, members


def _counted(fn, counter):
    if counter is None:
        return fn

    def wrapped(x):
        counter[0] += 1
        return fn(x)

    return wrapped


def _product(factors, derivs):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return float(np.prod([g(t) for g, t in zip(factors, x)]))

    def density(x):
        x = np.asarray(x, dtype=float)
        return float(np.prod([d(t) for d, t in zip(derivs, x)]))

    return fn, density


def _bump(m: int):
    return _product([lambda t: t * (1.0 - t)] * m, [lambda t: 1.0 - 2.0 * t] * m)


def _skew(m: int):
    return _product([lambda t: t * t * (1.0 - t)] + [lambda t: t * (1.0 - t)] * (m - 1),
                    [lambda t: 2.0 * t - 3.0 * t * t] + [lambda t: 1.0 - 2.0 * t] * (m - 1))


def _spearman(m: int):
    """C prod x (prod (2 - x) + sum x - (m + 1)), scaled to unit integral."""
    lam = lambda_lebesgue(members({"kind": "km", "V": []}, m), m)
    C = 1.0 / (2.0 ** m * float(lam))

    def fn(x):
        x = np.asarray(x, dtype=float)
        return C * float(np.prod(x) * (np.prod(2.0 - x) + np.sum(x) - (m + 1)))

    def density(x):
        x = np.asarray(x, dtype=float)
        return C * float(np.prod(2.0 - 2.0 * x) + 2.0 * np.sum(x) - (m + 1))

    return fn, density


_FIXTURES = {"bump": _bump, "skew": _skew, "spearman": _spearman}

# integrals of a product fixture's first and other 1-D factors
_FACTOR_INTEGRALS = {"bump": (1 / 6, 1 / 6), "skew": (1 / 12, 1 / 6)}


def make(name: str, m: int, counter=None):
    """DependenceFunction for a fixture name; a "-fd" suffix drops the
    closed-form density so Fisher information uses finite differences."""
    from cubegreen.extremal import DependenceFunction
    base = name.removesuffix("-fd")
    fn, density = _FIXTURES[base](m)
    return DependenceFunction(fn=_counted(fn, counter),
                              density=None if name.endswith("-fd") else _counted(density, counter))


def factor_integral(name: str, m: int) -> float:
    """Exact cube integral of a product fixture."""
    first, rest = _FACTOR_INTEGRALS[name]
    return first * rest ** (m - 1)
